import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vict import canvas as cv
from vict import tensor as T


def const_image(value, c=32):
    return np.full((3, c, c), value, dtype=np.float32)


def random_image(rng, c=32):
    return rng.random((3, c, c)).astype(np.float32)


def test_assemble_inference_places_cells():
    a, b, c = const_image(0.1), const_image(0.2), const_image(0.3)
    grid = cv.assemble_inference(a, b, c)
    pixels = grid.pixels().data
    assert pixels.shape == (3, 64, 64)
    assert np.all(pixels[:, :32, :32] == np.float32(0.1))
    assert np.all(pixels[:, :32, 32:] == np.float32(0.2))
    assert np.all(pixels[:, 32:, :32] == np.float32(0.3))
    assert np.all(pixels[:, 32:, 32:] == np.float32(cv.EMPTY_FILL))
    assert grid.empty_position is cv.CellPosition.BOTTOM_RIGHT


def test_extract_round_trip_is_bit_exact():
    rng = np.random.default_rng(0)
    x, y, x_t = random_image(rng), random_image(rng), random_image(rng)
    grid = cv.assemble_inference(x, y, x_t)
    back = cv.extract_cell(grid.pixels(), cv.CellPosition.TOP_RIGHT).data
    assert back.tobytes() == y.tobytes()


def test_mask_spec_counts_patches():
    canvas = cv.assemble_inference(const_image(0.1), const_image(0.2), const_image(0.3))
    patch_mask = canvas.patch_mask(8)
    assert patch_mask.shape == (64,)
    assert patch_mask.sum() == 16
    # masked entries all sit in the bottom-right quadrant of the 8x8 patch grid
    grid = patch_mask.reshape(8, 8)
    assert np.all(grid[4:, 4:] == 1)
    assert grid[:4, :].sum() == 0 and grid[:, :4].sum() == 0


def test_assemble_flipped_round_trip_and_shared_cells():
    rng = np.random.default_rng(1)
    x, x_t, y_hat = random_image(rng), random_image(rng), random_image(rng)
    flipped = cv.assemble_flipped(x, x_t, y_hat)
    assert flipped.empty_position is cv.CellPosition.TOP_RIGHT
    back = cv.extract_cell(flipped.pixels(), cv.CellPosition.BOTTOM_RIGHT).data
    assert back.tobytes() == y_hat.tobytes()

    inference = cv.assemble_inference(x, rng.random((3, 32, 32)).astype(np.float32), x_t)
    for pos in (cv.CellPosition.TOP_LEFT, cv.CellPosition.BOTTOM_LEFT):
        a = cv.extract_cell(inference.pixels(), pos).data
        b = cv.extract_cell(flipped.pixels(), pos).data
        assert a.tobytes() == b.tobytes()


def test_flipped_and_inference_masks_are_disjoint():
    a, b, c = const_image(0.1), const_image(0.2), const_image(0.3)
    inference = cv.assemble_inference(a, b, c)
    flipped = cv.assemble_flipped(a, b, c)
    overlap = inference.patch_mask(8) * flipped.patch_mask(8)
    assert overlap.sum() == 0


def test_flipped_clamps_prediction():
    wild = T.Tensor(np.full((3, 32, 32), 2.5, dtype=np.float32))
    flipped = cv.assemble_flipped(const_image(0.1), const_image(0.2), wild)
    br = cv.extract_cell(flipped.pixels(), cv.CellPosition.BOTTOM_RIGHT).data
    assert np.all(br == 1.0)


def test_assemble_rejects_bad_inputs():
    with pytest.raises(ValueError, match="cell size"):
        cv.assemble_inference(const_image(0.1), const_image(0.2, c=16), const_image(0.3))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        cv.assemble_inference(const_image(1.5), const_image(0.2), const_image(0.3))
    with pytest.raises(ValueError, match="expected"):
        cv.extract_cell(T.Tensor(np.zeros((3, 32))), cv.CellPosition.TOP_LEFT)


def test_extract_is_pure():
    rng = np.random.default_rng(2)
    pixels = T.Tensor(rng.random((3, 64, 64)))
    first = cv.extract_cell(pixels, cv.CellPosition.BOTTOM_LEFT).data
    second = cv.extract_cell(pixels, cv.CellPosition.BOTTOM_LEFT).data
    assert first.tobytes() == second.tobytes()


def test_extract_checkerboard_constants():
    pixels = np.zeros((3, 64, 64))
    for value, (r, c) in zip((0.1, 0.2, 0.3, 0.4), ((0, 0), (0, 32), (32, 0), (32, 32))):
        pixels[:, r : r + 32, c : c + 32] = value
    grid = T.Tensor(pixels)
    for value, pos in zip(
        (0.1, 0.2, 0.3, 0.4),
        (cv.CellPosition.TOP_LEFT, cv.CellPosition.TOP_RIGHT, cv.CellPosition.BOTTOM_LEFT, cv.CellPosition.BOTTOM_RIGHT),
    ):
        assert np.all(cv.extract_cell(grid, pos).data == value)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_round_trip_property(seed):
    rng = np.random.default_rng(seed)
    cells = [random_image(rng, c=16) for _ in range(3)]
    grid = cv.assemble_inference(*cells)
    for img, pos in zip(cells, (cv.CellPosition.TOP_LEFT, cv.CellPosition.TOP_RIGHT, cv.CellPosition.BOTTOM_LEFT)):
        assert cv.extract_cell(grid.pixels(), pos).data.tobytes() == img.tobytes()


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    image = (rng.integers(0, 256, size=(3, 20, 28)) / 255.0).astype(np.float32)
    path = tmp_path / "dump.ppm"
    cv.write_ppm(path, image)
    back = cv.read_ppm(path)
    assert back.shape == (3, 20, 28)
    assert np.allclose(back, image, atol=1e-6)
    raw = path.read_bytes()
    assert raw.startswith(b"P6\n28 20\n255\n")
