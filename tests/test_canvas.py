import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vict import canvas as cv


# (row, column) of each cell in the 2x2 grid
GRID = {
    cv.CellPosition.TOP_LEFT: (0, 0),
    cv.CellPosition.TOP_RIGHT: (0, 1),
    cv.CellPosition.BOTTOM_LEFT: (1, 0),
    cv.CellPosition.BOTTOM_RIGHT: (1, 1),
}


def const_image(value, c=32):
    return np.full((3, c, c), value, dtype=np.float32)


def random_image(rng, c=32):
    return rng.random((3, c, c)).astype(np.float32)


def cell_of(canvas, position, patch_size=8):
    """The image ``canvas.patches`` holds in ``position``."""
    rows = canvas.patches(patch_size)[cv.cell_rows(position, canvas.cell_size // patch_size)]
    return cv.extract_cell(rows)


def test_assemble_inference_places_cells():
    a, b, c = const_image(0.1), const_image(0.2), const_image(0.3)
    grid = cv.assemble_inference(a, b, c)
    patches = grid.patches(8)
    assert isinstance(patches, np.ndarray) and patches.shape == (64, 192) and patches.dtype == np.float32
    by_cell = patches.reshape(2, 4, 2, 4, 192)  # cell row, patch row, cell column, patch column
    assert np.all(by_cell[0, :, 0] == np.float32(0.1))
    assert np.all(by_cell[0, :, 1] == np.float32(0.2))
    assert np.all(by_cell[1, :, 0] == np.float32(0.3))
    assert np.all(by_cell[1, :, 1] == np.float32(cv.EMPTY_FILL))
    assert grid.empty_position is cv.CellPosition.BOTTOM_RIGHT


def test_extract_round_trip_is_bit_exact():
    rng = np.random.default_rng(0)
    x, y, x_t = random_image(rng), random_image(rng), random_image(rng)
    grid = cv.assemble_inference(x, y, x_t)
    back = cell_of(grid, cv.CellPosition.TOP_RIGHT)
    assert back.tobytes() == y.tobytes()


def test_mask_spec_counts_patches():
    canvas = cv.assemble_inference(const_image(0.1), const_image(0.2), const_image(0.3))
    rows = canvas.empty_rows(8)
    # the bottom-right quadrant of the 8x8 patch grid, row-major
    assert rows.tolist() == [r * 8 + c for r in range(4, 8) for c in range(4, 8)]
    with pytest.raises(ValueError, match="cell size 32 not a multiple of patch size 5"):
        canvas.empty_rows(5)


def test_assemble_flipped_round_trip_and_shared_cells():
    rng = np.random.default_rng(1)
    x, x_t, y_hat = random_image(rng), random_image(rng), random_image(rng)
    flipped = cv.assemble_flipped(x, x_t, y_hat)
    assert flipped.empty_position is cv.CellPosition.TOP_RIGHT
    back = cell_of(flipped, cv.CellPosition.BOTTOM_RIGHT)
    assert back.tobytes() == y_hat.tobytes()

    inference = cv.assemble_inference(x, rng.random((3, 32, 32)).astype(np.float32), x_t)
    for pos in (cv.CellPosition.TOP_LEFT, cv.CellPosition.BOTTOM_LEFT):
        assert cell_of(inference, pos).tobytes() == cell_of(flipped, pos).tobytes()


def test_flipped_and_inference_masks_are_disjoint():
    a, b, c = const_image(0.1), const_image(0.2), const_image(0.3)
    inference = cv.assemble_inference(a, b, c)
    flipped = cv.assemble_flipped(a, b, c)
    assert np.intersect1d(inference.empty_rows(8), flipped.empty_rows(8)).size == 0


def test_flipped_rejects_out_of_range_prediction():
    wild = np.full((3, 32, 32), 2.5, dtype=np.float32)
    with pytest.raises(ValueError, match=r"assemble_flipped\(y_t_hat\): pixel values outside \[0, 1\]"):
        cv.assemble_flipped(const_image(0.1), const_image(0.2), wild)


def test_assemble_rejects_bad_inputs():
    with pytest.raises(ValueError, match="cell size"):
        cv.assemble_inference(const_image(0.1), const_image(0.2, c=16), const_image(0.3))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        cv.assemble_inference(const_image(1.5), const_image(0.2), const_image(0.3))
    with pytest.raises(ValueError, match="expected"):
        cv.extract_cell(np.zeros((3, 32)))


def test_assemble_rejects_nan_cell():
    nan_img = const_image(0.2)
    nan_img[2, 5, 9] = np.nan
    with pytest.raises(ValueError, match=r"assemble_inference\(y\): NaN pixel values"):
        cv.assemble_inference(const_image(0.1), nan_img, const_image(0.3))
    with pytest.raises(ValueError, match=r"assemble_flipped\(y_t_hat\): NaN pixel values"):
        cv.assemble_flipped(const_image(0.1), const_image(0.3), nan_img)


def test_assemble_rejects_empty_image():
    empty = np.zeros((3, 0, 0), dtype=np.float32)
    with pytest.raises(ValueError, match=r"^assemble_inference\(x\): empty image of shape \(3, 0, 0\)$"):
        cv.assemble_inference(empty, const_image(0.2), const_image(0.3))


def test_extract_is_pure():
    rng = np.random.default_rng(2)
    rows = rng.random((16, 192))
    kept = rows.copy()
    first = cv.extract_cell(rows)
    second = cv.extract_cell(rows)
    assert isinstance(first, np.ndarray) and first.shape == (3, 32, 32)
    assert first.tobytes() == second.tobytes()
    assert rows.tobytes() == kept.tobytes()
    assert cv.patchify(first, 8).tobytes() == rows.tobytes()


def test_extract_checkerboard_constants():
    cells = {pos: const_image(value) for value, pos in zip((0.1, 0.2, 0.3, 0.4), GRID)}
    canvas = cv.Canvas(cells=cells, cell_size=32, empty_position=cv.CellPosition.TOP_LEFT)
    for value, pos in zip((0.1, 0.2, 0.3, 0.4), GRID):
        assert np.all(cell_of(canvas, pos) == np.float32(value))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_round_trip_property(seed):
    rng = np.random.default_rng(seed)
    cells = [random_image(rng, c=16) for _ in range(3)]
    grid = cv.assemble_inference(*cells)
    for img, pos in zip(cells, (cv.CellPosition.TOP_LEFT, cv.CellPosition.TOP_RIGHT, cv.CellPosition.BOTTOM_LEFT)):
        assert cell_of(grid, pos, patch_size=4).tobytes() == img.tobytes()


@pytest.mark.parametrize("position", list(cv.CellPosition))
def test_patch_mask_covers_exactly_the_extracted_cell(position):
    c, p = 16, 4
    g = 2 * c // p
    # every pixel of the canvas image holds the row-major index of its patch
    patch_ids = np.kron(np.arange(g * g, dtype=np.float64).reshape(g, g), np.ones((p, p)))
    pixels = np.repeat(patch_ids[None], 3, axis=0)
    quadrants = {pos: pixels[:, r * c : (r + 1) * c, col * c : (col + 1) * c] for pos, (r, col) in GRID.items()}
    canvas = cv.Canvas(cells=quadrants, cell_size=c, empty_position=position)
    rows = canvas.empty_rows(p)
    patches = canvas.patches(p)
    assert np.array_equal(patches[rows], np.repeat(rows[:, None].astype(np.float64), 3 * p * p, axis=1))
    assert cv.extract_cell(patches[rows]).tobytes() == quadrants[position].tobytes()


def test_write_ppm_bytes(tmp_path):
    rng = np.random.default_rng(3)
    levels = rng.integers(0, 256, size=(3, 20, 28))
    path = tmp_path / "dump.ppm"
    cv.write_ppm(path, (levels / 255.0).astype(np.float32))
    header = b"P6\n28 20\n255\n"
    raw = path.read_bytes()
    assert raw[: len(header)] == header
    body = np.frombuffer(raw[len(header) :], dtype=np.uint8)
    assert np.array_equal(body, levels.transpose(1, 2, 0).reshape(-1))  # row-major, RGB interleaved
