import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vict import canvas as cv

CELLS = ("top_left", "top_right", "bottom_left", "bottom_right")  # cell index 0-3, row-major


def const_image(value, c=32):
    return np.full((3, c, c), value, dtype=np.float32)


def random_image(rng, c=32):
    return rng.random((3, c, c)).astype(np.float32)


def cell_of(patches, cell, half):
    """The image the canvas rows ``patches`` hold in cell ``cell``."""
    return cv.extract_cell(patches[cv.cell_rows(cell, half)])


def test_assemble_inference_places_cells():
    a, b, c = const_image(0.1), const_image(0.2), const_image(0.3)
    patches, empty = cv.assemble_inference(a, b, c, 8)
    assert isinstance(patches, np.ndarray) and patches.shape == (64, 192) and patches.dtype == np.float32
    by_cell = patches.reshape(2, 4, 2, 4, 192)  # cell row, patch row, cell column, patch column
    assert np.all(by_cell[0, :, 0] == np.float32(0.1))
    assert np.all(by_cell[0, :, 1] == np.float32(0.2))
    assert np.all(by_cell[1, :, 0] == np.float32(0.3))
    assert np.all(by_cell[1, :, 1] == np.float32(cv.EMPTY_FILL))
    assert empty.tolist() == cv.cell_rows(3, 4).tolist()  # bottom right


def test_extract_round_trip_is_bit_exact():
    rng = np.random.default_rng(0)
    x, y, x_t = random_image(rng), random_image(rng), random_image(rng)
    patches, _ = cv.assemble_inference(x, y, x_t, 8)
    back = cell_of(patches, 1, 4)
    assert back.tobytes() == y.tobytes()


def test_mask_spec_counts_patches():
    _, rows = cv.assemble_inference(const_image(0.1), const_image(0.2), const_image(0.3), 8)
    # the bottom-right quadrant of the 8x8 patch grid, row-major
    assert rows.tolist() == [r * 8 + c for r in range(4, 8) for c in range(4, 8)]
    with pytest.raises(ValueError, match=r"^assemble_inference: cell size 32 not a multiple of patch size 5$"):
        cv.assemble_inference(const_image(0.1), const_image(0.2), const_image(0.3), 5)
    with pytest.raises(ValueError, match=r"^assemble_flipped: cell size 32 not a multiple of patch size 5$"):
        cv.assemble_flipped(const_image(0.1), const_image(0.2), const_image(0.3), 5)


def test_assemble_flipped_round_trip_and_shared_cells():
    rng = np.random.default_rng(1)
    x, x_t, y_hat = random_image(rng), random_image(rng), random_image(rng)
    flipped, empty = cv.assemble_flipped(x, x_t, y_hat, 8)
    assert empty.tolist() == cv.cell_rows(1, 4).tolist()  # top right
    back = cell_of(flipped, 3, 4)
    assert back.tobytes() == y_hat.tobytes()

    inference, _ = cv.assemble_inference(x, rng.random((3, 32, 32)).astype(np.float32), x_t, 8)
    for cell in (0, 2):
        assert cell_of(inference, cell, 4).tobytes() == cell_of(flipped, cell, 4).tobytes()


def test_flipped_and_inference_masks_are_disjoint():
    a, b, c = const_image(0.1), const_image(0.2), const_image(0.3)
    _, inference = cv.assemble_inference(a, b, c, 8)
    _, flipped = cv.assemble_flipped(a, b, c, 8)
    assert np.intersect1d(inference, flipped).size == 0


def test_flipped_rejects_out_of_range_prediction():
    wild = np.full((3, 32, 32), 2.5, dtype=np.float32)
    with pytest.raises(ValueError, match=r"assemble_flipped\(y_t_hat\): pixel values outside \[0, 1\]"):
        cv.assemble_flipped(const_image(0.1), const_image(0.2), wild, 8)


def test_assemble_rejects_bad_inputs():
    with pytest.raises(ValueError, match="cell size"):
        cv.assemble_inference(const_image(0.1), const_image(0.2, c=16), const_image(0.3), 8)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        cv.assemble_inference(const_image(1.5), const_image(0.2), const_image(0.3), 8)
    with pytest.raises(ValueError, match="expected"):
        cv.extract_cell(np.zeros((3, 32)))


def test_assemble_rejects_nan_cell():
    nan_img = const_image(0.2)
    nan_img[2, 5, 9] = np.nan
    with pytest.raises(ValueError, match=r"assemble_inference\(y\): NaN pixel values"):
        cv.assemble_inference(const_image(0.1), nan_img, const_image(0.3), 8)
    with pytest.raises(ValueError, match=r"assemble_flipped\(y_t_hat\): NaN pixel values"):
        cv.assemble_flipped(const_image(0.1), const_image(0.3), nan_img, 8)


def test_assemble_rejects_empty_image():
    empty = np.zeros((3, 0, 0), dtype=np.float32)
    with pytest.raises(ValueError, match=r"^assemble_inference\(x\): empty image of shape \(3, 0, 0\)$"):
        cv.assemble_inference(empty, const_image(0.2), const_image(0.3), 8)


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
    values = (0.1, 0.2, 0.3, 0.4)
    for empty in range(4):
        cells = tuple(None if i == empty else (CELLS[i], const_image(value)) for i, value in enumerate(values))
        patches, _ = cv._assemble("test", cells, 8)
        for cell, value in enumerate(values):
            expected = np.float32(cv.EMPTY_FILL if cell == empty else value)
            assert np.all(cell_of(patches, cell, 4) == expected)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_round_trip_property(seed):
    rng = np.random.default_rng(seed)
    cells = [random_image(rng, c=16) for _ in range(3)]
    patches, _ = cv.assemble_inference(*cells, 4)
    for img, cell in zip(cells, (0, 1, 2)):
        assert cell_of(patches, cell, 4).tobytes() == img.tobytes()


@pytest.mark.parametrize("empty", range(4), ids=CELLS)
def test_patch_mask_covers_exactly_the_extracted_cell(empty):
    """The rows are ``patchify`` of the whole canvas image, built here with
    the empty cell at ``EMPTY_FILL``: the row order that ``pos_embed``'s
    grid is laid out in."""
    c, p = 16, 4
    g = 2 * c // p
    for dtype in (np.float32, np.float64):
        # every pixel of the canvas image holds the row-major index of its
        # patch, scaled into [0, 1) so that none is EMPTY_FILL
        scale = dtype(g * g + 1)
        patch_ids = np.kron(np.arange(g * g, dtype=dtype).reshape(g, g), np.ones((p, p), dtype=dtype)) / scale
        pixels = np.repeat(patch_ids[None], 3, axis=0)
        quadrants = [pixels[:, r * c : (r + 1) * c, col * c : (col + 1) * c] for r in (0, 1) for col in (0, 1)]
        cells = tuple(None if i == empty else (CELLS[i], quadrants[i]) for i in range(4))
        patches, rows = cv._assemble("test", cells, p)
        assert patches.dtype == dtype
        assert rows.tolist() == cv.cell_rows(empty, c // p).tolist()
        for cell in range(4):
            if cell != empty:
                ids = cv.cell_rows(cell, c // p)
                assert np.array_equal(patches[ids], np.repeat(ids[:, None].astype(dtype) / scale, 3 * p * p, axis=1))
                assert cv.extract_cell(patches[ids]).tobytes() == quadrants[cell].tobytes()
        canvas = pixels.copy()
        row, col = divmod(empty, 2)
        canvas[:, row * c : (row + 1) * c, col * c : (col + 1) * c] = cv.EMPTY_FILL
        assert patches.tobytes() == cv.patchify(canvas, p).tobytes()
        assert np.all(patches[rows] == dtype(cv.EMPTY_FILL))


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
