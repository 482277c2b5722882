import copy
import hashlib

import numpy as np
import pytest
import scipy.fft
from scipy import ndimage
from scipy.ndimage import gaussian_filter

from vict import corruptions as cor
from vict import tasks
from vict.seeding import rng_for

KIND = cor.CorruptionKind


@pytest.fixture(scope="module")
def probe_set():
    """Fixed clean scenes, the set the severity-growth test measures on."""
    return [tasks.generate(tasks.TaskKind.SEGMENTATION, 1000 + i).input for i in range(16)]


def spec(kind, severity=3, seed=0):
    return cor.CorruptionSpec(kind, severity, seed)


def test_category_partition_is_3_4_3_5():
    sizes = {name: len(kinds) for name, kinds in cor.CATEGORIES.items()}
    assert sizes == {"noise": 3, "blur": 4, "weather": 3, "digital": 5}
    flattened = [k for kinds in cor.CATEGORIES.values() for k in kinds]
    assert sorted(flattened, key=lambda k: k.value) == sorted(cor.ALL_KINDS, key=lambda k: k.value)
    assert len(cor.ALL_KINDS) == 15


def test_apply_is_deterministic(probe_set):
    img = probe_set[0]
    for kind in cor.ALL_KINDS:
        a = cor.apply(img, spec(kind))
        b = cor.apply(img, spec(kind))
        assert a.tobytes() == b.tobytes(), kind
        c = cor.apply(img, spec(kind, seed=1))
        if kind not in (cor.CorruptionKind.BRIGHTNESS, cor.CorruptionKind.CONTRAST,
                        cor.CorruptionKind.JPEG_COMPRESSION, cor.CorruptionKind.PIXELATE,
                        cor.CorruptionKind.DEFOCUS_BLUR, cor.CorruptionKind.ZOOM_BLUR):
            assert a.tobytes() != c.tobytes(), f"{kind} ignored its seed"


def test_apply_outputs_in_range_and_shape(probe_set):
    img = probe_set[1]
    for kind in cor.ALL_KINDS:
        for severity in (1, 5):
            out = cor.apply(img, spec(kind, severity))
            assert out.shape == img.shape
            assert out.min() >= 0.0 and out.max() <= 1.0
            assert np.isfinite(out).all()


def _mean_mse(images, kind, severity):
    """Mean squared distortion of ``kind`` at ``severity`` over ``images``,
    image i corrupted with seed i."""
    errors = [cor.apply(img, spec(kind, severity, i)).astype(np.float64) - img for i, img in enumerate(images)]
    return np.mean([np.mean(e**2) for e in errors])


def test_severity_monotone_mse_on_probe_set(probe_set):
    by_kind = {kind: [_mean_mse(probe_set, kind, s) for s in cor.SEVERITIES] for kind in cor.ALL_KINDS}
    assert len(by_kind) == 15
    for kind, mses in by_kind.items():
        assert all(mses[i + 1] >= mses[i] for i in range(4)), f"{kind}: {mses}"
        assert mses[0] > 0.0, f"{kind} severity 1 is a no-op"


def test_severity_params_validation_and_purity():
    for kind in cor.ALL_KINDS:
        assert cor.severity_params(kind, 3) == cor.severity_params(kind, 3)
        rows = {cor.severity_params(kind, s) for s in range(1, 6)}
        assert len(rows) == 5, f"{kind} has duplicate severity rows"
    with pytest.raises(ValueError, match="severity"):
        cor.severity_params(cor.CorruptionKind.FOG, 6)
    with pytest.raises(ValueError, match="kind"):
        cor.severity_params("fog", 3)


def test_severity_table_is_complete_and_pinned():
    assert tuple(cor._KINDS) == cor.ALL_KINDS
    for kind, entry in cor._KINDS.items():
        assert len(entry.severities) == len(cor.SEVERITIES) == 5, kind
        for row in entry.severities:
            assert type(row) is tuple and row and all(type(v) is float for v in row), (kind, row)
    # pins every value's bits to those the rows had when a cfg file held them
    digest = hashlib.sha256()
    for kind in cor.ALL_KINDS:
        for s in cor.SEVERITIES:
            digest.update(repr(cor.severity_params(kind, s)).encode())
    assert digest.hexdigest() == "338c3845e7ebfc459d2f7bc8654a3c0cefc1b45bc5b958d5f8bdbe3604609bb7"


def test_spec_validation():
    with pytest.raises(ValueError, match="severity"):
        cor.CorruptionSpec(cor.CorruptionKind.FOG, 0, 0)
    with pytest.raises(ValueError, match="kind"):
        cor.CorruptionSpec("fog", 3, 0)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        cor.apply(np.full((3, 8, 8), 1.5), spec(cor.CorruptionKind.FOG))


def test_monotonicity_csv(run_demo, probe_set):
    """Demo 03 writes the severity-growth table as CSV: a header, then one
    row per kind and severity holding the mean MSE over the probe set."""
    lines = (run_demo("03_corruption_gallery.py") / "monotonicity.csv").read_text().splitlines()
    assert lines[0] == "kind,severity,mean_mse"
    assert len(lines) == 1 + 15 * 5
    expected = [(kind.value, s) for kind in cor.ALL_KINDS for s in cor.SEVERITIES]
    for line, (kind, severity) in zip(lines[1:], expected):
        name, sev, mse = line.split(",")
        assert (name, int(sev)) == (kind, severity)
        assert float(mse) == pytest.approx(_mean_mse(probe_set, KIND(kind), severity), rel=0, abs=1e-8), line


def test_apply_rejects_non_finite_input():
    for bad, message in ((np.nan, r"^apply: NaN pixel values$"), (np.inf, r"max inf\)$"), (-np.inf, r"min -inf,")):
        img = np.full((3, 32, 32), 0.5)
        img[1, 4, 7] = bad
        with pytest.raises(ValueError, match=message):
            cor.apply(img, spec(KIND.CONTRAST))


@pytest.mark.parametrize("kind", [KIND.GLASS_BLUR, KIND.FOG])
def test_apply_rejects_non_square_image(kind):
    with pytest.raises(ValueError, match=r"^apply: expected image of shape \[3, C, C\], got \(3, 32, 16\)$"):
        cor.apply(np.full((3, 32, 16), 0.5), spec(kind))


def test_apply_rejects_empty_image():
    with pytest.raises(ValueError, match=r"^apply: empty image of shape \(3, 0, 0\)$"):
        cor.apply(np.zeros((3, 0, 0)), spec(KIND.FOG))


# ---------------------------------------------------------------------------
# the array kernels against the scalar loops they replace
# ---------------------------------------------------------------------------

SEEDS = range(8)


def _glass_blur_swap_loop(img, rng, params):
    shift, iters, sigma = int(params[0]), int(params[1]), params[2]
    out = gaussian_filter(img, sigma=(0, sigma, sigma), mode="reflect")
    c = out.shape[1]
    for _ in range(iters):
        dy = rng.integers(-shift, shift + 1, size=(c, c))
        dx = rng.integers(-shift, shift + 1, size=(c, c))
        for i in range(c):
            for j in range(c):
                ii = min(max(i + dy[i, j], 0), c - 1)
                jj = min(max(j + dx[i, j], 0), c - 1)
                tmp = out[:, i, j].copy()
                out[:, i, j] = out[:, ii, jj]
                out[:, ii, jj] = tmp
    return gaussian_filter(out, sigma=(0, sigma, sigma), mode="reflect")


def _plasma_diamond_square_loop(n, rng, roughness):
    k = 1
    while (1 << k) + 1 < n:
        k += 1
    size = (1 << k) + 1
    field = np.zeros((size, size))
    corners = rng.random((2, 2))
    field[0, 0], field[0, -1], field[-1, 0], field[-1, -1] = corners.ravel()
    step = size - 1
    amplitude = 1.0
    while step > 1:
        half = step // 2
        for i in range(half, size, step):
            for j in range(half, size, step):
                avg = (
                    field[i - half, j - half]
                    + field[i - half, j + half]
                    + field[i + half, j - half]
                    + field[i + half, j + half]
                ) / 4.0
                field[i, j] = avg + amplitude * (rng.random() - 0.5)
        for i in range(0, size, half):
            start = half if (i // half) % 2 == 0 else 0
            for j in range(start, size, step):
                total, count = 0.0, 0
                for di, dj in ((-half, 0), (half, 0), (0, -half), (0, half)):
                    ii, jj = i + di, j + dj
                    if 0 <= ii < size and 0 <= jj < size:
                        total += field[ii, jj]
                        count += 1
                field[i, j] = total / count + amplitude * (rng.random() - 0.5)
        step = half
        amplitude *= roughness
    crop = field[:n, :n]
    lo, hi = crop.min(), crop.max()
    return (crop - lo) / max(hi - lo, 1e-9)


def _line_kernel_splat_loop(length, angle):
    size = int(np.ceil(length)) | 1
    kernel = np.zeros((size, size))
    center = size // 2
    steps = max(int(4 * length), 8)
    for s in np.linspace(-length / 2, length / 2, steps):
        px, py = center + s * np.cos(angle), center + s * np.sin(angle)
        i0, j0 = int(np.floor(py)), int(np.floor(px))
        fi, fj = py - i0, px - j0
        for di, dj, w in ((0, 0, (1 - fi) * (1 - fj)), (0, 1, (1 - fi) * fj), (1, 0, fi * (1 - fj)), (1, 1, fi * fj)):
            ii, jj = i0 + di, j0 + dj
            if 0 <= ii < size and 0 <= jj < size:
                kernel[ii, jj] += w
    return kernel / kernel.sum()


def test_glass_blur_matches_swap_loop(probe_set):
    for severity in range(1, 6):
        for seed in SEEDS:
            img = probe_set[seed].astype(np.float64)
            params = cor.severity_params(KIND.GLASS_BLUR, severity)
            fast = cor._glass_blur(img, rng_for("corrupt", "glass_blur", severity, seed), params)
            slow = _glass_blur_swap_loop(img, rng_for("corrupt", "glass_blur", severity, seed), params)
            assert fast.tobytes() == slow.tobytes(), (severity, seed)


def test_plasma_matches_diamond_square_loop(monkeypatch, probe_set):
    """Every field fog and frost draw, compared in float64 before it is
    blended, clipped and rounded to float32."""
    kernel, roughnesses = cor._plasma, set()

    def both(n, rng, roughness):
        twin = copy.deepcopy(rng)
        field = kernel(n, rng, roughness)
        assert field.tobytes() == _plasma_diamond_square_loop(n, twin, roughness).tobytes()
        roughnesses.add(roughness)
        return field

    monkeypatch.setattr(cor, "_plasma", both)
    for kind in (KIND.FOG, KIND.FROST):
        for severity in range(1, 6):
            for seed in SEEDS:
                cor.apply(probe_set[seed], spec(kind, severity, seed))
    assert roughnesses == {0.6, 0.85}


def test_plasma_matches_loop_at_other_field_sizes():
    for n in (2, 5, 17, 33, 64):
        for roughness in (0.6, 0.85):
            fast = cor._plasma(n, np.random.default_rng(n), roughness)
            slow = _plasma_diamond_square_loop(n, np.random.default_rng(n), roughness)
            assert fast.tobytes() == slow.tobytes(), (n, roughness)


def test_line_kernel_matches_splat_loop():
    lengths = {cor.severity_params(KIND.MOTION_BLUR, s)[0] for s in range(1, 6)}
    lengths |= {cor.severity_params(KIND.SNOW, s)[1] for s in range(1, 6)}
    lengths.add(max(5, tasks.DEFAULT_CELL_SIZE // 5))  # derain streaks
    angles = [0.0, np.pi / 4, np.pi / 2, *np.random.default_rng(3).uniform(0.0, np.pi, 12)]
    for length in sorted(lengths):
        for angle in angles:
            fast = cor.line_kernel(length, angle)
            assert fast.tobytes() == _line_kernel_splat_loop(length, angle).tobytes(), (length, angle)


# ---------------------------------------------------------------------------
# the numpy image kernels against the scipy functions they replace
# ---------------------------------------------------------------------------


def _table_values(kind, index):
    return sorted({cor.severity_params(kind, s)[index] for s in cor.SEVERITIES})


@pytest.mark.parametrize("c", [8, 16, 32])
def test_convolve_matches_ndimage(c):
    rng = np.random.default_rng(c)
    image = rng.uniform(0.0, 1.0, (3, c, c))
    points = (rng.random((c, c)) < 0.1).astype(np.float64)
    angles = [0.0, np.pi / 4, np.pi / 2, *rng.uniform(0.0, np.pi, 4)]
    reflect = [cor._disk_kernel(r) for r in _table_values(KIND.DEFOCUS_BLUR, 0)]
    reflect += [cor.line_kernel(n, a) for n in _table_values(KIND.MOTION_BLUR, 0) for a in angles]
    constant = [cor.line_kernel(n, a) for n in _table_values(KIND.SNOW, 1) for a in angles]
    constant += [cor.line_kernel(max(5, c // 5), a) for a in angles]  # derain streaks
    assert max(k.shape[0] for k in reflect) > 8  # wider than the smallest image
    for kernel in reflect:
        expected = np.stack([ndimage.convolve(image[i], kernel, mode="reflect") for i in range(3)])
        assert cor.convolve(image, kernel, "reflect").tobytes() == expected.tobytes(), kernel.shape
    for kernel in constant:
        expected = ndimage.convolve(points, kernel, mode="constant", cval=0.0)
        assert cor.convolve(points, kernel, "constant").tobytes() == expected.tobytes(), kernel.shape


@pytest.mark.parametrize("c", [8, 16, 32])
def test_gaussian_blur_matches_ndimage(c):
    rng = np.random.default_rng(c)
    image = rng.uniform(-1.0, 1.0, (3, c, c))
    sigmas = _table_values(KIND.GLASS_BLUR, 2) + _table_values(KIND.ELASTIC_TRANSFORM, 1)
    for sigma in sigmas + [3.0]:  # 3.0: a radius (12) wider than the smallest image
        expected = ndimage.gaussian_filter(image, sigma=(0, sigma, sigma), mode="reflect")
        assert cor._gaussian_blur(image, sigma).tobytes() == expected.tobytes(), sigma
        expected = ndimage.gaussian_filter(image[0], sigma, mode="reflect")
        assert cor._gaussian_blur(image[0], sigma).tobytes() == expected.tobytes(), sigma


def test_dct_matches_scipy_fft():
    rng = np.random.default_rng(0)
    blocks = rng.uniform(-300.0, 300.0, (8, 8, 3, 20, 20))
    blocks[..., 0, 0] = np.round(blocks[..., 0, 0])  # quantized blocks, as jpeg transforms them back
    assert cor._dctn(blocks).tobytes() == scipy.fft.dctn(blocks, axes=(0, 1), norm="ortho").tobytes()
    assert cor._idctn(blocks).tobytes() == scipy.fft.idctn(blocks, axes=(0, 1), norm="ortho").tobytes()
