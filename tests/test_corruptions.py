import numpy as np
import pytest

from vict import corruptions as cor
from vict import tasks


@pytest.fixture(scope="module")
def probe_set():
    return tasks.probe_images(16)


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


def test_severity_monotone_mse_on_probe_set(probe_set):
    rows = cor.monotonicity_report(probe_set, seed=0)
    by_kind = {}
    for kind, severity, mse in rows:
        by_kind.setdefault(kind, []).append((severity, mse))
    assert len(by_kind) == 15
    for kind, entries in by_kind.items():
        entries.sort()
        mses = [m for _, m in entries]
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


def test_spec_validation():
    with pytest.raises(ValueError, match="severity"):
        cor.CorruptionSpec(cor.CorruptionKind.FOG, 0, 0)
    with pytest.raises(ValueError, match="kind"):
        cor.CorruptionSpec("fog", 3, 0)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        cor.apply(np.full((3, 8, 8), 1.5), spec(cor.CorruptionKind.FOG))


def test_monotonicity_csv(tmp_path, probe_set):
    rows = cor.monotonicity_report(probe_set[:2], seed=0)
    path = tmp_path / "mono.csv"
    cor.write_monotonicity_csv(path, rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "kind,severity,mean_mse"
    assert len(lines) == 1 + 15 * 5
