import hashlib

import numpy as np
import pytest

from vict import tasks


def test_generate_is_deterministic_per_seed():
    for task in tasks.ALL_TASKS:
        a = tasks.generate(task, 123)
        b = tasks.generate(task, 123)
        assert a.input.tobytes() == b.input.tobytes()
        assert a.target.tobytes() == b.target.tobytes()
        c = tasks.generate(task, 124)
        assert a.input.tobytes() != c.input.tobytes()


# sha256 over the input and target bytes of seeds 0-49 at the default cell
# size: a change to the scene renderer that moves any bit of a sample shows
SAMPLE_DIGESTS = {
    tasks.TaskKind.DENOISE: "09c3f8455a447c790202e378bb91bb43c833288a8f51b598824cd81f80dd69d5",
    tasks.TaskKind.DERAIN: "234a91a89fef661ffadbb20a27bd16e30599e5c578234839d34871a0c7296e3e",
    tasks.TaskKind.LOWLIGHT: "ebfbdb3e6e8450d44e47c6080cd6d36e3dd3cb38a9b7a4965c278e4c7f5e65bf",
    tasks.TaskKind.SEGMENTATION: "a57fb3fcf147dde7110045917c3d1d8030fde2443da8df5f3f51e06f9086bfd8",
    tasks.TaskKind.DEPTH: "2cd101b9e83b31457963b779f838dd1eab7e0028923965b12f40ef739f013576",
}


@pytest.mark.parametrize("task", tasks.ALL_TASKS, ids=lambda t: t.value)
def test_generate_keeps_its_recorded_samples(task):
    digest = hashlib.sha256()
    for seed in range(50):
        sample = tasks.generate(task, seed)
        digest.update(sample.input.tobytes())
        digest.update(sample.target.tobytes())
    assert digest.hexdigest() == SAMPLE_DIGESTS[task]


def test_generate_outputs_in_range():
    for task in tasks.ALL_TASKS:
        sample = tasks.generate(task, 5)
        for img in (sample.input, sample.target):
            assert img.shape == (3, 32, 32)
            assert img.min() >= 0.0 and img.max() <= 1.0


def test_segmentation_target_is_palette_exact():
    sample = tasks.generate(tasks.TaskKind.SEGMENTATION, 11)
    flat = sample.target.reshape(3, -1).T
    matches = (flat[:, None, :] == tasks.PALETTE[None, :, :]).all(axis=2)
    assert matches.any(axis=1).all()


def test_palette_pairwise_distances():
    diffs = tasks.PALETTE[:, None, :] - tasks.PALETTE[None, :, :]
    dist = np.sqrt((diffs**2).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    assert dist.min() >= 0.5


def test_denoise_inputs_are_measurably_degraded():
    values = [tasks.psnr(s.input, s.target).value for s in (tasks.generate(tasks.TaskKind.DENOISE, i) for i in range(100))]
    assert np.mean(values) < 30.0
    assert np.mean(values) > 10.0  # degraded, not destroyed


def test_depth_target_encodes_background():
    sample = tasks.generate(tasks.TaskKind.DEPTH, 3)
    assert np.isclose(sample.target.min(), tasks.BACKGROUND_DEPTH, atol=0.3) or sample.target.min() >= 0.0
    # all three channels agree (grayscale encoding)
    assert np.array_equal(sample.target[0], sample.target[1])
    assert np.array_equal(sample.target[1], sample.target[2])


# ---------------------------------------------------------------------------
# PSNR
# ---------------------------------------------------------------------------


def test_psnr_cap_on_identical_images():
    img = tasks.generate(tasks.TaskKind.DENOISE, 1).target
    assert tasks.psnr(img, img).value == tasks.PSNR_CAP_DB


def test_psnr_closed_form_values():
    base = np.zeros((3, 8, 8))
    assert tasks.psnr(base + 0.1, base).value == pytest.approx(20.0, abs=1e-6)
    assert tasks.psnr(base + 0.5, base).value == pytest.approx(6.0205999, abs=1e-4)


def test_psnr_shape_mismatch():
    with pytest.raises(ValueError, match="psnr"):
        tasks.psnr(np.zeros((3, 4, 4)), np.zeros((3, 5, 5)))


# ---------------------------------------------------------------------------
# mIoU
# ---------------------------------------------------------------------------


def test_miou_perfect_prediction():
    target = tasks.generate(tasks.TaskKind.SEGMENTATION, 2).target
    assert tasks.miou(target, target).value == 1.0


def test_miou_disjoint_prediction():
    c = 8
    target = np.zeros((3, c, c), dtype=np.float32)
    target[:] = tasks.PALETTE[0][:, None, None]  # all background
    pred = np.zeros((3, c, c), dtype=np.float32)
    pred[:] = tasks.PALETTE[2][:, None, None]  # all one absent class
    assert tasks.miou(pred, target).value == 0.0


def test_miou_half_plane_counting():
    c = 8
    target = np.zeros((3, c, c), dtype=np.float32)
    target[:, :, : c // 2] = tasks.PALETTE[1][:, None, None]
    target[:, :, c // 2 :] = tasks.PALETTE[2][:, None, None]
    pred = np.zeros((3, c, c), dtype=np.float32)
    pred[:] = tasks.PALETTE[1][:, None, None]
    # IoU(class 1) = 0.5, IoU(class 2) = 0 -> mIoU 0.25
    assert tasks.miou(pred, target).value == pytest.approx(0.25)


def test_segmentation_decode_encode_identity():
    classes = np.array([[0, 1], [2, 3]])
    image = tasks.PALETTE[classes].transpose(2, 0, 1)
    assert np.array_equal(tasks.decode_classes(image), classes)


# ---------------------------------------------------------------------------
# A.Rel
# ---------------------------------------------------------------------------


def test_a_rel_zero_for_perfect():
    target = tasks.generate(tasks.TaskKind.DEPTH, 4).target
    assert tasks.a_rel(target, target).value == 0.0


def test_a_rel_constant_offset():
    target = np.full((3, 8, 8), 0.5)
    pred = np.full((3, 8, 8), 0.6)
    assert tasks.a_rel(pred, target).value == pytest.approx(0.2, abs=1e-9)


def test_a_rel_mixed_halves():
    target = np.full((3, 4, 8), 0.5)
    target[:, :, 4:] = 0.2
    pred = target.copy()
    pred[:, :, 4:] = 0.3
    # half pixels error 0, half |0.1|/0.2 = 0.5 -> mean 0.25
    assert tasks.a_rel(pred, target).value == pytest.approx(0.25, abs=1e-9)


def test_a_rel_requires_valid_pixels():
    with pytest.raises(ValueError, match="depth floor"):
        tasks.a_rel(np.zeros((3, 4, 4)), np.zeros((3, 4, 4)))


# ---------------------------------------------------------------------------
# metric directionality
# ---------------------------------------------------------------------------


def test_perturbing_away_from_target_never_helps():
    sample = tasks.generate(tasks.TaskKind.DENOISE, 9)
    base = tasks.psnr(sample.target, sample.target).value
    worse = tasks.psnr(np.clip(sample.target + 0.05, 0, 1), sample.target).value
    even_worse = tasks.psnr(np.clip(sample.target + 0.15, 0, 1), sample.target).value
    assert base >= worse >= even_worse

    seg = tasks.generate(tasks.TaskKind.SEGMENTATION, 9)
    flipped = seg.target.copy()
    flipped[:, :8, :8] = tasks.PALETTE[3][:, None, None]
    assert tasks.miou(flipped, seg.target).value <= 1.0

    depth = tasks.generate(tasks.TaskKind.DEPTH, 9)
    assert tasks.a_rel(np.clip(depth.target + 0.1, 0, 1), depth.target).value >= 0.0


def test_metric_dispatch():
    assert tasks.metric_name_for(tasks.TaskKind.DENOISE) == "PSNR"
    assert tasks.metric_name_for(tasks.TaskKind.SEGMENTATION) == "mIoU"
    assert tasks.metric_name_for(tasks.TaskKind.DEPTH) == "A.Rel"
    metric = tasks.evaluate(tasks.TaskKind.DEPTH, np.full((3, 4, 4), 0.5), np.full((3, 4, 4), 0.5))
    assert metric.name == "A.Rel" and not tasks.higher_is_better_for(tasks.TaskKind.DEPTH)
