"""Procedural toy image-to-image tasks and their evaluation metrics.

Every task shares one scene generator: 2-5 anti-aliased shapes (disks,
rectangles, triangles) on a smooth gradient background. The task then
derives an input/target pair from the scene. Restoration tasks score
PSNR, segmentation scores mIoU over a fixed color palette, and depth
scores mean absolute relative error (A.Rel).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache

import numpy as np

from .corruptions import convolve, line_kernel
from .seeding import rng_for

DEFAULT_CELL_SIZE = 32

PSNR_CAP_DB = 99.0
AREL_MIN_DEPTH = 0.01
BACKGROUND_DEPTH = 0.05


class TaskKind(Enum):
    DENOISE = "denoise"
    DERAIN = "derain"
    LOWLIGHT = "lowlight"
    SEGMENTATION = "segmentation"
    DEPTH = "depth"


ALL_TASKS = tuple(TaskKind)

# index 0 is background; pairwise L2 distances all exceed 0.5
PALETTE = np.array(
    [
        [0.0, 0.0, 0.0],
        [0.9, 0.1, 0.1],
        [0.1, 0.9, 0.1],
        [0.1, 0.1, 0.9],
    ],
    dtype=np.float32,
)


@dataclass(frozen=True)
class TaskSample:
    input: np.ndarray
    target: np.ndarray
    task: TaskKind
    seed: int


# each task's metric, and whether a higher value of it is better
_METRICS = {
    TaskKind.DENOISE: ("PSNR", True),
    TaskKind.DERAIN: ("PSNR", True),
    TaskKind.LOWLIGHT: ("PSNR", True),
    TaskKind.SEGMENTATION: ("mIoU", True),
    TaskKind.DEPTH: ("A.Rel", False),
}


def metric_name_for(task: TaskKind) -> str:
    return _METRICS[task][0]


def higher_is_better_for(task: TaskKind) -> bool:
    return _METRICS[task][1]


def evaluate(task: TaskKind, pred: np.ndarray, target: np.ndarray) -> float:
    """``task``'s metric of ``pred`` against ``target``; ``metric_name_for``
    names it."""
    if task is TaskKind.SEGMENTATION:
        return miou(pred, target)
    if task is TaskKind.DEPTH:
        return a_rel(pred, target)
    return psnr(pred, target)


# ---------------------------------------------------------------------------
# scene construction
# ---------------------------------------------------------------------------


def _clip_unit(a: np.ndarray) -> np.ndarray:
    """``a`` clipped to [0, 1] in place: ``np.clip``'s values without the
    cost of its wrapper, which is most of a small array's clip."""
    np.maximum(a, 0.0, out=a)
    return np.minimum(a, 1.0, out=a)


@cache
def _pixel_centers(c: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column coordinates of a c x c grid's pixel centers, read-only."""
    ys, xs = np.mgrid[0:c, 0:c].astype(np.float64) + 0.5
    ys.flags.writeable = xs.flags.writeable = False
    return ys, xs


def _render_scene(rng: np.random.Generator, c: int):
    """Scene plus per-pixel class indices and inverse-depth values."""
    ys, xs = _pixel_centers(c)
    theta = rng.uniform(0.0, 2.0 * np.pi)
    proj = xs * np.cos(theta) + ys * np.sin(theta)
    proj = (proj - proj.min()) / max(proj.max() - proj.min(), 1e-9)
    c0, c1 = rng.uniform(0.1, 0.9, size=(2, 3))
    scene = c0[:, None, None] + proj[None] * (c1 - c0)[:, None, None]
    class_map = np.zeros((c, c), dtype=np.int64)
    inv_depth = np.full((c, c), BACKGROUND_DEPTH, dtype=np.float64)

    shapes = []
    for _ in range(int(rng.integers(2, 6))):
        kind = int(rng.integers(0, 3))
        color = rng.uniform(0.05, 0.95, size=3)
        cx, cy = rng.uniform(0.2 * c, 0.8 * c, size=2)
        if kind == 0:  # disk
            r = rng.uniform(0.10 * c, 0.28 * c)
            geom = (cx, cy, r)
            r_eff = r
        elif kind == 1:  # axis-aligned rectangle
            hw, hh = rng.uniform(0.08 * c, 0.25 * c, size=2)
            geom = (cx, cy, hw, hh)
            r_eff = np.sqrt(hw * hh)
        else:  # triangle around the center
            angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=3))
            radii = rng.uniform(0.12 * c, 0.30 * c, size=3)
            geom = (cx + radii * np.cos(angles), cy + radii * np.sin(angles))
            r_eff = 0.7 * radii.mean()
        # inverse depth follows visible cues (bigger and lower means nearer)
        z = float(min(max(0.3 + 2.2 * (r_eff / c - 0.08) + 0.35 * (cy / c - 0.5), 0.25), 1.0))
        shapes.append((z, kind, color, geom))

    # far shapes first so nearer ones paint over them
    for z, kind, color, geom in sorted(shapes, key=lambda s: s[0]):
        if kind == 0:
            cx, cy, r = geom
            dist = np.sqrt((xs - cx) ** 2 + (ys - cy) ** 2)
            alpha = _clip_unit(r - dist + 0.5)
        elif kind == 1:
            cx, cy, hw, hh = geom
            alpha = _clip_unit(hw - np.abs(xs - cx) + 0.5)
            alpha *= _clip_unit(hh - np.abs(ys - cy) + 0.5)
        else:
            vx, vy = geom
            sd = np.full((c, c), -np.inf)
            for i in range(3):
                x0, y0 = vx[i], vy[i]
                x1, y1 = vx[(i + 1) % 3], vy[(i + 1) % 3]
                ex, ey = x1 - x0, y1 - y0
                norm = max(np.hypot(ex, ey), 1e-9)
                # vertices are angle-sorted around the centroid, so edges wind CCW
                # and the outward normal is (ey, -ex) / norm
                sd = np.maximum(sd, ((xs - x0) * ey - (ys - y0) * ex) / norm)
            alpha = _clip_unit(0.5 - sd)
        # alpha * color + (1 - alpha) * scene, in place
        scene *= 1.0 - alpha
        scene += alpha * color[:, None, None]
        hard = alpha >= 0.5
        class_map[hard] = kind + 1
        inv_depth[hard] = z

    return _clip_unit(scene), class_map, inv_depth


def _diagonal_streaks(rng: np.random.Generator, c: int) -> np.ndarray:
    """Bright rain-like streak field in [0, 1]."""
    points = (rng.random((c, c)) < 0.035).astype(np.float64)
    length = max(5, c // 5)
    angle = np.pi / 4 + rng.uniform(-0.25, 0.25)
    field = convolve(points, line_kernel(length, angle), "constant")
    peak = field.max()
    if peak > 0:
        field = field / peak
    return 0.7 * field


def generate(task: TaskKind, seed: int, cell_size: int = DEFAULT_CELL_SIZE) -> TaskSample:
    """Deterministic input/target pair for one task instance."""
    if not isinstance(task, TaskKind):
        raise ValueError(f"generate: unknown task {task!r}")
    rng = rng_for("task", task.value, seed)
    scene, class_map, inv_depth = _render_scene(rng, cell_size)

    if task is TaskKind.DENOISE:
        image = _clip_unit(scene + rng.normal(0.0, 0.1, size=scene.shape))
        target = scene
    elif task is TaskKind.DERAIN:
        streaks = _diagonal_streaks(rng, cell_size)
        image = _clip_unit(scene + streaks[None])
        target = scene
    elif task is TaskKind.LOWLIGHT:
        image = _clip_unit((scene ** 2.2) * 0.4)
        target = scene
    elif task is TaskKind.SEGMENTATION:
        image = scene
        target = PALETTE[class_map].transpose(2, 0, 1).astype(np.float64)
    else:  # depth
        image = scene
        target = np.repeat(inv_depth[None], 3, axis=0)

    return TaskSample(
        input=image.astype(np.float32),
        target=target.astype(np.float32),
        task=task,
        seed=int(seed),
    )


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def psnr(pred: np.ndarray, target: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB against a unit dynamic range."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"psnr: shape mismatch {pred.shape} vs {target.shape}")
    mse = float(np.mean((pred - target) ** 2))
    if mse < 1e-10:
        return PSNR_CAP_DB
    return min(10.0 * np.log10(1.0 / mse), PSNR_CAP_DB)


def decode_classes(image: np.ndarray) -> np.ndarray:
    """Nearest-``PALETTE``-color (L2) class index per pixel."""
    palette = PALETTE.astype(np.float64)
    flat = np.asarray(image, dtype=np.float64).reshape(3, -1).T  # pixels x 3
    dists = ((flat[:, None, :] - palette[None, :, :]) ** 2).sum(axis=2)
    return dists.argmin(axis=1).reshape(image.shape[1], image.shape[2])


def miou(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean IoU over the classes present in the target."""
    pred = np.asarray(pred)
    target = np.asarray(target)
    if pred.shape != target.shape:
        raise ValueError(f"miou: shape mismatch {pred.shape} vs {target.shape}")
    pred_cls = decode_classes(pred)
    target_cls = decode_classes(target)
    ious = []
    for cls in np.unique(target_cls):
        p = pred_cls == cls
        t = target_cls == cls
        union = np.logical_or(p, t).sum()
        inter = np.logical_and(p, t).sum()
        ious.append(inter / union if union > 0 else 0.0)
    return float(np.mean(ious))


def luminance(image: np.ndarray) -> np.ndarray:
    image = np.asarray(image, dtype=np.float64)
    return 0.299 * image[0] + 0.587 * image[1] + 0.114 * image[2]


def a_rel(pred_depth: np.ndarray, target_depth: np.ndarray) -> float:
    """Mean absolute relative depth error over pixels deeper than a floor."""
    p = luminance(pred_depth)
    t = luminance(target_depth)
    if p.shape != t.shape:
        raise ValueError(f"a_rel: shape mismatch {p.shape} vs {t.shape}")
    valid = t > AREL_MIN_DEPTH
    if not valid.any():
        raise ValueError("a_rel: target has no pixels above the depth floor")
    return float(np.mean(np.abs(p[valid] - t[valid]) / t[valid]))
