"""2x2 grid canvases for image-to-image in-context inpainting.

A canvas holds four equally sized image cells: prompt input (top left),
prompt output (top right), query input (bottom left), query output
(bottom right). Exactly one cell is empty at assembly time; its patches
and only its patches are masked for the model. ``assemble_inference``
leaves the bottom-right (query output) empty; ``assemble_flipped`` swaps
the roles of prompt and query, leaving the top-right empty and placing
the predicted query output at the bottom right.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .tensor import Tensor, as_tensor, clamp, concat, constant, narrow

EMPTY_FILL = 0.5


class CellPosition(Enum):
    TOP_LEFT = "top_left"
    TOP_RIGHT = "top_right"
    BOTTOM_LEFT = "bottom_left"
    BOTTOM_RIGHT = "bottom_right"


def _validate_image(name: str, t: Tensor, cell_size: int | None = None) -> int:
    if t.data.ndim != 3 or t.shape[0] != 3 or t.shape[1] != t.shape[2]:
        raise ValueError(f"{name}: expected image of shape [3, C, C], got {t.shape}")
    c = t.shape[1]
    if cell_size is not None and c != cell_size:
        raise ValueError(f"{name}: cell size {c} does not match {cell_size}")
    if c % 2 != 0:
        raise ValueError(f"{name}: cell size must be even, got {c}")
    lo, hi = float(t.data.min()), float(t.data.max())
    if lo < 0.0 or hi > 1.0:
        raise ValueError(f"{name}: pixel values outside [0, 1] (min {lo:.4g}, max {hi:.4g})")
    return c


@dataclass(frozen=True)
class Canvas:
    """Four cells, one of which is empty; ``pixels`` assembles [3, 2C, 2C].

    ``empty_position`` is the cell the model masks and the cell whose
    prediction the caller reads back.
    """

    cells: dict[CellPosition, Tensor | None]
    cell_size: int
    empty_position: CellPosition

    def pixels(self) -> Tensor:
        c = self.cell_size
        dtype = next(t.dtype for t in self.cells.values() if t is not None)
        fill = constant(np.full((3, c, c), EMPTY_FILL, dtype=dtype))
        grid = {pos: (fill if t is None else t) for pos, t in self.cells.items()}
        top = concat([grid[CellPosition.TOP_LEFT], grid[CellPosition.TOP_RIGHT]], axis=2)
        bottom = concat([grid[CellPosition.BOTTOM_LEFT], grid[CellPosition.BOTTOM_RIGHT]], axis=2)
        return concat([top, bottom], axis=1)

    def patch_mask(self, patch_size: int) -> np.ndarray:
        """0/1 vector over the (2C/P)^2 patch grid in row-major order, 1 on
        the empty cell's patches."""
        if self.cell_size % patch_size != 0:
            raise ValueError(f"patch_mask: cell size {self.cell_size} not a multiple of patch size {patch_size}")
        g = 2 * self.cell_size // patch_size
        half = g // 2
        rows = np.arange(g)[:, None]
        cols = np.arange(g)[None, :]
        in_bottom = rows >= half
        in_right = cols >= half
        selector = {
            CellPosition.TOP_LEFT: ~in_bottom & ~in_right,
            CellPosition.TOP_RIGHT: ~in_bottom & in_right,
            CellPosition.BOTTOM_LEFT: in_bottom & ~in_right,
            CellPosition.BOTTOM_RIGHT: in_bottom & in_right,
        }[self.empty_position]
        return selector.astype(np.float64).reshape(-1)


def assemble_inference(x, y, x_t) -> Canvas:
    """Canvas for predicting the query output: (x, y, x_t, empty)."""
    x, y, x_t = as_tensor(x), as_tensor(y), as_tensor(x_t)
    c = _validate_image("assemble_inference(x)", x)
    _validate_image("assemble_inference(y)", y, c)
    _validate_image("assemble_inference(x_t)", x_t, c)
    return Canvas(
        cells={
            CellPosition.TOP_LEFT: x,
            CellPosition.TOP_RIGHT: y,
            CellPosition.BOTTOM_LEFT: x_t,
            CellPosition.BOTTOM_RIGHT: None,
        },
        cell_size=c,
        empty_position=CellPosition.BOTTOM_RIGHT,
    )


def assemble_flipped(x, x_t, y_t_hat) -> Canvas:
    """Role-flipped canvas for reconstructing the prompt output: (x, empty, x_t, y_t_hat).

    ``y_t_hat`` is clamped to [0, 1] first; the clamp passes gradients
    through unchanged inside the range.
    """
    x, x_t = as_tensor(x), as_tensor(x_t)
    y_t_hat = clamp(as_tensor(y_t_hat), 0.0, 1.0)
    c = _validate_image("assemble_flipped(x)", x)
    _validate_image("assemble_flipped(x_t)", x_t, c)
    _validate_image("assemble_flipped(y_t_hat)", y_t_hat, c)
    return Canvas(
        cells={
            CellPosition.TOP_LEFT: x,
            CellPosition.TOP_RIGHT: None,
            CellPosition.BOTTOM_LEFT: x_t,
            CellPosition.BOTTOM_RIGHT: y_t_hat,
        },
        cell_size=c,
        empty_position=CellPosition.TOP_RIGHT,
    )


def extract_cell(canvas_pixels: Tensor, position: CellPosition) -> Tensor:
    """Slice one quadrant [3, C, C] out of assembled pixels [3, 2C, 2C]."""
    t = as_tensor(canvas_pixels)
    if t.data.ndim != 3 or t.shape[0] != 3 or t.shape[1] != t.shape[2] or t.shape[1] % 2 != 0:
        raise ValueError(f"extract_cell: expected [3, 2C, 2C], got {t.shape}")
    c = t.shape[1] // 2
    row0 = 0 if position in (CellPosition.TOP_LEFT, CellPosition.TOP_RIGHT) else c
    col0 = 0 if position in (CellPosition.TOP_LEFT, CellPosition.BOTTOM_LEFT) else c
    return narrow(narrow(t, 1, row0, c), 2, col0, c)


# ---------------------------------------------------------------------------
# portable pixmap dumps for qualitative inspection
# ---------------------------------------------------------------------------


def write_ppm(path: str | Path, image: np.ndarray) -> None:
    """Write a [3, H, W] array in [0, 1] as a binary P6 pixmap (maxval 255)."""
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[0] != 3:
        raise ValueError(f"write_ppm: expected [3, H, W], got {arr.shape}")
    quantized = np.clip(np.rint(arr * 255.0), 0, 255).astype(np.uint8)
    interleaved = quantized.transpose(1, 2, 0)  # H, W, RGB
    header = f"P6\n{arr.shape[2]} {arr.shape[1]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + interleaved.tobytes())


def read_ppm(path: str | Path) -> np.ndarray:
    """Read a binary P6 pixmap back into a float32 [3, H, W] array in [0, 1]."""
    raw = Path(path).read_bytes()
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    if fields[0] != b"P6":
        raise ValueError(f"read_ppm: not a P6 file (magic {fields[0]!r})")
    width, height, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    if maxval != 255:
        raise ValueError(f"read_ppm: unsupported maxval {maxval}")
    pos += 1  # single whitespace after maxval
    body = np.frombuffer(raw, dtype=np.uint8, count=width * height * 3, offset=pos)
    pixels = body.reshape(height, width, 3).transpose(2, 0, 1)
    return (pixels.astype(np.float32) / 255.0)
