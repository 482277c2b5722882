"""Build task samples and 2x2 canvases, dump them as viewable pixmaps.

Run:  python demos/02_canvases_and_tasks.py
Outputs land in demos/out/.
"""

from pathlib import Path

import numpy as np

from vict import tasks
from vict.canvas import EMPTY_FILL, assemble_flipped, assemble_inference, cell_rows, extract_cell, write_ppm

out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)

# One sample per task; inputs and targets side by side.
for task in tasks.ALL_TASKS:
    sample = tasks.generate(task, seed=7)
    value = tasks.evaluate(task, sample.input, sample.target)
    print(f"{task.value:<13} input-vs-target {tasks.metric_name_for(task)} = {value:.3f}")
    write_ppm(out / f"{task.value}_{sample.seed}_input.ppm", sample.input)
    write_ppm(out / f"{task.value}_{sample.seed}_target.ppm", sample.target)

# The inference canvas: prompt pair on top, query input bottom-left, masked cell bottom-right.
prompt = tasks.generate(tasks.TaskKind.DERAIN, seed=1)
query = tasks.generate(tasks.TaskKind.DERAIN, seed=2)
# The model reads a canvas as patch rows: each assembler returns the canvas's
# rows and the rows of its empty cell, the cell the model masks.
P = 8
HALF = prompt.input.shape[1] // P  # a cell's patches per side
CELLS = ("top_left", "top_right", "bottom_left", "bottom_right")  # cell index 0-3, row-major
patches, masked = assemble_inference(prompt.input, prompt.target, query.input, P)
empty = np.full_like(prompt.input, EMPTY_FILL)


def cell_name(rows):
    """The name of the cell whose patch rows are ``rows``."""
    return next(name for i, name in enumerate(CELLS) if np.array_equal(cell_rows(i, HALF), rows))


def grid(top_left, top_right, bottom_left, bottom_right):
    """The canvas as one image, made here only to be looked at."""
    return np.concatenate(
        [np.concatenate([top_left, top_right], axis=2), np.concatenate([bottom_left, bottom_right], axis=2)], axis=1
    )


write_ppm(out / "canvas_inference.ppm", grid(prompt.input, prompt.target, query.input, empty))
print(f"inference canvas masks {cell_name(masked)}; {len(masked)} of {len(patches)} patches masked")

# The role-flipped canvas: the (here: true) query output moves to the bottom right,
# and the prompt output cell becomes the reconstruction target.
flipped, flipped_masked = assemble_flipped(prompt.input, query.input, query.target, P)
write_ppm(out / "canvas_flipped.ppm", grid(prompt.input, empty, query.input, query.target))
print(f"flipped canvas masks {cell_name(flipped_masked)}")

# The model reads and writes patch rows; cells go into them and come back
# losslessly. extract_cell is plain numpy: patch rows in, an image out.
back = extract_cell(flipped[masked])
print(f"extract round-trip exact: {back.tobytes() == query.target.tobytes()}")
print(f"wrote pixmaps to {out}/")
