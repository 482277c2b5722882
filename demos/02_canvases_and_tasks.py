"""Build task samples and 2x2 canvases, dump them as viewable pixmaps.

Run:  python demos/02_canvases_and_tasks.py
Outputs land in demos/out/.
"""

from pathlib import Path

import numpy as np

from vict import tasks
from vict.canvas import EMPTY_FILL, assemble_flipped, assemble_inference, extract_cell, write_ppm

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
canvas = assemble_inference(prompt.input, prompt.target, query.input)
empty = np.full_like(prompt.input, EMPTY_FILL)


def grid(top_left, top_right, bottom_left, bottom_right):
    return np.concatenate(
        [np.concatenate([top_left, top_right], axis=2), np.concatenate([bottom_left, bottom_right], axis=2)], axis=1
    )


write_ppm(out / "canvas_inference.ppm", grid(prompt.input, prompt.target, query.input, empty))
print(f"inference canvas masks {canvas.empty_position.value}; "
      f"{len(canvas.empty_rows(8))} of {len(canvas.patches(8))} patches masked")

# The role-flipped canvas: the (here: true) query output moves to the bottom right,
# and the prompt output cell becomes the reconstruction target.
flipped = assemble_flipped(prompt.input, query.input, query.target)
write_ppm(out / "canvas_flipped.ppm", grid(prompt.input, empty, query.input, query.target))
print(f"flipped canvas masks {flipped.empty_position.value}")

# The model reads and writes patch rows; cells go into them and come back
# losslessly. extract_cell is plain numpy: patch rows in, an image out.
back = extract_cell(flipped.patches(8)[canvas.empty_rows(8)])
print(f"extract round-trip exact: {back.tobytes() == query.target.tobytes()}")
print(f"wrote pixmaps to {out}/")
