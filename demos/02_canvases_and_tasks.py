"""Build task samples and 2x2 canvases, dump them as viewable pixmaps.

Run:  python demos/02_canvases_and_tasks.py
Outputs land in demos/out/.
"""

from pathlib import Path

from vict import tasks
from vict.canvas import CellPosition, assemble_flipped, assemble_inference, extract_cell, write_ppm

out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)

# One sample per task; inputs and targets side by side.
for task in tasks.ALL_TASKS:
    sample = tasks.generate(task, seed=7)
    metric = tasks.evaluate(task, sample.input, sample.target)
    print(f"{task.value:<13} input-vs-target {metric.name} = {metric.value:.3f}")
    tasks.dump_sample(sample, out)

# The inference canvas: prompt pair on top, query input bottom-left, masked cell bottom-right.
prompt = tasks.generate(tasks.TaskKind.DERAIN, seed=1)
query = tasks.generate(tasks.TaskKind.DERAIN, seed=2)
canvas = assemble_inference(prompt.input, prompt.target, query.input)
write_ppm(out / "canvas_inference.ppm", canvas.pixels().data)
print(f"inference canvas masks {canvas.empty_position.value}; "
      f"{int(canvas.patch_mask(8).sum())} of {len(canvas.patch_mask(8))} patches masked")

# The role-flipped canvas: the (here: true) query output moves to the bottom right,
# and the prompt output cell becomes the reconstruction target.
flipped = assemble_flipped(prompt.input, query.input, query.target)
write_ppm(out / "canvas_flipped.ppm", flipped.pixels().data)
print(f"flipped canvas masks {flipped.empty_position.value}")

# Cells extract losslessly.
back = extract_cell(canvas.pixels(), CellPosition.TOP_RIGHT).data
print(f"extract round-trip exact: {back.tobytes() == prompt.target.tobytes()}")
print(f"wrote pixmaps to {out}/")
