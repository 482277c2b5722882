"""Apply all fifteen corruptions at every severity and check distortion growth.

Run:  python demos/03_corruption_gallery.py
Writes a gallery strip per kind plus a monotonicity CSV to demos/out/.
"""

from pathlib import Path

import numpy as np

from vict import corruptions, tasks
from vict.canvas import write_ppm

out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)

image = tasks.probe_images(1)[0]

for kind in corruptions.ALL_KINDS:
    strip = [image]
    for severity in corruptions.SEVERITIES:
        strip.append(corruptions.apply(image, corruptions.CorruptionSpec(kind, severity, seed=0)))
    write_ppm(out / f"corrupt_{kind.value}.ppm", np.concatenate(strip, axis=2))

# Mean squared distortion against the clean probe set must grow with severity.
probes = tasks.probe_images(16)
rows = corruptions.monotonicity_report(probes, seed=0)
corruptions.write_monotonicity_csv(out / "monotonicity.csv", rows)

print(f"{'kind':<18}" + "".join(f"  sev{s}" for s in corruptions.SEVERITIES))
by_kind: dict[str, list[float]] = {}
for kind, severity, mse in rows:
    by_kind.setdefault(kind, []).append(mse)
for kind, mses in by_kind.items():
    trend = "ok" if all(b >= a for a, b in zip(mses, mses[1:])) else "NOT MONOTONE"
    print(f"{kind:<18}" + "".join(f" {m:.4f}" for m in mses) + f"  {trend}")

groups = {name: len(kinds) for name, kinds in corruptions.CATEGORIES.items()}
print(f"category sizes: {groups}")
print(f"gallery and CSV written to {out}/")
