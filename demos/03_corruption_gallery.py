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

# Fixed clean scenes: the probe set the distortion is measured on.
probes = [tasks.generate(tasks.TaskKind.SEGMENTATION, 1000 + i).input for i in range(16)]
image = probes[0]

for kind in corruptions.ALL_KINDS:
    strip = [image]
    for severity in corruptions.SEVERITIES:
        strip.append(corruptions.apply(image, corruptions.CorruptionSpec(kind, severity, seed=0)))
    write_ppm(out / f"corrupt_{kind.value}.ppm", np.concatenate(strip, axis=2))


def mean_mse(kind, severity):
    """Mean squared distortion of ``kind`` at ``severity`` over the probe set."""
    total = 0.0
    for i, probe in enumerate(probes):
        corrupted = corruptions.apply(probe, corruptions.CorruptionSpec(kind, severity, seed=i))
        total += float(np.mean((corrupted.astype(np.float64) - probe.astype(np.float64)) ** 2))
    return total / len(probes)


# Mean squared distortion against the clean probe set must grow with severity.
by_kind = {kind.value: [mean_mse(kind, s) for s in corruptions.SEVERITIES] for kind in corruptions.ALL_KINDS}
lines = ["kind,severity,mean_mse"]
lines += [f"{kind},{s},{mse:.8f}" for kind, mses in by_kind.items() for s, mse in zip(corruptions.SEVERITIES, mses)]
(out / "monotonicity.csv").write_text("\n".join(lines) + "\n", encoding="ascii")

print(f"{'kind':<18}" + "".join(f"  sev{s}" for s in corruptions.SEVERITIES))
for kind, mses in by_kind.items():
    trend = "ok" if all(b >= a for a, b in zip(mses, mses[1:])) else "NOT MONOTONE"
    print(f"{kind:<18}" + "".join(f" {m:.4f}" for m in mses) + f"  {trend}")

groups = {name: len(kinds) for name, kinds in corruptions.CATEGORIES.items()}
print(f"category sizes: {groups}")
print(f"gallery and CSV written to {out}/")
