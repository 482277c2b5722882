"""Short pre-training run: watch the inpainting loss fall, save a checkpoint.

Run:  python demos/04_pretrain_small.py
About 23 s on a 2-vCPU Xeon with OpenBLAS at 1 thread. For a checkpoint worth benchmarking,
raise the step count (the README's `vict pretrain` example uses 12000).
"""

from pathlib import Path

import numpy as np

from vict import model, training
from vict.checkpoint import describe_checkpoint, save_checkpoint

out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)

config = training.PretrainConfig(steps=2000, seed=0)
result = training.pretrain(model.ModelConfig(), config)

losses = np.array(result.losses)
for start in range(0, config.steps, 250):
    window = losses[start : start + 250]
    print(f"steps {start:>5}-{start + 250:<5} mean loss {window.mean():.4f}")
print(f"leading-100 {losses[:100].mean():.4f} -> trailing-100 {losses[-100:].mean():.4f} "
      f"(ratio {losses[-100:].mean() / losses[:100].mean():.2f})")
print(f"task draws: { {t.value: n for t, n in result.task_counts.items()} }")

ckpt = out / "demo_checkpoint.bin"
save_checkpoint(result.params, ckpt)
training.save_loss_trace(out / "pretrain_loss.csv", result.losses)
print()
print(describe_checkpoint(ckpt).splitlines()[0])
print(f"loss trace and checkpoint written to {out}/")
