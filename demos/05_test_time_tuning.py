"""Adapt the model to one corrupted test sample via the cycle objective.

Run:  python demos/05_test_time_tuning.py [checkpoint]
Without an argument this first pre-trains briefly (a well-trained
checkpoint, e.g. from `vict pretrain --steps 12000`, shows larger
effects). Dumps before/after canvases to demos/out/.
"""

import sys
from pathlib import Path

import numpy as np

from vict import corruptions, model, tasks, training, tuning
from vict.canvas import write_ppm
from vict.checkpoint import load_checkpoint

out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)

if len(sys.argv) > 1:
    params = load_checkpoint(sys.argv[1])
    print(f"loaded {sys.argv[1]}")
else:
    print("pre-training 3000 steps first (pass a checkpoint path to skip)...")
    params = training.pretrain(model.ModelConfig(), training.PretrainConfig(steps=3000, seed=0)).params

task = tasks.TaskKind.DENOISE
corruption = corruptions.CorruptionSpec(corruptions.CorruptionKind.GAUSSIAN_NOISE, severity=3, seed=11)

cell_size = params.config.cell_size
sample = tasks.generate(task, seed=100, cell_size=cell_size)
x_t = corruptions.apply(sample.input, corruption)
prompt = tuning.select_prompt(task, tuning.ONE_SHOT, corruption, seed=200, cell_size=cell_size)
print(f"prompt input corrupted: {prompt.corruption is not None}")

frozen_pred = tuning.infer(params, prompt.pair, x_t)
frozen_psnr = tasks.psnr(frozen_pred, sample.target)

config = tuning.VictConfig(steps=40)
result = tuning.adapt_and_predict(params, prompt, x_t, config)
tuned_psnr = tasks.psnr(result.y_t_hat, sample.target)

print(f"cycle loss: {result.loss_trace[0]:.4f} -> {result.loss_trace[-1]:.4f} over {config.steps} steps")
print(f"test PSNR: frozen {frozen_psnr:.2f} dB -> tuned {tuned_psnr:.2f} dB")
print(f"pre-trained weights untouched: digest {params.digest()[:12]}...")

x, y = prompt.pair
for name, prediction in (("frozen", frozen_pred), ("tuned", result.y_t_hat)):
    grid = np.concatenate(
        [np.concatenate([x, y], axis=2), np.concatenate([x_t, prediction], axis=2)], axis=1
    )
    write_ppm(out / f"tuning_{name}.ppm", grid)
np.savetxt(out / "tuning_loss_trace.csv", result.loss_trace, header="cycle_loss", comments="")
print(f"canvases and loss trace written to {out}/")
