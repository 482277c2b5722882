"""Small benchmark sweep through the harness API: frozen vs tuned, report formats.

The JSON report comes with its per-sample sidecar, bench_report.samples.jsonl:
one record per test sample with its metrics and tuning loss trace.

Run:  python demos/06_benchmark_run.py [checkpoint]
Without an argument this pre-trains briefly; expect the tuned-vs-frozen
gap to be small for such a short pre-training budget.
"""

import sys
from pathlib import Path

from vict import corruptions, harness, model, tasks, training, tuning
from vict.checkpoint import save_checkpoint

out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)

if len(sys.argv) > 1:
    ckpt = Path(sys.argv[1])
else:
    print("pre-training 3000 steps first (pass a checkpoint path to skip)...")
    result = training.pretrain(model.ModelConfig(), training.PretrainConfig(steps=3000, seed=0))
    ckpt = out / "bench_checkpoint.bin"
    save_checkpoint(result.params, ckpt)

config = harness.BenchConfig(
    checkpoint=ckpt,
    task=tasks.TaskKind.DENOISE,
    corruption_kinds=(
        corruptions.CorruptionKind.GAUSSIAN_NOISE,
        corruptions.CorruptionKind.BRIGHTNESS,
        corruptions.CorruptionKind.FOG,
    ),
    severities=(3, 5),
    settings=(tuning.ZERO_SHOT, tuning.ONE_SHOT),
    methods=(harness.FROZEN, harness.VICT),
    num_samples=8,
    vict=tuning.VictConfig(steps=20),
    seed=0,
)
report = harness.run_bench(config)
print(report.to_text())

report.write_json(out / "bench_report.json")
(out / "bench_report.csv").write_text(report.to_csv())

# clean evaluation is zero-shot on uncorrupted samples: no corruption grid
clean_config = harness.BenchConfig(
    checkpoint=ckpt, task=config.task, num_samples=config.num_samples, vict=config.vict, seed=config.seed
)
clean = harness.run_clean_eval(clean_config)
for gap in clean.clean_gaps:
    print(f"clean data: frozen {gap['frozen_mean']:.2f} vs tuned {gap['vict_mean']:.2f} "
          f"(relative gap {gap['relative_gap']:.1%}, flag={gap['exceeds_5pct']})")
print(f"reports written to {out}/")
