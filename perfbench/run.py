"""The vict benchmark: one command, three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tune_sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Workloads (see ``workloads.py``):

- ``tune_sweep``: ``harness.run_bench`` with both methods and both settings
  at severity 5, default ``VictConfig``, cycling over four corruption kinds.
- ``frozen_sweep``: ``harness.run_bench`` with the frozen method over all 15
  kinds and severities 1-5, both settings.
- ``pretrain``: ``training.pretrain`` over all five tasks, batch size 1.

One process is the single closed-loop caller: each unit of work starts
when the previous one has finished. BLAS is pinned to one thread, because
two threads measured slower and noisier on a two-core machine.

``--trace 0`` prints every end-to-end metric; ``--trace 1`` every
per-layer metric, from spans recorded around calls into each module's
public functions. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. Its
end-to-end names are shared by all workloads: ``throughput_per_s`` counts
test samples on the sweeps and pre-training steps on pretrain. It and
``setup_s`` are scaled to a nominal host speed by a reference kernel timed
before each set-up and unit (see ``json_metrics``); the table above the
JSON gives every metric as measured, latency medians and tails included,
under the name the workload measures it by. The run exits
with 1 if an output check fails, and with 2 if there are no vict sources
to measure. Results, with the environment, and spans go to
``.bench_out/`` in the checkout.

``--smoke`` runs every workload, untraced and traced, at a tiny model
size, so the benchmark's own checks run in seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

from tracing import Unmeasured, per_layer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_THREADS = 1
WORKLOAD_NAMES = ("tune_sweep", "frozen_sweep", "pretrain")
TAIL_BEYOND = 10  # a tail percentile needs this many samples above it


def _pin_blas_and_import():
    """Pin BLAS threads before numpy loads, then import the benchmark."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "vict" / "__init__.py").is_file():
        print(f"perfbench: no vict sources at {SRC.relative_to(ROOT)}/vict; run from a checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import vict
    import workloads

    if Path(vict.__file__).resolve().parent != SRC / "vict":
        print(f"perfbench: imported vict from {vict.__file__}, not from the checkout", file=sys.stderr)
        sys.exit(2)
    return workloads


# ---------------------------------------------------------------------------
# statistics and environment
# ---------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ``TAIL_BEYOND`` samples above it:
    (value, percentile, samples above). When no percentile above the
    median has that many, the median is reported."""
    v = sorted(values)
    i = len(v) - 1 - TAIL_BEYOND
    if i <= (len(v) - 1) / 2:
        return statistics.median(v), 50.0, len(v) // 2
    return v[i], 100.0 * i / (len(v) - 1), TAIL_BEYOND


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy  # after the BLAS pin
    import scipy

    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                    if line.startswith("model name")), cpu)
    try:
        blas_info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_info.get('name')} {blas_info.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    source = hashlib.sha256()
    for path in sorted((SRC / "vict").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".cfg"):
            source.update(str(path.relative_to(SRC)).encode())
            source.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "blas_threads_pinned_by": "OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, MKL_NUM_THREADS",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "source_sha256": source.hexdigest(),
        "workload_seed": seed,
        "load": "one process, single closed-loop caller",
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(name: str, run) -> dict:
    """The end-to-end metrics named per workload, as ``{name: (value, unit,
    n, source)}``. Where the workload's main phase does not make a call, it
    is measured in the run's fixed check or set-up, and ``source`` says so."""
    calls, check = run.calls, run.check
    out = {}
    setup_seconds = [s.seconds for s in run.setups]
    out["setup_s"] = (statistics.median(setup_seconds), "s", len(setup_seconds), "median of set-ups")

    work, unit_seconds = sum(u.work for u in run.units), sum(u.seconds for u in run.units)
    if name == "pretrain":
        if not work:
            raise Unmeasured("no pre-training unit finished")
        out["sweep_samples_per_s"] = (check.samples / check.sweep_seconds, "1/s", check.samples, "check")
        out["pretrain_step_ms"] = (1e3 * unit_seconds / work, "ms", work, "main")
    else:
        out["sweep_samples_per_s"] = (work / unit_seconds, "1/s", work, "main")
        steps = sum(s.steps for s in run.setups)
        out["pretrain_step_ms"] = (1e3 * sum(s.pretrain_seconds for s in run.setups) / steps, "ms", steps, "set-up")

    for metric, kind, scale, unit in (
        ("adapt_s", "adapt", 1.0, "s"),
        ("infer_ms", "infer", 1e3, "ms"),
        ("pretrain_step_ms", "step", 1e3, "ms"),
    ):
        source = next((p for p in ("main", "check", "setup") if calls.seconds[kind][p]), None)
        if source is None:
            raise Unmeasured(f"no successful {kind} call")
        values = [scale * v for v in calls.seconds[kind][source]]
        source = "set-up" if source == "setup" else source
        value, pct, above = tail(values)
        out[f"{metric}_p50"] = (statistics.median(values), unit, len(values), source)
        out[f"{metric}_tail"] = (value, unit, len(values), f"{source}, p{pct:.1f}, {above} samples above")

    # the gated times: each scaled by the host speed measured just before it
    scales = [s.scale for s in run.setups] + [check.scale] + [u.scale for u in run.units]
    out["host_scale"] = (statistics.median(scales), "ratio", len(scales), "nominal / measured reference time")
    scaled_setups = [s.seconds * s.scale for s in run.setups]
    out["setup_s_scaled"] = (statistics.median(scaled_setups), "s", len(scaled_setups), "median of set-ups")
    per_s = work / sum(u.seconds * u.scale for u in run.units)
    out["throughput_per_s_scaled"] = (per_s, "1/s", work, "main")

    attempted, failed = calls.attempted["main"], calls.failed["main"]
    out["failure_ratio"] = (failed / attempted, "ratio", attempted, "main")
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1, "whole run")
    out["vict_gain_db"] = (check.vict_gain_db, "dB", check.samples, "check, deterministic")
    out["pretrain_loss_end"] = (run.setups[0].loss_end, "loss", run.setups[0].steps, "set-up, deterministic")
    return out


# BENCHMARK.json's end-to-end metrics, the same names on every workload:
# set-up time, and throughput of the workload's own unit of work (test
# samples on the sweeps, pre-training steps on pretrain; with one caller in
# a closed loop it is the inverse of the mean latency). On a shared host the
# machine runs fast or slow for seconds to minutes at a time (a tuning step
# took 28 or 45 ms), which moved ten-run quartile spreads of raw times up to
# 0.30; so the gated times are scaled by a reference kernel timed just
# before each set-up and unit, and the raw ones are printed beside them.
# Printed but not gated: failure_ratio, which reads 0 on a healthy run (the
# JSON's attempted and failed carry it exactly), and the latency medians
# and tails. A median jumps between the fast and slow regimes from run to
# run; a tail near p99 falls where the rare slow calls begin; and a
# percentile of calls scaled unit by unit inherits the scatter of the
# reference timings.
SHARED = ("peak_rss_mb", "vict_gain_db", "pretrain_loss_end")
JSON_ROWS = {"setup_s": "setup_s_scaled", "throughput_per_s": "throughput_per_s_scaled"}


def json_metrics(table: dict) -> dict:
    """``{json name: (value, unit, table row)}`` for the end-to-end JSON."""
    rows = {**JSON_ROWS, **{key: key for key in SHARED}}
    return {key: (table[row][0], table[row][1], row) for key, row in rows.items()}


def consistency_problems(run) -> list[str]:
    """Determinism checks across the run's own repeats."""
    problems = []
    first = run.setups[0]
    for other in run.setups[1:]:
        if (other.digest, other.loss_trace_sha256) != (first.digest, first.loss_trace_sha256):
            problems.append("[setup] pre-training with a fixed seed gave different parameters or losses")
    if run.traced_units and [u.sha256 for u in run.traced_units] != [u.sha256 for u in run.units]:
        problems.append("[main] traced units gave different results from untraced ones")
    return problems


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def measure(name: str, seed: int, seconds: float, trace: bool, sizes, workloads, quiet: bool = False):
    """One run: prints the report; returns the JSON result, or None when a
    metric could not be measured, and whether every output check passed."""
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(exist_ok=True)
    try:
        run = workloads.run(name, seed, seconds, trace, sizes, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    calls = run.calls
    problems = calls.problems + consistency_problems(run)
    metrics, reported = {}, {}
    try:
        if trace:
            kinds = [k.value for k in workloads.corruptions.ALL_KINDS]
            metrics = per_layer(run.tracer, kinds, calls.loss_fell, run.traced_main_seconds,
                                run.traced_main_seconds / run.main_seconds)
            reported = {key: (value, unit, key) for key, (value, unit, _, _) in metrics.items()}
        else:
            metrics = end_to_end(name, run)
            reported = json_metrics(metrics)
        missing = [key for key, (value, _, _) in reported.items() if not math.isfinite(value)]
        if missing:
            raise Unmeasured(f"no finite value for {', '.join(missing)}")
    except Unmeasured as err:
        problems.append(f"[metrics] {err}")
        reported = {}

    env = environment(seed)
    stem = f"{name}_seed{seed}_trace{int(trace)}"
    if trace:
        run.tracer.write(OUT / f"{stem}_spans.json")
    result = {
        "correct": not problems,
        "attempted": calls.attempted["main"],
        "failed": calls.failed["main"],
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit, _) in reported.items()},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "environment": env,
        "metrics": {k: {"value": v[0], "unit": v[1], "n": v[2], "source": v[3]} for k, v in metrics.items()},
        "check_report_sha256": run.check.report_sha256,
        "setup_loss_trace_sha256": run.setups[0].loss_trace_sha256,
        "main_sha256": [u.sha256 for u in run.units],
        "call_seconds": {kind: dict(by_phase) for kind, by_phase in calls.seconds.items()},
        "host_scales": {"setup": [s.scale for s in run.setups], "check": run.check.scale,
                        "units": [u.scale for u in run.units]},
        "problems": problems, "first_failure": calls.first_failure,
        "correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="ascii")

    if not quiet:
        print(f"perfbench {name}  seed={seed}  seconds={seconds}  trace={int(trace)}  "
              f"units={len(run.units)}  loop=closed, one caller")
        print("environment: " + "  ".join(f"{k}={v}" for k, v in env.items()))
        print(f"check report sha256: {run.check.report_sha256}")
        print(f"set-up pre-training loss trace sha256: {run.setups[0].loss_trace_sha256}")
        print(f"attempted {result['attempted']}, failed {result['failed']}"
              + (f"; first failure: {calls.first_failure}" if calls.first_failure else ""))
        print(f"output checks: {'all passed' if not problems else f'{len(problems)} FAILED'}")
        for p in problems[:10]:
            print(f"  {p}")
        json_of = {row: key for key, (_, _, row) in reported.items()}
        json_column = not trace  # traced metrics keep their names in the JSON
        print(f"{'metric':<36}{'value':>14}  {'unit':<7}{'n':>7}  " + ("JSON name         " if json_column else "") + "source")
        for key, (value, unit, n, note) in metrics.items():
            column = f"{json_of.get(key, '-'):<18}" if json_column else ""
            print(f"{key:<36}{_fmt(value):>14}  {unit:<7}{n:>7}  {column}{note}")
    return (result if reported else None), not problems


def smoke(workloads) -> int:
    """Every workload, untraced and traced, at the tiny size."""
    failures = 0
    for name in WORKLOAD_NAMES:
        for trace in (False, True):
            result, correct = measure(name, 1, 0.5, trace, workloads.SMOKE, workloads, quiet=True)
            ok = correct and result is not None
            failures += not ok
            print(f"smoke {name:<13} trace={int(trace)}  {'ok' if ok else 'FAILED'}  "
                  f"{len(result['metrics']) if ok else 0} metrics")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload; checks only")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workloads = _pin_blas_and_import()
    if args.smoke:
        return smoke(workloads)
    result, correct = measure(args.workload, args.seed, args.seconds, bool(args.trace), workloads.FULL, workloads)
    if result is not None:
        print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
