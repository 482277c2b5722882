"""Clean-distribution pre-training and the one weight-fitting loop.

``fit`` is the loop that pre-training and the few-shot fine-tuning
baseline (``harness.fewshot_finetune``) share: every parameter on the
tape, a fresh AdamW state, and per batch one smooth-L1 loss on a masked
output cell's patch rows (``masked_cell_loss``), one backward and one
update.

Pre-training draws a task, generates an independent prompt pair and query
pair, and supervises one masked output cell. Each step masks either the
query output (bottom right) or, with probability ``FLIP_MASK_PROB``, the
prompt output (top right, with the true query pair completing the canvas)
so both inpainting arrangements used at test time are in-distribution. No
corrupted data and no augmentation ever enter pre-training.

Pre-training draws and renders its batches in a forked helper process
(``_SampleHelper``), so that ``tasks.generate`` runs on a second core while
this process runs forward, backward and AdamW. The helper draws from the
same seeded stream in the same order as an in-process loop would, and
the batches arrive as the same float32 bytes, so the results keep their
bits. It needs ``os.fork`` (POSIX).
"""

from __future__ import annotations

import contextlib
import os
import signal
import struct
import sys
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import model, tasks
# extract_cell is not called here; it stays imported because perfbench/tracing.py:200 patches training.extract_cell
from .canvas import assemble_flipped, assemble_inference, extract_cell, patchify  # noqa: F401
from .seeding import rng_for
from .tensor import AdamWState, Tensor, adamw_step, check_lr, collect_grads, constant, smooth_l1, zero_grads

FLIP_MASK_PROB = 0.25
PROGRESS_EVERY = 1000  # fit prints one progress line to stderr per this many steps

# A helper record: the task's index in the mix and the flip, then the
# prompt and query pairs' four float32 cells. Index -1 is followed by the
# helper's error message instead.
_HEADER = struct.Struct("<ii")
_PIPE_BYTES = 1 << 20  # about 21 default-size records: the helper runs ahead without waking the trainer

Pair = tuple[np.ndarray, np.ndarray]


def reject_repeats(owner: str, label: str, group: tuple) -> None:
    """Reject a selection that names one value more than once."""
    repeats = list(dict.fromkeys(v for i, v in enumerate(group) if v in group[:i]))
    if repeats:
        names = ", ".join(str(getattr(v, "value", v)) for v in repeats)
        raise ValueError(f"{owner}: {label} {names} selected more than once")


@dataclass(frozen=True)
class PretrainConfig:
    steps: int = 5000
    lr: float = 1e-3
    task_mix: tuple[tasks.TaskKind, ...] = tasks.ALL_TASKS
    seed: int = 0

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"PretrainConfig: steps must be nonnegative, got {self.steps}")
        check_lr("PretrainConfig", "lr", self.lr)
        if not self.task_mix:
            raise ValueError("PretrainConfig: task_mix is empty")
        reject_repeats("PretrainConfig", "task", self.task_mix)


@dataclass
class PretrainResult:
    params: model.Params
    losses: list[float]
    task_counts: dict[tasks.TaskKind, int]


def masked_cell_loss(params: model.Params, prompt: Pair, query: Pair, flip: bool) -> Tensor:
    """Smooth-L1 on the canvas's empty cell: the query output, or with
    ``flip`` the prompt output, the true query pair completing the canvas.
    The predicted patch rows are scored against the true cell's rows, as
    ``tuning.cycle_loss`` scores its own."""
    (x, y), (x_q, y_q) = prompt, query
    if flip:
        canvas, target = assemble_flipped(x, x_q, y_q), y
    else:
        canvas, target = assemble_inference(x, y, x_q), y_q
    p = params.config.patch_size
    pred = model.forward(params, canvas.patches(p), canvas.empty_rows(p))
    return smooth_l1(pred, constant(patchify(target, p)))


def fit(
    params: model.Params, lr: float, batches: Iterable[tuple[Pair, Pair, bool]], what: str
) -> tuple[model.Params, list[float]]:
    """Step every parameter of ``params`` with AdamW, in place, once per
    ``(prompt, query, flip)`` batch of ``masked_cell_loss``. Returns
    ``params`` itself, fitted and off the tape again (``model.freeze``),
    and the loss of each step; a divergence is a ``FloatingPointError``
    naming ``what`` and the step. Every ``PROGRESS_EVERY`` steps it prints
    the step, the mean loss of those steps and the seconds since it began
    to stderr."""
    group = model.trainable(params, "all")
    state = AdamWState(lr=lr)
    losses: list[float] = []
    start = time.perf_counter()
    for step, (prompt, query, flip) in enumerate(batches):
        zero_grads(params.tensors.values())
        try:
            loss = masked_cell_loss(params, prompt, query, flip)
            loss.backward()
            adamw_step(group, collect_grads(group), state)
        except FloatingPointError as err:
            raise FloatingPointError(f"{what} diverged at step {step}: {err}") from err
        losses.append(loss.item())
        del loss  # frees the tape after the update: freed before it, its memory went back to the OS and was faulted in again
        if len(losses) % PROGRESS_EVERY == 0:
            mean = sum(losses[-PROGRESS_EVERY:]) / PROGRESS_EVERY
            elapsed = time.perf_counter() - start
            print(f"{what} step {len(losses)}: mean loss {mean:.5f} over the last {PROGRESS_EVERY}, {elapsed:.1f} s",
                  file=sys.stderr)
    model.freeze(params)
    return params, losses


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _render_batches(fd: int, cfg: PretrainConfig, cell_size: int, record_bytes: int) -> NoReturn:
    """The helper's body: draw each step's task, prompt seed, query seed and
    flip from ``rng_for("pretrain", seed)``, render both samples and write
    the record to ``fd``; on an error, write its message. Never returns."""
    import fcntl  # POSIX-only, like os.fork: importing vict needs neither

    status = 1
    try:
        with contextlib.suppress(AttributeError, OSError):  # F_SETPIPE_SZ is Linux-only and capped by pipe-max-size
            fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        rng = rng_for("pretrain", cfg.seed)
        for _ in range(cfg.steps):
            index = int(rng.integers(len(cfg.task_mix)))
            prompt = tasks.generate(cfg.task_mix[index], int(rng.integers(0, 2**63)), cell_size)
            query = tasks.generate(cfg.task_mix[index], int(rng.integers(0, 2**63)), cell_size)
            flip = rng.random() < FLIP_MASK_PROB
            cells = (prompt.input, prompt.target, query.input, query.target)  # a target can be a transposed layout
            record = b"".join((_HEADER.pack(index, flip), *map(np.ascontiguousarray, cells)))
            if len(record) != record_bytes:
                raise ValueError(f"a batch of {len(record)} bytes, expected {record_bytes}")
            _write_all(fd, record)
        status = 0
    except BrokenPipeError:
        pass  # the trainer stopped reading
    except Exception as err:
        with contextlib.suppress(OSError):
            _write_all(fd, _HEADER.pack(-1, 0) + f"{type(err).__name__}: {err}".encode()[: record_bytes - _HEADER.size])
    finally:
        os._exit(status)


class _SampleHelper:
    """A forked process that renders pre-training's batches ahead of the
    trainer and sends them through a pipe. ``close`` stops and reaps it."""

    def __init__(self, cfg: PretrainConfig, cell_size: int):
        self.cfg, self.cell_size = cfg, cell_size
        self.record = bytearray(_HEADER.size + 4 * 3 * cell_size * cell_size * 4)
        self.fd, write_fd = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(self.fd)
            os.close(write_fd)
            raise
        if self.pid == 0:
            os.close(self.fd)
            _render_batches(write_fd, cfg, cell_size, len(self.record))
        os.close(write_fd)

    def batches(self, counts: dict[tasks.TaskKind, int]) -> Iterator[tuple[Pair, Pair, bool]]:
        """Each step's ``(prompt, query, flip)``, counted into ``counts``.
        The arrays are views of one buffer, valid until the next batch is
        drawn. A helper that fails or exits early is a ``RuntimeError``
        naming the step and the helper's message."""
        c = self.cell_size
        cells = np.frombuffer(self.record, np.float32, offset=_HEADER.size).reshape(4, 3, c, c)
        view = memoryview(self.record)
        for step in range(self.cfg.steps):
            got = 0
            while got < len(view) and (n := os.readv(self.fd, [view[got:]])):
                got += n
            index, flip = _HEADER.unpack_from(self.record)
            if got < len(view) or index < 0:
                message = "it exited before sending this step's batch"
                if got > _HEADER.size and index < 0:
                    message = bytes(view[_HEADER.size:got]).decode(errors="replace")
                raise RuntimeError(f"pretraining sample helper failed at step {step}: {message}")
            counts[self.cfg.task_mix[index]] += 1
            yield (cells[0], cells[1]), (cells[2], cells[3]), bool(flip)

    def close(self) -> None:
        os.close(self.fd)
        os.kill(self.pid, signal.SIGKILL)  # it may still be rendering, after a divergence
        os.waitpid(self.pid, 0)


def pretrain(model_config: model.ModelConfig, cfg: PretrainConfig) -> PretrainResult:
    counts: dict[tasks.TaskKind, int] = {t: 0 for t in cfg.task_mix}
    if cfg.steps == 0:  # nothing to render, so no helper
        return PretrainResult(params=model.init(model_config, seed=cfg.seed), losses=[], task_counts=counts)
    helper = _SampleHelper(cfg, model_config.cell_size)  # before init, so the first batch is ready at step 0
    try:
        params, losses = fit(model.init(model_config, seed=cfg.seed), cfg.lr, helper.batches(counts), "pretraining")
    finally:
        helper.close()
    return PretrainResult(params=params, losses=losses, task_counts=counts)


def save_loss_trace(path: str | Path, losses: list[float]) -> None:
    lines = ["step,loss"]
    lines += [f"{i},{value:.8f}" for i, value in enumerate(losses)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
