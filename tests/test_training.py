import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from vict import harness, model, tasks, training, tuning
from vict import tensor as T
from vict.canvas import assemble_flipped, assemble_inference, cell_rows, patchify
from vict.gradcheck import TINY_CONFIG
from vict.seeding import rng_for

from reference_ops import extract_cell

SMALL_MODEL = model.ModelConfig(cell_size=16, patch_size=8, embed_dim=32, encoder_depth=1, decoder_depth=1, num_heads=2)
FOUR_TASKS = (tasks.TaskKind.LOWLIGHT, tasks.TaskKind.DENOISE, tasks.TaskKind.SEGMENTATION, tasks.TaskKind.DEPTH)


def _in_process_pretrain(model_config, cfg):
    """Pre-training with its batches drawn and rendered in this process,
    the loop the sample helper replaced."""
    rng = rng_for("pretrain", cfg.seed)
    counts = {t: 0 for t in cfg.task_mix}
    c = model_config.cell_size

    def batches():
        for _ in range(cfg.steps):
            task = cfg.task_mix[int(rng.integers(len(cfg.task_mix)))]
            counts[task] += 1
            prompt = tasks.generate(task, int(rng.integers(0, 2**63)), c)
            query = tasks.generate(task, int(rng.integers(0, 2**63)), c)
            yield (prompt.input, prompt.target), (query.input, query.target), rng.random() < training.FLIP_MASK_PROB

    params, losses = training.fit(model.init(model_config, seed=cfg.seed), cfg.lr, batches(), "pretraining")
    return params, losses, counts


@pytest.mark.parametrize(
    "model_config, steps, mix",
    [
        pytest.param(SMALL_MODEL, steps, mix, id=f"small-{steps}-steps-{len(mix)}-tasks")
        for steps in (0, 1, 7, 41)
        for mix in (tasks.ALL_TASKS, FOUR_TASKS)
    ]
    + [pytest.param(model.ModelConfig(), 7, tasks.ALL_TASKS, id="default-7-steps-5-tasks")],
)
def test_pretrain_matches_the_in_process_batch_loop(model_config, steps, mix):
    cfg = training.PretrainConfig(steps=steps, seed=steps + 2, task_mix=mix)
    result = training.pretrain(model_config, cfg)
    params, losses, counts = _in_process_pretrain(model_config, cfg)
    assert result.params.digest() == params.digest()
    assert result.losses == losses
    assert result.task_counts == counts
    assert list(result.task_counts) == list(mix)


def test_pretrain_without_steps_starts_no_helper(monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked a helper for zero steps"))
    training.pretrain(SMALL_MODEL, training.PretrainConfig(steps=0))


def test_no_helper_outlives_a_divergence(monkeypatch):
    """The helper renders more batches than the pipe holds, so it is still
    running, blocked on the pipe, when the trainer stops at step 1."""
    def diverge_on_second_step(group, grads, state):
        if state.t == 1:
            raise FloatingPointError("adamw_step: non-finite gradient for 'mask_token'")
        state.t += 1

    monkeypatch.setattr(training, "adamw_step", diverge_on_second_step)
    head = rf"^pretraining diverged at step 1 \(params digest {model.init(SMALL_MODEL, seed=0).digest()}\): "
    with pytest.raises(FloatingPointError, match=head):
        training.pretrain(SMALL_MODEL, training.PretrainConfig(steps=500, seed=0))


def test_an_error_in_the_helper_names_the_step_and_message(monkeypatch):
    generate, calls = tasks.generate, []

    def fail_on_fifth_sample(task, seed, cell_size):
        calls.append(seed)  # in the helper's memory: each step renders two samples
        if len(calls) == 5:
            raise ValueError(f"no scene for seed {seed}")
        return generate(task, seed, cell_size)

    monkeypatch.setattr(tasks, "generate", fail_on_fifth_sample)
    with pytest.raises(RuntimeError, match=r"^pretraining sample helper failed at step 2: ValueError: no scene for seed \d+$"):
        training.pretrain(SMALL_MODEL, training.PretrainConfig(steps=6, seed=0))
    assert calls == []  # the parent never renders


def test_a_helper_that_exits_early_names_the_step(monkeypatch):
    generate = tasks.generate
    calls = []

    def exit_on_third_sample(task, seed, cell_size):
        calls.append(seed)
        if len(calls) == 3:
            os._exit(3)
        return generate(task, seed, cell_size)

    monkeypatch.setattr(tasks, "generate", exit_on_third_sample)
    with pytest.raises(RuntimeError, match="^pretraining sample helper failed at step 1: it exited before sending"):
        training.pretrain(SMALL_MODEL, training.PretrainConfig(steps=4, seed=0))


def test_progress_lines_on_stderr(monkeypatch, capsys):
    cfg = training.PretrainConfig(steps=7, seed=1)
    result = training.pretrain(SMALL_MODEL, cfg)
    assert capsys.readouterr() == ("", "")  # fewer steps than PROGRESS_EVERY print nothing
    monkeypatch.setattr(training, "PROGRESS_EVERY", 3)
    again = training.pretrain(SMALL_MODEL, cfg)
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert [line.split(",")[0] for line in lines] == [
        f"pretraining step {step}: mean loss {sum(result.losses[step - 3:step]) / 3:.5f} over the last 3" for step in (3, 6)
    ]
    assert all(line.endswith(" s") for line in lines)
    assert again.losses == result.losses and again.params.digest() == result.params.digest()


def test_zero_steps_returns_init_params():
    cfg = training.PretrainConfig(steps=0, seed=4)
    result = training.pretrain(SMALL_MODEL, cfg)
    assert result.params.digest() == model.init(SMALL_MODEL, seed=4).digest()
    assert result.losses == []


def test_pretrain_deterministic_in_seed():
    cfg = training.PretrainConfig(steps=20, seed=5)
    a = training.pretrain(SMALL_MODEL, cfg)
    b = training.pretrain(SMALL_MODEL, cfg)
    assert a.params.digest() == b.params.digest()
    assert a.losses == b.losses
    c = training.pretrain(SMALL_MODEL, training.PretrainConfig(steps=20, seed=6))
    assert a.params.digest() != c.params.digest()


def test_pretrain_loss_decreases_roughly():
    cfg = training.PretrainConfig(steps=300, seed=0)
    result = training.pretrain(SMALL_MODEL, cfg)
    assert np.mean(result.losses[-50:]) < np.mean(result.losses[:50])


def test_held_out_task_never_drawn():
    mix = tuple(t for t in tasks.ALL_TASKS if t is not tasks.TaskKind.DEPTH)
    cfg = training.PretrainConfig(steps=40, seed=1, task_mix=mix)
    result = training.pretrain(SMALL_MODEL, cfg)
    assert result.task_counts.get(tasks.TaskKind.DEPTH, 0) == 0
    assert sum(result.task_counts.values()) == 40


def test_repeated_task_rejected():
    mix = (tasks.TaskKind.DENOISE, tasks.TaskKind.DENOISE, tasks.TaskKind.DEPTH)
    with pytest.raises(ValueError, match=r"^PretrainConfig: task denoise selected more than once$"):
        training.PretrainConfig(task_mix=mix)


def test_masked_cell_loss_scores_the_empty_cell(monkeypatch):
    """With a model that paints each cell a distinct constant, the loss
    identifies which cell was read and which target it was scored against."""
    c = 8
    painted = {0: 0.1, 1: 0.2, 2: 0.3, 3: 0.4}  # by cell index, row-major: top left, top right, bottom left, bottom right

    def image(value):
        return np.full((3, c, c), value, dtype=np.float32)

    def stub_forward(params, patches, empty):
        cell = next(position for position in painted if np.array_equal(cell_rows(position, 2), empty))
        return T.constant(patchify(image(painted[cell]), 4))  # the empty cell's patch rows

    monkeypatch.setattr(model, "forward", stub_forward)
    prompt, query = (image(0.5), image(0.9)), (image(0.5), image(0.65))
    # the 8 (cell, target) pairings give 8 distinct losses
    for flip, cell, target in ((False, 3, 0.65), (True, 1, 0.9)):
        loss = training.masked_cell_loss(model.init(TINY_CONFIG, seed=0), prompt, query, flip).item()
        assert loss == pytest.approx(0.5 * (painted[cell] - target) ** 2, rel=1e-6)


def _image_space_masked_cell_loss(params, prompt, query, flip):
    """The pre-training loss scored on images: the prediction unpatchified
    on the tape and scored against the true cell."""
    (x, y), (x_q, y_q) = prompt, query
    p = params.config.patch_size
    canvas, target = (assemble_flipped(x, x_q, y_q, p), y) if flip else (assemble_inference(x, y, x_q, p), y_q)
    pred = extract_cell(model.forward(params, *canvas))
    return T.smooth_l1(pred, T.constant(target))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("flip", [False, True])
def test_rows_scored_masked_cell_loss_matches_the_image_space_chain(flip, dtype):
    params = model.init(model.ModelConfig(), seed=0, dtype=dtype)
    prompt, query = (tasks.generate(tasks.TaskKind.DERAIN, seed) for seed in (3, 4))
    prompt, query = ((s.input.astype(dtype), s.target.astype(dtype)) for s in (prompt, query))

    def loss_and_grads(loss_fn):
        work = params.clone()
        group = model.trainable(work, "all")
        loss = loss_fn(work, prompt, query, flip)
        loss.backward()
        return loss.data, {name: t.grad.tobytes() for name, t in group.items()}

    loss, grads = loss_and_grads(training.masked_cell_loss)
    ref_loss, ref_grads = loss_and_grads(_image_space_masked_cell_loss)
    # the gradient of smooth-L1 is elementwise, so the rows get the image's
    # gradient values, permuted, and every weight keeps its bits; only the
    # loss sums its terms in another order
    assert grads.keys() == ref_grads.keys() == set(params.tensors)
    assert [name for name in grads if grads[name] != ref_grads[name]] == []
    assert abs(loss - ref_loss) <= 2 * np.spacing(ref_loss)


def test_loss_trace_csv(tmp_path):
    path = tmp_path / "trace.csv"
    training.save_loss_trace(path, [0.5, 0.25])
    assert path.read_text().splitlines() == ["step,loss", "0,0.50000000", "1,0.25000000"]


def _fewshot_config(**overrides):
    return harness.FewShotSweepConfig(checkpoint="unused", **overrides)


def test_fewshot_finetune_rejects_shots_outside_config():
    params = model.init(SMALL_MODEL, seed=2)
    with pytest.raises(ValueError, match=r"fewshot_finetune: shot count 4 is not in the config's shots \(1, 2\)"):
        harness.fewshot_finetune(params, _fewshot_config(shots=(1, 2)), 4, 0)


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), -1e-3])
def test_configs_reject_bad_lr(lr):
    with pytest.raises(ValueError, match="PretrainConfig: lr must be finite and nonnegative"):
        training.PretrainConfig(lr=lr)
    with pytest.raises(ValueError, match="FewShotSweepConfig: finetune_lr must be finite and nonnegative"):
        _fewshot_config(finetune_lr=lr)


def test_fewshot_zero_steps_is_identity():
    params = model.init(SMALL_MODEL, seed=2)
    tuned = harness.fewshot_finetune(params, _fewshot_config(finetune_steps=0), 1, 0)
    assert tuned.digest() == params.digest()


def test_fewshot_deterministic_and_leaves_original_untouched():
    params = model.init(SMALL_MODEL, seed=2)
    digest_before = params.digest()
    config = _fewshot_config(finetune_steps=5)
    a = harness.fewshot_finetune(params, config, 2, 3)
    b = harness.fewshot_finetune(params, config, 2, 3)
    assert a.digest() == b.digest()
    assert a.digest() != digest_before
    assert params.digest() == digest_before


def test_trained_weights_are_off_the_tape():
    pretrained = training.pretrain(SMALL_MODEL, training.PretrainConfig(steps=1, seed=7)).params
    canvas = assemble_inference(*(np.zeros((3, 16, 16), np.float32),) * 3, 8)
    for params in (pretrained, harness.fewshot_finetune(pretrained, _fewshot_config(finetune_steps=1), 1, 0)):
        assert not any(t.requires_grad for t in params.tensors.values())
        assert model.forward(params, *canvas)._parents == ()


@pytest.mark.parametrize("what", ["pretraining", "few-shot fine-tuning"])
def test_divergence_names_the_loop_and_step(monkeypatch, what):
    def diverge_on_second_step(group, grads, state):
        if state.t == 1:
            raise FloatingPointError("adamw_step: non-finite gradient for 'mask_token'")
        state.t += 1

    monkeypatch.setattr(training, "adamw_step", diverge_on_second_step)
    unmoved = model.init(SMALL_MODEL, seed=0 if what == "pretraining" else 2).digest()  # the stand-in update moves nothing
    head = rf"^{what} diverged at step 1 \(params digest {unmoved}\): adamw_step: non-finite"
    with pytest.raises(FloatingPointError, match=head) as err:
        if what == "pretraining":
            training.pretrain(SMALL_MODEL, training.PretrainConfig(steps=3, seed=0))
        else:
            harness.fewshot_finetune(model.init(SMALL_MODEL, seed=2), _fewshot_config(finetune_steps=3), 1, 0)
    assert isinstance(err.value.__cause__, FloatingPointError)


# ---------------------------------------------------------------------------
# the AdamW worker
# ---------------------------------------------------------------------------


def _batches(config, steps):
    c = config.cell_size
    batches = []
    for i in range(steps):
        prompt, query = (tasks.generate(tasks.ALL_TASKS[i % 5], 10 * i + k, c) for k in (1, 2))
        batches.append(((prompt.input, prompt.target), (query.input, query.target), i % 3 == 2))
    return batches


def _fit_in_process(params, lr, batches):
    """``fit`` with every update computed in this process: ``adamw_step``
    with no worker, after a backward that hands nothing over."""
    group = model.trainable(params, "all")
    state = T.AdamWState(lr=lr)
    losses = []
    for prompt, query, flip in batches:
        T.zero_grads(params.tensors.values())
        loss = training.masked_cell_loss(params, prompt, query, flip)
        loss.backward()
        T.adamw_step(group, T.collect_grads(group), state)
        losses.append(loss.item())
    model.freeze(params)
    return params, losses


@pytest.mark.parametrize("config", [SMALL_MODEL, model.ModelConfig()], ids=["small", "default"])
def test_fit_gives_the_in_process_update(config):
    batches = _batches(config, 6)
    fitted, losses = training.fit(model.init(config, seed=3), 1e-2, batches, "fitting")
    reference, reference_losses = _fit_in_process(model.init(config, seed=3), 1e-2, batches)
    assert losses == reference_losses
    assert fitted.flat.tobytes() == reference.flat.tobytes()
    assert fitted.digest() == reference.digest()


def _plant_nan(monkeypatch, name, step):
    """From here on, backward number ``step`` (counted from 0) writes a NaN
    into the gradient of the ``model.trainable`` group's tensor ``name``
    once that gradient is final (``on_final``), before handing the tensor
    to the backward's own ``on_final``, if it was given one."""
    groups, calls, trainable, backward = [], [], model.trainable, T.backward

    def capturing_trainable(params, selector):
        groups.append(trainable(params, selector))
        return groups[-1]

    def planting_backward(root, on_final=None):
        calls.append(None)

        def plant(leaf):
            if len(calls) == step + 1 and leaf is groups[-1][name]:
                leaf.grad.reshape(-1)[-1] = np.nan
            if on_final is not None:
                on_final(leaf)

        backward(root, on_final=plant)

    monkeypatch.setattr(model, "trainable", capturing_trainable)
    monkeypatch.setattr(T, "backward", planting_backward)


def _loop(loop, params, steps):
    """Run ``fit``, which steps ``params`` in place, or ``adapt_and_predict``
    from ``params`` for ``steps`` steps; returns the digest of the weights
    it stepped."""
    if loop == "fit":
        return training.fit(params, 1e-2, _batches(params.config, steps), "fitting")[0].digest()
    (x, y), (x_t, _), _ = _batches(params.config, 1)[0]
    return tuning.adapt_and_predict(params, tuning.PromptSet(pair=(x, y)), x_t, tuning.VictConfig(steps=steps)).adapted_params_digest


@pytest.mark.parametrize("config", [SMALL_MODEL, model.ModelConfig()], ids=["small", "default"])
@pytest.mark.parametrize("loop", ["fit", "adapt"])
def test_a_nan_in_an_encoder_gradient_is_named_and_moves_no_weight(monkeypatch, loop, config):
    """``fit``'s worker finds the NaN, in the default config in a run handed
    over during backward and in the small one in the rest ``adamw_step``
    hands over; an adaptation's in-process update finds it before any
    weight moves."""
    after_one_step = _loop(loop, model.init(config, seed=0), 1)
    _plant_nan(monkeypatch, "enc0.attn.qkv.weight", step=1)
    cause = re.escape("adamw_step: non-finite gradient for 'enc0.attn.qkv.weight'")
    head = rf"{'fitting' if loop == 'fit' else 'adaptation'} diverged at step 1 \(params digest {after_one_step}\)"
    params = model.init(config, seed=0)
    with pytest.raises(FloatingPointError, match=f"^{head}: {cause}$"):
        _loop(loop, params, 3)
    assert params.digest() == (after_one_step if loop == "fit" else model.init(config, seed=0).digest())


# only fit forks an AdamW worker; the one-value "loop" keeps these tests' ids
@pytest.mark.parametrize("loop", ["fit"])
def test_a_loop_with_no_step_forks_no_worker(monkeypatch, loop):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked a worker for zero steps"))
    _loop(loop, model.init(SMALL_MODEL, seed=0), 0)


def _end_loop(monkeypatch, loop, ending):
    """Run ``loop`` for 3 steps from fresh small weights, to the end, to a
    divergence at step 1 or to a bug in its loss at step 1."""
    if ending == "divergence":
        _plant_nan(monkeypatch, "mask_token", step=1)
    if ending == "bug":
        module, name = (training, "masked_cell_loss") if loop == "fit" else (tuning, "cycle_loss")
        calls, real_loss = [], getattr(module, name)

        def loss_with_a_bug(*args):
            calls.append(None)
            if len(calls) == 2:
                raise TypeError("a bug")
            return real_loss(*args)

        monkeypatch.setattr(module, name, loss_with_a_bug)
    expected = {"normal": None, "divergence": FloatingPointError, "bug": TypeError}[ending]
    if expected is None:
        _loop(loop, model.init(SMALL_MODEL, seed=0), 3)
    else:
        with pytest.raises(expected):
            _loop(loop, model.init(SMALL_MODEL, seed=0), 3)


@pytest.mark.parametrize("ending", ["normal", "divergence", "bug"])
@pytest.mark.parametrize("loop", ["fit"])
def test_no_adamw_worker_outlives_its_loop(monkeypatch, loop, ending):
    """The worker is forked at the first step and reaped on every exit
    (the ``no_child_process_left`` fixture checks that none is left)."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
    _end_loop(monkeypatch, loop, ending)
    assert len(forks) == 1


@pytest.mark.parametrize("ending", ["normal", "divergence", "bug"])
def test_an_adaptation_forks_no_process(monkeypatch, ending):
    """An adaptation steps AdamW in this process, however it ends."""
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("an adaptation forked"))
    _end_loop(monkeypatch, "adapt", ending)


def _running(pid):
    """Whether process ``pid`` exists and has not exited (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
def test_a_killed_parent_leaves_no_adamw_worker():
    """A fit that kills itself outright at its second batch: its worker
    sees the end of its command pipe and exits."""
    code = f"""
import os, signal
from vict import model, tasks, training
fork = os.fork
def printing_fork():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid
os.fork = printing_fork
sample = tasks.generate(tasks.TaskKind.DENOISE, 1, 16)
batch = ((sample.input, sample.target), (sample.input, sample.target), False)
def batches():
    yield batch
    os.kill(os.getpid(), signal.SIGKILL)
    yield batch
training.fit(model.init(model.{SMALL_MODEL!r}, seed=0), 1e-2, batches(), "fitting")
"""
    env = {**os.environ, "PYTHONPATH": str(Path(training.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == -signal.SIGKILL, run.stderr
    [pid] = map(int, run.stdout.split())
    deadline = time.monotonic() + 10
    while _running(pid) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not _running(pid)
