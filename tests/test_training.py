import numpy as np
import pytest

from vict import harness, model, tasks, training
from vict import tensor as T
from vict.canvas import CellPosition, assemble_flipped, assemble_inference, cell_rows, patchify
from vict.gradcheck import TINY_CONFIG

from reference_ops import extract_cell

SMALL_MODEL = model.ModelConfig(cell_size=16, patch_size=8, embed_dim=32, encoder_depth=1, decoder_depth=1, num_heads=2)


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


def test_masked_cell_loss_scores_the_empty_cell(monkeypatch):
    """With a model that paints each cell a distinct constant, the loss
    identifies which cell was read and which target it was scored against."""
    c = 8
    painted = {
        CellPosition.TOP_LEFT: 0.1,
        CellPosition.TOP_RIGHT: 0.2,
        CellPosition.BOTTOM_LEFT: 0.3,
        CellPosition.BOTTOM_RIGHT: 0.4,
    }

    def image(value):
        return np.full((3, c, c), value, dtype=np.float32)

    def stub_forward(params, patches, empty):
        cell = next(position for position in painted if np.array_equal(cell_rows(position, 2), empty))
        return T.constant(patchify(image(painted[cell]), 4))  # the empty cell's patch rows

    monkeypatch.setattr(model, "forward", stub_forward)
    prompt, query = (image(0.5), image(0.9)), (image(0.5), image(0.65))
    # the 8 (cell, target) pairings give 8 distinct losses
    for flip, cell, target in ((False, CellPosition.BOTTOM_RIGHT, 0.65), (True, CellPosition.TOP_RIGHT, 0.9)):
        loss = training.masked_cell_loss(model.init(TINY_CONFIG, seed=0), prompt, query, flip).item()
        assert loss == pytest.approx(0.5 * (painted[cell] - target) ** 2, rel=1e-6)


def _image_space_masked_cell_loss(params, prompt, query, flip):
    """The pre-training loss scored on images: the prediction unpatchified
    on the tape and scored against the true cell."""
    (x, y), (x_q, y_q) = prompt, query
    canvas, target = (assemble_flipped(x, x_q, y_q), y) if flip else (assemble_inference(x, y, x_q), y_q)
    p = params.config.patch_size
    pred = extract_cell(model.forward(params, canvas.patches(p), canvas.empty_rows(p)))
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
    canvas = assemble_inference(*(np.zeros((3, 16, 16), np.float32),) * 3)
    for params in (pretrained, harness.fewshot_finetune(pretrained, _fewshot_config(finetune_steps=1), 1, 0)):
        assert not any(t.requires_grad for t in params.tensors.values())
        assert model.forward(params, canvas.patches(8), canvas.empty_rows(8))._parents == ()


@pytest.mark.parametrize("what", ["pretraining", "few-shot fine-tuning"])
def test_divergence_names_the_loop_and_step(monkeypatch, what):
    def diverge_on_second_step(group, grads, state):
        if state.t == 1:
            raise FloatingPointError("adamw_step: non-finite gradient for 'mask_token'")
        state.t += 1

    monkeypatch.setattr(training, "adamw_step", diverge_on_second_step)
    with pytest.raises(FloatingPointError, match=f"^{what} diverged at step 1: adamw_step: non-finite") as err:
        if what == "pretraining":
            training.pretrain(SMALL_MODEL, training.PretrainConfig(steps=3, seed=0))
        else:
            harness.fewshot_finetune(model.init(SMALL_MODEL, seed=2), _fewshot_config(finetune_steps=3), 1, 0)
    assert isinstance(err.value.__cause__, FloatingPointError)
