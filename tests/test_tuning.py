from collections import Counter

import numpy as np
import pytest

from vict import canvas as cv
from vict import harness, model, tasks, training, tuning
from vict import tensor as T
from vict.canvas import assemble_flipped, assemble_inference, patchify
from vict.checkpoint import load_checkpoint
from vict.corruptions import CorruptionKind, CorruptionSpec

from reference_ops import extract_cell, reshape, transpose

SMALL_MODEL = model.ModelConfig(cell_size=16, patch_size=8, embed_dim=32, encoder_depth=1, decoder_depth=1, num_heads=2)


@pytest.fixture(scope="module")
def params():
    return model.init(SMALL_MODEL, seed=0)


@pytest.fixture(scope="module")
def sample_pair():
    prompt = tasks.generate(tasks.TaskKind.DENOISE, 1, cell_size=16)
    query = tasks.generate(tasks.TaskKind.DENOISE, 2, cell_size=16)
    return (prompt.input, prompt.target), query.input


# ---------------------------------------------------------------------------
# prompt selection
# ---------------------------------------------------------------------------


def test_zero_shot_prompt_is_clean():
    prompt = tuning.select_prompt(tasks.TaskKind.DENOISE, tuning.ZERO_SHOT, None, seed=9, cell_size=16)
    clean = tasks.generate(tasks.TaskKind.DENOISE, 9, cell_size=16)
    assert prompt.corruption is None
    with pytest.raises(TypeError):  # provenance follows the corruption; it is not stored
        tuning.PromptSet(prompt.pair, "corrupted", None)
    assert prompt.pair[0].tobytes() == clean.input.tobytes()
    assert prompt.pair[1].tobytes() == clean.target.tobytes()


def test_one_shot_prompt_is_corrupted_input_clean_target():
    spec = CorruptionSpec(CorruptionKind.GAUSSIAN_NOISE, 3, seed=42)
    prompt = tuning.select_prompt(tasks.TaskKind.DENOISE, tuning.ONE_SHOT, spec, seed=9, cell_size=16)
    clean = tasks.generate(tasks.TaskKind.DENOISE, 9, cell_size=16)
    assert prompt.corruption is not None
    assert np.mean((prompt.pair[0] - clean.input) ** 2) > 0.0
    assert prompt.pair[1].tobytes() == clean.target.tobytes()
    # independent corruption seed, same kind and severity
    assert prompt.corruption.kind is spec.kind
    assert prompt.corruption.severity == spec.severity
    assert prompt.corruption.seed != spec.seed


def test_one_shot_requires_corruption():
    with pytest.raises(ValueError, match="corruption"):
        tuning.select_prompt(tasks.TaskKind.DENOISE, tuning.ONE_SHOT, None, seed=9)


def test_prompt_differs_from_test_sample():
    prompt = tuning.select_prompt(tasks.TaskKind.DENOISE, tuning.ZERO_SHOT, None, seed=10, cell_size=16)
    test = tasks.generate(tasks.TaskKind.DENOISE, 11, cell_size=16)
    assert prompt.pair[0].tobytes() != test.input.tobytes()


# ---------------------------------------------------------------------------
# frozen inference on a stack
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("count", [2, 3])
@pytest.mark.parametrize("weights", ["small_checkpoint", "default_init"])
def test_a_stack_gives_each_canvas_the_bytes_of_its_own_call(weights, count, request):
    if weights == "small_checkpoint":
        params = load_checkpoint(request.getfixturevalue("small_checkpoint"))
    else:
        params = model.init(model.ModelConfig(), seed=0)
    c = params.config.cell_size
    spec = CorruptionSpec(CorruptionKind.FOG, 4, seed=3)
    prompts = [tuning.select_prompt(tasks.TaskKind.DENOISE, tuning.ONE_SHOT, spec, seed=30 + i, cell_size=c) for i in range(count)]
    x, y = (np.stack(cells) for cells in zip(*(prompt.pair for prompt in prompts)))
    inputs = np.stack([tasks.generate(tasks.TaskKind.DENOISE, 40 + i, cell_size=c).input for i in range(count)])
    shared = inputs[0]
    for x_t, each in ((inputs, inputs), (shared, [shared] * count), (np.broadcast_to(shared, inputs.shape), [shared] * count)):
        stacked = tuning.infer(params, (x, y), x_t)
        alone = [tuning.infer(params, (x[i], y[i]), each[i]) for i in range(count)]
        assert stacked.shape == (count, 3, c, c) and alone[0].shape == (3, c, c)
        assert [cell.tobytes() for cell in stacked] == [cell.tobytes() for cell in alone]
        assert len({cell.tobytes() for cell in alone}) == count  # the prompts differ, and so do the predictions


# ---------------------------------------------------------------------------
# cycle loss
# ---------------------------------------------------------------------------


def test_cycle_loss_nonnegative_scalar(params, sample_pair):
    pair, x_t = sample_pair
    loss = tuning.cycle_loss(params, *tuning.cycle_rows(pair, x_t, params.config.patch_size))
    assert loss.size == 1
    assert loss.item() >= 0.0


def test_cycle_loss_zero_for_identity_copier(params, sample_pair, monkeypatch):
    """A stub model that always inpaints the true prompt output gives zero loss."""
    pair, x_t = sample_pair
    y = pair[1]

    def stub_forward(p, patches, empty):
        return T.constant(patchify(y, SMALL_MODEL.patch_size))  # the empty cell's patch rows

    monkeypatch.setattr(model, "forward", stub_forward)
    loss = tuning.cycle_loss(params, *tuning.cycle_rows(pair, x_t, params.config.patch_size))
    assert loss.item() == 0.0


def _image_space_cycle_loss(params, pair, x_t):
    """The cycle loss scored on images: the first prediction unpatchified
    on the tape, patchified again on the tape into the flipped canvas, and
    the second prediction unpatchified and scored against the image y."""
    x, y = pair
    p = params.config.patch_size
    patches, query = assemble_inference(x, y, x_t, p)
    y_t_hat = extract_cell(model.forward(params, patches, query))
    k = y_t_hat.shape[1] // p
    cell = reshape(y_t_hat, (3, k, p, k, p))
    cell = reshape(transpose(cell, (1, 3, 2, 4, 0)), (k * k, 3 * p * p))
    flipped, prompt = assemble_flipped(x, x_t, y_t_hat.data, p)
    rows = T.put_rows(T.constant(flipped), query, cell)
    y_hat = extract_cell(model.forward(params, rows, prompt))
    return T.smooth_l1(y_hat, T.constant(y))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_rows_scored_cycle_loss_matches_the_image_space_chain(dtype):
    params = model.init(model.ModelConfig(), seed=0, dtype=dtype)
    prompt, query = (tasks.generate(tasks.TaskKind.DERAIN, seed) for seed in (3, 4))
    pair, x_t = (prompt.input.astype(dtype), prompt.target.astype(dtype)), query.input.astype(dtype)

    def loss_and_grads(make_loss):
        work = params.clone()
        group = model.trainable(work, "encoder")
        loss = make_loss(work)
        loss.backward()
        return loss.data, {name: t.grad.tobytes() for name, t in group.items()}

    rows = tuning.cycle_rows(pair, x_t, params.config.patch_size)
    loss, grads = loss_and_grads(lambda work: tuning.cycle_loss(work, *rows))
    ref_loss, ref_grads = loss_and_grads(lambda work: _image_space_cycle_loss(work, pair, x_t))
    # the gradient of smooth-L1 is elementwise, so every gradient keeps its
    # bits, including what reaches the first prediction through put_rows;
    # only the loss sums its terms in another order
    assert [name for name in grads if grads[name] != ref_grads[name]] == []
    assert abs(loss - ref_loss) <= 2 * np.spacing(ref_loss)


def test_an_adaptation_builds_its_canvases_once(params, sample_pair, monkeypatch):
    pair, x_t = sample_pair
    calls = Counter()

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((tuning, "assemble_inference"), (tuning, "assemble_flipped")):
        counted(module, name)
    counted(cv, "patchify")  # each present cell's rows, inside assemble_*
    counted(tuning, "patchify")  # the prompt output's rows

    def calls_for(steps):
        calls.clear()
        tuning.adapt_and_predict(params, tuning.PromptSet(pair=pair), x_t, tuning.VictConfig(steps=steps))
        return dict(calls)

    # the cycle loss's canvases and y's rows once, then the prediction's
    # canvas: three present cells' rows per canvas, and y's
    assert calls_for(1) == calls_for(5) == {"assemble_inference": 2, "assemble_flipped": 1, "patchify": 3 * 3 + 1}


# ---------------------------------------------------------------------------
# adapt_and_predict
# ---------------------------------------------------------------------------


def test_k0_reduces_to_frozen_inference(params, sample_pair):
    pair, x_t = sample_pair
    prompt = tuning.PromptSet(pair=pair)
    result = tuning.adapt_and_predict(params, prompt, x_t, tuning.VictConfig(steps=0))
    frozen = tuning.infer(params, pair, x_t)
    assert result.y_t_hat.tobytes() == frozen.tobytes()
    assert result.loss_trace == []


def test_adaptation_leaves_theta0_untouched(params, sample_pair):
    pair, x_t = sample_pair
    digest = params.digest()
    prompt = tuning.PromptSet(pair=pair)
    tuning.adapt_and_predict(params, prompt, x_t, tuning.VictConfig(steps=3))
    assert params.digest() == digest


def test_an_adaptation_and_a_fit_build_one_parameter_arena_each(params, sample_pair, monkeypatch):
    # the adapted and the fitted weights are predicted from and returned
    # as they are, taken off the tape, not cloned again
    pair, x_t = sample_pair
    before = params.flat.tobytes()
    built = []
    empty = model.Params.empty.__func__
    monkeypatch.setattr(model.Params, "empty", classmethod(lambda cls, *args: built.append(args) or empty(cls, *args)))
    adapted = {}
    for steps in (0, 2):
        built.clear()
        config = tuning.VictConfig(steps=steps)
        adapted[steps] = tuning.adapt_and_predict(params, tuning.PromptSet(pair=pair), x_t, config)
        assert len(built) == 1  # the private clone
        assert params.flat.tobytes() == before
    frozen = tuning.infer(params, pair, x_t).tobytes()
    assert adapted[0].y_t_hat.tobytes() == frozen and adapted[0].adapted_params_digest == params.digest()
    assert adapted[2].y_t_hat.tobytes() != frozen
    built.clear()
    fitted = training.pretrain(SMALL_MODEL, training.PretrainConfig(steps=2, seed=0)).params
    assert len(built) == 1  # init's; fit steps and returns those weights
    assert not any(t.requires_grad or t.grad is not None or t.grad_buffer is not None for t in fitted.tensors.values())


def _adapt_in_process(params0, prompt, x_t, config):
    """``adapt_and_predict`` with every update computed in this process:
    ``adamw_step`` with no worker, after a backward that hands nothing over."""
    work = params0.clone()
    group = model.trainable(work, model.ENCODER)
    state = T.AdamWState(lr=config.lr, eps=config.eps)
    rows = tuning.cycle_rows(prompt.pair, x_t, work.config.patch_size)
    trace = []
    for _ in range(config.steps):
        T.zero_grads(work.tensors.values())
        loss = tuning.cycle_loss(work, *rows)
        loss.backward()
        T.adamw_step(group, T.collect_grads(group), state)
        trace.append(loss.item())
    model.freeze(work)
    return tuning.AdaptationResult(tuning.infer(work, prompt.pair, x_t), trace, work.digest())


@pytest.mark.parametrize("config", [SMALL_MODEL, model.ModelConfig()], ids=["small", "default"])
def test_adaptation_gives_the_in_process_update(config):
    c = config.cell_size
    prompt = tuning.select_prompt(tasks.TaskKind.DENOISE, tuning.ZERO_SHOT, None, seed=5, cell_size=c)
    x_t = tasks.generate(tasks.TaskKind.DENOISE, 6, cell_size=c).input
    params = model.init(config, seed=1)
    vict = tuning.VictConfig(steps=8)
    result, reference = tuning.adapt_and_predict(params, prompt, x_t, vict), _adapt_in_process(params, prompt, x_t, vict)
    assert result.loss_trace == reference.loss_trace
    assert result.adapted_params_digest == reference.adapted_params_digest
    assert result.y_t_hat.tobytes() == reference.y_t_hat.tobytes()


def _adapted_clone(params, pair, x_t, config, monkeypatch):
    """The private weights ``adapt_and_predict`` tunes, caught where it puts them on the tape."""
    captured = {}
    original_trainable = model.trainable

    def capturing_trainable(work_params, selector):
        captured["params"] = work_params
        return original_trainable(work_params, selector)

    monkeypatch.setattr(model, "trainable", capturing_trainable)
    tuning.adapt_and_predict(params, tuning.PromptSet(pair=pair), x_t, config)
    return captured["params"]


def test_adapted_prediction_records_no_tape(params, sample_pair, monkeypatch):
    pair, x_t = sample_pair
    outputs = []
    original_forward = model.forward

    def recording_forward(*args):
        outputs.append(original_forward(*args))
        return outputs[-1]

    monkeypatch.setattr(model, "forward", recording_forward)
    tuning.adapt_and_predict(params, tuning.PromptSet(pair=pair), x_t, tuning.VictConfig(steps=2))
    assert len(outputs) == 2 * 2 + 1  # two forwards per cycle loss, then the prediction
    assert all(out.requires_grad for out in outputs[:-1])
    prediction = outputs[-1]
    assert not prediction.requires_grad and prediction._parents == () and prediction._backward is None


def test_encoder_selector_freezes_decoder_group(params, sample_pair, monkeypatch):
    pair, x_t = sample_pair
    adapted = _adapted_clone(params, pair, x_t, tuning.VictConfig(steps=2), monkeypatch)
    changed, frozen_names = [], []
    for name, t in adapted.tensors.items():
        same = t.data.tobytes() == params.tensors[name].data.tobytes()
        if model.group_of(name) == model.DECODER:
            assert same, f"decoder tensor {name} changed under encoder selector"
            frozen_names.append(name)
        elif not same:
            changed.append(name)
    assert changed and frozen_names


def test_encoder_selector_computes_no_decoder_gradients(params, sample_pair, monkeypatch):
    pair, x_t = sample_pair
    digest = params.digest()
    flags = {name: t.requires_grad for name, t in params.tensors.items()}
    at_update, adamw_step = [], tuning.adamw_step

    def recording_adamw_step(group, grads, state):
        work = captured["params"]
        at_update.append({name: (t.grad is not None, t.requires_grad) for name, t in work.tensors.items()})
        adamw_step(group, grads, state)

    captured, trainable = {}, model.trainable

    def capturing_trainable(work, selector):
        captured["params"] = work
        return trainable(work, selector)

    monkeypatch.setattr(model, "trainable", capturing_trainable)
    monkeypatch.setattr(tuning, "adamw_step", recording_adamw_step)
    config = tuning.VictConfig(steps=1)
    tuning.adapt_and_predict(params, tuning.PromptSet(pair=pair), x_t, config)
    adapted = captured["params"]
    assert len(at_update) == 1
    for name, state in at_update[0].items():
        assert state == ((False, False) if model.group_of(name) == model.DECODER else (True, True)), name
    # and once the loop is done, every tensor is off the tape with no gradient left
    taped = [name for name, t in adapted.tensors.items() if t.requires_grad or t.grad is not None or t.grad_buffer is not None]
    assert taped == []
    assert {name: t.requires_grad for name, t in params.tensors.items()} == flags
    assert params.digest() == digest


def test_reset_correctness_between_samples(params):
    prompt_a = tuning.select_prompt(tasks.TaskKind.DENOISE, tuning.ZERO_SHOT, None, seed=21, cell_size=16)
    prompt_b = tuning.select_prompt(tasks.TaskKind.DENOISE, tuning.ZERO_SHOT, None, seed=22, cell_size=16)
    x_a = tasks.generate(tasks.TaskKind.DENOISE, 31, cell_size=16).input
    x_b = tasks.generate(tasks.TaskKind.DENOISE, 32, cell_size=16).input
    config = tuning.VictConfig(steps=2)

    tuning.adapt_and_predict(params, prompt_a, x_a, config)
    after_a = tuning.adapt_and_predict(params, prompt_b, x_b, config)
    alone = tuning.adapt_and_predict(params, prompt_b, x_b, config)
    assert after_a.y_t_hat.tobytes() == alone.y_t_hat.tobytes()
    assert after_a.loss_trace == alone.loss_trace
    assert after_a.adapted_params_digest == alone.adapted_params_digest


def test_loss_trace_has_config_length(params, sample_pair):
    pair, x_t = sample_pair
    prompt = tuning.PromptSet(pair=pair)
    result = tuning.adapt_and_predict(params, prompt, x_t, tuning.VictConfig(steps=4))
    assert len(result.loss_trace) == 4
    assert result.y_t_hat.min() >= 0.0 and result.y_t_hat.max() <= 1.0


def test_config_validation():
    with pytest.raises(ValueError, match="steps"):
        tuning.VictConfig(steps=-1)


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(lr=float("nan")), "lr must be finite and nonnegative, got nan"),
        (dict(lr=float("inf")), "lr must be finite and nonnegative, got inf"),
        (dict(lr=-1.0), "lr must be finite and nonnegative, got -1.0"),
        (dict(eps=float("nan")), "eps must be finite and positive, got nan"),
        (dict(eps=float("inf")), "eps must be finite and positive, got inf"),
        (dict(eps=0.0), "eps must be finite and positive, got 0.0"),
    ],
)
def test_config_rejects_bad_rates(overrides, message):
    with pytest.raises(ValueError, match=f"VictConfig: {message}"):
        tuning.VictConfig(**overrides)


# ---------------------------------------------------------------------------
# non-finite values
# ---------------------------------------------------------------------------


def test_overflow_inside_the_forward_pass_raises_on_and_off_the_tape(params, sample_pair):
    pair, x_t = sample_pair
    huge = params.clone()
    huge.tensors["enc0.mlp.fc1.weight"].data[...] = 1e38  # its output overflows
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match=r"^take_rows: non-finite values in input$"):
            tuning.infer(huge, pair, x_t)  # no tape: the last block's row take checks it first and names itself
        model.trainable(huge, "encoder")
        with pytest.raises(FloatingPointError, match=r"^mlp: non-finite values in output$"):
            tuning.cycle_loss(huge, *tuning.cycle_rows(pair, x_t, huge.config.patch_size))


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_head_pre_activation_the_sigmoid_would_saturate_raises(params, sample_pair, value):
    pair, x_t = sample_pair
    bad = params.clone()
    bad.tensors["head.bias"].data[0] = value  # sigmoid(+-inf) is a finite 1 or 0
    with pytest.raises(FloatingPointError, match=r"^sigmoid: non-finite values in input$"):
        tuning.infer(bad, pair, x_t)


def test_non_finite_confined_to_a_discarded_cell_raises(params, sample_pair, monkeypatch):
    pair, x_t = sample_pair
    linear = T.linear

    def poisoning_linear(x, w, b, norm=None):
        out = linear(x, w, b, norm)
        if w is params_under_test.tensors["dec0.attn.qkv.weight"]:
            # after the last block's keys and values are made from it: patch 0
            # lies in the top-left cell, a row the last block drops
            x.data[0] = np.nan
        return out

    monkeypatch.setattr(T, "linear", poisoning_linear)
    params_under_test = params.clone()
    with pytest.raises(FloatingPointError, match=r"^take_rows: non-finite values in input$") as err:
        tuning.infer(params_under_test, pair, x_t)
    assert err.traceback[-2].name == "take_rows"
    model.trainable(params_under_test, "all")
    # on the tape, the row take's check names the op whose output holds the NaN
    with pytest.raises(FloatingPointError, match=r"^mlp: non-finite values in output$") as err:
        tuning.cycle_loss(params_under_test, *tuning.cycle_rows(pair, x_t, SMALL_MODEL.patch_size))
    assert err.traceback[-2].name == "take_rows"


def test_adaptation_divergence_names_the_step_and_the_weights(params, sample_pair, small_checkpoint, monkeypatch):
    pair, x_t = sample_pair
    prompt = tuning.PromptSet(pair=pair)
    after_one_step = tuning.adapt_and_predict(params, prompt, x_t, tuning.VictConfig(steps=1)).adapted_params_digest
    real_adamw_step = tuning.adamw_step

    def adamw_step_diverging_on_step_1(group, grads, state):
        if state.t == 1:
            raise FloatingPointError("adamw_step: non-finite gradient for 'mask_token'")
        real_adamw_step(group, grads, state)

    monkeypatch.setattr(tuning, "adamw_step", adamw_step_diverging_on_step_1)
    message = r"^adaptation diverged at step 1 \(params digest [0-9a-f]{64}\): adamw_step: "
    with pytest.raises(FloatingPointError, match=message) as err:
        tuning.adapt_and_predict(params, prompt, x_t, tuning.VictConfig(steps=2))
    assert f"(params digest {after_one_step})" in str(err.value)  # the weights step 1 started from

    config = harness.BenchConfig(
        checkpoint=small_checkpoint,
        corruption_kinds=(CorruptionKind.GAUSSIAN_NOISE,),
        severities=(3,),
        settings=(tuning.ZERO_SHOT,),
        num_samples=2,
        vict=tuning.VictConfig(steps=2),
    )
    report = harness.run_bench(config)
    assert report.total_failures == 2
    assert [(e["method"], e["n"], e["failures"]) for e in report.rows] == [(harness.FROZEN, 0, 2), (harness.VICT, 0, 2)]
