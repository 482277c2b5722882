import numpy as np
import pytest

from vict import model, tasks, tuning
from vict import tensor as T
from vict.corruptions import CorruptionKind, CorruptionSpec

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
    assert prompt.provenance == "clean"
    assert prompt.pair[0].tobytes() == clean.input.tobytes()
    assert prompt.pair[1].tobytes() == clean.target.tobytes()


def test_one_shot_prompt_is_corrupted_input_clean_target():
    spec = CorruptionSpec(CorruptionKind.GAUSSIAN_NOISE, 3, seed=42)
    prompt = tuning.select_prompt(tasks.TaskKind.DENOISE, tuning.ONE_SHOT, spec, seed=9, cell_size=16)
    clean = tasks.generate(tasks.TaskKind.DENOISE, 9, cell_size=16)
    assert prompt.provenance == "corrupted"
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
# cycle loss
# ---------------------------------------------------------------------------


def test_cycle_loss_nonnegative_scalar(params, sample_pair):
    pair, x_t = sample_pair
    loss = tuning.cycle_loss(params, pair, x_t)
    assert loss.size == 1
    assert loss.item() >= 0.0


def test_cycle_loss_zero_for_identity_copier(params, sample_pair, monkeypatch):
    """A stub model that always inpaints the true prompt output gives zero loss."""
    pair, x_t = sample_pair
    y = pair[1]

    def stub_forward(p, canvas):
        cells = {
            pos: (T.constant(y) if t is None else t)
            for pos, t in canvas.cells.items()
        }
        from vict.canvas import Canvas

        return Canvas(cells=cells, cell_size=canvas.cell_size, empty_position=canvas.empty_position).pixels()

    monkeypatch.setattr(model, "forward", stub_forward)
    loss = tuning.cycle_loss(params, pair, x_t)
    assert loss.item() == 0.0


# ---------------------------------------------------------------------------
# adapt_and_predict
# ---------------------------------------------------------------------------


def test_k0_reduces_to_frozen_inference(params, sample_pair):
    pair, x_t = sample_pair
    prompt = tuning.PromptSet(pair=pair, provenance="clean")
    result = tuning.adapt_and_predict(params, prompt, x_t, tuning.VictConfig(steps=0))
    frozen = tuning.infer(params, pair, x_t)
    assert result.y_t_hat.tobytes() == frozen.tobytes()
    assert result.loss_trace == []


def test_adaptation_leaves_theta0_untouched(params, sample_pair):
    pair, x_t = sample_pair
    digest = params.digest()
    prompt = tuning.PromptSet(pair=pair, provenance="clean")
    tuning.adapt_and_predict(params, prompt, x_t, tuning.VictConfig(steps=3))
    assert params.digest() == digest


def _adapted_clone(params, pair, x_t, config, monkeypatch):
    """The private weights ``adapt_and_predict`` ends with, caught at its final ``infer``."""
    captured = {}
    original_infer = tuning.infer

    def capturing_infer(work_params, *args, **kwargs):
        captured["params"] = work_params
        return original_infer(work_params, *args, **kwargs)

    monkeypatch.setattr(tuning, "infer", capturing_infer)
    tuning.adapt_and_predict(params, tuning.PromptSet(pair=pair, provenance="clean"), x_t, config)
    return captured["params"]


def test_encoder_selector_freezes_decoder_group(params, sample_pair, monkeypatch):
    pair, x_t = sample_pair
    adapted = _adapted_clone(params, pair, x_t, tuning.VictConfig(steps=2, selector="encoder"), monkeypatch)
    changed, frozen_names = [], []
    for name, t in adapted.tensors.items():
        same = t.data.tobytes() == params.tensors[name].data.tobytes()
        if params.groups[name] == model.DECODER:
            assert same, f"decoder tensor {name} changed under encoder selector"
            frozen_names.append(name)
        elif not same:
            changed.append(name)
    assert changed and frozen_names


def test_encoder_selector_computes_no_decoder_gradients(params, sample_pair, monkeypatch):
    pair, x_t = sample_pair
    digest = params.digest()
    adapted = _adapted_clone(params, pair, x_t, tuning.VictConfig(steps=1, selector="encoder"), monkeypatch)
    for name, t in adapted.tensors.items():
        if params.groups[name] == model.DECODER:
            assert t.grad is None and not t.requires_grad, name
        else:
            assert t.grad is not None and t.requires_grad, name
    assert all(t.requires_grad for t in params.tensors.values())
    assert params.digest() == digest


def test_all_selector_changes_some_decoder_tensor(params, sample_pair, monkeypatch):
    pair, x_t = sample_pair
    adapted = _adapted_clone(params, pair, x_t, tuning.VictConfig(steps=2, selector="all"), monkeypatch)
    decoder_changed = [
        name
        for name, t in adapted.tensors.items()
        if params.groups[name] == model.DECODER and t.data.tobytes() != params.tensors[name].data.tobytes()
    ]
    assert decoder_changed


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
    prompt = tuning.PromptSet(pair=pair, provenance="clean")
    result = tuning.adapt_and_predict(params, prompt, x_t, tuning.VictConfig(steps=4))
    assert len(result.loss_trace) == 4
    assert result.y_t_hat.min() >= 0.0 and result.y_t_hat.max() <= 1.0


def test_config_validation():
    with pytest.raises(ValueError, match="selector"):
        tuning.VictConfig(selector="decoder")
    with pytest.raises(ValueError, match="steps"):
        tuning.VictConfig(steps=-1)
