import numpy as np
import pytest

from vict import model, tasks, tuning
from vict import tensor as T
from vict.canvas import assemble_inference, extract_cell
from vict.gradcheck import TINY_CONFIG, finite_diff_grad, rel_error


@pytest.fixture(scope="module")
def default_params():
    return model.init(model.ModelConfig(), seed=0)


@pytest.fixture(scope="module")
def inference_canvas():
    prompt = tasks.generate(tasks.TaskKind.DENOISE, 1)
    query = tasks.generate(tasks.TaskKind.DENOISE, 2)
    return assemble_inference(prompt.input, prompt.target, query.input)


def test_config_validation():
    with pytest.raises(ValueError, match="multiple"):
        model.ModelConfig(cell_size=30, patch_size=8)
    with pytest.raises(ValueError, match="divisible"):
        model.ModelConfig(embed_dim=60, num_heads=8)
    with pytest.raises(ValueError, match="positive"):
        model.ModelConfig(encoder_depth=0)


def test_init_deterministic_in_seed():
    a = model.init(model.ModelConfig(), seed=7)
    b = model.init(model.ModelConfig(), seed=7)
    assert a.digest() == b.digest()
    c = model.init(model.ModelConfig(), seed=8)
    assert a.digest() != c.digest()


def test_positional_embedding_length(default_params):
    assert default_params.tensors["pos_embed"].shape == (64, 64)
    assert model.ModelConfig().num_patches == 64


def test_every_tensor_has_group_label(default_params):
    groups = set(default_params.groups.values())
    assert groups == {model.ENCODER, model.DECODER}
    assert set(default_params.groups) == set(default_params.tensors)


def test_param_groups_partition(default_params):
    everything = model.param_group(default_params, "all")
    encoder = model.param_group(default_params, "encoder")
    decoder_names = set(everything) - set(encoder)
    assert set(everything) == set(encoder) | decoder_names
    assert all(default_params.groups[n] == model.DECODER for n in decoder_names)
    assert "head.weight" not in encoder
    assert "mask_token" in encoder
    assert "patch_embed.weight" in encoder
    assert "pos_embed" in encoder
    with pytest.raises(ValueError, match="selector"):
        model.param_group(default_params, "decoder")


def test_forward_output_shape_and_range(default_params, inference_canvas):
    out = model.forward(default_params, inference_canvas)
    assert out.shape == (3, 64, 64)
    assert out.data.min() > 0.0 and out.data.max() < 1.0


def test_forward_deterministic(default_params, inference_canvas):
    a = model.forward(default_params, inference_canvas).data
    b = model.forward(default_params, inference_canvas).data
    assert a.tobytes() == b.tobytes()


def test_forward_rejects_wrong_cell_size(default_params):
    prompt = tasks.generate(tasks.TaskKind.DENOISE, 1, cell_size=16)
    query = tasks.generate(tasks.TaskKind.DENOISE, 2, cell_size=16)
    canvas = assemble_inference(prompt.input, prompt.target, query.input)
    with pytest.raises(ValueError, match="cell size"):
        model.forward(default_params, canvas)


def test_permutation_sensitivity(default_params):
    a = tasks.generate(tasks.TaskKind.DENOISE, 3)
    b = tasks.generate(tasks.TaskKind.DENOISE, 4)
    c = tasks.generate(tasks.TaskKind.DENOISE, 5)
    o1 = model.forward(default_params, assemble_inference(a.input, b.input, c.input)).data
    o2 = model.forward(default_params, assemble_inference(a.input, c.input, b.input)).data
    assert np.abs(o1 - o2).max() > 1e-6


def test_masked_cell_output_independent_of_fill(default_params):
    """The 0.5 fill value never reaches attention; only the mask token does."""
    from vict import canvas as cv

    prompt = tasks.generate(tasks.TaskKind.DENOISE, 6)
    query = tasks.generate(tasks.TaskKind.DENOISE, 7)
    canvas = assemble_inference(prompt.input, prompt.target, query.input)
    out_a = model.forward(default_params, canvas).data

    original = cv.EMPTY_FILL
    try:
        cv.EMPTY_FILL = 0.123
        out_b = model.forward(default_params, canvas).data
    finally:
        cv.EMPTY_FILL = original
    assert out_a.tobytes() == out_b.tobytes()


def test_tiny_config_gradients_match_finite_differences():
    params = model.init(TINY_CONFIG, seed=0, dtype=np.float64)
    prompt = tasks.generate(tasks.TaskKind.DENOISE, 1, cell_size=8)
    query = tasks.generate(tasks.TaskKind.DENOISE, 2, cell_size=8)
    pair = (prompt.input.astype(np.float64), prompt.target.astype(np.float64))
    target = T.constant(query.target.astype(np.float64))

    def loss_fn():
        canvas = assemble_inference(pair[0], pair[1], query.input.astype(np.float64))
        out = model.forward(params, canvas)
        return T.smooth_l1(extract_cell(out, canvas.empty_position), target, 1.0)

    T.zero_grads(params.tensors.values())
    loss_fn().backward()
    worst = 0.0
    for name in ("patch_embed.weight", "mask_token", "enc0.attn.qkv.weight", "enc0.mlp.fc1.bias"):
        t = params.tensors[name]
        numeric = finite_diff_grad(lambda: loss_fn().item(), t.data)
        worst = max(worst, rel_error(t.grad_or_zero(), numeric))
    assert worst < 1e-4


def test_clone_is_independent(default_params):
    clone = default_params.clone()
    assert clone.digest() == default_params.digest()
    clone.tensors["mask_token"].data += 1.0
    assert clone.digest() != default_params.digest()


def test_param_count_is_config_function():
    a = model.init(model.ModelConfig(), seed=0)
    b = model.init(model.ModelConfig(), seed=99)
    assert a.total_parameters() == b.total_parameters()
    shapes_a = {n: t.shape for n, t in a.tensors.items()}
    shapes_b = {n: t.shape for n, t in b.tensors.items()}
    assert shapes_a == shapes_b


def _unfused_linear(x, w, b):
    return T.add_row(T.matmul(x, w), b)


def _unfused_attention(h, p, prefix, num_heads):
    """The per-head chain of primitive ops that ``T.attention`` replaces."""
    d = h.shape[1]
    head_dim = d // num_heads
    qkv = _unfused_linear(h, p[f"{prefix}.attn.qkv.weight"], p[f"{prefix}.attn.qkv.bias"])
    q, k, v = (T.narrow(qkv, 1, j * d, d) for j in range(3))
    scale = 1.0 / np.sqrt(head_dim)
    outputs = []
    for i in range(num_heads):
        qi, ki, vi = (T.narrow(t, 1, i * head_dim, head_dim) for t in (q, k, v))
        scores = T.mul_scalar(T.matmul(qi, T.transpose(ki)), scale)
        outputs.append(T.matmul(T.softmax(scores), vi))
    merged = T.concat(outputs, axis=1)
    return _unfused_linear(merged, p[f"{prefix}.attn.proj.weight"], p[f"{prefix}.attn.proj.bias"])


def test_fused_ops_match_primitive_chain_bit_for_bit(default_params, monkeypatch):
    prompt = tasks.generate(tasks.TaskKind.DENOISE, 1)
    query = tasks.generate(tasks.TaskKind.DENOISE, 2)
    pair = (prompt.input, prompt.target)

    def loss_and_grads():
        params = default_params.clone()
        loss = tuning.cycle_loss(params, pair, query.input)
        loss.backward()
        return loss.data.tobytes(), {name: t.grad.tobytes() for name, t in params.tensors.items()}

    fused = loss_and_grads()
    # every linear map (embedding, attention, MLP, head) and every attention unfused
    monkeypatch.setattr(T, "linear", _unfused_linear)
    monkeypatch.setattr(model, "_attention", _unfused_attention)
    unfused = loss_and_grads()
    assert fused[0] == unfused[0]
    assert fused[1].keys() == unfused[1].keys() == set(default_params.tensors)
    assert [name for name in fused[1] if fused[1][name] != unfused[1][name]] == []
