import gc
import weakref

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from vict import model, tasks, training, tuning
from vict import tensor as T
from vict.canvas import assemble_flipped, assemble_inference
from vict.checkpoint import load_checkpoint, save_checkpoint
from vict.gradcheck import TINY_CONFIG, finite_diff_grad, rel_error

from reference_ops import concat, gelu, layernorm, narrow, repeat_rows, reshape, softmax, transpose


@pytest.fixture(scope="module")
def default_params():
    return model.init(model.ModelConfig(), seed=0)


@pytest.fixture(scope="module")
def inference_rows():
    prompt = tasks.generate(tasks.TaskKind.DENOISE, 1)
    query = tasks.generate(tasks.TaskKind.DENOISE, 2)
    return assemble_inference(prompt.input, prompt.target, query.input, 8)


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
    assert {model.group_of(name) for name in default_params.tensors} == {model.ENCODER, model.DECODER}


_BLOCK_TENSORS = (
    "ln1.gain", "ln1.bias", "attn.qkv.weight", "attn.qkv.bias", "attn.proj.weight", "attn.proj.bias",
    "ln2.gain", "ln2.bias", "mlp.fc1.weight", "mlp.fc1.bias", "mlp.fc2.weight", "mlp.fc2.bias",
)


@pytest.mark.parametrize("config", [model.ModelConfig(), TINY_CONFIG], ids=["default", "tiny"])
def test_groups_match_the_stored_labels_they_replace(config):
    # the labels init used to store, in init order: stem and encoder blocks
    # "encoder"; decoder blocks, final norm and head "decoder"
    encoder = ["patch_embed.weight", "patch_embed.bias", "pos_embed", "mask_token"]
    encoder += [f"enc{i}.{t}" for i in range(config.encoder_depth) for t in _BLOCK_TENSORS]
    decoder = [f"dec{i}.{t}" for i in range(config.decoder_depth) for t in _BLOCK_TENSORS]
    decoder += ["final_norm.gain", "final_norm.bias", "head.weight", "head.bias"]
    expected = {**dict.fromkeys(encoder, model.ENCODER), **dict.fromkeys(decoder, model.DECODER)}
    params = model.init(config, seed=0)
    for p in (params, params.clone()):
        assert [(name, model.group_of(name)) for name in p.tensors] == list(expected.items())


def _flags(params):
    return {name: t.requires_grad for name, t in params.tensors.items()}


def test_trainable_groups_partition():
    params = model.init(model.ModelConfig(), seed=0)
    everything = model.trainable(params, "all")
    assert list(everything) == list(params.tensors)
    assert all(_flags(params).values())
    encoder = model.trainable(params, "encoder")
    decoder_names = set(everything) - set(encoder)
    assert set(everything) == set(encoder) | decoder_names
    assert all(model.group_of(n) == model.DECODER for n in decoder_names)
    assert _flags(params) == {name: name in encoder for name in params.tensors}
    assert "head.weight" not in encoder
    assert "mask_token" in encoder
    assert "patch_embed.weight" in encoder
    assert "pos_embed" in encoder
    with pytest.raises(ValueError, match="selector"):
        model.trainable(params, "decoder")


def test_init_and_clone_leave_weights_off_the_tape():
    params = model.init(model.ModelConfig(), seed=0)
    assert not any(_flags(params).values())
    model.trainable(params, "all")
    assert not any(_flags(params.clone()).values())


def test_frozen_forward_records_no_tape(default_params, inference_rows):
    out = model.forward(default_params, *inference_rows)
    assert out._parents == () and out._backward is None and not out.requires_grad


def test_forward_output_shape_and_range(default_params, inference_rows):
    out = model.forward(default_params, *inference_rows)
    assert out.shape == (16, 192)  # the empty cell's 4 x 4 patches of 8 x 8 x 3 pixels
    assert out.data.min() > 0.0 and out.data.max() < 1.0


def test_forward_deterministic(default_params, inference_rows):
    a = model.forward(default_params, *inference_rows).data
    b = model.forward(default_params, *inference_rows).data
    assert a.tobytes() == b.tobytes()


def test_forward_rejects_wrong_cell_size(default_params):
    prompt = tasks.generate(tasks.TaskKind.DENOISE, 1, cell_size=16)
    query = tasks.generate(tasks.TaskKind.DENOISE, 2, cell_size=16)
    canvas = assemble_inference(prompt.input, prompt.target, query.input, 8)
    with pytest.raises(ValueError, match=r"^forward: expected \[64, 192\] patch rows \(cell size 32\)$"):
        model.forward(default_params, *canvas)


def _stack(*samples):
    """The patch rows of an inference canvas per (prompt, query) seed pair,
    stacked, and their empty cell's rows."""
    canvases = []
    for prompt_seed, query_seed in samples:
        prompt, query = (tasks.generate(tasks.TaskKind.DENOISE, seed) for seed in (prompt_seed, query_seed))
        canvases.append(assemble_inference(prompt.input, prompt.target, query.input, 8))
    return np.stack([patches for patches, _ in canvases]), canvases[0][1]


def test_forward_on_a_stack_gives_each_canvas_its_own_rows(default_params):
    patches, empty = _stack((1, 2), (3, 4), (5, 2))
    out = model.forward(default_params, patches, empty)
    assert out.shape == (3, 16, 192) and not out.requires_grad
    assert [rows.tobytes() for rows in out.data] == [model.forward(default_params, rows, empty).data.tobytes() for rows in patches]


@pytest.mark.parametrize("taped", ["encoder", "all", "patches"])
def test_forward_refuses_a_stack_on_the_tape(default_params, taped):
    params = default_params.clone()
    patches, empty = _stack((1, 2), (3, 4))
    if taped == "patches":
        patches = T.parameter(patches)
    else:
        model.trainable(params, taped)
    with pytest.raises(ValueError, match=r"^forward: a stack of 2 canvases cannot go on the tape"):
        model.forward(params, patches, empty)


def test_forward_rejects_a_stack_of_the_wrong_cell_size(default_params):
    prompt = tasks.generate(tasks.TaskKind.DENOISE, 1, cell_size=16)
    query = tasks.generate(tasks.TaskKind.DENOISE, 2, cell_size=16)
    patches, empty = assemble_inference(prompt.input, prompt.target, query.input, 8)
    with pytest.raises(ValueError, match=r"^forward: expected \[2, 64, 192\] patch rows \(cell size 32\)$"):
        model.forward(default_params, np.stack([patches] * 2), empty)


def test_permutation_sensitivity(default_params):
    a = tasks.generate(tasks.TaskKind.DENOISE, 3)
    b = tasks.generate(tasks.TaskKind.DENOISE, 4)
    c = tasks.generate(tasks.TaskKind.DENOISE, 5)
    o1 = model.forward(default_params, *assemble_inference(a.input, b.input, c.input, 8)).data
    o2 = model.forward(default_params, *assemble_inference(a.input, c.input, b.input, 8)).data
    assert np.abs(o1 - o2).max() > 1e-6


def test_masked_cell_output_independent_of_fill(default_params):
    """The 0.5 fill value never reaches attention; only the mask token does."""
    from vict import canvas as cv

    prompt = tasks.generate(tasks.TaskKind.DENOISE, 6)
    query = tasks.generate(tasks.TaskKind.DENOISE, 7)
    canvas_a = assemble_inference(prompt.input, prompt.target, query.input, 8)
    out_a = model.forward(default_params, *canvas_a).data

    original = cv.EMPTY_FILL
    try:
        cv.EMPTY_FILL = 0.123
        canvas_b = assemble_inference(prompt.input, prompt.target, query.input, 8)
        out_b = model.forward(default_params, *canvas_b).data
    finally:
        cv.EMPTY_FILL = original
    assert np.all(canvas_b[0][canvas_b[1]] == np.float32(0.123))  # the fill did change
    assert out_a.tobytes() == out_b.tobytes()


def test_tiny_config_gradients_match_finite_differences():
    # the pre-training loss itself, on either masked cell
    params = model.init(TINY_CONFIG, seed=0, dtype=np.float64)
    model.trainable(params, "all")
    prompt = tasks.generate(tasks.TaskKind.DENOISE, 1, cell_size=8)
    query = tasks.generate(tasks.TaskKind.DENOISE, 2, cell_size=8)
    prompt, query = ((s.input.astype(np.float64), s.target.astype(np.float64)) for s in (prompt, query))
    worst = {}
    for flip in (False, True):
        def loss_fn():
            return training.masked_cell_loss(params, prompt, query, flip)

        T.zero_grads(params.tensors.values())
        loss_fn().backward()
        for name in ("patch_embed.weight", "mask_token", "enc0.attn.qkv.weight", "enc0.mlp.fc1.bias", "head.weight"):
            t = params.tensors[name]
            numeric = finite_diff_grad(lambda: loss_fn().item(), t.data)
            worst[flip, name] = rel_error(t.grad_or_zero(), numeric)
    assert {key: err for key, err in worst.items() if not err < 1e-4} == {}


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


def _unfused_linear(x, w, b, norm=None):
    """The layer norm, if any, then ``matmul`` plus the bias row."""
    if norm is not None:
        x = layernorm(x, *norm)
    rows, width = x.shape[0], b.shape[0]
    return T.add(T.matmul(x, w), repeat_rows(reshape(b, (1, width)), rows))


def _unfused_attention(qkv, num_heads, rows, w, b, residual, *, canvases):
    """The per-head chain of primitive ops that ``T.attention`` replaces,
    then the output projection and the residual ``add``, for one canvas."""
    if canvases != 1:
        raise ValueError(f"_unfused_attention: one canvas only, got {canvases}")
    d = qkv.shape[1] // 3
    head_dim = d // num_heads
    q, k, v = (narrow(qkv, 1, j * d, d) for j in range(3))
    if rows is not None:
        q = T.take_rows(q, rows)
    scale = 1.0 / np.sqrt(head_dim)
    outputs = []
    for i in range(num_heads):
        qi, ki, vi = (narrow(t, 1, i * head_dim, head_dim) for t in (q, k, v))
        scores = T.matmul(qi, transpose(ki))
        scores = T.mul(scores, T.constant(np.full(scores.shape, scale, dtype=scores.dtype)))
        outputs.append(T.matmul(softmax(scores), vi))
    return T.add(residual, T.linear(concat(outputs, axis=1), w, b))


def _unfused_mlp(h, gain, bias, w1, b1, w2, b2):
    """The chain ``T.mlp`` replaces: layer norm, linear, GELU, linear, add."""
    hidden = gelu(T.linear(h, w1, b1, (gain, bias)))
    return T.add(h, T.linear(hidden, w2, b2))


def _unfuse(monkeypatch):
    """Make the model record the primitive chains in place of its fused
    nodes; the unfused attention and MLP reach their linear maps through
    ``T.linear``."""
    monkeypatch.setattr(T, "linear", _unfused_linear)
    monkeypatch.setattr(T, "attention", _unfused_attention)
    monkeypatch.setattr(T, "mlp", _unfused_mlp)


def test_fused_ops_match_primitive_chain_bit_for_bit(default_params, monkeypatch):
    prompt = tasks.generate(tasks.TaskKind.DENOISE, 1)
    query = tasks.generate(tasks.TaskKind.DENOISE, 2)
    pair = (prompt.input, prompt.target)

    def loss_and_grads(selector):
        params = default_params.clone()
        model.trainable(params, selector)
        loss = tuning.cycle_loss(params, *tuning.cycle_rows(pair, query.input, params.config.patch_size))
        ops = {node._op for node in _tape(loss)}
        loss.backward()
        grads = {name: t.grad.tobytes() for name, t in params.tensors.items() if t.grad is not None}
        return loss.data.tobytes(), grads, ops

    fused = {selector: loss_and_grads(selector) for selector in model.SELECTORS}
    # every linear map (embedding, query/key/value with its norm, head with
    # the final norm), every attention with its projection and residual add
    # and every MLP branch unfused
    _unfuse(monkeypatch)
    unfused = {selector: loss_and_grads(selector) for selector in model.SELECTORS}
    encoder = [name for name in default_params.tensors if model.group_of(name) == model.ENCODER]
    for selector, names in ((model.ENCODER, encoder), ("all", list(default_params.tensors))):
        assert {"linear", "attention", "mlp"} <= fused[selector][2]
        assert {"linear", "attention", "mlp"}.isdisjoint(unfused[selector][2])
        assert {"layernorm", "gelu", "repeat_rows", "softmax"} <= unfused[selector][2]
        assert fused[selector][0] == unfused[selector][0]
        assert list(fused[selector][1]) == list(unfused[selector][1]) == names
        assert [name for name in names if fused[selector][1][name] != unfused[selector][1][name]] == []


def _one_fit_step(params, monkeypatch):
    """Each weight's gradient at the update of one ``fit`` step on a clone of
    ``params``, as whether it is the weight's ``grad_buffer`` and its bytes,
    and the weights whose first gradient was copied into that buffer."""
    prompt = tasks.generate(tasks.TaskKind.DENOISE, 1)
    query = tasks.generate(tasks.TaskKind.DENOISE, 2)
    params = params.clone()
    names = {id(t): name for name, t in params.tensors.items()}
    grads, copied = {}, []
    real_store_first, real_adamw_step = T._store_first, training.adamw_step

    def store_first(t, g, shared):
        if t.grad_buffer is not None and g is not t.grad_buffer:
            copied.append(names[id(t)])
        real_store_first(t, g, shared)

    def adamw_step(group, flat_grads, state):
        grads.update({name: (t.grad is t.grad_buffer, t.grad.tobytes()) for name, t in group.items()})
        return real_adamw_step(group, flat_grads, state)

    with monkeypatch.context() as patched:
        patched.setattr(T, "_store_first", store_first)
        patched.setattr(training, "adamw_step", adamw_step)
        training.fit(params, 1e-3, [((prompt.input, prompt.target), (query.input, query.target), False)], "fitting")
    return grads, copied


def test_fit_computes_each_first_gradient_into_its_arena_slot(default_params, monkeypatch):
    grads, copied = _one_fit_step(default_params, monkeypatch)
    assert list(grads) == list(default_params.tensors)
    assert [name for name, (in_buffer, _) in grads.items() if not in_buffer] == []
    assert copied == ["pos_embed"]  # ``add`` hands on a gradient that its other input also reads
    _unfuse(monkeypatch)
    reference, _ = _one_fit_step(default_params, monkeypatch)
    assert [name for name in grads if grads[name][1] != reference[name][1]] == []


def _full_canvas_forward(params, patches, empty):
    """``model.forward`` computed over the whole canvas: the mask token
    mixed in by constant 0/1 masks, all rows through every block, the head
    on every row, and then the empty cell's rows."""
    cfg, p = params.config, params.tensors
    d = cfg.embed_dim
    masked = np.zeros((cfg.num_patches, d), dtype=p["pos_embed"].dtype)
    masked[empty] = 1.0
    token_rows = repeat_rows(reshape(p["mask_token"], (1, d)), cfg.num_patches)
    h = T.linear(T.as_tensor(patches), p["patch_embed.weight"], p["patch_embed.bias"])
    h = T.add(T.mul(h, T.constant(1.0 - masked)), T.mul(token_rows, T.constant(masked)))
    h = T.add(h, p["pos_embed"])
    for prefix in [f"enc{i}" for i in range(cfg.encoder_depth)] + [f"dec{i}" for i in range(cfg.decoder_depth)]:
        h = model._block(h, p, prefix, cfg.num_heads)
    h = T.linear(h, p["head.weight"], p["head.bias"], (p["final_norm.gain"], p["final_norm.bias"]))
    return T.take_rows(T.sigmoid(h), empty)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_restricted_to_the_empty_cell_matches_the_full_canvas(dtype, monkeypatch):
    params = model.init(model.ModelConfig(), seed=0, dtype=dtype)
    prompt, query = (tasks.generate(tasks.TaskKind.DERAIN, seed) for seed in (1, 2))
    pair = (prompt.input.astype(dtype), prompt.target.astype(dtype))
    x_t, y_t = query.input.astype(dtype), query.target.astype(dtype)
    for rows in (assemble_inference(*pair, x_t, 8), assemble_flipped(pair[0], x_t, y_t, 8)):
        assert model.forward(params, *rows).data.tobytes() == _full_canvas_forward(params, *rows).data.tobytes()

    def cycle_loss_and_grads():
        work = params.clone()
        group = model.trainable(work, "encoder")
        loss = tuning.cycle_loss(work, *tuning.cycle_rows(pair, x_t, work.config.patch_size))
        loss.backward()
        return loss.data.tobytes(), {name: t.grad for name, t in group.items()}

    loss, grads = cycle_loss_and_grads()
    monkeypatch.setattr(model, "forward", _full_canvas_forward)
    full_loss, full_grads = cycle_loss_and_grads()
    assert loss == full_loss
    # Not bit for bit: the products that pass a gradient back through a
    # weight, g @ W.T, run on 16 rows instead of 64 after the last
    # attention, and the BLAS kernel for the smaller shape rounds its sums
    # differently in the last bits.
    worst = {name: np.abs(grads[name] - g).max() / np.abs(g).max() for name, g in full_grads.items()}
    assert {name: err for name, err in worst.items() if not err <= 1e-5} == {}


def _cycle_loss(params, prompt, query):
    """The cycle loss of a prompt sample and a query input."""
    rows = tuning.cycle_rows((prompt.input, prompt.target), query.input, params.config.patch_size)
    return tuning.cycle_loss(params, *rows)


def _tape(root):
    """Every tensor backward reaches from ``root``, root included."""
    seen, stack = {id(root): root}, [root]
    while stack:
        for parent in stack.pop()._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return list(seen.values())


def test_a_cycle_loss_records_102_tape_nodes(default_params):
    prompt = tasks.generate(tasks.TaskKind.DENOISE, 1)
    query = tasks.generate(tasks.TaskKind.DENOISE, 2)
    params = default_params.clone()
    model.trainable(params, "encoder")
    loss = _cycle_loss(params, prompt, query)
    tape = _tape(loss)
    # the prediction enters the flipped canvas as rows: no cell is
    # unpatchified or patchified on the tape
    assert [node._op for node in tape if node._op in ("reshape", "transpose")] == []
    # each block is three nodes: its norms, GELU and residual adds are inside them
    unfused = ("layernorm", "linear_gelu", "gelu")
    assert [node._op for node in tape if node._op in unfused] == []
    assert [node._parents[1] for node in tape if node._op == "add"] == [params.tensors["pos_embed"]] * 2
    assert len(tape) == 102
    # pre-training scores the predicted rows too, with every weight on the tape
    params = default_params.clone()
    model.trainable(params, "all")
    for flip in (False, True):
        loss = training.masked_cell_loss(params, (prompt.input, prompt.target), (query.input, query.target), flip)
        tape = _tape(loss)
        assert [node._op for node in tape if node._op in ("reshape", "transpose", *unfused)] == []
        assert [node._parents[1] for node in tape if node._op == "add"] == [params.tensors["pos_embed"]]
        assert len(tape) == 105


def _held_arrays(root):
    """The arrays that ``root``'s tape keeps alive: op outputs and the
    arrays their backward rules close over (weights and other leaves not
    counted)."""
    arrays = []
    for node in _tape(root):
        arrays += [node.data] if node._parents else []
        arrays += [c.cell_contents for c in node._backward.__closure__ or ()] if node._backward else []
    return [a for a in arrays if isinstance(a, np.ndarray)]


def _held_bytes(root):
    """Bytes of the distinct buffers ``_held_arrays`` finds. A view counts
    as the buffer it views."""
    buffers = {}
    for a in _held_arrays(root):
        while isinstance(a.base, np.ndarray):
            a = a.base
        buffers[id(a)] = a
    return sum(a.nbytes for a in buffers.values())


def test_a_cycle_loss_tape_holds_no_residual_sum_or_gelu_input(default_params):
    # nor a layer norm's output, which a trainable weight's gradient rebuilds
    # from the norm's xhat, nor the heads' outputs or the GELU's output
    # where only a frozen weight reads them: 4,158,468 bytes when they were
    # kept, and 5,190,660 with the residual sums and the GELU's input too
    prompt, query = tasks.generate(tasks.TaskKind.DENOISE, 1), tasks.generate(tasks.TaskKind.DENOISE, 2)
    params = default_params.clone()
    model.trainable(params, "encoder")
    assert _held_bytes(_cycle_loss(params, prompt, query)) == 3_576_836
    model.trainable(params, "all")
    for flip in (False, True):
        loss = training.masked_cell_loss(params, (prompt.input, prompt.target), (query.input, query.target), flip)
        assert _held_bytes(loss) == 1_873_924


def test_no_held_array_is_the_input_of_a_frozen_weights_product(default_params, monkeypatch):
    # under the encoder selector the decoder and head weights are frozen, so
    # no backward reads the input of their products: the primitive chain,
    # which computes the same values, names those inputs
    prompt, query = tasks.generate(tasks.TaskKind.DENOISE, 1), tasks.generate(tasks.TaskKind.DENOISE, 2)
    params = default_params.clone()
    # init's unit gains and zero biases make each norm's output equal to its
    # xhat, which the tape keeps; other values tell the two apart
    rng = np.random.default_rng(0)
    for name, t in params.tensors.items():
        if name.startswith("final_norm.") or ".ln" in name:
            t.data += rng.normal(scale=0.1, size=t.shape).astype(t.dtype)
    model.trainable(params, model.ENCODER)
    held = _held_arrays(_cycle_loss(params, prompt, query))
    inputs = {False: [], True: []}  # by whether the weight is on the tape

    def recording_linear(x, w, b, norm=None):
        out = _unfused_linear(x, w, b, norm)
        inputs[w.requires_grad].append(out._parents[0]._parents[0].data)  # the matmul's input
        return out

    _unfuse(monkeypatch)
    monkeypatch.setattr(T, "linear", recording_linear)
    _cycle_loss(params, prompt, query)

    def kept(a):
        return any(h.shape == a.shape and h.tobytes() == a.tobytes() for h in held)

    assert len(inputs[False]) == 2 * (4 * params.config.decoder_depth + 1)  # four per block, and the head
    assert [i for i, a in enumerate(inputs[False]) if kept(a)] == []
    # the check can see a kept input: a trainable projection's input is one
    assert any(kept(a) for a in inputs[True])


def test_gradient_buffers_never_alias(default_params):
    # backward drops each intermediate gradient once its rule has run, so each
    # rule records the gradient it is handed, and the references kept here
    # stop a freed buffer from being reused for a later one
    prompt = tasks.generate(tasks.TaskKind.DENOISE, 1)
    query = tasks.generate(tasks.TaskKind.DENOISE, 2)
    params = default_params.clone()
    model.trainable(params, "all")
    loss = _cycle_loss(params, prompt, query)
    handed = []
    rules = [node for node in _tape(loss) if node._backward is not None]
    for node in rules:
        node._backward = lambda g, rule=node._backward: (handed.append(g), rule(g))
    loss.backward()
    assert len(handed) == len(rules) == 50  # every rule ran once
    grads = handed + [t.grad for t in params.tensors.values()]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(grads) for b in grads[i + 1 :])
    first = {name: t.grad.tobytes() for name, t in params.tensors.items()}
    T.zero_grads(params.tensors.values())
    loss.backward()
    assert {name: t.grad.tobytes() for name, t in params.tensors.items()} == first


def test_backward_keeps_only_leaf_gradients(default_params):
    prompt = tasks.generate(tasks.TaskKind.DENOISE, 1)
    query = tasks.generate(tasks.TaskKind.DENOISE, 2)
    params = default_params.clone()
    model.trainable(params, "encoder")
    loss = _cycle_loss(params, prompt, query)
    loss.backward()
    tape = _tape(loss)
    assert [node._op for node in tape if node._parents and node.grad is not None] == []
    leaves = [node for node in tape if not node._parents]
    assert leaves and all(node.grad is not None for node in leaves)


@pytest.mark.parametrize("tape", ["pretraining", "cycle"])
def test_backward_hands_over_each_leaf_once_with_its_final_gradient(default_params, tape):
    prompt = tasks.generate(tasks.TaskKind.DENOISE, 1)
    query = tasks.generate(tasks.TaskKind.DENOISE, 2)
    params = default_params.clone()
    group = model.trainable(params, "all" if tape == "pretraining" else "encoder")
    if tape == "pretraining":
        loss = training.masked_cell_loss(params, (prompt.input, prompt.target), (query.input, query.target), flip=False)
    else:
        loss = _cycle_loss(params, prompt, query)
    names = {id(t): name for name, t in group.items()}
    handed = []
    loss.backward(on_final=lambda leaf: handed.append((names[id(leaf)], leaf.grad.tobytes())))
    order = [name for name, _ in handed]
    assert sorted(order) == sorted(group)
    assert [name for name, grad in handed if grad != group[name].grad.tobytes()] == []
    assert order.index("pos_embed") < order.index("mask_token")  # out of arena order: ``add`` runs before ``put_rows``
    assert order[-1] == "patch_embed.bias"


def _run_loop(loop):
    c = TINY_CONFIG.cell_size
    prompt, query = tasks.generate(tasks.TaskKind.DENOISE, 1, c), tasks.generate(tasks.TaskKind.DENOISE, 2, c)
    params = model.init(TINY_CONFIG, seed=0)
    if loop == "fit":
        batches = [((prompt.input, prompt.target), (query.input, query.target), flip) for flip in (False, True, False)]
        training.fit(params, 1e-3, batches, "fitting")
    else:
        prompt_set = tuning.PromptSet(pair=(prompt.input, prompt.target))
        tuning.adapt_and_predict(params, prompt_set, query.input, tuning.VictConfig(steps=3))


@pytest.mark.parametrize("loop", ["encoder", "fit"])
def test_each_loop_holds_one_tape_at_a_time(loop, monkeypatch):
    # Tensor takes no weak references, but each op output holds its data
    # array, so a tape whose arrays are all dead has been freed
    module, name = (training, "masked_cell_loss") if loop == "fit" else (tuning, "cycle_loss")
    make_loss = getattr(module, name)
    tapes = []

    def alive():
        return [i for i, tape in enumerate(tapes) if any(ref() is not None for ref in tape)]

    def tracked_loss(*args, **kwargs):
        assert alive() == []
        loss = make_loss(*args, **kwargs)
        tapes.append([weakref.ref(node.data) for node in _tape(loss) if node._parents])
        return loss

    monkeypatch.setattr(module, name, tracked_loss)
    gc.disable()  # only reference counts may free a tape
    try:
        _run_loop(loop)
    finally:
        gc.enable()
    assert len(tapes) == 3 and alive() == []


def test_second_backward_doubles_single_use_gradients(default_params):
    # one forward: each weight takes one gradient per backward, so accumulating
    # a second backward must give exactly twice the first (the cycle loss sums
    # two contributions per weight, whose re-association moves the last bits)
    prompt = tasks.generate(tasks.TaskKind.DENOISE, 1)
    query = tasks.generate(tasks.TaskKind.DENOISE, 2)
    params = default_params.clone()
    model.trainable(params, "all")
    loss = training.masked_cell_loss(params, (prompt.input, prompt.target), (query.input, query.target), flip=False)
    loss.backward()
    first = {name: t.grad.copy() for name, t in params.tensors.items()}
    loss.backward()
    assert [name for name, t in params.tensors.items() if t.grad.tobytes() != (2 * first[name]).tobytes()] == []


# ---------------------------------------------------------------------------
# the weight arena
# ---------------------------------------------------------------------------


def _address(a):
    return a.__array_interface__["data"][0]


def _assert_tiles(flat, arrays):
    """``arrays``, in order, are C-contiguous views that cover ``flat`` end to end."""
    offset = 0
    for name, a in arrays:
        assert a.dtype == flat.dtype and a.flags.c_contiguous, name
        assert _address(a) == _address(flat) + offset * flat.itemsize, name
        offset += a.size
    assert offset == flat.size


def _assert_one_arena(params):
    assert list(params.tensors) == [name for name, _, _ in model.layout(params.config)]
    assert params.flat.ndim == 1 and params.flat.size == params.total_parameters()
    _assert_tiles(params.flat, [(name, t.data) for name, t in params.tensors.items()])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_init_and_clone_build_one_arena_each(dtype):
    params = model.init(TINY_CONFIG, seed=0, dtype=dtype)
    _assert_one_arena(params)
    assert params.flat.dtype == dtype
    clone = params.clone()
    _assert_one_arena(clone)
    assert clone.flat.tobytes() == params.flat.tobytes()
    assert not np.shares_memory(clone.flat, params.flat)


def test_loaded_and_fitted_weights_are_one_arena(tmp_path, monkeypatch):
    params = model.init(TINY_CONFIG, seed=0)
    save_checkpoint(params, tmp_path / "tiny.bin")
    loaded = load_checkpoint(tmp_path / "tiny.bin")
    _assert_one_arena(loaded)
    assert loaded.flat.tobytes() == params.flat.tobytes()

    c = TINY_CONFIG.cell_size
    pair = tasks.generate(tasks.TaskKind.DENOISE, 1, c)
    pair = (pair.input, pair.target)
    updates, adamw_step = [], training.adamw_step

    def recording_adamw_step(group, grads, state):
        updates.append(grads)
        adamw_step(group, grads, state)

    monkeypatch.setattr(training, "adamw_step", recording_adamw_step)
    fitted, _ = training.fit(loaded, 1e-3, [(pair, pair, False)] * 2, "fit")
    assert fitted is loaded  # fitted in place
    _assert_one_arena(fitted)
    assert fitted.flat.tobytes() != params.flat.tobytes()
    assert len(updates) == 2
    for grads in updates:
        assert list(grads) == list(fitted.tensors)  # fit steps every tensor
        grads = list(grads.items())
        _assert_tiles(T.arena_of(grads, "grads"), grads)
    # and then takes them off the tape, with their gradient arena
    taped = [name for name, t in fitted.tensors.items() if t.requires_grad or t.grad is not None or t.grad_buffer is not None]
    assert taped == []


def test_encoder_group_and_its_gradients_are_leading_slices(default_params):
    params = default_params.clone()
    group = model.trainable(params, "encoder")
    assert list(group) == list(params.tensors)[: len(group)]
    _assert_tiles(params.flat[: sum(t.size for t in group.values())], [(n, t.data) for n, t in group.items()])
    grads = [(name, t.grad_buffer) for name, t in group.items()]
    _assert_tiles(T.arena_of(grads, "grads"), grads)


def test_params_reject_tensors_outside_one_arena():
    views = T.new_arena(((name, shape) for name, shape, _ in model.layout(TINY_CONFIG)), np.float32)
    tensors = {name: T.Tensor(a) for name, a in views.items()}
    mixed = {**tensors, "mask_token": T.Tensor(views["mask_token"].astype(np.float64))}
    with pytest.raises(ValueError, match=r"^Params: 'mask_token' is float64, but 'patch_embed.weight' is float32$"):
        model.Params(config=TINY_CONFIG, tensors=mixed)
    copied = {**tensors, "pos_embed": T.Tensor(views["pos_embed"].copy())}
    with pytest.raises(ValueError, match=r"^Params: 'pos_embed' does not start"):
        model.Params(config=TINY_CONFIG, tensors=copied)


def test_truncation_bounds_are_scipy_ndtr():
    assert (model._TRUNC_LO, model._TRUNC_HI) == (ndtr(-2.0), ndtr(2.0))


def test_ndtri_matches_scipy_on_the_truncation_range():
    lo, hi, edge = model._TRUNC_LO, model._TRUNC_HI, model._EXP_M2
    ends = [lo, hi, 0.5, edge, 1.0 - edge]  # the range, and where the central rational meets the tails
    ends += [np.nextafter(v, d) for v in ends[2:] for d in (0.0, 1.0)] + [np.nextafter(lo, 1.0), np.nextafter(hi, 0.0)]
    y = np.concatenate([np.random.default_rng(0).uniform(lo, hi, 300_000), ends])
    assert model._ndtri(y).tobytes() == ndtri(y).tobytes()
