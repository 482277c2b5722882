import numpy as np
import pytest

from vict import corruptions, model, tasks, training
from vict import tensor as T
from vict.canvas import Canvas, CellPosition

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

    def stub_forward(params, canvas):
        cells = {pos: T.constant(image(value)) for pos, value in painted.items()}
        return Canvas(cells=cells, cell_size=c, empty_position=canvas.empty_position).pixels()

    monkeypatch.setattr(model, "forward", stub_forward)
    prompt, query = (image(0.5), image(0.9)), (image(0.5), image(0.65))
    # the 8 (cell, target) pairings give 8 distinct losses
    for flip, cell, target in ((False, CellPosition.BOTTOM_RIGHT, 0.65), (True, CellPosition.TOP_RIGHT, 0.9)):
        loss = training.masked_cell_loss(None, prompt, query, flip).item()
        assert loss == pytest.approx(0.5 * (painted[cell] - target) ** 2, rel=1e-6)


def test_loss_trace_csv(tmp_path):
    path = tmp_path / "trace.csv"
    training.save_loss_trace(path, [0.5, 0.25])
    assert path.read_text().splitlines() == ["step,loss", "0,0.50000000", "1,0.25000000"]


def test_fewshot_config_validates_shots():
    with pytest.raises(ValueError, match="shots"):
        training.FewShotConfig(
            shots=3,
            task=tasks.TaskKind.DENOISE,
            corruption_kind=corruptions.CorruptionKind.GAUSSIAN_NOISE,
            severity=3,
        )


def test_fewshot_zero_steps_is_identity():
    params = model.init(SMALL_MODEL, seed=2)
    cfg = training.FewShotConfig(
        shots=1,
        task=tasks.TaskKind.DENOISE,
        corruption_kind=corruptions.CorruptionKind.GAUSSIAN_NOISE,
        severity=3,
        steps=0,
        seed=0,
    )
    tuned = training.fewshot_finetune(params, cfg)
    assert tuned.digest() == params.digest()


def test_fewshot_deterministic_and_leaves_original_untouched():
    params = model.init(SMALL_MODEL, seed=2)
    digest_before = params.digest()
    cfg = training.FewShotConfig(
        shots=2,
        task=tasks.TaskKind.DENOISE,
        corruption_kind=corruptions.CorruptionKind.GAUSSIAN_NOISE,
        severity=3,
        steps=5,
        seed=3,
    )
    a = training.fewshot_finetune(params, cfg)
    b = training.fewshot_finetune(params, cfg)
    assert a.digest() == b.digest()
    assert a.digest() != digest_before
    assert params.digest() == digest_before
