"""Grid-canvas visual in-context inpainting with per-sample test-time tuning.

A small numpy-only stack: a reverse-mode autodiff engine, 2x2 canvas
assembly with a prompt/test role flip, a patch-transformer inpainting
model, procedural tasks and corruptions, cycle-consistency test-time
tuning, and a deterministic benchmark harness. Its erf, inverse normal
cdf, 8x8 DCT, convolve and gaussian filter are numpy ports with scipy's
bits, which the tests check against scipy.

BLAS is pinned to one thread unless the environment already says
otherwise, before numpy loads: a sweep runs one process per CPU, and
BLAS threads in each would compete for the same cores.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from . import canvas, checkpoint, corruptions, gradcheck, harness, model, tasks, tensor, training, tuning
from .canvas import assemble_flipped, assemble_inference, extract_cell, write_ppm
from .checkpoint import load_checkpoint, save_checkpoint
from .corruptions import ALL_KINDS, CorruptionKind, CorruptionSpec, apply
from .harness import BenchConfig, FewShotSweepConfig, MetricReport, fewshot_finetune, run_bench, run_clean_eval, run_fewshot
from .model import ModelConfig, Params, forward, init, trainable
from .tasks import ALL_TASKS, TaskKind, TaskSample, a_rel, generate, miou, psnr
from .tensor import AdamWState, Tensor, adamw_step, backward, smooth_l1, zero_grads
from .training import PretrainConfig, fit, pretrain
from .tuning import AdaptationResult, PromptSet, VictConfig, adapt_and_predict, cycle_loss, select_prompt

__version__ = "0.1.0"
