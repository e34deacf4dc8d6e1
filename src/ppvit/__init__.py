"""Pyramid-pooling attention backbone with its own autodiff engine.

The package is layered bottom-up: ``tensor`` (arrays + reverse-mode
gradients), ``attention`` (pooled-key/value multi-head attention),
``layers`` (FFN, block, patch embed), ``model`` (stages, presets,
checkpoints), ``complexity`` (analytic params/FLOPs/squeeze ratios),
``data`` and ``training`` (desk-scale harness), and ``cli``.
"""

from .attention import (PMHSAConfig, PMHSAState, pmhsa_forward, pool_targets,
                        pooled_extent, pooled_len)
from .complexity import (ComplexityReport, SqueezeReport, attention_core_flops,
                         compare_attention, count_flops, count_params,
                         squeeze_ratio)
from .data import SyntheticDataset, generate_sample, load_batch
from .errors import (CheckpointError, ConfigError, DivergenceError,
                     GraphFreedError, NonFiniteError, PPVitError, ShapeError)
from .layers import block_forward, irb_forward, patch_embed
from .model import (ModelConfig, ModelState, StageConfig, build_model,
                    config_from_dict, config_to_dict, forward_classify,
                    forward_features, load_checkpoint, preset, save_checkpoint)
from .tensor import Tensor, backward, finite_difference_grad, no_grad
from .training import (AdamWState, TrainConfig, TrainRecord, adamw_step,
                       evaluate, gradcheck_suite, lr_at, train)

__version__ = "0.1.0"

__all__ = [
    "Tensor", "backward", "no_grad", "finite_difference_grad",
    "PMHSAConfig", "PMHSAState", "pmhsa_forward", "pooled_extent",
    "pool_targets", "pooled_len",
    "block_forward", "irb_forward", "patch_embed",
    "ModelConfig", "StageConfig", "ModelState",
    "build_model", "forward_features", "forward_classify", "preset",
    "save_checkpoint", "load_checkpoint", "config_to_dict", "config_from_dict",
    "ComplexityReport", "SqueezeReport", "attention_core_flops",
    "count_params", "count_flops", "squeeze_ratio", "compare_attention",
    "SyntheticDataset", "generate_sample", "load_batch",
    "TrainConfig", "TrainRecord", "AdamWState", "adamw_step", "lr_at",
    "train", "evaluate", "gradcheck_suite",
    "PPVitError", "ShapeError", "ConfigError", "NonFiniteError",
    "CheckpointError", "DivergenceError", "GraphFreedError",
    "__version__",
]
