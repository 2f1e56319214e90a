"""Desk-scale lab for sparsely activated external memory: lookup functions,
partial experts, wide-representation predict-compute-correct updates, and
Monte Carlo verification of the lookup families' collision behavior."""

from .autodiff import NonFiniteError, Tensor, concat, no_grad
from .config import ExperimentConfig, load_config, parse_config
from .nn import (
    GradCheckReport,
    MemoryTable,
    TransformerBlockParams,
    apply_expert,
    finite_diff_check,
    lecun_normal_init,
    transformer_block_forward,
)

__version__ = "0.1.0"

__all__ = [
    "NonFiniteError",
    "Tensor",
    "concat",
    "no_grad",
    "ExperimentConfig",
    "load_config",
    "parse_config",
    "GradCheckReport",
    "MemoryTable",
    "TransformerBlockParams",
    "apply_expert",
    "finite_diff_check",
    "lecun_normal_init",
    "transformer_block_forward",
    "__version__",
]
