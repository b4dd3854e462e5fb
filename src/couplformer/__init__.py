"""Kronecker-factored ("coupling") attention, built on a small numpy autograd.

The attention map over an h x w token grid is represented as the Kronecker
product of an h x h row-score matrix and a w x w column-score matrix, so
score storage per head drops from (hw)^2 to h^2 + w^2 elements.  The package
includes the tensor/autograd substrate, both attention mechanisms with
cross-checking oracles, a small image classifier, a training loop over IDX
datasets, cost accounting, and a CLI.
"""

from .attention import (
    AttentionGeometry,
    CouplingAttentionParams,
    attention_forward,
    coupled_attention_explicit,
    coupled_attention_fast,
    coupling_scores,
    standard_attention,
)
from .autograd import Var, backward, constant, fd_check, no_grad, parameter
from .bench import CostReport, analytic_cost, measured_cost, storage_ratio, sweep
from .model import (
    CheckpointError,
    CouplformerModel,
    ModelConfig,
    StemStage,
    model_forward,
    sequence_pool,
)
from .tensor import NonFiniteError, ScoreTracker, ShapeError, Tensor
from .train import (
    AdamW,
    DataFormatError,
    TrainConfig,
    TrainResult,
    evaluate,
    load_dataset,
    load_idx,
    lr_at,
    train_loop,
)

__version__ = "0.1.0"

__all__ = [
    "AttentionGeometry",
    "CouplingAttentionParams",
    "attention_forward",
    "coupled_attention_explicit",
    "coupled_attention_fast",
    "coupling_scores",
    "standard_attention",
    "Var",
    "backward",
    "constant",
    "fd_check",
    "no_grad",
    "parameter",
    "CostReport",
    "analytic_cost",
    "measured_cost",
    "storage_ratio",
    "sweep",
    "CheckpointError",
    "CouplformerModel",
    "ModelConfig",
    "StemStage",
    "model_forward",
    "sequence_pool",
    "NonFiniteError",
    "ScoreTracker",
    "ShapeError",
    "Tensor",
    "AdamW",
    "DataFormatError",
    "TrainConfig",
    "TrainResult",
    "evaluate",
    "load_dataset",
    "load_idx",
    "lr_at",
    "train_loop",
    "__version__",
]
