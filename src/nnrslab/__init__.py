"""Training laboratory for nearest-neighbor replacement sampling (NNRS).

Curriculum-driven token replacement for sequence-model training: teacher
tokens are stochastically swapped for the model's own predictions
(scheduled sampling) or for embedding-space neighbors of the teacher token
(NNRS and its variants), with an evaluation suite for comparing the
resulting models.
"""

__version__ = "0.1.0"

from .vocab import Vocabulary, build_vocabulary
from .embeddings import EmbeddingMatrix, load_embeddings
from .neighbors import (
    NeighborTable,
    TransitionTable,
    build_neighbor_table,
    build_transition_table,
    default_k,
    renormalize,
    sample_neighbor,
)
from .schedules import Schedule, rates_for_epoch
from .policy import (
    GumbelLogits,
    PolicyState,
    Source,
    TokenDecision,
    decide_batch_positions,
    decide_token,
    gumbel_sample,
    gumbel_update,
    update_temperature,
)
from .model import LstmLm, cosine_lr, greedy_or_sample_predict, sgd_step
from .trainer import (
    DivergenceError,
    EpochRecord,
    TrainConfig,
    make_batches,
    run_training,
    validate,
)
from .metrics import (
    ScoreReport,
    ToyChain,
    bleu4,
    evaluate_model,
    kl_decomposition,
    self_bleu4,
    self_wmd,
    wmd_score,
)

__all__ = [
    "Vocabulary",
    "build_vocabulary",
    "EmbeddingMatrix",
    "load_embeddings",
    "NeighborTable",
    "TransitionTable",
    "build_neighbor_table",
    "build_transition_table",
    "default_k",
    "renormalize",
    "sample_neighbor",
    "Schedule",
    "rates_for_epoch",
    "GumbelLogits",
    "PolicyState",
    "Source",
    "TokenDecision",
    "decide_batch_positions",
    "decide_token",
    "gumbel_sample",
    "gumbel_update",
    "update_temperature",
    "LstmLm",
    "cosine_lr",
    "greedy_or_sample_predict",
    "sgd_step",
    "DivergenceError",
    "EpochRecord",
    "TrainConfig",
    "make_batches",
    "run_training",
    "validate",
    "ScoreReport",
    "ToyChain",
    "bleu4",
    "evaluate_model",
    "kl_decomposition",
    "self_bleu4",
    "self_wmd",
    "wmd_score",
]
