"""Token-source policy: which id feeds the model at each training step.

Two independent rates drive the decision. epsilon is the probability
the model's own previous prediction replaces the teacher token
(scheduled sampling); gamma is the probability a tabled neighbor of
the teacher token replaces it. When both fire on the same draw, a fair
coin picks between them. MODES is the one table of which rate each
mode takes and which replacement table it draws from.

The temperature controller reacts to validation loss: no improvement
raises tau (flatter neighbor sampling, more exploration), improvement
lowers it, via tau <- tau +/- |tau - (2^tau - 1)|, clamped to
[0.5, 10]. tau = 1 is a fixed point of this rule since 2^1 - 1 = 1.

The Gumbel path (GSNS) feeds the slot of a hard Gumbel-max draw over
learnable per-word logits, and keeps the draw's relaxation, the softmax
of the same perturbed logits at the fixed temperature GUMBEL_TAU. The
straight-through gradient wrt each slot's soft weight, dL/dx .
embed[neighbor], is chained through gumbel_backward, the tempered-softmax
Jacobian at that relaxation, into the logits' gradient, which
gumbel_update applies once per epoch (Jang et al. 2017).
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .neighbors import _softmax_rows, check_tau, clamp_tau, sample_neighbor

# mode -> (takes epsilon, replacement table kind): a mode takes gamma
# exactly when it has a table
MODES = {
    "MLE": (False, None),
    "SS": (True, None),
    "NNRS": (False, "neighbor"),
    "TPRS": (False, "transition"),
    "SS_NNRS": (True, "neighbor"),
    "GSNS": (False, "neighbor"),
}

GUMBEL_TAU = 0.5
_EPS = 1e-20  # keeps both logs in -log(-log u) away from 0


class Source(enum.IntEnum):
    TEACHER = 0
    PREDICTION = 1
    NEIGHBOR = 2

    @property
    def label(self) -> str:
        return self.name.capitalize()


@dataclass(frozen=True)
class TokenDecision:
    source: Source
    chosen_id: int


def check_positive_finite(name: str, value: float) -> None:
    """Refuse a value that is not finite and positive; NaN is refused too."""
    if not 0.0 < value < math.inf:
        raise ValueError("%s must be positive and finite, got %g" % (name, value))


def check_unit_interval(name: str, value: float) -> None:
    """Refuse a rate outside [0, 1]; NaN is refused too."""
    if not 0.0 <= value <= 1.0:
        raise ValueError("%s must be in [0, 1], got %g" % (name, value))


def check_mode_rates(mode: str, epsilon_on: bool, gamma_on: bool) -> None:
    """The one mode/rate rule, from MODES: MLE takes neither rate, SS no
    gamma, NNRS, TPRS and GSNS no epsilon, SS_NNRS both. Unknown modes are refused.

    epsilon_on / gamma_on say whether the SS / NNRS rate is nonzero: a
    training config passes its schedules, PolicyState its current rates.
    """
    if mode not in MODES:
        raise ValueError("unknown mode %r (expected one of %s)" % (mode, ", ".join(MODES)))
    takes_epsilon, table_kind = MODES[mode]
    if epsilon_on and not takes_epsilon:
        raise ValueError("mode %s requires epsilon (the ss rate) = 0" % mode)
    if gamma_on and table_kind is None:
        raise ValueError("mode %s requires gamma (the nnrs rate) = 0" % mode)


@dataclass
class PolicyState:
    """Mutable per-run sampling state owned by the training loop.

    best_val_loss starts at the uniform-model perplexity (vocabulary
    size) in training runs; tau starts below the working range and gets
    clamped to 0.5 by the first controller update.
    """

    mode: str
    rng: np.random.Generator
    epsilon: float = 0.0
    gamma: float = 0.0
    tau: float = 0.1
    best_val_loss: float = math.inf

    def __post_init__(self):
        self.set_rates(self.epsilon, self.gamma)
        check_positive_finite("tau", self.tau)  # update_temperature turns inf into NaN

    def set_rates(self, epsilon: float, gamma: float) -> None:
        check_unit_interval("epsilon", epsilon)
        check_unit_interval("gamma", gamma)
        check_mode_rates(self.mode, epsilon != 0.0, gamma != 0.0)
        self.epsilon = float(epsilon)
        self.gamma = float(gamma)


def _sources(xi_ss, xi_nnrs, coin, epsilon: float, gamma: float):
    """The source rule: the Source value of each draw, on floats or on
    arrays of draws alike.

    SS fires on a strict xi_ss < epsilon, NNRS on xi_nnrs < gamma; when
    both fire, coin < 0.5 picks Prediction. Comparisons, &/| and plain
    ints only (Prediction is 1, Neighbor 2), so a float draw costs a few
    Python operations.
    """
    prediction = (xi_ss < epsilon) & ((xi_nnrs >= gamma) | (coin < 0.5))
    neighbor = (xi_nnrs < gamma) & ((xi_ss >= epsilon) | (coin >= 0.5))
    return prediction + 2 * neighbor


def decide_token(state: PolicyState, teacher: int, prediction=None, table=None) -> TokenDecision:
    """Pick the input token source for one position.

    Draws the three doubles decide_batch_positions(state, 1) draws
    (xi_ss, xi_nnrs, coin) and applies the same rule. The Neighbor
    branch draws once more through sample_neighbor.
    """
    source = _sources(*state.rng.random(3).tolist(), state.epsilon, state.gamma)
    if source == Source.PREDICTION:
        if prediction is None:
            raise ValueError("prediction id required when the SS branch fires")
        return TokenDecision(Source.PREDICTION, int(prediction))
    if source == Source.NEIGHBOR:
        if table is None:
            raise ValueError("neighbor table required when the NNRS branch fires")
        return TokenDecision(Source.NEIGHBOR, sample_neighbor(table, teacher, state.rng))
    return TokenDecision(Source.TEACHER, int(teacher))


def decide_batch_positions(state: PolicyState, seq_len: int) -> np.ndarray:
    """Per-timestep source mask shared by every sequence in the batch.

    One (xi_ss, xi_nnrs) pair is drawn per timestep (a single
    (seq_len, 2) block, so the stream order is per-timestep pairs),
    then one fair-coin vector for joint fires. Neighbor ids themselves
    are sampled later, per sequence.
    """
    if seq_len < 1:
        raise ValueError("seq_len must be >= 1")
    xi = state.rng.random((seq_len, 2))
    coin = state.rng.random(seq_len)
    return _sources(xi[:, 0], xi[:, 1], coin, state.epsilon, state.gamma).astype(np.int8)


def update_temperature(state: PolicyState, val_loss: float) -> PolicyState:
    """Validation-driven tau step, then clamp and best-loss bookkeeping.

    Worse-or-equal loss increases tau by |tau - (2^tau - 1)|, an
    improvement decreases it by the same amount; tau = 1 never moves.
    """
    if not math.isfinite(val_loss) or val_loss <= 0.0:
        raise ValueError("val_loss must be finite and positive, got %r" % (val_loss,))
    delta = abs(state.tau - (2.0 ** state.tau - 1.0))
    if val_loss - state.best_val_loss >= 0.0:
        state.tau = clamp_tau(state.tau + delta)
    else:
        state.tau = clamp_tau(state.tau - delta)
    state.best_val_loss = min(state.best_val_loss, val_loss)
    return state


@dataclass
class GumbelLogits:
    """Learnable (|V|, k) logits over each word's neighbor slots."""

    log_alpha: np.ndarray
    beta: float = 0.9

    @classmethod
    def from_table(cls, table, beta: float = 0.9) -> "GumbelLogits":
        """Start from the table's current sampling distribution."""
        return cls(log_alpha=np.log(table.probs), beta=beta)


def gumbel_sample(logits: GumbelLogits, words, tau: float = GUMBEL_TAU,
                  rng: np.random.Generator = None):
    """One Gumbel draw over the neighbor slots of each of `words` (one
    word or an array), from one rng.random block over their rows.

    Returns (hard slots, soft rows): the argmax of log_alpha + G, with
    G = -log(-log u), is the slot actually used forward;
    softmax((log_alpha + G) / tau) is the relaxation the backward pass
    differentiates (straight-through). One word gives a slot and a (k,)
    row, an array of N words (N,) slots and (N, k) rows.
    """
    check_tau(tau)
    if rng is None:
        raise ValueError("rng is required")
    rows = logits.log_alpha[words]
    scores = rows - np.log(-np.log(rng.random(rows.shape) + _EPS) + _EPS)
    return scores.argmax(axis=-1), _softmax_rows(scores / tau)


def gumbel_backward(soft_probs: np.ndarray, grad_soft: np.ndarray, tau: float) -> np.ndarray:
    """Chain dL/dsoft_probs back to dL/dlog_alpha, row by row (last axis).

    Softmax Jacobian at the drawn relaxation, divided by tau; the Gumbel
    noise is a constant offset of log_alpha so it drops out.
    """
    inner = grad_soft - (grad_soft * soft_probs).sum(axis=-1, keepdims=True)
    return soft_probs * inner / tau


def gumbel_update(logits: GumbelLogits, grad: np.ndarray, rows) -> GumbelLogits:
    """log_alpha[w] <- beta * log_alpha[w] - (1 - beta) * grad[w] for each w in `rows`.

    grad[w] is the gradient wrt log_alpha[w], summed over the epoch's
    draws of w: gumbel_backward of each draw's straight-through gradient
    wrt slot j's soft weight, dL/dx . embed[neighbor_j]. beta is
    logits.beta; 1 leaves the logits as they are.
    """
    if grad.shape != logits.log_alpha.shape:
        raise ValueError(
            "grad shape %s does not match logits shape %s" % (grad.shape, logits.log_alpha.shape)
        )
    beta = logits.beta
    new = logits.log_alpha.copy()
    idx = np.asarray(sorted(rows), dtype=np.int64)
    new[idx] = beta * new[idx] - (1.0 - beta) * grad[idx]
    return GumbelLogits(log_alpha=new, beta=beta)
