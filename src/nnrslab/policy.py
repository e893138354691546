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
learnable per-word logits; gumbel_update then applies the straight-through
gradient wrt each slot's soft weight, dL/dx . embed[neighbor], to the
logits as it is. gumbel_backward, the tempered-softmax Jacobian, is a
checked reference only: training never calls it.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .neighbors import check_tau, clamp_tau, sample_neighbor

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
        if not self.tau > 0.0:
            raise ValueError("tau must be positive, got %g" % self.tau)

    def set_rates(self, epsilon: float, gamma: float) -> None:
        for name, v in (("epsilon", epsilon), ("gamma", gamma)):
            if not 0.0 <= v <= 1.0:
                raise ValueError("%s must be in [0, 1], got %g" % (name, v))
        check_mode_rates(self.mode, epsilon != 0.0, gamma != 0.0)
        self.epsilon = float(epsilon)
        self.gamma = float(gamma)


def decide_token(state: PolicyState, teacher: int, prediction=None, table=None) -> TokenDecision:
    """Pick the input token source for one position.

    Draws xi_ss then xi_nnrs from the state's rng; a fire is a strict
    "xi < rate". Both firing resolves by a third fair-coin draw
    (coin < 0.5 means Prediction). The Neighbor branch draws once more
    through sample_neighbor.
    """
    xi_ss = state.rng.random()
    xi_nnrs = state.rng.random()
    ss = xi_ss < state.epsilon
    nn = xi_nnrs < state.gamma
    if ss and nn:
        ss = state.rng.random() < 0.5
        nn = not ss
    if ss:
        if prediction is None:
            raise ValueError("prediction id required when the SS branch fires")
        return TokenDecision(Source.PREDICTION, int(prediction))
    if nn:
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
    ss = xi[:, 0] < state.epsilon
    nn = xi[:, 1] < state.gamma
    both = ss & nn
    ss = np.where(both, coin < 0.5, ss)
    nn = np.where(both, ~(coin < 0.5), nn)
    mask = np.full(seq_len, Source.TEACHER, dtype=np.int8)
    mask[ss] = Source.PREDICTION
    mask[nn] = Source.NEIGHBOR
    return mask


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


def _gumbel_scores(rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """rows + G with G = -log(-log u) per entry, u = rng.random(rows.shape)."""
    u = rng.random(rows.shape)
    return rows - np.log(-np.log(u + _EPS) + _EPS)


def gumbel_sample(logits: GumbelLogits, word: int, tau: float = GUMBEL_TAU,
                  rng: np.random.Generator = None):
    """One Gumbel draw over `word`'s neighbor slots.

    Returns (hard slot, soft_probs): the argmax of log_alpha + G is the
    slot actually used forward; softmax((log_alpha + G) / tau) is the
    relaxation the backward pass differentiates (straight-through).
    """
    check_tau(tau)
    if rng is None:
        raise ValueError("rng is required")
    scores = _gumbel_scores(logits.log_alpha[word], rng)
    slot = int(np.argmax(scores))
    z = scores / tau
    z -= z.max()
    e = np.exp(z)
    return slot, e / e.sum()


def gumbel_slots(logits: GumbelLogits, words, rng: np.random.Generator) -> np.ndarray:
    """Hard Gumbel-max slot for each of `words`, in one (N, k) draw.

    The same slots, and the same rng state afterwards, as a loop of
    gumbel_sample calls over `words`; no relaxation is computed.
    """
    rows = logits.log_alpha[np.asarray(words, dtype=np.int64)]
    return _gumbel_scores(rows, rng).argmax(axis=1)


def gumbel_backward(soft_probs: np.ndarray, grad_soft: np.ndarray, tau: float) -> np.ndarray:
    """Chain dL/dsoft_probs back to dL/dlog_alpha for one sampled row.

    Softmax Jacobian at the drawn relaxation, divided by tau; the Gumbel
    noise is a constant offset of log_alpha so it drops out.
    """
    inner = grad_soft - float(np.dot(grad_soft, soft_probs))
    return soft_probs * inner / tau


def gumbel_update(logits: GumbelLogits, grad: np.ndarray, rows) -> GumbelLogits:
    """log_alpha[w] <- beta * log_alpha[w] - (1 - beta) * grad[w] for each w in `rows`.

    grad[w, j] is the straight-through gradient wrt slot j's soft weight,
    dL/dx . embed[neighbor_j], summed over the epoch's draws of w and
    applied as it stands. beta is logits.beta; 1 leaves the logits as they are.
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
