"""Two-layer LSTM language model in plain numpy (float64).

Parameters live in a flat name -> array dict so optimizer,
serialization, and gradient checks can treat the model as one
parameter set:

    embed              (|V|, d)   input lookup, trainable
    lstm1_Wx, lstm1_Wh, lstm1_b   layer 1 fused gate weights
    lstm2_Wx, lstm2_Wh, lstm2_b   layer 2 fused gate weights
    W_out, b_out       (H, |V|), (|V|,) softmax projection

Fused gate blocks are ordered [input, forget, cell, output] along the
4H axis. Forward accepts either token ids (embedding lookup) or raw
(B, d) vectors per step, the latter carrying centroid-style inputs;
backward then reports the gradient wrt those vectors.

Only the recurrence runs per timestep: both LSTM cells in the forward,
and in backward the dz @ Wh^T carries plus layer 2's dz @ Wx^T. Work
outside the recurrence runs once per BPTT window on (T*B, .) arrays
stacked in (t, b) row order: the output projection and log-softmax in
forward_window (validation, evaluation), and in backward the output
layer, every weight gradient, layer 1's input gradients and the
embedding scatter. The training forward still calls step once per
timestep, because a scheduled-sampling input at step t is the model's
own prediction from step t - 1.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import expit


@dataclass
class LstmLm:
    vocab_size: int
    dim: int
    hidden: int
    params: dict

    @classmethod
    def init(cls, vocab_size: int, dim: int, hidden: int,
             rng: np.random.Generator, embed=None) -> "LstmLm":
        """Uniform [-1/sqrt(H), 1/sqrt(H)] weights, +1 forget bias.

        Draw order is fixed (embed unless given, then lstm1, lstm2,
        projection) so runs at equal seeds are reproducible.
        """
        s = 1.0 / np.sqrt(hidden)
        h4 = 4 * hidden

        def u(*shape):
            return rng.uniform(-s, s, shape)

        if embed is None:
            embed = u(vocab_size, dim)
        else:
            embed = np.array(embed, dtype=np.float64)
            if embed.shape != (vocab_size, dim):
                raise ValueError(
                    "embed shape %s does not match (%d, %d)" % (embed.shape, vocab_size, dim)
                )
        params = {
            "embed": embed,
            "lstm1_Wx": u(dim, h4), "lstm1_Wh": u(hidden, h4), "lstm1_b": np.zeros(h4),
            "lstm2_Wx": u(hidden, h4), "lstm2_Wh": u(hidden, h4), "lstm2_b": np.zeros(h4),
            "W_out": u(hidden, vocab_size), "b_out": np.zeros(vocab_size),
        }
        for key in ("lstm1_b", "lstm2_b"):
            params[key][hidden:2 * hidden] = 1.0  # forget gate bias
        return cls(vocab_size, dim, hidden, params)

    @classmethod
    def zeros(cls, vocab_size: int, dim: int, hidden: int) -> "LstmLm":
        """All-zero parameters: the output is uniform by symmetry."""
        h4 = 4 * hidden
        params = {
            "embed": np.zeros((vocab_size, dim)),
            "lstm1_Wx": np.zeros((dim, h4)), "lstm1_Wh": np.zeros((hidden, h4)),
            "lstm1_b": np.zeros(h4),
            "lstm2_Wx": np.zeros((hidden, h4)), "lstm2_Wh": np.zeros((hidden, h4)),
            "lstm2_b": np.zeros(h4),
            "W_out": np.zeros((hidden, vocab_size)), "b_out": np.zeros(vocab_size),
        }
        return cls(vocab_size, dim, hidden, params)

    def zero_state(self, batch_size: int):
        return [(np.zeros((batch_size, self.hidden)), np.zeros((batch_size, self.hidden)))
                for _ in range(2)]


def _lookup(model: LstmLm, x):
    """Resolve a step input to (vectors, ids-or-None)."""
    x = np.asarray(x)
    if np.issubdtype(x.dtype, np.integer):
        ids = x.reshape(-1)
        if ids.size and (ids.min() < 0 or ids.max() >= model.vocab_size):
            raise ValueError("token id out of range [0, %d)" % model.vocab_size)
        return model.params["embed"][ids], ids
    vec = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if vec.shape[1] != model.dim:
        raise ValueError("input vector dim %d != %d" % (vec.shape[1], model.dim))
    return vec, None


def _cells(model: LstmLm, xvec, state, layers=None):
    """Both LSTM cells for one timestep. Returns (top h, new_state).

    With a `layers` list, appends each layer's backward cache to it.
    """
    p = model.params
    h = model.hidden
    inp = xvec
    new_state = []
    for layer, (h_prev, c_prev) in zip((1, 2), state):
        z = inp @ p["lstm%d_Wx" % layer] + h_prev @ p["lstm%d_Wh" % layer] + p["lstm%d_b" % layer]
        i = expit(z[:, :h])
        f = expit(z[:, h:2 * h])
        g = np.tanh(z[:, 2 * h:3 * h])
        o = expit(z[:, 3 * h:])
        c = f * c_prev + i * g
        tc = np.tanh(c)
        hh = o * tc
        if layers is not None:
            layers.append(
                {"inp": inp, "h_prev": h_prev, "c_prev": c_prev,
                 "i": i, "f": f, "g": g, "o": o, "c": c, "tc": tc}
            )
        new_state.append((hh, c))
        inp = hh
    return inp, new_state


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of a 2-D array, computed in place."""
    logits -= logits.max(axis=1, keepdims=True)
    logits -= np.log(np.exp(logits).sum(axis=1, keepdims=True))
    return logits


def _output_layer(model: LstmLm, top: np.ndarray) -> np.ndarray:
    """Log-probs (N, |V|) from top hidden rows (N, H)."""
    return _log_softmax(top @ model.params["W_out"] + model.params["b_out"])


def step(model: LstmLm, x, state):
    """One timestep. Returns (log_probs (B,|V|), new_state, cache)."""
    xvec, ids = _lookup(model, x)
    cache = {"x": xvec, "ids": ids, "layers": []}
    top, new_state = _cells(model, xvec, state, cache["layers"])
    log_probs = _output_layer(model, top)
    cache["top"] = top
    cache["log_probs"] = log_probs
    return log_probs, new_state, cache


def advance(model: LstmLm, x, state):
    """Cells-only timestep: the new state, without the output layer."""
    return _cells(model, _lookup(model, x)[0], state)[1]


def forward_window(model: LstmLm, inputs, state):
    """Inference over one (B, T) id window, state carried.

    Runs only the cells per timestep, then one (T*B, H) x (H, |V|)
    projection. Returns (log_probs (T, B, |V|), final_state); no
    backward cache is built.
    """
    inputs = np.asarray(inputs)
    batch, width = inputs.shape
    xvecs, _ = _lookup(model, inputs.T)
    xvecs = xvecs.reshape(width, batch, model.dim)
    tops = np.empty((width, batch, model.hidden))
    for t in range(width):
        tops[t], state = _cells(model, xvecs[t], state)
    log_probs = _output_layer(model, tops.reshape(width * batch, model.hidden))
    return log_probs.reshape(width, batch, model.vocab_size), state


class ForwardCache:
    """Everything backward needs: per-step caches plus window shape."""

    def __init__(self, steps, final_state, batch_size):
        self.steps = steps
        self.final_state = final_state
        self.batch_size = batch_size
        self.input_grads = None  # filled by backward

    def __len__(self):
        return len(self.steps)

    def log_probs(self) -> np.ndarray:
        return np.stack([s["log_probs"] for s in self.steps])


def _as_step_inputs(inputs):
    """Normalize forward input to (list of per-step arrays, squeeze?)."""
    if isinstance(inputs, (list, tuple)):
        return list(inputs), False
    arr = np.asarray(inputs)
    if arr.ndim == 1:  # single sequence of ids
        return [arr[t:t + 1] for t in range(arr.shape[0])], True
    if arr.ndim == 2 and np.issubdtype(arr.dtype, np.integer):  # (B, T) ids
        return [arr[:, t] for t in range(arr.shape[1])], False
    raise ValueError("inputs must be a 1-D/2-D id array or a per-step list")


def forward_cached(model: LstmLm, inputs, init_state=None) -> ForwardCache:
    steps_in, _ = _as_step_inputs(inputs)
    if not steps_in:
        raise ValueError("need at least one timestep")
    first, _ = _lookup(model, steps_in[0])
    state = model.zero_state(first.shape[0]) if init_state is None else init_state
    caches = []
    for x in steps_in:
        _, state, cache = step(model, x, state)
        caches.append(cache)
    return ForwardCache(caches, state, first.shape[0])


def forward(model: LstmLm, inputs, init_state=None):
    """Probability distributions per step: (T, |V|) for a single
    sequence, (T, B, |V|) for a batch. Also returns the final state."""
    steps_in, squeeze = _as_step_inputs(inputs)
    cache = forward_cached(model, steps_in, init_state)
    probs = np.exp(cache.log_probs())
    if squeeze:
        probs = probs[:, 0, :]
    return probs, cache.final_state


def loss(distributions, targets) -> float:
    """Mean negative log-likelihood; perplexity is exp of this.

    Accepts (T, |V|) with (T,) targets or (T, B, |V|) with (B, T)
    targets. Probabilities are floored at float tiny before the log so
    the result is always finite.
    """
    dists = np.asarray(distributions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    if dists.ndim == 2:
        if targets.shape != (dists.shape[0],):
            raise ValueError("targets shape %s does not match %d steps"
                             % (targets.shape, dists.shape[0]))
        picked = dists[np.arange(dists.shape[0]), targets]
    elif dists.ndim == 3:
        t_len, b = dists.shape[0], dists.shape[1]
        if targets.shape != (b, t_len):
            raise ValueError("targets shape %s does not match (B=%d, T=%d)"
                             % (targets.shape, b, t_len))
        picked = np.take_along_axis(
            dists, targets.T[:, :, None], axis=2
        )[:, :, 0]
    else:
        raise ValueError("distributions must be 2-D or 3-D")
    return float(-np.log(np.maximum(picked, np.finfo(np.float64).tiny)).mean())


def loss_from_cache(cache: ForwardCache, targets) -> float:
    """Mean NLL straight from cached log-probs (no exp/log round trip)."""
    targets = np.asarray(targets, dtype=np.int64)
    total = 0.0
    for t, sc in enumerate(cache.steps):
        lp = sc["log_probs"]
        total += lp[np.arange(lp.shape[0]), targets[:, t]].sum()
    return float(-total / targets.size)


def backward(model: LstmLm, cache: ForwardCache, targets) -> dict:
    """Exact BPTT gradients of the mean NLL wrt every parameter.

    Truncation boundary: the window's initial state is a constant.
    Gradients wrt the raw input vectors land in cache.input_grads
    (T, B, d); steps fed by ids additionally scatter that gradient
    into the embedding rows.

    Per timestep, in reverse, only the recurrence runs: the gate
    derivatives, dz @ Wh^T for both layers and layer 2's dz @ Wx^T,
    with each layer's dz stored in a (T, B, 4H) array. Everything else
    is one product per window on rows stacked in (t, b) order: the
    output layer (dlogits, W_out, b_out, dh_top) before the loop; the
    Wx, Wh and b gradients of both layers, layer 1's input gradients
    and the embedding scatter after it.
    """
    p = model.params
    h = model.hidden
    targets = np.asarray(targets, dtype=np.int64)
    steps = cache.steps
    t_len = len(steps)
    b = cache.batch_size
    rows = t_len * b
    grads = {}

    # output layer: softmax minus one-hot, over the whole window
    dlogits = cache.log_probs().reshape(rows, model.vocab_size)
    np.exp(dlogits, out=dlogits)
    dlogits[np.arange(rows), targets.T.reshape(-1)] -= 1.0
    dlogits /= float(rows)
    tops = np.concatenate([sc["top"] for sc in steps])
    grads["W_out"] = tops.T @ dlogits
    grads["b_out"] = dlogits.sum(axis=0)
    dh_top = (dlogits @ p["W_out"].T).reshape(t_len, b, h)
    del dlogits

    wh_t = {layer: np.ascontiguousarray(p["lstm%d_Wh" % layer].T) for layer in (1, 2)}
    wx2_t = np.ascontiguousarray(p["lstm2_Wx"].T)
    dz_all = {layer: np.empty((t_len, b, 4 * h)) for layer in (1, 2)}
    # carried (dh, dc) per layer, from the later timestep
    carry = {layer: (np.zeros((b, h)), np.zeros((b, h))) for layer in (1, 2)}

    for t in range(t_len - 1, -1, -1):
        dinp = dh_top[t]
        for layer in (2, 1):
            lc = steps[t]["layers"][layer - 1]
            dh_carry, dc_carry = carry[layer]
            dh = dinp + dh_carry
            i, f, g, o, tc = lc["i"], lc["f"], lc["g"], lc["o"], lc["tc"]
            dc = dh * o * (1.0 - tc * tc) + dc_carry
            dz = dz_all[layer][t]
            dz[:, :h] = dc * g * i * (1.0 - i)
            dz[:, h:2 * h] = dc * lc["c_prev"] * f * (1.0 - f)
            dz[:, 2 * h:3 * h] = dc * i * (1.0 - g * g)
            dz[:, 3 * h:] = dh * tc * o * (1.0 - o)
            if t:
                carry[layer] = (dz @ wh_t[layer], dc * f)
            if layer == 2:
                dinp = dz @ wx2_t

    for layer in (1, 2):
        layers = [sc["layers"][layer - 1] for sc in steps]
        dz = dz_all[layer].reshape(rows, 4 * h)
        grads["lstm%d_Wx" % layer] = np.concatenate([lc["inp"] for lc in layers]).T @ dz
        grads["lstm%d_Wh" % layer] = np.concatenate([lc["h_prev"] for lc in layers]).T @ dz
        grads["lstm%d_b" % layer] = dz.sum(axis=0)
    input_grads = (dz_all[1].reshape(rows, 4 * h) @ p["lstm1_Wx"].T).reshape(t_len, b, model.dim)

    grads["embed"] = np.zeros_like(p["embed"])
    fed = [t for t, sc in enumerate(steps) if sc["ids"] is not None]
    if fed:
        ids = np.concatenate([steps[t]["ids"] for t in fed])
        np.add.at(grads["embed"], ids, input_grads[fed].reshape(-1, model.dim))

    cache.input_grads = input_grads
    return {key: grads[key] for key in p}


def grad_global_norm(grads: dict) -> float:
    return float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))


def sgd_step(model: LstmLm, grads: dict, lr: float, clip: float,
             momentum: float = 0.0, velocity: dict = None) -> LstmLm:
    """Global-norm clip then theta <- theta - lr * grad, in place.

    Non-finite gradients abort the step before any parameter moves.
    Optional heavy-ball momentum: velocity <- m * velocity + grad.
    """
    if lr <= 0.0:
        raise ValueError("lr must be positive")
    for key, g in grads.items():
        if not np.isfinite(g).all():
            raise ValueError("non-finite gradient in %r, step aborted" % key)
    scale = 1.0
    if clip:
        norm = grad_global_norm(grads)
        if norm > clip:
            scale = clip / norm
    for key, g in grads.items():
        upd = g * scale
        if momentum > 0.0:
            velocity[key] = momentum * velocity[key] + upd
            upd = velocity[key]
        model.params[key] -= lr * upd
    return model


def cosine_lr(base_lr: float, epoch: int, total: int) -> float:
    """base_lr * (1 + cos(pi * epoch / total)) / 2."""
    if total < 1:
        raise ValueError("total must be >= 1")
    return float(base_lr * (1.0 + np.cos(np.pi * epoch / total)) / 2.0)


def greedy_or_sample_predict(distribution, sample: bool = False,
                             rng: np.random.Generator = None) -> int:
    """Next-token choice from one distribution: argmax (ties to the
    smaller id) or a categorical draw when sample=True."""
    dist = np.asarray(distribution, dtype=np.float64)
    if dist.ndim != 1 or dist.size == 0:
        raise ValueError("distribution must be a 1-D vector")
    if not sample:
        return int(np.argmax(dist))
    if rng is None:
        raise ValueError("rng is required for sampling mode")
    cdf = np.cumsum(dist)
    idx = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
    return min(idx, dist.size - 1)
