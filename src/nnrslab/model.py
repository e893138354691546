"""Two-layer LSTM language model in plain numpy (float64).

Parameters live in one contiguous float64 vector; model.params is a
FlatParams, a name -> array mapping whose arrays are views into that
vector, so the optimizer runs on the whole vector and serialization and
gradient checks treat the model as one parameter set. In key order:

    embed              (|V|, d)   input lookup, trainable
    lstm1_Wx, lstm1_Wh, lstm1_b   layer 1 fused gate weights
    lstm2_Wx, lstm2_Wh, lstm2_b   layer 2 fused gate weights
    W_out, b_out       (H, |V|), (|V|,) softmax projection

Assigning a key copies into its view; nothing rebinds one. Gradients and
momentum velocity are FlatParams of the same layout.

Fused gate blocks are ordered [input, forget, cell, output] along the
4H axis. The model's only input is token ids: every training input
(teacher, prediction, neighbor or Gumbel-chosen token) is an id, and a
float input is refused. backward reports the gradient wrt each step's
embedded input vector in cache.input_grads, which the GSNS
straight-through update reads, and scatters it into the embedding rows.

Every forward path runs forward_segment, which computes cell states
only: layer by layer over a span of timesteps whose inputs are all
known, one input projection per layer over the span's (T*B, .) rows
stacked in (t, b) order, then the recurrence per step (_cell). No
forward path runs the output layer; each consumer runs what it needs of
it over the top-layer rows it reads. Training cuts each BPTT window
before every scheduled-sampling step, whose input is the model's own
prediction from the step before: greedy_or_sample_predict over
step_logits, the logits of that one step. Greedy decoding reads each
step's logits through step_logits too. The results land in a
ForwardCache of (T, B, .) arrays. ForwardCache.window(..., workspace=)
gives a window leading-axis views of an earlier cache's arrays, so a run
that keeps its first window's cache allocates no array of a window's
size after it.

The output layer has one scoring rule, _score_rows: a block's logits
h @ W_out + b_out are shifted by their row max, the targets' shifted
logits are picked, and the block is exponentiated in place and summed
per row; a target's log-prob is its shifted logit minus the log of its
row's sum. backward and target_log_probs (validation) both run it, so
each logit is exponentiated once. Feedback and decoding read logit rows:
greedy_or_sample_predict takes their argmax or draws over
exp(row - row max). Only the reference path (forward_cached, step,
loss_from_cache) builds a log-softmax array, in _output_layer.

A cache is one of two kinds, chosen by window's train flag. A training
cache (train=True) keeps every step of the gates, h and c and one flat
buffer, which backward runs in; ForwardCache and _window_buffer_size
give its layout and size. It keeps neither tanh(c) nor the embedded
inputs: backward recomputes both (below). A cells-only cache keeps only
what validation and decoding read; see below. forward_cached runs a
training cache and then _output_layer over every step into the cache's
own log_probs (T, B, |V|), which loss_from_cache reads.

backward runs the output layer itself, from the top-layer states
cache.h[1], in blocks of _BACKWARD_ROWS rows (one block when the window
has at most _BACKWARD_ROWS + H rows). Per block, in the cache's buffer:
_score_rows (the targets' log-probs, whose mean is the window's NLL, left
in cache.nll), the softmax gradient formed in place from its exps (each
row divided by its sum, one subtracted at its target, every entry
divided by the window's row count), its W_out and b_out terms (a later
block adds its W_out term through an (H, |V|) temporary that follows
the block in the buffer), and the block's rows of dL/dh. Once every
block is done, the buffer holds the reverse recurrence's gate factors
and dz, and tanh(c), recomputed from the cell states c in its dc/dh
slot and turned into dc/dh there. Layer 1's dL/dh is written over the
output layer's, which layer 2's recurrence has read by then, and layer
1's Wx gradient gathers embed[ids] again (embed does not change until
sgd_step). Both recomputes give the forward pass's bits. backward writes
every gradient into `out`, a FlatParams the caller reuses from window to
window, and sgd_step consumes those gradients, forming the update in
place and summing squares for its clip norm through _NORM_LEAF
elements. The buffer is idle during the forward pass, so forward_segment
runs a training cache's input projections in it. Besides that buffer
and the cache's every-step gates, h and c, every array a training
window makes is at most (T*B, H) (backward's one dL/dh), (T*B, d) (an
embedding gather, and the input gradients), (max(B, 2), |V|) (a
fed-back step's logits) or (H, 4H) in size, and none grows with |V|
but those logits and backward's (|V|,) b_out term.
backward neither reads nor changes a forward_cached cache's log_probs,
which live outside the buffer.

Eval never holds a (T, B, |V|) array. Validation runs each window as
consecutive sub_windows of at most max(2, _ROW_BUDGET // (4H * B))
steps, so that a sub-window's input projection fits the row budget,
with the state carried from one to the next; at B = 1 a one-step tail
joins the sub-window before it. Each runs cells-only and its top-layer
rows are scored with target_log_probs, in blocks of at most
block_rows(model) rows through one reused buffer; of the window's T*B
rows only their targets' log-probs are held at once. A
cells-only cache keeps every step of h, which layer 2 projects and the
scoring reads, but only one step of gates and c per layer: each of
those is a zero-stride view over one buffer along time, so
forward_segment runs unchanged and every value keeps its bits. backward
refuses such a cache. Validation runs every sub-window in one cache,
sized by the longest sub-window it runs.
Greedy decoding (metrics) runs every step, the teacher-forced prefix
included, in the first step's one-step cells-only cache. step is the
one-step forward_cached, and the reference the window paths are tested
against: bit for bit at B >= 2, to rounding at B = 1, where numpy sends
step's one-row products to BLAS's matrix-vector kernel. A row of a
product of two or more rows and columns has the same bits whatever the
row count, so no output product has one row unless there is only one
(_first_row): backward's and target_log_probs's blocks, and
step_logits at B = 1, run a lone row together with the row before it,
and validation's sub-windows keep every input projection at two rows or
more the same way.
(OpenBLAS keeps that row rule at the shapes the tests draw and at
desk shape, not at every shape: at H = 1 backward's dL/dh product has
one column, and at some widths, such as 50 columns over H >= 16, rows
from three rows up differ from rows of a two-row product.)

backward runs only the recurrence per timestep (layer 2's reverse pass,
then layer 1's); the output layer runs per block, and every other
weight gradient, the input gradients and the embedding scatter are one
product each per window.
"""

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .neighbors import categorical_draws

_ROW_BUDGET = 1 << 17  # elements of one output-layer block, (rows, |V|)
_BACKWARD_ROWS = 128  # rows of one of backward's output-layer blocks
_NORM_LEAF = 8192  # elements of sgd_step's one sum-of-squares temporary


class FlatParams(Mapping):
    """name -> array, each array a view into one contiguous float64 vector.

    `flat` holds the arrays back to back in key order; spans[i] is the
    (lo, hi) slice of the i-th key. A new FlatParams is all zeros.
    Assigning a key copies into its view, which must have the same shape.
    """

    def __init__(self, shapes: dict):
        self.spans = []
        lo = 0
        for shape in shapes.values():
            self.spans.append((lo, lo + math.prod(shape)))
            lo = self.spans[-1][1]
        self.flat = np.zeros(lo)
        self._views = {key: self.flat[lo:hi].reshape(shape)
                       for (key, shape), (lo, hi) in zip(shapes.items(), self.spans)}

    def __getitem__(self, key):
        return self._views[key]

    def __iter__(self):
        return iter(self._views)

    def __len__(self):
        return len(self._views)

    def __setitem__(self, key, value):
        view = self._views[key]
        if np.shape(value) != view.shape:
            raise ValueError("%s has shape %s, not %s" % (key, np.shape(value), view.shape))
        view[...] = value

    def like(self) -> "FlatParams":
        """Zeros in the same layout."""
        return FlatParams({key: view.shape for key, view in self._views.items()})


@dataclass
class LstmLm:
    vocab_size: int
    dim: int
    hidden: int
    params: FlatParams

    @classmethod
    def init(cls, vocab_size: int, dim: int, hidden: int,
             rng: np.random.Generator, embed=None) -> "LstmLm":
        """Uniform [-1/sqrt(H), 1/sqrt(H)] weights, +1 forget bias.

        Draw order is fixed (embed unless given, then lstm1, lstm2,
        projection) so runs at equal seeds are reproducible.
        """
        model = cls.zeros(vocab_size, dim, hidden)
        params = model.params
        s = 1.0 / np.sqrt(hidden)
        params["embed"] = rng.uniform(-s, s, params["embed"].shape) if embed is None else embed
        for key in ("lstm1_Wx", "lstm1_Wh", "lstm2_Wx", "lstm2_Wh", "W_out"):
            params[key] = rng.uniform(-s, s, params[key].shape)
        for key in ("lstm1_b", "lstm2_b"):
            params[key][hidden:2 * hidden] = 1.0  # forget gate bias
        return model

    @classmethod
    def zeros(cls, vocab_size: int, dim: int, hidden: int) -> "LstmLm":
        """All-zero parameters: the output is uniform by symmetry."""
        h4 = 4 * hidden
        return cls(vocab_size, dim, hidden, FlatParams({
            "embed": (vocab_size, dim),
            "lstm1_Wx": (dim, h4), "lstm1_Wh": (hidden, h4), "lstm1_b": (h4,),
            "lstm2_Wx": (hidden, h4), "lstm2_Wh": (hidden, h4), "lstm2_b": (h4,),
            "W_out": (hidden, vocab_size), "b_out": (vocab_size,),
        }))

    def zero_state(self, batch_size: int):
        return [(np.zeros((batch_size, self.hidden)), np.zeros((batch_size, self.hidden)))
                for _ in range(2)]


def _token_ids(model: LstmLm, ids) -> np.ndarray:
    """An int64 copy of `ids`; float inputs and ids outside [0, |V|) are refused."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ValueError("model inputs must be integer token ids, got dtype %s" % ids.dtype)
    if ids.size and (ids.min() < 0 or ids.max() >= model.vocab_size):
        raise ValueError("token id out of range [0, %d)" % model.vocab_size)
    return ids.astype(np.int64)


@functools.lru_cache(maxsize=None)
def _gate_affine(hidden: int):
    """Per-gate (scale, offset), each (4, 1, H), over [i, f, g, o].

    tanh(z * s) * s + a is the logistic sigmoid where s = a = 0.5
    (sigmoid(z) = (1 + tanh(z / 2)) / 2, and halving is exact) and tanh
    where s = 1, a = 0, so all four gates take four whole-block ops.
    """
    scale = np.full((4, 1, hidden), 0.5)
    offset = np.full((4, 1, hidden), 0.5)
    scale[2] = 1.0
    offset[2] = 0.0
    return scale, offset


def _cell(z, h_prev, c_prev, wh, gates, c, h):
    """One LSTM cell update for one timestep.

    z (B, 4H) holds the input projection x @ Wx + b and is overwritten.
    Fills gates (4, B, H) with the activated [i, f, g, o] blocks, each a
    contiguous (B, H) array, then the new cell state c and the new
    hidden state h = o * tanh(c), formed in h. Every forward path runs
    this, so all share the addition order (x @ Wx + b) + h_prev @ Wh.
    """
    batch, hid = h.shape
    scale, offset = _gate_affine(hid)
    z += h_prev @ wh
    np.multiply(z.reshape(batch, 4, hid).transpose(1, 0, 2), scale, out=gates)
    np.tanh(gates, out=gates)
    gates *= scale
    gates += offset
    i, f, g, o = gates
    np.multiply(f, c_prev, out=c)
    c += i * g
    np.tanh(c, out=h)
    np.multiply(o, h, out=h)


def block_rows(model: LstmLm) -> int:
    """Rows of one output-layer block: max(2, _ROW_BUDGET // |V|)."""
    return max(2, _ROW_BUDGET // model.vocab_size)


def sub_windows(model: LstmLm, t_len: int, batch: int):
    """(lo, hi) spans, consecutive and in order, that split t_len steps of
    B rows into sub-windows of at most max(2, _ROW_BUDGET // (4H * B))
    steps, so that a sub-window's (steps * B, 4H) input projection stays
    within the row budget. At B = 1 a one-step tail joins the span before
    it, so no projection has one row unless the window has one (the rule
    of _first_row)."""
    size = max(2, _ROW_BUDGET // (4 * model.hidden * batch))
    bounds = list(range(0, t_len, size)) + [t_len]
    if batch == 1 and len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return list(zip(bounds, bounds[1:]))


def _one_step(shape) -> np.ndarray:
    """A writable array of `shape` whose rows along axis 0 all view one buffer."""
    buf = np.empty(shape[1:])
    return np.lib.stride_tricks.as_strided(buf, shape, (0,) + buf.strides)


def _logits(model: LstmLm, h: np.ndarray, out: np.ndarray) -> np.ndarray:
    """h @ W_out + b_out of top-layer rows h (n, H) into out (n, |V|)."""
    np.matmul(h, model.params["W_out"], out=out)
    out += model.params["b_out"]
    return out


def _output_layer(model: LstmLm, h: np.ndarray, out: np.ndarray) -> np.ndarray:
    """log_softmax(h @ W_out + b_out) of top-layer rows h (n, H) into out
    (n, |V|): the reference path's output layer, the only one that builds
    a log-softmax array."""
    logits = _logits(model, h, out)
    logits -= logits.max(axis=1, keepdims=True)
    logits -= np.log(np.exp(logits).sum(axis=1, keepdims=True))
    return logits


def _score_rows(model: LstmLm, h: np.ndarray, targets: np.ndarray, out: np.ndarray):
    """The output layer's scoring rule over top-layer rows h (n, H) and
    their targets (n,), in out (n, |V|): the logits shifted by their row
    max, the targets' shifted logits picked, then the block exponentiated
    in place. Returns (the exps, out itself; their row sums (n,); the
    targets' log-probs (n,), each its shifted logit minus the log of its
    row's sum). The log-probs have the bits of _output_layer's."""
    block = _logits(model, h, out)
    block -= block.max(axis=1, keepdims=True)
    picked = block[np.arange(len(targets)), targets]
    sums = np.exp(block, out=block).sum(axis=1)
    return block, sums, picked - np.log(sums)


def _first_row(lo: int, hi: int) -> int:
    """The first row of the product that gives rows lo..hi-1: lo, or lo - 1
    when the rows are one and a row comes before them (numpy sends a
    one-row product to BLAS's matrix-vector kernel, whose bits differ)."""
    return min(lo, max(hi - 2, 0))


def _row_blocks(n: int, size: int):
    """(first, lo, hi) for each block of at most `size` >= 2 rows over n rows:
    the block's own rows are lo..hi-1 and its product runs over rows
    first..hi-1 (_first_row)."""
    for lo in range(0, n, size):
        hi = min(lo + size, n)
        yield _first_row(lo, hi), lo, hi


def target_log_probs(model: LstmLm, top: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """log p(targets[i]) given top-layer rows top (n, H); returns (n,).

    _score_rows runs on blocks of at most block_rows(model) rows through
    one buffer, so memory stays bounded as n and |V| grow. The bits equal
    those of one (n, |V|) output layer: the same ops run on every row,
    and the blocks are _row_blocks'.
    """
    n = top.shape[0]
    size = block_rows(model)
    buf = np.empty((min(size, n), model.vocab_size))
    picked = np.empty(n)
    for first, lo, hi in _row_blocks(n, size):
        scored = _score_rows(model, top[first:hi], targets[first:hi], buf[:hi - first])[2]
        picked[lo:hi] = scored[lo - first:]
    return picked


def _backward_block(rows: int, hidden: int) -> int:
    """Rows of one of backward's output blocks over a window of `rows`
    rows: _BACKWARD_ROWS, or all of them when they take no more room
    than a block and its (H, |V|) accumulation temporary."""
    return rows if rows <= _BACKWARD_ROWS + hidden else _BACKWARD_ROWS


def _window_buffer_size(t_len: int, batch: int, vocab: int, hidden: int) -> int:
    """Elements of a training window's buffer: the reverse recurrence's
    6H per row (its temporary at least four steps long), or, if larger,
    one of backward's output blocks and the accumulation temporary after
    it. That is never more than (max(T, 4) * B, max(|V|, 6H)), and about
    (_BACKWARD_ROWS + H, |V|) at |V| >> H."""
    rows = t_len * batch
    return max(min(rows, _BACKWARD_ROWS + hidden) * vocab,
               (5 * t_len + max(t_len, 4)) * batch * hidden)


class ForwardCache:
    """A forward pass over T timesteps of B rows, as (T, B, .) arrays.

    ids (T, B) the token ids fed; their embedding rows are not kept.
    Per layer (index 0 and 1): gates (T, 4, B, H) the activated
    [i, f, g, o] blocks and h and c (T + 1, B, H) with row 0 the initial
    state. In a training cache, buffer is one flat array
    (_window_buffer_size) that forward_segment runs its input projections
    in and backward then runs in: first its output-layer blocks, then the
    reverse recurrence's scratch (dz, dc/dh and one temporary, 6H per
    row, the temporary at least four steps long).
    final_state is the state after the last step run (row 0 before any
    has run, so a cache keeps no reference to the state it was given).
    nll, input_grads and log_probs are None until set: backward leaves
    the window's mean NLL in nll and the input gradients in input_grads
    (T, B, d), which lives outside the buffer, and forward_cached sets
    log_probs to its own (T, B, |V|) array.

    A cells-only cache has buffer None, and its gates and c are
    zero-stride along time: one buffer each, which _cell writes each step
    into, holding the last step run. Its h keeps every step. backward
    refuses it.

    ForwardCache(steps, final_state, batch_size) joins consecutive caches
    returned by `step` into one training cache with log_probs.
    """

    log_probs = None
    nll = None
    input_grads = None

    def __init__(self, steps, final_state, batch_size):
        steps = list(steps)
        self.ids = np.concatenate([s.ids for s in steps])
        self.gates = [np.concatenate([s.gates[k] for s in steps]) for k in (0, 1)]
        self.h = [np.concatenate([steps[0].h[k][:1]] + [s.h[k][1:] for s in steps])
                  for k in (0, 1)]
        self.c = [np.concatenate([steps[0].c[k][:1]] + [s.c[k][1:] for s in steps])
                  for k in (0, 1)]
        t_len, _, batch, hid = self.gates[0].shape
        self.log_probs = np.concatenate([s.log_probs for s in steps])
        self.buffer = np.empty(_window_buffer_size(t_len, batch, self.log_probs.shape[-1], hid))
        self.final_state = final_state
        self.batch_size = batch_size

    @classmethod
    def window(cls, model: LstmLm, state, ids, workspace: "ForwardCache" = None,
               train: bool = False) -> "ForwardCache":
        """Cache for token ids (T, B), with `state` copied into row 0;
        nothing is run yet. Copies the ids. A training cache with
        train=True, else cells-only: no buffer and one step of gates and
        c.

        With `workspace`, a cache of at least T steps over the same B
        rows and of the same kind, the arrays are leading-axis views of
        the workspace's, and the buffer its leading part, instead of new
        ones.
        """
        ids = _token_ids(model, ids)
        t_len, batch = ids.shape
        hid = model.hidden
        size = _window_buffer_size(t_len, batch, model.vocab_size, hid) if train else 0
        cache = cls.__new__(cls)
        cache.ids = ids
        if workspace is None:
            steps = np.empty if train else _one_step
            cache.gates = [steps((t_len, 4, batch, hid)) for _ in (0, 1)]
            cache.h = [np.empty((t_len + 1, batch, hid)) for _ in (0, 1)]
            cache.c = [steps((t_len + 1, batch, hid)) for _ in (0, 1)]
            cache.buffer = np.empty(size) if train else None
        else:
            cache.gates = [a[:t_len] for a in workspace.gates]
            cache.h = [a[:t_len + 1] for a in workspace.h]
            cache.c = [a[:t_len + 1] for a in workspace.c]
            cache.buffer = workspace.buffer[:size] if train else None
        for (h0, c0), h, c in zip(state, cache.h, cache.c):
            h[0] = h0
            c[0] = c0
        cache.final_state = [(h[0], c[0]) for h, c in zip(cache.h, cache.c)]
        cache.batch_size = batch
        return cache

    def __len__(self):
        return self.ids.shape[0]


def forward_segment(model: LstmLm, cache: ForwardCache, lo: int, hi: int) -> ForwardCache:
    """Run timesteps lo..hi-1 of `cache`, whose inputs are all set, layer
    by layer, computing cell states only.

    Per layer: one input projection over the n * B rows of all n steps
    (layer 1's over embed[ids], gathered for it and not kept), into one
    (n * B, 4H) array both layers share, then the recurrence per step.
    A training cache's buffer is idle until backward and holds 6H
    floats per row or more, so the projection runs in its leading part;
    a cells-only cache allocates it. Leaves the state after step hi - 1
    in cache.final_state.

    For B >= 2 every step's bits equal those of `step` on the same input
    and state, as a row of a stacked product equals the per-step product.
    At B = 1 numpy hands `step`'s one-row product to BLAS's
    matrix-vector kernel, so the two agree only to rounding.
    """
    p = model.params
    rows = (hi - lo) * cache.batch_size
    inp = p["embed"][cache.ids[lo:hi]]
    proj = None  # layer 2's projection reuses layer 1's (rows, 4H) array
    if cache.buffer is not None:
        proj = cache.buffer[:rows * 4 * model.hidden].reshape(rows, -1)
    for layer, (gates, h, c) in enumerate(zip(cache.gates, cache.h, cache.c), 1):
        proj = np.matmul(inp.reshape(rows, -1), p["lstm%d_Wx" % layer], out=proj)
        proj += p["lstm%d_b" % layer]
        z = proj.reshape(hi - lo, cache.batch_size, -1)
        wh = p["lstm%d_Wh" % layer]
        for t in range(lo, hi):
            _cell(z[t - lo], h[t], c[t], wh, gates[t], c[t + 1], h[t + 1])
        inp = h[lo + 1:hi + 1]
    cache.final_state = [(h[hi], c[hi]) for h, c in zip(cache.h, cache.c)]
    return cache


def step(model: LstmLm, ids, state):
    """One timestep on ids (B,): forward_cached over a one-step window.
    Returns (log_probs (B,|V|), new_state, cache).

    The reference the window paths are tested against.
    """
    cache = forward_cached(model, np.reshape(ids, (-1, 1)), state)
    return cache.log_probs[0], cache.final_state, cache


def forward_cached(model: LstmLm, ids, init_state=None) -> ForwardCache:
    """Layer-wise forward over one (B, T) id window from init_state
    (zeros if None) in a training cache: one input projection per layer,
    the recurrence per step, then one output layer over every step into
    the cache's log_probs (T, B, |V|), a new array. backward reads the
    cache, loss_from_cache its log_probs."""
    ids = np.asarray(ids)
    if ids.ndim != 2 or ids.shape[1] == 0:
        raise ValueError("ids must be a (B, T) array with T >= 1, got shape %s" % (ids.shape,))
    batch, t_len = ids.shape
    state = model.zero_state(batch) if init_state is None else init_state
    cache = ForwardCache.window(model, state, ids.T, train=True)
    forward_segment(model, cache, 0, t_len)
    top = cache.h[1][1:].reshape(ids.size, model.hidden)
    log_probs = _output_layer(model, top, np.empty((ids.size, model.vocab_size)))
    cache.log_probs = log_probs.reshape(t_len, batch, model.vocab_size)
    return cache


def step_logits(model: LstmLm, cache: ForwardCache, t: int) -> np.ndarray:
    """Logits (B, |V|) of step t of a run cache of either kind, as a new
    array: h @ W_out + b_out over that step's top-layer rows alone, which
    at B = 1 run together with the row before (the step before, or the
    initial state; _first_row). The rows scheduled sampling
    feeds back and greedy decoding reads; the bits equal the step's rows
    of a whole-window product."""
    b = cache.batch_size
    top = cache.h[1].reshape(-1, model.hidden)  # row block 0 is the initial state
    lo, hi = (t + 1) * b, (t + 2) * b
    first = _first_row(lo, hi)
    return _logits(model, top[first:hi], np.empty((hi - first, model.vocab_size)))[lo - first:]


def loss_from_cache(cache: ForwardCache, targets) -> float:
    """Mean NLL of targets (B, T) from a forward_cached cache's log-probs."""
    targets = np.asarray(targets, dtype=np.int64)
    rows = cache.log_probs.reshape(targets.size, -1)
    return float(-rows[np.arange(targets.size), targets.T.reshape(-1)].sum() / targets.size)


def _reverse_recurrence(cache: ForwardCache, layer: int, dh_in: np.ndarray,
                        wh: np.ndarray) -> np.ndarray:
    """Gate pre-activation gradients dz (T, B, 4H) of one layer.

    dh_in (T, B, H) is dL/dh arriving from above at each step. Runs in
    cache.buffer, whose contents must be dead: it holds dz (4H per row),
    dc/dh and one temporary, and the returned rows are its leading view.
    The dc/dh slot first receives tanh(c) of every step, recomputed from
    cache.c in one call with the bits of the forward pass's per-step
    calls, and becomes dc/dh in place once dz has read it. dz's four
    slots first receive the gate factors that do not depend on
    the carried (dh, dc), for the whole window at once. The reverse loop
    then copies each step's (dc, dc, dc, dh) into the head of the
    temporary and multiplies the step's dz rows by it in one contiguous
    op: a product over the strided per-slot views of dz would make numpy
    allocate iterator buffers (182 kB per step at B = 16, H = 128).
    Products are commutative in IEEE arithmetic, so the order of their
    operands keeps the bits.
    """
    t_len, _, batch, hid = cache.gates[layer].shape
    n = t_len * batch * hid
    scratch = cache.buffer
    dz = scratch[:4 * n].reshape(t_len, batch, 4, hid)
    dc_dh = scratch[4 * n:5 * n].reshape(t_len, batch, 1, hid)
    tmp = scratch[5 * n:6 * n].reshape(t_len, batch, hid)
    gates = cache.gates[layer]
    i, f, g, o = (gates[:, k] for k in range(4))  # (T, B, H)
    tc = np.tanh(cache.c[layer][1:], out=dc_dh[:, :, 0])  # the forward pass's bits
    np.subtract(1.0, gates.transpose(0, 2, 1, 3), out=dz)  # 1 - gate in every slot
    dz_i, dz_f, dz_g, dz_o = (dz[:, :, k] for k in range(4))
    dz_i *= np.multiply(g, i, out=tmp)  # g * i * (1 - i)
    dz_f *= np.multiply(cache.c[layer][:-1], f, out=tmp)  # c_prev * f * (1 - f)
    dz_o *= np.multiply(tc, o, out=tmp)  # tc * o * (1 - o)
    np.multiply(g, g, out=tmp)  # i * (1 - g * g)
    np.subtract(1.0, tmp, out=tmp)
    np.multiply(i, tmp, out=dz_g)
    np.multiply(tc, tc, out=tmp)  # dc/dh = o * (1 - tc * tc), over tc
    np.subtract(1.0, tmp, out=tmp)
    np.multiply(o, tmp, out=tc)

    dz_rows = dz.reshape(t_len, batch, 4 * hid)
    factors = scratch[5 * n:5 * n + 4 * batch * hid].reshape(batch, 4, hid)  # tmp is dead
    dh_in = dh_in.reshape(t_len, batch, 1, hid)
    f = f[:, :, None, :]
    wh_t = np.ascontiguousarray(wh.T)
    dh_carry = np.zeros((batch, 1, hid))
    dc_carry = np.zeros((batch, 1, hid))
    for t in range(t_len - 1, -1, -1):
        dh = dh_in[t] + dh_carry
        dc = dh * dc_dh[t]
        dc += dc_carry
        factors[:, :3] = dc
        factors[:, 3:] = dh
        np.multiply(dz[t], factors, out=dz[t])  # `dz[t] *= factors` would assign back
        if t:
            np.matmul(dz_rows[t], wh_t, out=dh_carry[:, 0])
            np.multiply(dc, f[t], out=dc_carry)
    return dz_rows


def backward(model: LstmLm, cache: ForwardCache, targets, out: FlatParams = None) -> FlatParams:
    """Exact BPTT gradients of the mean NLL wrt every parameter.

    Writes them into `out`, a FlatParams laid out as model.params (a new
    one if None), and returns it. The window's mean NLL of targets, with
    the bits of loss_from_cache over a whole-window output layer, lands
    in cache.nll. Consumes cache.buffer; a forward_cached cache's
    log_probs live outside it, and backward neither reads nor changes them.

    Truncation boundary: the window's initial state is a constant.
    Gradients wrt the embedded inputs land in cache.input_grads (T, B, d),
    a new array, and are scattered into the embedding rows of the ids fed.

    The output layer runs on the top-layer rows, stacked in (t, b)
    order, in _row_blocks of _backward_block rows through the buffer:
    per block _score_rows (the exps, their row sums and the targets'
    log-probs), the softmax gradient formed in place from the exps
    (divided by the row sum, one subtracted at the target, divided by
    the window's row count), the block's W_out and b_out terms (summed
    over the blocks in order) and its rows of dL/dh of layer 2. Then
    only the recurrence runs per timestep, layer 2's whole reverse pass
    before layer 1's, and per layer the Wx, Wh and b gradients and
    dL/d(input), which is layer 1's dL/dh or the input gradient, are one
    product each per window.

    What the cache does not keep is recomputed with its bits: each
    layer's tanh(c) from its cell states (_reverse_recurrence), and layer
    1's inputs as embed[cache.ids], gathered again for its Wx gradient
    once layer 1's dL/dh is dead (embed does not change before
    sgd_step). Layer 1's dL/dh is written over the output layer's, so
    backward holds one (T*B, H) array of either.

    A cells-only cache is refused: it has no buffer, and its gates and c
    hold only the last step.
    """
    if cache.buffer is None:
        raise ValueError("backward needs a cache with every step's gates and a "
                         "buffer; this one is cells-only")
    p = model.params
    grads = p.like() if out is None else out
    hid, vocab = model.hidden, model.vocab_size
    targets = np.asarray(targets, dtype=np.int64)
    t_len, b = len(cache), cache.batch_size
    rows = t_len * b

    top = cache.h[1][1:].reshape(rows, hid)
    flat_targets = targets.T.reshape(-1)
    size = _backward_block(rows, hid)
    block_buf = cache.buffer[:size * vocab].reshape(size, vocab)
    w_term = cache.buffer[size * vocab:(size + hid) * vocab]  # (H, |V|) after the first block
    picked = np.empty(rows)
    dh_in = np.empty((rows, hid))
    for first, lo, hi in _row_blocks(rows, size):
        dlogits, sums, scored = _score_rows(model, top[first:hi], flat_targets[first:hi],
                                            block_buf[:hi - first])
        picked[lo:hi] = scored[lo - first:]
        dlogits /= sums[:, None]  # softmax minus one-hot, in place
        dlogits[np.arange(hi - first), flat_targets[first:hi]] -= 1.0
        dlogits /= float(rows)
        mine = dlogits[lo - first:]
        if lo == 0:
            np.matmul(top[lo:hi].T, mine, out=grads["W_out"])
            mine.sum(axis=0, out=grads["b_out"])
        else:
            grads["W_out"] += np.matmul(top[lo:hi].T, mine, out=w_term.reshape(hid, vocab))
            grads["b_out"] += mine.sum(axis=0)
        dh_in[lo:hi] = (dlogits @ p["W_out"].T)[lo - first:]
    cache.nll = float(-picked.sum() / rows)
    dh_in = dh_in.reshape(t_len, b, hid)  # the buffer is dead from here

    for layer in (2, 1):
        k = layer - 1
        dz = _reverse_recurrence(cache, k, dh_in, p["lstm%d_Wh" % layer]).reshape(rows, 4 * hid)
        if layer == 2:  # layer 1's dL/dh goes over the one this recurrence has read
            np.matmul(dz, p["lstm2_Wx"].T, out=dh_in.reshape(rows, hid))
            inp = cache.h[0][1:]
        else:  # dh_in is dead; the embedded inputs are gathered again in its place
            del dh_in  # (embed is as the forward pass read it)
            inp = p["embed"][cache.ids]
        np.matmul(inp.reshape(rows, -1).T, dz, out=grads["lstm%d_Wx" % layer])
        np.matmul(cache.h[k][:-1].reshape(rows, hid).T, dz, out=grads["lstm%d_Wh" % layer])
        dz.sum(axis=0, out=grads["lstm%d_b" % layer])
    dx = (dz @ p["lstm1_Wx"].T).reshape(t_len, b, model.dim)

    grads["embed"].fill(0.0)
    np.add.at(grads["embed"], cache.ids.reshape(-1), dx.reshape(rows, model.dim))
    cache.input_grads = dx
    return grads


def _sum_of_squares(x: np.ndarray, tmp: np.ndarray) -> float:
    """float((x * x).sum()) of a contiguous vector x, with its bits, through
    tmp of at least min(x.size, _NORM_LEAF) elements. numpy sums a vector
    pairwise, splitting n elements into the first n // 2, rounded down to
    a multiple of 8, and the rest; this takes the same split down to
    spans of at most _NORM_LEAF, squares and sums each span in tmp, and
    adds the spans' sums in the split's order."""
    n = x.size
    if n <= _NORM_LEAF:
        return float(np.multiply(x, x, out=tmp[:n]).sum())
    half = n // 2 - n // 2 % 8
    return _sum_of_squares(x[:half], tmp) + _sum_of_squares(x[half:], tmp)


def sgd_step(model: LstmLm, grads: FlatParams, lr: float, clip: float,
             momentum: float = 0.0, velocity: FlatParams = None) -> float:
    """Global-norm clip then theta <- theta - lr * grad, in place.

    Runs on the flat vectors of model.params, grads and velocity, which
    share one layout. Consumes grads: the update is formed in place in
    grads.flat, so read the gradients first. The clip norm is the square
    root of the sum, in key order, of each key's sum of squares, which
    _sum_of_squares takes with the bits of (g * g).sum() through one
    temporary of _NORM_LEAF elements. Returns that norm, or math.nan at
    clip == 0, where none is taken. Non-finite gradients abort the step
    before any parameter moves, and the error names the first such key;
    the scan for them runs only when the norm is not finite or not taken.
    Finite gradients whose squares overflow have an infinite norm and
    scale 0. Optional heavy-ball momentum: velocity <- m * velocity + grad.
    """
    if lr <= 0.0:
        raise ValueError("lr must be positive")
    if momentum > 0.0 and velocity is None:
        raise ValueError("momentum > 0 needs a velocity")
    g = grads.flat
    norm = math.nan  # not taken at clip == 0, so the scan below runs
    if clip:
        tmp = np.empty(min(g.size, _NORM_LEAF))
        norm = math.sqrt(sum(_sum_of_squares(g[lo:hi], tmp) for lo, hi in grads.spans))
    if not math.isfinite(norm):
        for key, val in grads.items():
            if not np.isfinite(val).all():
                raise ValueError("non-finite gradient in %r, step aborted" % key)
    if norm > clip:
        g *= clip / norm
    if momentum > 0.0:
        velocity.flat *= momentum
        velocity.flat += g
        np.multiply(velocity.flat, lr, out=g)
    else:
        g *= lr
    model.params.flat -= g
    return norm


def cosine_lr(base_lr: float, epoch: int, total: int) -> float:
    """base_lr * (1 + cos(pi * epoch / total)) / 2."""
    if total < 1:
        raise ValueError("total must be >= 1")
    return float(base_lr * (1.0 + np.cos(np.pi * epoch / total)) / 2.0)


def greedy_or_sample_predict(logits: np.ndarray, sample: bool = False,
                             rng: np.random.Generator = None) -> np.ndarray:
    """The model's next token for each (N, |V|) logit row, as (N,) int64
    ids: the argmax (ties to the smaller id), or with sample=True one
    categorical draw per row from exp(row - row max), which
    categorical_draws scales by its row total."""
    if not sample:
        return logits.argmax(axis=1).astype(np.int64)
    if rng is None:
        raise ValueError("rng is required for sampling mode")
    return categorical_draws(np.exp(logits - logits.max(axis=1, keepdims=True)), rng)
