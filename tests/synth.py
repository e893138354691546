"""Synthetic corpora and embeddings shared across the test suite."""

import functools
import io
import zipfile

import numpy as np


def bigram_cycle_lines(n_words: int = 10, n_lines: int = 60):
    """A fully deterministic token cycle: every bigram has one successor.

    The generating chain has zero entropy, so a language model can push
    perplexity arbitrarily close to 1 on it.
    """
    words = ["w%d" % i for i in range(n_words)]
    return [" ".join(words) for _ in range(n_lines)]


def cluster_markov(rng: np.random.Generator, n_clusters: int = 6, members: int = 4,
                   n_lines: int = 150, line_len: int = 20, dim: int = 16,
                   noise: float = 0.05, stay: float = 0.8):
    """Corpus from a Markov chain over synonym clusters.

    Cluster c hops to cluster (c + 1) mod C with probability `stay`,
    anywhere else uniformly; the emitted token is a uniform member of
    the target cluster. Members of one cluster share a base embedding
    vector plus small per-member noise, so they are one another's
    nearest neighbors by construction.

    Returns (corpus lines, embedding-file lines, word list).
    """
    words = [["c%dw%d" % (c, m) for m in range(members)] for c in range(n_clusters)]
    trans = np.full((n_clusters, n_clusters), (1.0 - stay) / (n_clusters - 1))
    for c in range(n_clusters):
        trans[c, c] = 0.0
        trans[c, (c + 1) % n_clusters] = stay
    trans /= trans.sum(axis=1, keepdims=True)

    lines = []
    cluster = 0
    for _ in range(n_lines):
        toks = []
        for _ in range(line_len):
            cluster = int(rng.choice(n_clusters, p=trans[cluster]))
            toks.append(words[cluster][int(rng.integers(members))])
        lines.append(" ".join(toks))

    emb_lines = []
    for c in range(n_clusters):
        base = rng.normal(0.0, 1.0, dim)
        base /= np.linalg.norm(base)
        for m in range(members):
            vec = base + noise * rng.normal(0.0, 1.0, dim)
            emb_lines.append(words[c][m] + " " + " ".join(repr(float(v)) for v in vec))
    flat = [w for group in words for w in group]
    return lines, emb_lines, flat


def write_lines(path, lines) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return str(path)


def finite_difference_grads(model, inputs, targets, h: float = 1e-5):
    """Central-difference gradients of the mean NLL for every parameter."""
    from nnrslab.model import forward_cached, loss_from_cache

    def eval_loss():
        return loss_from_cache(forward_cached(model, inputs), targets)

    grads = {}
    for key, arr in model.params.items():
        flat = arr.ravel()
        out = np.zeros_like(flat)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            plus = eval_loss()
            flat[idx] = orig - h
            minus = eval_loss()
            flat[idx] = orig
            out[idx] = (plus - minus) / (2.0 * h)
        grads[key] = out.reshape(arr.shape)
    return grads


def max_rel_error(analytic: dict, reference: dict) -> float:
    """Worst elementwise relative error between two gradient dicts."""
    worst = 0.0
    for key, a in analytic.items():
        f = reference[key]
        # floor 1e-6: central differences at h=1e-5 carry ~1e-10 absolute
        # roundoff, which would swamp the ratio on near-zero entries
        scale = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-6)
        worst = max(worst, float((np.abs(a - f) / scale).max()))
    return worst


def brute_force_topk(vectors: np.ndarray, k: int):
    """Reference O(V^2) top-k cosine scan, one pair at a time.

    Same contract as the package table builder (self excluded, similarity
    descending, ties to the smaller id, zero rows skipped) but computed
    with per-pair dot products and a plain Python sort.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    n = vectors.shape[0]
    norms = [float(np.linalg.norm(v)) for v in vectors]
    valid = [i for i in range(n) if norms[i] > 0.0]
    ids = np.tile(np.arange(n, dtype=np.int64)[:, None], (1, k))
    sims = np.zeros((n, k))
    for w in valid:
        scored = []
        for u in valid:
            if u == w:
                continue
            s = float(np.dot(vectors[w] / norms[w], vectors[u] / norms[u]))
            scored.append((min(max(s, -1.0), 1.0), u))
        scored.sort(key=lambda t: (-t[0], t[1]))
        for slot, (s, u) in enumerate(scored[:k]):
            ids[w, slot] = u
            sims[w, slot] = s
    return ids, sims


def reference_transition_table(corpus_ids, n: int, k: int):
    """Reference top-k bigram successors with a dict of counts per word.

    Same contract as the package builder (count descending, ties to the
    smaller id, probs over the kept row total, self-loop rows for words
    never followed, self-id padding at probability 0), one bigram at a
    time.
    """
    successors = [dict() for _ in range(n)]
    for prev, nxt in zip(corpus_ids[:-1], corpus_ids[1:]):
        row = successors[int(prev)]
        row[int(nxt)] = row.get(int(nxt), 0) + 1
    ids = np.tile(np.arange(n, dtype=np.int64)[:, None], (1, k))
    probs = np.zeros((n, k), dtype=np.float64)
    for wid, row in enumerate(successors):
        if not row:
            probs[wid, 0] = 1.0
            continue
        top = sorted(row.items(), key=lambda it: (-it[1], it[0]))[:k]
        total = sum(c for _, c in top)
        for slot, (succ, count) in enumerate(top):
            ids[wid, slot] = succ
            probs[wid, slot] = count / total
    return ids, probs


def assert_like_step(batch: int):
    """Array comparison of a layer-wise window against the `step` loop.

    Exact for B >= 2, where a row of a stacked product equals the
    per-step product. At B = 1 numpy sends step's one-row products to
    BLAS's matrix-vector kernel, so there the two agree to rounding.
    """
    if batch > 1:
        return np.testing.assert_array_equal
    return functools.partial(np.testing.assert_allclose, rtol=1e-9, atol=1e-12)


def assert_same_checkpoint(path_a, path_b):
    """Records (wall times aside), the policy RNG state and every array
    (parameters, velocity, Gumbel logits) equal, the arrays byte for byte."""
    from nnrslab.arrayio import load_arrays
    from nnrslab.trainer import load_checkpoint

    a, b = load_checkpoint(path_a), load_checkpoint(path_b)
    assert a["records"] == b["records"]
    assert a["meta"]["rng_policy"] == b["meta"]["rng_policy"]
    arrays_a, arrays_b = load_arrays(path_a), load_arrays(path_b)
    del arrays_a["meta"], arrays_b["meta"]
    assert sorted(arrays_a) == sorted(arrays_b)
    for key in arrays_a:
        assert arrays_a[key].tobytes() == arrays_b[key].tobytes(), key


def sum_of_squares_norm(arrays) -> float:
    """sqrt of the sum, in key order, of each array's sum of squares."""
    return float(np.sqrt(sum(float((a * a).sum()) for a in arrays.values())))


def per_key_sgd_step(model, grads, lr, clip, momentum=0.0, velocity=None):
    """The SGD rule one parameter key at a time, on any name -> array
    mappings: the reference the flat model.sgd_step is tested against."""
    for key, g in grads.items():
        if not np.isfinite(g).all():
            raise ValueError("non-finite gradient in %r, step aborted" % key)
    scale = 1.0
    if clip:
        norm = sum_of_squares_norm(grads)
        if norm > clip:
            scale = clip / norm
    for key, g in grads.items():
        upd = g * scale
        if momentum > 0.0:
            velocity[key] = momentum * velocity[key] + upd
            upd = velocity[key]
        model.params[key] -= lr * upd
    return model


def reference_backward(model, cache, targets):
    """BPTT gradients of the mean NLL as separate arrays: the reference
    model.backward is tested against. Runs the output layer over the
    whole window in one product (a forward_cached cache's log_probs are
    not read), sums the W_out and b_out terms over backward's row blocks in
    order, takes dL/dh of layer 2 per block (a product with one column,
    at H = 1, goes to the matrix-vector kernel, whose row bits depend on
    the row count), and allocates every factor of the reverse recurrence
    apart. Like backward it takes tanh(c) from the cache's cell states and
    the embedded inputs from the ids, as a training cache keeps neither.
    Returns (name -> gradient dict, input gradients (T, B, d), mean NLL)."""
    from nnrslab.model import _backward_block, _row_blocks

    p = model.params
    hid = model.hidden
    targets = np.asarray(targets, dtype=np.int64)
    t_len, b = len(cache), cache.batch_size
    rows = t_len * b
    grads = {}

    top = cache.h[1][1:].reshape(rows, hid)
    logits = top @ p["W_out"] + p["b_out"]
    logits -= logits.max(axis=1, keepdims=True)
    sums = np.exp(logits).sum(axis=1, keepdims=True)
    picked = logits[np.arange(rows), targets.T.reshape(-1)] - np.log(sums[:, 0])
    nll = float(-picked.sum() / rows)
    dlogits = np.exp(logits) / sums  # the softmax, exp(shifted) / sum
    dlogits[np.arange(rows), targets.T.reshape(-1)] -= 1.0
    dlogits /= float(rows)
    terms, dh_rows = [], []
    for first, lo, hi in _row_blocks(rows, _backward_block(rows, hid)):
        terms.append((top[lo:hi].T @ dlogits[lo:hi], dlogits[lo:hi].sum(axis=0)))
        dh_rows.append((dlogits[first:hi] @ p["W_out"].T)[lo - first:])
    grads["W_out"], grads["b_out"] = terms[0]
    for w_term, b_term in terms[1:]:
        grads["W_out"] = grads["W_out"] + w_term
        grads["b_out"] = grads["b_out"] + b_term
    dh_in = np.concatenate(dh_rows).reshape(t_len, b, hid)

    layer_inputs = (p["embed"][cache.ids], cache.h[0][1:])
    for layer in (2, 1):
        k = layer - 1
        i, f, g, o = (cache.gates[k][:, j, :, None, :] for j in range(4))  # (T, B, 1, H)
        tc = np.tanh(cache.c[k][1:])[:, :, None, :]
        dc_dh = o * (1.0 - tc * tc)
        cell_factors = np.concatenate(
            [g * i * (1.0 - i), cache.c[k][:-1, :, None, :] * f * (1.0 - f), i * (1.0 - g * g)],
            axis=2,
        )
        out_factor = tc * o * (1.0 - o)
        dz = np.empty((t_len, b, 4, hid))
        dh_up = dh_in.reshape(t_len, b, 1, hid)
        wh_t = np.ascontiguousarray(p["lstm%d_Wh" % layer].T)
        dh_carry = np.zeros((b, 1, hid))
        dc_carry = np.zeros((b, 1, hid))
        for t in range(t_len - 1, -1, -1):
            dh = dh_up[t] + dh_carry
            dc = dh * dc_dh[t]
            dc += dc_carry
            dz[t, :, :3] = cell_factors[t] * dc
            dz[t, :, 3:] = out_factor[t] * dh
            if t:
                dh_carry = (dz[t].reshape(b, 4 * hid) @ wh_t)[:, None, :]
                dc_carry = dc * f[t]
        dz = dz.reshape(rows, 4 * hid)
        grads["lstm%d_Wx" % layer] = layer_inputs[k].reshape(rows, -1).T @ dz
        grads["lstm%d_Wh" % layer] = cache.h[k][:-1].reshape(rows, hid).T @ dz
        grads["lstm%d_b" % layer] = dz.sum(axis=0)
        dh_in = (dz @ p["lstm%d_Wx" % layer].T).reshape(t_len, b, -1)

    grads["embed"] = np.zeros_like(p["embed"])
    np.add.at(grads["embed"], cache.ids.reshape(-1), dh_in.reshape(rows, model.dim))
    return grads, dh_in, nll


def assert_views_of_flat(params):
    """Every array of a FlatParams is the view of its own span of `flat`,
    the spans back to back in key order."""
    end = 0
    for (key, view), (lo, hi) in zip(params.items(), params.spans):
        assert view.base is params.flat, key
        assert (lo, hi) == (end, end + view.size), key
        assert view.ctypes.data == params.flat[lo:].ctypes.data, key
        end = hi
    assert end == params.flat.size and len(params.spans) == len(params)


def writestr_save_arrays(path, **arrays) -> None:
    """Reference archive writer: each member serialized whole in memory,
    then stored with ZipFile.writestr, at save_arrays's fixed timestamp
    and member order."""
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
        for name in sorted(arrays):
            buf = io.BytesIO()
            np.lib.format.write_array(buf, np.asarray(arrays[name]))
            zf.writestr(zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0)),
                        buf.getvalue())
