"""Embedders, batch-hard triplet training, and the adaptation loop.

The adaptation loop alternates two steps on an unlabeled target domain:
cluster the tracklets with the current embedder, then fine-tune the embedder
with a batch-hard triplet loss using cluster ids as pseudo-labels.  Each
round warm-starts from the previous round's parameters.

An Embedder is one affine layer (kind "linear") or two with tanh between
them (kind "mlp").  Its parameters lie flat in one layout, W1, b1[, W2, b2],
which _layout derives from (input_dim, hidden_dim, output_dim) with
hidden_dim 0 for one layer.  Training steps, checkpoints and checkpoint ids
all read that layout, and a KTE1 kind code is the layer count.
"""

from __future__ import annotations

import copy
import hashlib
import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import AdaptationError, BatchError, ManifestError
from .graph import ClusterSet, cluster
from .io import atomic_write
from .model import AdaptConfig, ClusterAssignment, DomainManifest, TrainConfig, check_margin, gather_frames
from .neighbors import build_neighbor_index, exact_sq_dists

# Indexed by layer count, which is also the KTE1 kind code.
_KINDS = ("identity", "linear", "mlp")


def _layout(input_dim: int, hidden_dim: int, output_dim: int) -> list[tuple]:
    """Per layer, (start, w_stop, stop, W shape) in the flat parameter vector.

    Layer i's W is params[start:w_stop] and its b is params[w_stop:stop];
    hidden_dim 0 means one layer.  Pure integer arithmetic, so a checkpoint
    header can be checked against it before any array exists.
    """
    dims = (input_dim, hidden_dim, output_dim) if hidden_dim else (input_dim, output_dim)
    layout, stop = [], 0
    for rows, cols in zip(dims, dims[1:]):
        w_stop = stop + rows * cols
        layout.append((stop, w_stop, w_stop + cols, (rows, cols)))
        stop = w_stop + cols
    return layout


def _split(params: np.ndarray, layout) -> list[tuple[np.ndarray, np.ndarray]]:
    """(W, b) of each layer, views of one fresh copy of a flat vector, cut by its layout."""
    params = params.copy()
    return [(params[start:w_stop].reshape(shape), params[w_stop:stop])
            for start, w_stop, stop, shape in layout]


def _check_dims(*dims: int) -> None:
    if min(dims) < 1:
        raise ValueError(f"embedder dims must be positive, got {dims}")


class Embedder:
    """One or two affine layers: y = x @ W1 + b1, or tanh(x @ W1 + b1) @ W2 + b2.

    Embedder(W1, b1[, W2, b2]) copies the arrays.  kind is "linear" or "mlp"
    by layer count, and hidden_dim is W1's width for two layers, 0 for one.
    param_vector lists W1, b1[, W2, b2] flat, so optimizers and checkpoints
    do not care about the architecture.
    """

    def __init__(self, *arrays):
        if len(arrays) not in (2, 4):
            raise ValueError(f"an embedder takes arrays W1, b1[, W2, b2], got {len(arrays)}")
        arrays = [np.array(a, dtype=np.float64) for a in arrays]
        shapes = [a.shape for a in arrays]
        if any(len(s) != 2 for s in shapes[::2]):
            raise ValueError(f"layer weights must be 2-D, got shapes {shapes}")
        dims = (shapes[0][0], *(s[1] for s in shapes[::2]))
        _check_dims(*dims)
        self.input_dim, self.output_dim = dims[0], dims[-1]
        self.hidden_dim = dims[1] if len(dims) == 3 else 0
        self.kind = _KINDS[len(arrays) // 2]
        self._layout = _layout(self.input_dim, self.hidden_dim, self.output_dim)
        if shapes != [s for *_, (rows, cols) in self._layout for s in ((rows, cols), (cols,))]:
            raise ValueError(f"inconsistent layer shapes {shapes}")
        self._layers = list(zip(arrays[::2], arrays[1::2]))

    def _layer_inputs(self, arr: np.ndarray) -> list[np.ndarray]:
        """Each layer's input: arr, then tanh of each hidden pre-activation."""
        hs = [arr]
        for W, b in self._layers[:-1]:
            hs.append(np.tanh(hs[-1] @ W + b))
        return hs

    def embed(self, x: np.ndarray) -> np.ndarray:
        """Map (n, input_dim) -> (n, output_dim); a single vector maps to a vector.

        Rows of any other width are a ValueError naming both widths.
        """
        arr, single = self._batch(x)
        W, b = self._layers[-1]
        y = self._layer_inputs(arr)[-1] @ W + b
        return y[0] if single else y

    def param_vector(self) -> np.ndarray:
        """Copy of all parameters as a flat float64 vector."""
        return np.concatenate([a.ravel() for layer in self._layers for a in layer])

    def set_param_vector(self, params: np.ndarray) -> None:
        """Load parameters from a flat vector (inverse of param_vector)."""
        params = np.asarray(params, dtype=np.float64)
        size = self._layout[-1][2]
        if params.shape != (size,):
            raise ValueError(f"expected {size} parameters, got {params.shape}")
        self._layers = _split(params, self._layout)

    def param_grad(self, x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
        """Flat gradient of sum(embed(x) * grad_out) w.r.t. the parameters."""
        arr, _ = self._batch(x)
        g = np.asarray(grad_out, dtype=np.float64)
        hs = self._layer_inputs(arr)
        grad = np.empty(self._layout[-1][2])
        for i in reversed(range(len(self._layers))):
            h, (start, w_stop, stop, shape) = hs[i], self._layout[i]
            np.matmul(h.T, g, out=grad[start:w_stop].reshape(shape))
            np.add.reduce(g, axis=0, out=grad[w_stop:stop])  # g.sum(axis=0) without its Python layer
            if i:
                g = (g @ self._layers[i][0].T) * (1.0 - h * h)
        return grad

    def clone(self) -> "Embedder":
        return copy.deepcopy(self)

    def _batch(self, x) -> tuple[np.ndarray, bool]:
        arr = np.asarray(x, dtype=np.float64)
        single = arr.ndim == 1
        arr = arr[None, :] if single else arr
        if arr.ndim != 2:
            raise ValueError(f"expected a vector or a batch of vectors, got shape {arr.shape}")
        if arr.shape[1] != self.input_dim:
            raise ValueError(f"embedder takes {self.input_dim}-d frames, got {arr.shape[1]}-d")
        return arr, single


class LinearEmbedder(Embedder):
    """Affine map y = x @ W + b: an Embedder with one layer."""

    def __init__(self, weight: np.ndarray, bias: np.ndarray):
        super().__init__(weight, bias)

    @classmethod
    def identity(cls, dim: int) -> "LinearEmbedder":
        return cls(np.eye(dim), np.zeros(dim))

    @classmethod
    def random(cls, input_dim: int, output_dim: int, rng: np.random.Generator) -> "LinearEmbedder":
        _check_dims(input_dim, output_dim)  # before 1/sqrt(0) can warn
        W = rng.normal(0.0, 1.0 / np.sqrt(input_dim), size=(input_dim, output_dim))
        return cls(W, np.zeros(output_dim))


class MlpEmbedder(Embedder):
    """Two-layer perceptron y = tanh(x @ W1 + b1) @ W2 + b2."""

    def __init__(self, W1, b1, W2, b2):
        super().__init__(W1, b1, W2, b2)

    @classmethod
    def random(
        cls, input_dim: int, hidden_dim: int, output_dim: int, rng: np.random.Generator
    ) -> "MlpEmbedder":
        _check_dims(input_dim, hidden_dim, output_dim)  # before 1/sqrt(0) can warn
        W1 = rng.normal(0.0, 1.0 / np.sqrt(input_dim), size=(input_dim, hidden_dim))
        W2 = rng.normal(0.0, 1.0 / np.sqrt(hidden_dim), size=(hidden_dim, output_dim))
        return cls(W1, np.zeros(hidden_dim), W2, np.zeros(output_dim))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # e = exp(-|x|) is at most 1, so neither form overflows.  np.minimum returns
    # its first NaN, so a NaN x keeps its own bits, and NaN takes the second form.
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)  # 1 / (1 + e) or e / (1 + e)


# (key, state) of the last label vector.  It is replaced whole, so a reader
# on another thread never pairs one vector's key with another's state.
_LABEL_MEMO: tuple = (None, None)


def _label_state(y: np.ndarray) -> tuple:
    """(same, pos, at, div, pk) of labels y after both label checks, memoized by value.

    same[a, b] says a and b share a label, pos is same without its diagonal,
    at holds the flat offset a * B of each row of a (B, B) array, twice, and
    div is [[-B], [B]], so w / div is -w / B over w / B.  pk is None unless
    every label has the same count k, as in a PK batch; then it is
    (pos_flat, pos_col, first, same_flat): the flat offsets in (B, B) of
    each row's k - 1 positives in column order, shaped (B, k - 1), their
    columns, the flat offset of each row's first positive in those arrays,
    and the flat offsets of every same-label pair.  The memo holds one label
    vector, keyed by its dtype and bytes.  An object array's bytes are
    pointers, and a vector of more than 1024 labels would keep megabytes of
    masks alive, so neither is memoized.  A refused vector is never stored,
    so every call raises.
    """
    global _LABEL_MEMO
    key = None if y.dtype.hasobject or y.size > 1024 else (y.dtype.str, y.tobytes())
    memo = _LABEL_MEMO
    if key is not None and memo[0] == key:
        return memo[1]
    same = y[:, None] == y
    if same.all():
        raise BatchError("triplets require at least two distinct labels in the batch")
    counts = same.sum(axis=1)
    if counts.min() < 2:
        lonely = np.sort(y[counts < 2])[:1].item()  # sort: min() has no loop for str labels
        raise BatchError(f"label {lonely!r} has a single sample; need >= 2 per label")
    B, k = y.size, int(counts[0])
    pos = same & ~np.eye(B, dtype=bool)
    pk = None
    if (counts == k).all():
        pos_flat = np.flatnonzero(pos).reshape(B, k - 1)
        pk = (pos_flat, pos_flat % B, np.arange(0, B * (k - 1), k - 1), np.flatnonzero(same))
    state = (same, pos, np.tile(np.arange(0, B * B, B), 2), np.array([[-B], [B]], dtype=np.float64), pk)
    for a in (*state[:4], *(pk or ())):
        a.setflags(write=False)
    if key is not None:
        _LABEL_MEMO = (key, state)
    return state


def batch_hard_triplet_loss(
    embeddings: np.ndarray,
    labels: np.ndarray,
    margin: float | str = "soft",
) -> tuple[float, np.ndarray]:
    """Batch-hard triplet loss and its analytic gradient.

    For each anchor a the hardest positive distance d+ is the maximum
    Euclidean distance to a same-label sample and the hardest negative d-
    the minimum distance to an other-label sample.  Per-anchor terms are
    max(0, margin + d+ - d-) for a float margin, softplus(d+ - d-) for
    margin="soft"; the loss is their mean over the batch.  This is the
    batch-hard loss of Hermans, Beyer & Leibe 2017 (arXiv:1703.07737).

    Args:
        embeddings: (B, d) float batch.
        labels: (B,) integer labels; at least two distinct values, each with
            at least two members.
        margin: "soft" or a non-negative float.

    Returns:
        (loss, grad) with grad of shape (B, d), the exact gradient of the
        loss with respect to the embeddings.
    """
    X = np.asarray(embeddings, dtype=np.float64)
    if X.ndim != 2:
        raise BatchError(f"embeddings must be 2-D, got shape {X.shape}")
    y = np.asarray(labels)
    B, d = X.shape
    if y.shape != (B,):
        raise BatchError(f"labels shape {y.shape} does not match batch size {B}")
    same, pos, at, div, pk = _label_state(y)
    check_margin(margin, BatchError)

    D = exact_sq_dists(X, X)
    np.sqrt(D, out=D)
    # idx[i] is anchor i's hardest positive and idx[B + i] its hardest negative;
    # flat holds their offsets in D.  The first argmax and argmin win, so ties go
    # to the lower column.  Every row has a positive, so d+ is read from D; d- is
    # read from near: a row whose negatives all overflowed to +inf has its argmin
    # on a masked entry, where D holds a same-label distance.
    if pk is None:  # one masked copy of D per side
        near = np.where(same, np.inf, D)
        idx = np.concatenate((np.where(pos, D, -np.inf).argmax(axis=1), near.argmin(axis=1)))
    else:
        # The same choices from the k - 1 positives of each row, and from a
        # copy of D with +inf put on its same-label entries.
        pos_flat, pos_col, first, same_flat = pk
        near = D.copy()
        near.put(same_flat, np.inf)
        idx = np.concatenate((pos_col.take(first + D.take(pos_flat).argmax(axis=1)), near.argmin(axis=1)))
    flat = at + idx
    norm = D.take(flat)  # d+, then the unmasked distance to each hardest negative
    raw = norm[:B] - near.take(flat[B:])
    if margin == "soft":
        losses = np.logaddexp(0.0, raw)
        w = _sigmoid(raw)
    else:
        losses = np.maximum(0.0, float(margin) + raw)
        w = (losses > 0.0).astype(np.float64)
    loss = float(np.add.reduce(losses) / B)  # losses.mean(), without its Python layer

    # d(||a-b||)/da is the unit vector (a-b)/||a-b||; define it as 0 for
    # coincident points (the loss is locally flat there).  Rows of u follow
    # idx, and the norms come from D without masks.
    vec = (X - X.take(idx, axis=0).reshape(2, B, d)).reshape(2 * B, d)
    norm = norm[:, None]
    if np.minimum.reduce(norm, axis=None) > 0.0:  # no zero and no NaN: nothing to mask
        u = vec / norm
    else:
        u = np.divide(vec, norm, out=np.zeros((2 * B, d)), where=norm > 0.0)
    # The gradient in few calls first: scale is -w / B, then w / B, and the
    # flat scatter takes numpy's fast path, adding the positive terms, then
    # the negative ones, element by element.  It stands when it is finite:
    # then no NaN arose, and each element took the operations of the exact
    # form below, so its bits.
    scale = (w / div).reshape(2 * B, 1)
    grad = scale[B:] * (u[:B] - u[B:])
    at_d = np.arange(B * d).reshape(B, d).take(idx, axis=0)  # flat offsets of the rows of idx
    np.add.at(grad.reshape(-1), at_d.reshape(-1), (scale * u).reshape(-1))
    if math.isfinite(np.add.reduce(grad, axis=None)):  # a NaN or an infinity makes the sum one
        return loss, grad
    # The exact form.  The two products stay apart, as their signs are part of
    # the bytes, and so do the two halves: NaN bits follow each product's own
    # shape, and the 2-D scatter adds each element to its term.
    u_pos, u_neg = u[:B], u[B:]
    scale = (w / B)[:, None]
    grad = scale * (u_pos - u_neg)
    np.add.at(grad, idx, np.concatenate((-scale * u_pos, scale * u_neg)))
    return loss, grad


def identity_clusters(m: DomainManifest) -> ClusterSet:
    """Group a labeled manifest by ground-truth identity.

    Lets the same training loop run supervised (source domains) and
    pseudo-labeled (adaptation rounds).  Identities get cluster ids 0..m-1
    in sorted identity order.
    """
    groups: dict[str, set[str]] = {}
    for t in m.tracklets:
        if t.identity is None:
            raise ManifestError(f"tracklet {t.tracklet_id!r} is unlabeled")
        groups.setdefault(t.identity, set()).add(t.tracklet_id)
    clusters = tuple(
        ClusterAssignment(cluster_id=i, members=frozenset(groups[ident]))
        for i, ident in enumerate(sorted(groups))
    )
    return ClusterSet(clusters=clusters, unclustered=frozenset())


def _frame_pools(clusters: ClusterSet, m: DomainManifest):
    """(frames, starts, sizes): every member frame in one array, cluster by cluster.

    Clusters come in cluster-id order and members in id order, gathered
    from m.frame_layout in one step; cluster i's frames are rows
    starts[i] .. starts[i] + sizes[i] of frames.  Only member frames are
    sampled, so when m is invalid the members alone must pass
    validate_manifest (else ManifestError), and their own layout is read.
    """
    position = {t.tracklet_id: i for i, t in enumerate(m.tracklets)}  # last one wins, as by_id
    members, first = [], []
    for c in clusters.clusters:
        first.append(len(members))
        for tid in sorted(c.members):
            i = position.get(tid)
            if i is None:
                raise AdaptationError(f"cluster member {tid!r} not present in manifest {m.name!r}")
            members.append(i)
    if not m.validation.ok:  # cached, so a valid manifest is validated once
        pool = DomainManifest(m.name, [m.tracklets[i] for i in members])
        pool.validation.check(f"manifest {m.name!r}")
        m, members = pool, list(range(len(members)))
    F, start, n = m.frame_layout
    frames, offsets, sizes = gather_frames(F, start[members], n[members])
    return frames, offsets[first], np.add.reduceat(sizes, first)


class _Words:
    """The 32-bit words of np.random.default_rng(seed)'s PCG64, in numpy's order.

    numpy reads each word as the low half of the generator's next 64-bit
    output, then the high half.  take(n) hands out the next n words as one
    uint32 array, give_back(n) returns the last n taken to be read again, and
    word() reads one.  The buffer holds every word drawn and not yet taken.
    """

    def __init__(self, seed: int):
        self._bits = np.random.default_rng(seed).bit_generator
        self._buf, self._at = np.empty(0, dtype="<u4"), 0

    def take(self, n: int) -> np.ndarray:
        short = n - (len(self._buf) - self._at)
        if short > 0:
            fresh = self._bits.random_raw((short + 1) // 2).astype("<u8", copy=False).view("<u4")
            self._buf, self._at = np.concatenate((self._buf[self._at :], fresh)), 0
        self._at += n
        return self._buf[self._at - n : self._at]

    def give_back(self, n: int) -> None:
        self._at -= n

    def word(self) -> int:
        return int(self.take(1)[0])


class _Draws:
    """What rng.choice(n, k, replace=False) and rng.integers(0, n, k) draw, from raw words.

    rng is a fresh np.random.default_rng(seed), whose words _Words serves;
    given a seed, the words are read in blocks.  numpy draws in [0, h], for
    h < 2**32 - 1, by Lemire's method (ACM TOMACS 29(1), 2019) from those
    words, and choice without replacement by Floyd's algorithm (CACM 30(9),
    1987) and a shuffle, or by a partial shuffle of arange(n) when n > 10000
    and k > n // 50.  tests/test_adapt.py pins each form to numpy's own calls.
    """

    _BLOCK = 1024  # 64-bit outputs per refill, so 2048 buffered words

    def __init__(self, seed: int | _Words):
        """A _Words is read one word at a time, so its take() goes on after the last word drawn."""
        self._word = seed.word if isinstance(seed, _Words) else self._words(_Words(seed)).__next__

    def _words(self, words: _Words):
        while True:
            yield from words.take(2 * self._BLOCK).tolist()

    def below(self, highs) -> list[int]:
        """One draw in [0, h] for each h of highs, in order; h == 0 takes no word."""
        word, out = self._word, []
        for h in highs:
            m = 0
            if h:
                r = h + 1
                m = word() * r
                if m & 0xFFFFFFFF < r:
                    t = (0xFFFFFFFF - h) % r
                    while m & 0xFFFFFFFF < t:
                        m = word() * r
            out.append(m >> 32)
        return out

    def integers(self, n: int, k: int) -> list[int]:
        return self.below([n - 1] * k)

    def choice(self, n: int, k: int) -> list[int]:
        # No loop's ranges depend on its draws, so each loop draws up front.
        if n > 10000 and k > n // 50:
            out, swaps = list(range(n)), range(n - 1, max(n - k, 1) - 1, -1)
            for i, j in zip(swaps, self.below(swaps)):
                out[i], out[j] = out[j], out[i]
            return out[n - k :]
        out, taken = [], set()
        for j, x in zip(range(n - k, n), self.below(range(n - k, n))):
            if x in taken:
                x = j
            taken.add(x)
            out.append(x)
        for i, j in zip(range(k - 1, 0, -1), self.below(range(k - 1, 0, -1))):
            out[i], out[j] = out[j], out[i]
        return out


_CHUNK = 32  # training steps per chunk of batch rows
# Training steps per whole-array pass of the draws, a multiple of _CHUNK.  A
# 512-step pass held 2.4-3 MB of temporaries against 1.2 MB, and ran no faster.
_SPAN = 256


def _batch_rows(seed: int, starts: np.ndarray, sizes: np.ndarray, P: int, K: int, steps: int):
    """Each chunk's batches: an int64 (n, P * K) array of frame rows for n <= _CHUNK steps.

    Cluster i's frames are rows starts[i] .. starts[i] + sizes[i].  When every
    cluster holds more than K frames and neither the cluster count nor a size
    exceeds 10000, _span_rows draws _SPAN steps at a time; else _Draws draws
    step by step.  Both make the same draws from the same words.
    """
    if sizes.min() > K and max(len(sizes), sizes.max()) <= 10000:
        words = _Words(seed)
        for first in range(0, steps, _SPAN):
            rows = _span_rows(words, starts, sizes, P, K, min(_SPAN, steps - first))
            for a in range(0, len(rows), _CHUNK):
                yield rows[a : a + _CHUNK]
        return
    draws, pools = _Draws(seed), list(zip(starts.tolist(), sizes.tolist()))
    for first in range(0, steps, _CHUNK):
        rows = []
        for _ in range(min(_CHUNK, steps - first)):
            rows += _step_rows(draws, pools, P, K)
        yield np.array(rows, dtype=np.int64).reshape(-1, P * K)


def _step_rows(draws: _Draws, pools, P: int, K: int) -> list[int]:
    """One batch's frame rows, P clusters of pools [(start, size), ...] and K frames each."""
    rows = []
    for c in draws.choice(len(pools), P):
        start, size = pools[c]
        sel = draws.choice(size, K) if size >= K else draws.integers(size, K)
        rows += [start + s for s in sel]
    return rows


def _span_rows(words: _Words, starts, sizes, P: int, K: int, steps: int) -> np.ndarray:
    """The next steps batches' frame rows, (steps, P * K), when every size exceeds K.

    Then every step reads the same words: choice(n, P) draws in [0, h] for
    h = n - P .. n - 1 (h = 0 takes none) and P - 1 more for its shuffle, and
    each chosen cluster's choice(size, K) draws K and K - 1.  So each draw is
    a row of a (words, steps) array, one column per step: Lemire's products
    are one uint64 product, and Floyd's rule and the shuffles are passes over
    rows.  A draw that Lemire's method rejects ends the pass at its step;
    _Draws makes that step from the words one at a time, and a new pass goes on.
    """
    n = len(sizes)
    top = np.arange(n - P, n)
    pick = np.concatenate((top[top > 0], np.arange(P - 1, 0, -1))).astype(np.uint64)[:, None] + 1
    shuffle = np.arange(K, 1, -1, dtype=np.uint64)[:, None]  # the ranges of the members' shuffle draws
    w = len(pick) + P * (2 * K - 1)
    out = np.empty((steps, P * K), dtype=np.int64)
    done = 0
    while done < steps:
        m = steps - done
        drawn = words.take(m * w).reshape(m, w).T.copy()
        x, bad = _lemire(drawn[: len(pick)], pick)
        C = np.zeros((P, m), dtype=np.int64)  # where h = 0, numpy's draw is 0
        C[n == P :] = x[: P - (n == P)]
        _floyd(C, n - 1)
        _shuffle(C, x[P - (n == P) :])
        member = drawn[len(pick) :].reshape(P, 2 * K - 1, m)
        high = sizes[C] - 1
        ranges = (high[:, None] - np.arange(K - 1, -1, -1)[:, None] + 1).astype(np.uint64)
        Y, y_bad = _lemire(member[:, :K], ranges)
        z, z_bad = _lemire(member[:, K:], shuffle)
        _floyd(Y, high)
        _shuffle(Y, z)
        bad = bad.any(axis=0) | y_bad.any(axis=(0, 1)) | z_bad.any(axis=(0, 1))
        ok = int(bad.argmax()) if bad.any() else m
        out[done : done + ok] = (starts[C][:, None] + Y).reshape(P * K, m).T[:ok]
        done += ok
        if done < steps:  # step `done` holds a rejection
            words.give_back((m - ok) * w)
            out[done] = _step_rows(_Draws(words), list(zip(starts.tolist(), sizes.tolist())), P, K)
            done += 1
    return out


def _lemire(words: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy's draws in [0, r) from 32-bit words, as int64, and which words it rejects.

    A draw is the high half of word * r; it is rejected when the low half is
    below 2**32 mod r, which is below r, so only those under r are checked.
    """
    m = words * r
    low = m & 0xFFFFFFFF
    bad = low < r
    if bad.any():
        rb = np.broadcast_to(r, m.shape)[bad]
        bad[bad] = low[bad] < (2**32 - rb) % rb
    return (m >> 32).view(np.int64), bad


def _floyd(V: np.ndarray, high) -> None:
    """Floyd's rule down axis -2 of V, in place, row by row.

    Row i of V drew in [0, high - (k - 1 - i)]; a draw already taken by an
    earlier row becomes that range's top.
    """
    k = V.shape[-2]
    for i in range(1, k):
        row = V[..., i, :]
        np.copyto(row, high - (k - 1 - i), where=(V[..., :i, :] == row[..., None, :]).any(axis=-2))


def _shuffle(V: np.ndarray, J: np.ndarray) -> None:
    """numpy's shuffle down axis -2 of V, in place.

    For i = k - 1 down to 1, row i swaps with row J[..., k - 1 - i, :].
    """
    k, m = V.shape[-2:]
    base = np.arange(0, V.size, k * m).reshape(V.shape[:-2] + (1,)) + np.arange(m)  # flat offsets of row 0
    for c, i in enumerate(range(k - 1, 0, -1)):
        at = base + J[..., c, :] * m
        row = V[..., i, :].copy()
        V[..., i, :] = V.take(at)
        V.put(at, row)


def train_embedder(
    embedder: Embedder,
    clusters: ClusterSet,
    m: DomainManifest,
    cfg: TrainConfig,
    progress=None,
) -> Embedder:
    """Fine-tune a copy of the embedder on cluster-labeled frames.

    Every training sample is a single frame vector labeled by the cluster id
    of its tracklet; unclustered tracklets contribute nothing.  Batches are
    PK-style: min(batch_p, n_clusters) clusters, batch_k frame samples each
    (drawn with replacement when a cluster holds fewer frames).  Plain SGD
    with the exponentially decaying rate from cfg.  The incoming embedder is
    left untouched.

    The random stream is part of the contract.  With rng =
    np.random.default_rng(cfg.seed), each step draws what rng.choice(n, P,
    replace=False) draws for P of the n clusters, then for each chosen
    cluster, in chosen order, what rng.choice(size, batch_k, replace=False)
    draws, or rng.integers(0, size, batch_k) when the cluster holds fewer
    than batch_k frames.  _Draws makes these draws from raw PCG64 words, and
    tests pin them to numpy's own calls.  Results for a seed, criterion 6's
    among them, depend on this stream.  The draws never read the parameters,
    so when every cluster holds more than batch_k frames they are made for
    _SPAN steps at once, in whole-array passes (_span_rows), with the same
    stream and result.

    progress, if given, is called as progress(step, loss) after each step.
    Parameters that turn non-finite (the rate diverged) are an AdaptationError,
    raised at the end of the chunk of _CHUNK steps where they did.
    """
    if len(clusters.clusters) < 2:
        raise AdaptationError("need at least two clusters to form triplets")

    frames, starts, sizes = _frame_pools(clusters, m)
    out = embedder.clone()
    params = out.param_vector()

    P, K = min(cfg.batch_p, len(sizes)), cfg.batch_k
    # A batch's P clusters are distinct, so these labels give the same masks
    # as the cluster ids themselves.
    labels = np.repeat(np.arange(P), K)
    chunks = _batch_rows(cfg.seed, starts, sizes, P, K, cfg.iterations)
    for rows, first in zip(chunks, range(0, cfg.iterations, _CHUNK)):
        for step, x in enumerate(frames[rows], first):
            yhat = out.embed(x)
            loss, gy = batch_hard_triplet_loss(yhat, labels, cfg.margin)
            grad = out.param_grad(x, gy)
            lr = cfg.learning_rate * cfg.lr_decay**step
            params = params - lr * grad
            out.set_param_vector(params)
            if progress is not None:
                progress(step, loss)
        if not np.isfinite(params).all():  # once a chunk, so a diverged run stops early
            raise AdaptationError(f"training diverged: parameters are not finite after "
                                  f"{step + 1} steps at learning rate {cfg.learning_rate:g}")
    return out


@dataclass(frozen=True)
class RoundRecord:
    """What one adaptation round saw and did."""

    round_index: int
    cluster_count: int
    clustered_fraction: float
    losses: tuple[float, ...]


@dataclass(frozen=True)
class AdaptationReport:
    rounds: tuple[RoundRecord, ...]
    early_stop: bool
    reason: str  # "completed" | "cluster-cap" | "no-clusters"
    checkpoint_id: str

    def to_dict(self) -> dict:
        """asdict(self), without its deep copy of every loss."""
        return dict(vars(self), rounds=tuple(dict(vars(r)) for r in self.rounds))


def checkpoint_id(embedder: Embedder) -> str:
    """Short content hash identifying an embedder's kind, shape and weights."""
    h = hashlib.sha256()
    h.update(embedder.kind.encode())
    h.update(struct.pack("<III", embedder.input_dim, embedder.hidden_dim, embedder.output_dim))
    h.update(np.ascontiguousarray(embedder.param_vector()).tobytes())
    return h.hexdigest()[:16]


def adapt(
    source_embedder: Embedder,
    target: DomainManifest,
    cfg: AdaptConfig,
) -> tuple[Embedder, AdaptationReport]:
    """Run I rounds of cluster-then-fine-tune on an unlabeled target domain.

    Each round clusters the target with the current embedder, then trains on
    the resulting pseudo-labels; round r+1 starts exactly from round r's
    parameters.  The loop stops early when a round yields more clusters than
    cfg.cluster_cap (reason "cluster-cap") or fewer than two clusters
    (reason "no-clusters"); otherwise the reason is "completed".  With I=0
    the source embedder is returned unchanged alongside an empty report.
    Raw features (no embedder) have nothing to fine-tune: AdaptationError.
    """
    if source_embedder is None:
        raise AdaptationError("adaptation needs an embedder with parameters, not raw features")
    rounds: list[RoundRecord] = []
    e = source_embedder
    reason = "completed"
    for r in range(cfg.I):
        cs = cluster(build_neighbor_index(target, e, cfg.normalize), cfg)
        count = len(cs.clusters)
        stop = "cluster-cap" if count > cfg.cluster_cap else "no-clusters" if count < 2 else None
        losses: list[float] = []
        if stop is None:
            round_cfg = replace(cfg.train, seed=cfg.train.seed + r)
            e = train_embedder(e, cs, target, round_cfg, progress=lambda _s, l: losses.append(l))
        rounds.append(RoundRecord(r, count, cs.clustered_fraction, tuple(losses)))
        if stop is not None:
            reason = stop
            break
    return e, AdaptationReport(tuple(rounds), reason != "completed", reason, checkpoint_id(e))


# ---------------------------------------------------------------------------
# Checkpoint file format
#
# magic "KTE1", then little-endian: u32 kind, u32 input_dim, u32 hidden_dim,
# u32 output_dim, u64 seed, u32 round_index, u64 n_params, f64 * n_params.
# The kind code is the layer count: 0 identity, 1 linear, 2 mlp.  hidden_dim
# is 0 unless there are two layers, and the parameters follow the one
# layout of _layout.  Kind 0 (no parameters) is still read, as raw features.

_CKPT_MAGIC = b"KTE1"
_CKPT_HEADER = struct.Struct("<4sIIIIQIQ")


@dataclass(frozen=True)
class Checkpoint:
    """A loaded KTE1 file; embedder is None for kind 0, which means raw features."""

    embedder: Embedder | None
    seed: int
    round_index: int


_CKPT_FIELD_BITS = {"seed": 64, "round_index": 32}


def check_checkpoint_field(name: str, value: int) -> None:
    """ValueError unless value fits the header's unsigned field name ("seed" or "round_index")."""
    bits = _CKPT_FIELD_BITS[name]
    if not 0 <= value < 1 << bits:
        raise ValueError(f"checkpoint {name} must be in 0..2**{bits}-1, got {value}")


def save_checkpoint(path, embedder: Embedder, seed: int = 0, round_index: int = 0) -> None:
    """Serialize an embedder (with provenance seed and round index) to disk.

    A seed or round index the header cannot hold is a ValueError, raised
    before the file is opened.
    """
    check_checkpoint_field("seed", seed)
    check_checkpoint_field("round_index", round_index)
    params = np.ascontiguousarray(embedder.param_vector(), dtype=np.float64)
    header = _CKPT_HEADER.pack(
        _CKPT_MAGIC,
        _KINDS.index(embedder.kind),
        embedder.input_dim,
        embedder.hidden_dim,
        embedder.output_dim,
        seed,
        round_index,
        params.size,
    )
    with atomic_write(path, binary=True) as fh:
        fh.write(header)
        fh.write(params.astype("<f8").tobytes())


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _CKPT_HEADER.size or blob[:4] != _CKPT_MAGIC:
        raise ValueError(f"{path}: not an embedder checkpoint (bad magic)")
    magic, code, d_in, d_hid, d_out, seed, round_index, n_params = _CKPT_HEADER.unpack_from(blob)
    # The header is checked against its kind before any array exists, so a
    # small file cannot declare dims that allocate a large one.
    if code >= len(_KINDS):
        raise ValueError(f"{path}: unknown embedder kind code {code}")
    kind = _KINDS[code]
    if kind != "mlp" and d_hid != 0:
        raise ValueError(f"{path}: {kind} checkpoint declares hidden_dim {d_hid}, expected 0")
    if kind == "identity" and d_out != d_in:
        raise ValueError(f"{path}: identity checkpoint maps {d_in} to {d_out} dims")
    if 0 in (d_in, d_out) or (kind == "mlp" and d_hid == 0):
        raise ValueError(f"{path}: {kind} checkpoint declares a zero dim ({d_in}, {d_hid}, {d_out})")
    layout = _layout(d_in, d_hid, d_out)
    expected = layout[-1][2] if code else 0
    if n_params != expected:
        raise ValueError(f"{path}: {kind} dims imply {expected} parameters, header says {n_params}")
    n_bytes = len(blob) - _CKPT_HEADER.size
    if n_bytes != 8 * n_params:
        raise ValueError(f"{path}: expected {n_params} parameters, found {n_bytes} bytes")
    if kind == "identity":
        return Checkpoint(embedder=None, seed=seed, round_index=round_index)
    params = np.frombuffer(blob, dtype="<f8", offset=_CKPT_HEADER.size)
    arrays = [a for layer in _split(params, layout) for a in layer]
    emb = (LinearEmbedder, MlpEmbedder)[code - 1](*arrays)
    return Checkpoint(embedder=emb, seed=seed, round_index=round_index)
