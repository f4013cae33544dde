"""Exact cross-camera nearest-neighbor ranking in O(n·k) memory.

For every tracklet s, its cross-camera list holds the tracklets from *other*
cameras sorted by ascending Euclidean distance to s's representation (ties
broken by ascending tracklet_id).  Ranks are 1-based.  The rank-based
distance e(s, t) is the position of s inside t's list; it is deliberately
asymmetric: if t is s's 1-nearest neighbour while s is only t's 5-nearest
neighbour, then e(s, t) = 5.

Storage.  An index is given strictly ascending ids, their cameras and the
representations X, and derives the rest once: a read-only float64 copy of
X, camera codes, the id-to-row map, and for the GEMM X column-centred with
its squared norms, all O(n·d) and indexed by row.  No n×n matrix is ever
stored: lists and ranks are computed on demand, 256 rows at a time, so
working memory is O(256·n) and results are O(n·k).  A row's gallery is
every tracklet whose label differs from its own: the camera code, or for
evaluation the camera combined with the identity.  heads() goes camera by
camera: it gathers the other cameras' centred rows and norms once, and
each block of the camera's rows meets only those columns in the GEMM, so
no same-camera mask is needed and the GEMM is a camera's share smaller.

Exactness.  Every distance that decides an order comes from one exact
kernel, exact_sq_dists: coordinate differences, squared and summed by a
fixed einsum, so it does not depend on BLAS threading.  The differences are
taken from A's rows repeated once per row of B, minus B in place: each
element rounds exactly as in the broadcast A[:, None, :] - B, but NumPy runs
one long loop instead of one short loop per pair.  The GEMM form
‖a‖² + ‖b‖² − 2a·b only preselects: heads() re-sorts a fixed candidate set
with the exact kernel and accepts a row only when every non-candidate is
provably farther than the k-th exact distance (else it redoes the row
exactly).  The candidates are the 2k + 8 smallest GEMM entries, picked by
chunk minima (_smallest): the c-th smallest chunk minimum bounds the c-th
smallest entry, so the c chunks with the smallest minima hold every entry
below that bound, and only their union is partitioned.  count_ranks() ranks
given targets by counting, not sorting: it orders a row's targets exactly
among themselves, counts every other gallery item against their exact
thresholds with one searchsorted of the GEMM row, and re-checks exactly
only the items the _tol bound cannot place.  Its order key is d2 for ranks() and the rounded distance sqrt(d2)
for evaluation; _tol shows that the bound covers both.  Every order is
therefore the one a full exact sort on (key, id) gives.

Callers.  A command builds one index and hands it to cluster(),
build_ranking and inter_intra_distances, so it embeds its manifest once.
Clustering reads everything it needs from heads().  count_ranks() serves
build_ranking's hit ranks and ranks(), which gives only the exact edge
weights of build_graph called without K.  Exact sorts take gallery
columns only: heads() a camera's other cameras, and _row (which serves
neighbor_ids and k_reciprocal_distance) one row's whole gallery.  Only
count_ranks masks, by label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .model import DomainManifest, manifest_embeddings

_BLOCK = 256
# Elements of one coordinate-difference tensor in the exact kernel (2 MB).
_DIFF_ELEMENTS = 1 << 18
_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny


def exact_sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared distances from A[i] to the rows of B (c, d) or of B[i] (len(A), c, d).

    The library's one distance kernel: the einsum fixes each pair's reduction
    order, so a value is the same whatever pairs it is computed with.  The
    difference tensor is each row of A repeated c times, shaped (n, c, d),
    with B subtracted in place.  Every element is the one rounding of
    A[i, k] - B[j, k] that the broadcast A[:, None, :] - B makes, in the same
    result dtype, and the einsum gets the same C-ordered tensor, so every
    distance keeps its bits.  The repeat lets NumPy run one long inner loop
    over c·d elements instead of one d-element loop per pair, and the
    in-place subtraction saves a second tensor.
    """
    c, d = B.shape[-2], A.shape[1]
    A = A.astype(np.result_type(A, B), copy=False)
    out = np.empty((len(A), c), dtype=np.float64)
    step = max(1, _DIFF_ELEMENTS // max(1, c * d))
    for a in range(0, len(A), step):
        rows = A[a : a + step]
        diff = np.repeat(rows, c, axis=0).reshape(len(rows), c, d)  # -1 fails when c == 0
        diff -= B if B.ndim == 2 else B[a : a + step]
        out[a : a + step] = np.einsum("ijk,ijk->ij", diff, diff)
    return out


@dataclass(frozen=True, eq=False)
class NeighborIndex:
    """Representations and camera codes of one manifest, one row per tracklet.

    Takes n >= 1 strictly ascending ids, their cameras (at least two distinct)
    and X of shape (n, d >= 1), else ValueError; keeps a read-only float64 X.
    """

    ids: tuple[str, ...]
    cameras: tuple[str, ...]
    X: np.ndarray  # exact representations
    codes: np.ndarray = field(init=False)  # integer camera code per tracklet
    Xc: np.ndarray = field(init=False)  # X minus its column means, for the GEMM only
    sq: np.ndarray = field(init=False)  # squared row norms of Xc
    index_of: dict[str, int] = field(init=False)

    def __post_init__(self):
        ids, cameras, X = tuple(self.ids), tuple(self.cameras), np.array(self.X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] == 0 or not len(ids) == len(cameras) == len(X) > 0:
            raise ValueError(f"need n >= 1 ids, n cameras and X of shape (n, d >= 1): got "
                             f"{len(ids)} ids, {len(cameras)} cameras, X of shape {X.shape}")
        for a, b in zip(ids, ids[1:]):
            if not a < b:
                raise ValueError(f"ids must be strictly ascending: {b!r} follows {a!r}")
        codes = np.unique(cameras, return_inverse=True)[1].astype(np.intp)
        if not codes.any():  # no row would have a gallery
            raise DomainError(f"cross-camera neighbors undefined: all on camera {cameras[0]!r}")
        Xc = X - X.mean(axis=0)
        for a in (X, codes, Xc):
            a.setflags(write=False)
        for name, value in dict(ids=ids, cameras=cameras, X=X, codes=codes, Xc=Xc,
                                sq=np.einsum("ij,ij->i", Xc, Xc),
                                index_of={tid: i for i, tid in enumerate(ids)}).items():
            object.__setattr__(self, name, value)

    def __len__(self):
        return len(self.ids)

    def __contains__(self, tracklet_id: str) -> bool:
        return tracklet_id in self.index_of

    def neighbor_ids(self, tracklet_id: str) -> tuple[str, ...]:
        """Full cross-camera list for one tracklet, best match first."""
        return tuple(self.ids[j] for j in self._row(self._lookup(tracklet_id)))

    @np.errstate(over="ignore", invalid="ignore")  # overflow only widens the bound
    def heads(self, k: int) -> np.ndarray:
        """First min(k, L) entries of every row's list, padded with -1.

        Returns an (n, min(k, max L)) array of row indices.  Rows are taken
        one camera at a time, _BLOCK at a time, against a GEMM over the other
        cameras' columns only.  _smallest picks each row's c = 2k + 8
        smallest entries from chunk minima; the exact kernel sorts them,
        and the row stands only if its k-th exact distance is below the
        least non-candidate entry's lower bound, else the row is redone
        exactly over the same other-camera columns.  Rows of a camera whose
        gallery is shorter than the output keep -1 past its end.
        """
        if k < 1:
            raise ValueError("k must be a positive integer")
        n = len(self.ids)
        size = np.bincount(self.codes)
        w = min(k, n - int(size.min()))
        out = np.full((n, w), -1, dtype=np.intp)
        for cam in range(len(size)):
            mine, other = np.flatnonzero(self.codes == cam), np.flatnonzero(self.codes != cam)
            XoT, sqo = self.Xc[other].T, self.sq[other]
            c, width = min(2 * k + 8, len(other)), min(w, len(other))
            for a in range(0, len(mine), _BLOCK):
                rows = mine[a : a + _BLOCK]
                H = (-2.0 * self.Xc[rows]) @ XoT
                H += sqo
                cand, rest = _smallest(H, c)
                head, d2 = self._sorted_exact(rows, other[cand], width)
                kth = d2[:, width - 1]
                # Every non-candidate j has exact distance >= H[i, j] + ‖c_i‖² - tol,
                # so a row whose k-th exact distance lies below that for all of
                # them has its whole head among the candidates.
                redo = ~(kth < rest + self.sq[rows] - self._tol(rows))
                if redo.any():
                    head[redo] = self._sorted_exact(rows[redo], other, width)[0]
                out[rows, :width] = head
        return out

    def ranks(self, t, s) -> np.ndarray:
        """Exact 1-based rank of row s[p] in row t[p]'s list; a same-camera pair is a DomainError.

        A row outside [0, n) is an IndexError: negative rows do not count from the end.
        """
        t, s = np.asarray(t, dtype=np.intp), np.asarray(s, dtype=np.intp)
        n = len(self.ids)
        for name, v in (("t", t), ("s", s)):
            bad = (v < 0) | (v >= n)
            if bad.any():
                raise IndexError(f"{name} row {int(v[bad][0])} is outside [0, {n})")
        same = np.flatnonzero(self.codes[t] == self.codes[s])
        if len(same):
            raise self._same_camera(t[same[0]], s[same[0]])
        pairs, inverse = np.unique(t * n + s, return_inverse=True)
        rows, targets = np.divmod(pairs, n)
        rows, size = np.unique(rows, return_counts=True)
        return count_ranks(self, rows, np.r_[0, np.cumsum(size)], targets)[inverse.reshape(-1)]

    def _same_camera(self, t: int, s: int) -> DomainError:
        return DomainError(
            f"rank distance undefined for same-camera pair ({self.ids[s]!r}, "
            f"{self.ids[t]!r}) on camera {self.cameras[s]!r}"
        )

    def _tol(self, rows: np.ndarray) -> np.ndarray:
        """Bound on |G[i, j] - exact d2(i, j)| over all j, per row i.

        With u = eps/2 and S = ‖c_i‖² + ‖c_j‖² on the centred rows c:
        - the GEMM form errs by at most (2d + 3)·u·S: each squared norm and
          the dot product by γ_d = d·u/(1 - d·u) of S (any summation order,
          FMA or not, since |c_i·c_j| <= S/2), plus one rounding each for
          the sum and the difference, whose magnitudes stay below 2S;
        - centring rounds each coordinate once, moving ‖c_i − c_j‖² from
          ‖x_i − x_j‖² by at most about 4·u·S;
        - the exact kernel rounds each difference, square and sum, so it is
          within (d + 2)·u of ‖x_i − x_j‖² <= 2S.
        The total, about (4d + 11)·u·S = (2d + 5.5)·eps·S, is bounded by
        8·(d + 4)·eps·S with ample margin, which also absorbs the few
        roundings (of magnitude <= 3S) made when comparing against it;
        S <= ‖c_i‖² + max ‖c‖².  Underflow adds at most half the smallest
        subnormal per operation, which the added smallest normal number
        covers (8·(d + 4)·2^-1074).  Nothing in the GEMM form exceeds 2S, so
        while 4S is finite nothing overflowed; otherwise the bound is
        infinite and the row is settled by the exact kernel alone.

        The margin also covers ordering on the rounded distance sqrt(d2):
        if two exact d2 values a <= b round to one distance r, both roots
        lie within u·r of r, so b - a <= 4u·r² ≈ 2·eps·b <= 4·eps·S (d2 is
        at most 2S up to the centring term).  The GEMM error plus that gap,
        about (2d + 9.5)·eps·S, stays below 8·(d + 4)·eps·S >= 40·eps·S, so
        an item whose root may collide with a threshold's lies in the band
        that is re-checked exactly, and outside it d2 and sqrt(d2) order
        strictly alike.
        """
        scale = self.sq[rows] + self.sq.max() + _TINY
        tol = 8.0 * (self.X.shape[1] + 4) * _EPS * scale
        tol[~np.isfinite(4.0 * scale)] = np.inf
        return tol

    def _row(self, i: int) -> np.ndarray:
        """Row i's whole list: the rows of its gallery in exact (d2, id) order."""
        other = np.flatnonzero(self.codes != self.codes[i])
        return self._sorted_exact(np.array([i]), other, len(other))[0][0]

    def _sorted_exact(self, rows: np.ndarray, cols: np.ndarray, w: int):
        """(head, d2): the first w of cols per row in exact (d2, id) order, and their d2.

        cols, gallery columns only, is one index row per row or one row shared
        by all; a lower column is a lower id, so ties on d2 go to it.
        """
        d2 = exact_sq_dists(self.X[rows], self.X[cols])
        cols = np.broadcast_to(cols, d2.shape)
        order = np.lexsort((cols, d2), axis=-1)[:, :w]
        return np.take_along_axis(cols, order, axis=-1), np.take_along_axis(d2, order, axis=-1)

    def _lookup(self, tracklet_id: str) -> int:
        try:
            return self.index_of[tracklet_id]
        except KeyError:
            raise KeyError(f"unknown tracklet id {tracklet_id!r}") from None


def _smallest(H: np.ndarray, c: int):
    """(cand, rest): columns of c <= H.shape[1] smallest entries of each row
    of H, and the least entry of each row outside them (inf if none).

    A row is split into nc >= c strided chunks of f columns (chunk j holds
    columns j, j + nc, ...; the < f tail columns past f·nc belong to no
    chunk).  The c smallest chunk minima are c distinct entries, so the c-th
    smallest entry is at most the c-th smallest chunk minimum v, and every
    entry below v lies in a chunk whose minimum is below v, which is one of
    the c kept chunks.  The kept chunks plus the tail therefore hold every
    entry below v and at least c entries at or below it, so their c smallest
    are c smallest of the row.  rest is the least of the other chunks'
    minima and the union's leftovers.  A row under 8c columns has f = 1:
    one column per chunk, a plain argpartition.
    """
    b, m = H.shape
    f = max(1, math.isqrt(m // (4 * c)))  # about the fastest f at c = 10..50, m = 7000
    nc = m // f
    mins = H[:, : f * nc].reshape(b, f, nc).min(axis=1)
    kept = np.argpartition(mins, c - 1, axis=1)[:, :c]
    cols = (kept[:, :, None] + nc * np.arange(f)).reshape(b, c * f)
    cols = np.hstack([cols, np.broadcast_to(np.arange(f * nc, m), (b, m - f * nc))])
    vals = np.take_along_axis(H, cols, axis=1)
    pick = np.argpartition(vals, c - 1, axis=1)[:, :c]
    np.put_along_axis(vals, pick, np.inf, axis=1)
    np.put_along_axis(mins, kept, np.inf, axis=1)
    return np.take_along_axis(cols, pick, axis=1), np.minimum(vals.min(axis=1), mins.min(axis=1))


def count_ranks(idx: NeighborIndex, rows, ptr, targets, ident: np.ndarray | None = None,
                key=None) -> np.ndarray:
    """Exact 1-based rank of each target in the gallery of its row, by counting.

    Row rows[i] owns targets[ptr[i]:ptr[i + 1]]: distinct tracklets in
    ascending order, each inside the row's gallery.  A row's gallery is every
    tracklet outside its own camera, or with ident (an integer label per
    tracklet) every tracklet but those sharing both its camera and its label.
    It is ordered on (key(d2), id), key defaulting to d2 itself, and a rank
    is 1 plus the number of gallery items before the target.  Rows are taken
    _BLOCK at a time, so working memory is O(_BLOCK·n) however many targets
    a row has.
    """
    rows, ptr, targets = (np.asarray(a, dtype=np.intp) for a in (rows, ptr, targets))
    # 0 <= code < codes.max() + 1, so the label determines (code, ident).
    label = idx.codes if ident is None else idx.codes + (idx.codes.max() + 1) * ident
    size = np.diff(ptr)
    live = np.flatnonzero(size)
    out = np.empty(len(targets), dtype=np.int64)
    for a in range(0, len(live), _BLOCK):
        blk = live[a : a + _BLOCK]
        r = size[blk]
        flat = np.repeat(ptr[blk] - np.cumsum(r) + r, r) + np.arange(r.sum())
        out[flat] = _count_block(idx, rows[blk], r, targets[flat], label, key)
    return out


@np.errstate(over="ignore", invalid="ignore")  # overflow only widens the bound
def _count_block(idx, rows, r, tgt, label, key) -> np.ndarray:
    """count_ranks for rows, row i owning r[i] >= 1 of tgt, with row i's gallery
    every tracklet whose label differs from label[rows[i]].

    Targets are ordered exactly among themselves.  Every other gallery item j
    precedes a suffix of its row's targets in (key, id) order; p_j, the
    number of targets before j, comes from one searchsorted of the GEMM row
    against the row's thresholds ds - ‖c_i‖² - tol, sorted by d2.  Below a
    threshold's band [lo, hi] j surely precedes that target and above it
    surely follows, so j needs the exact kernel only inside a band; _tol
    shows that the bands also hold every item whose key may tie with a
    target's.  A row whose bound is not finite puts its whole gallery in the
    band.
    """
    X, n, b, w = idx.X, len(idx), len(rows), int(r.max())
    slot = np.repeat(np.arange(b), r)
    start = np.repeat(np.cumsum(r) - r, r)  # each target's row start in tgt
    col = np.arange(len(tgt)) - start
    D = np.full((b, w), np.inf)  # each row's exact target d2, padded
    D[slot, col] = exact_sq_dists(np.repeat(X[rows], r, axis=0), X[tgt, None])[:, 0]
    H = (-2.0 * idx.Xc[rows]) @ idx.Xc.T
    H += idx.sq
    np.putmask(H, label == label[rows, None], np.inf)
    H[slot, tgt] = np.inf  # targets are ordered among themselves below
    tol = idx._tol(rows)[:, None]
    base = np.sort(D, axis=1) - idx.sq[rows, None]
    lo = base - tol
    # hi[i, p] is the largest hi of row i's first p thresholds (-inf for none).
    hi = np.c_[np.full(b, -np.inf), base + tol]
    loose = ~np.isfinite(hi[np.arange(b), r])
    # Row i's bins are (w + 1)·i + p; bin r[i] ("before no target") is unused.
    B = np.empty(H.shape, dtype=np.intp)
    for i in range(b):
        if loose[i]:
            B[i] = (w + 1) * i + r[i]
        else:
            np.add(np.searchsorted(lo[i, : r[i]], H[i], side="right"), (w + 1) * i, out=B[i])
    band = H <= hi.ravel()[B]
    if loose.any():
        band[loose] = label != label[rows[loose], None]
        band[slot, tgt] = False
    bi, bu = np.divmod(np.flatnonzero(band), n)  # 2-D nonzero is slow
    bins = np.bincount(B.ravel(), minlength=b * (w + 1))
    bins -= np.bincount(B[bi, bu], minlength=b * (w + 1))

    K = D if key is None else key(D)
    by_key = np.argsort(K, axis=1, kind="stable")  # ids ascend in each row: (key, id)
    if len(bi):
        d2, step = np.empty(len(bi)), 1 + _DIFF_ELEMENTS // X.shape[1]
        for c in range(0, len(bi), step):  # a wide band is gathered in pieces
            part = slice(c, c + step)
            d2[part] = exact_sq_dists(X[rows[bi[part]]], X[bu[part], None])[:, 0]
        # One (row, key, id) order over band items and their rows' targets
        # gives each band item its p.
        has = np.bincount(bi, minlength=b) > 0
        mine = has[slot]
        order = np.lexsort((np.r_[bu, tgt[mine]],
                            np.r_[d2 if key is None else key(d2), K[slot[mine], col[mine]]],
                            np.r_[bi, slot[mine]]))
        is_tgt = order >= len(bi)
        row = bi[order[~is_tgt]]
        p = np.cumsum(is_tgt)[~is_tgt] - np.r_[0, np.cumsum(np.where(has, r, 0))][row]
        bins += np.bincount((w + 1) * row + p, minlength=b * (w + 1))
    # before[i, k]: gallery items, targets aside, that precede row i's k-th target.
    before = np.cumsum(bins.reshape(b, w + 1), axis=1)
    out = np.empty(len(tgt), dtype=np.int64)
    out[start + by_key[slot, col]] = 1 + col + before[slot, col]
    return out


def build_neighbor_index(m: DomainManifest, embedder=None, normalize: bool = False) -> NeighborIndex:
    """Build the exact cross-camera neighbor index for a manifest.

    Each tracklet's exact mean (optionally embedded, optionally
    L2-normalized) frame vector from manifest_embeddings, which validates the
    manifest, and its camera.  The manifest must also span at least two
    cameras (DomainError).
    """
    ids, X = manifest_embeddings(m, embedder=embedder, normalize=normalize)
    if len(m.cameras) < 2:
        raise DomainError(
            f"cross-camera neighbors undefined: manifest {m.name!r} has a single camera"
        )
    return NeighborIndex(ids, tuple(m.by_id[tid].camera_id for tid in ids), X)


def top_k(idx: NeighborIndex, k: int, tracklet_id: str) -> tuple[str, ...]:
    """First min(k, L) entries of the tracklet's cross-camera list."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    return idx.neighbor_ids(tracklet_id)[:k]


def k_reciprocal_distance(idx: NeighborIndex, s: str, t: str) -> int:
    """Rank of s inside t's cross-camera neighbor list (1-based, asymmetric)."""
    si, ti = idx._lookup(s), idx._lookup(t)
    if idx.codes[si] == idx.codes[ti]:
        raise idx._same_camera(ti, si)
    # For one pair, one row's exact sort is far cheaper than ranks()' set-up.
    return int(np.flatnonzero(idx._row(ti) == si)[0]) + 1
