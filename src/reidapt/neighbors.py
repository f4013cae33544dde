"""Exact cross-camera nearest-neighbor ranking in O(n·k) memory.

For every tracklet s, its cross-camera list holds the tracklets from *other*
cameras sorted by ascending Euclidean distance to s's representation (ties
broken by ascending tracklet_id).  Ranks are 1-based.  The rank-based
distance e(s, t) is the position of s inside t's list; it is deliberately
asymmetric: if t is s's 1-nearest neighbour while s is only t's 5-nearest
neighbour, then e(s, t) = 5.

Storage.  An index is given strictly ascending ids, their cameras and finite
representations X, and derives the rest once: a read-only float64 copy of X,
camera codes, the id-to-row map, and for the GEMM the float32 matrix Xc (X
minus its column midranges, which cannot overflow for finite X, and scaled
by one power of two) with its squared norms, all O(n·d) and indexed by row.
No n×n matrix is ever stored: lists and ranks are computed on demand in
row blocks run by _tasks.blocks, which sets their size and thread count, so
at most _BLOCK = 256 rows are in flight in total, working memory is
O(256·n) and results are O(n·k).  A block writes only its own rows, so no
output depends on the thread count.  A row's gallery is every tracklet
whose label differs from its own: the camera code, or for evaluation the
camera combined with the identity.  heads() goes camera by camera: it
gathers the other cameras' centred rows and norms once, and each block of
the camera's rows meets only those columns in the GEMM, so no same-camera
mask is needed and the GEMM is a camera's share smaller.

Exactness.  Every distance that decides an order comes from one exact
kernel, exact_sq_dists: coordinate differences, squared and summed by a
fixed einsum, so it does not depend on BLAS threading.  The differences are
taken from A's rows repeated once per row of B, minus B in place: each
element rounds exactly as in the broadcast A[:, None, :] - B, but NumPy runs
one long loop instead of one short loop per pair.  The GEMM form
‖a‖² + ‖b‖² − 2a·b only preselects, in float32 on Xc: the centred X times
2^scale_exp, the power of two that brings its largest entry into [1/2, 1),
so no input overflows or underflows float32 wholesale.  Its precision only
sets how many items are re-checked, never an order, and every comparison
with an exact distance is made in float64.  heads() re-sorts a fixed
candidate set with the exact kernel and accepts a row only when every
non-candidate is provably farther than the k-th exact distance (else it
redoes the row exactly).  The candidates are the 2k + 8 smallest GEMM
entries, picked by chunk minima (_smallest): the c-th smallest chunk minimum
bounds the c-th smallest entry, so the c chunks with the smallest minima
hold every entry below that bound, and only their union is partitioned.
count_ranks() ranks given targets by counting, not by an exact sort: it
orders a row's targets exactly among themselves, sorts the row's float32
GEMM entries once, and with two searchsorted calls per target counts the
items surely before its exact threshold and the band the _tol bound cannot
place.  Only band items are re-checked exactly, each (row, item) once.
Its order key is d2 for ranks() and, given identities (the evaluation
protocol), the rounded distance sqrt(d2); _tol is the one bound for both,
and shows that it covers both.  Every order is therefore the one a full
exact sort on (key, id) gives.

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

from . import _tasks
from .errors import DomainError
from .model import DomainManifest, manifest_embeddings

_BLOCK = 256
# Elements of one coordinate-difference tensor in the exact kernel (2 MB).
_DIFF_ELEMENTS = 1 << 18
_EPS32 = np.finfo(np.float32).eps
_SUBNORMAL = np.finfo(np.float64).smallest_subnormal


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

    The column form serves finite float64 inputs with a 2-D B and 1 <= d <= 7.
    There the einsum adds a pair's d squares in two lanes: the even-indexed
    ones in order, then the odd-indexed ones, then the two sums.  The column
    form makes that sum from a (d, n, c) tensor of column differences, one
    (n, c) block per coordinate, at about half the cost.  Block k is the
    product [A[:, k], 1] @ [1, -B[:, k]] of K = 2: both terms are exact
    products, so in any order and with or without FMA the one rounding left
    is that of A[i, k] - B[j, k].  Only a zero's sign can differ, and the
    square drops it; non-finite inputs, whose NaN bits BLAS need not keep,
    take the einsum.  From d = 8 on the einsum unrolls differently and runs
    itself.  tests/test_neighbors.py pins the two forms to each other.
    """
    c, d = B.shape[-2], A.shape[1]
    A = A.astype(np.result_type(A, B), copy=False)
    step = max(1, _DIFF_ELEMENTS // max(1, c * d))
    # A NaN or an infinity makes a sum one; an overflowing sum sends finite input to the einsum.
    if (B.ndim == 2 and 1 <= d <= 7 and A.dtype == np.float64 and math.isfinite(np.add.reduce(A, axis=None))
            and (B is A or math.isfinite(np.add.reduce(B, axis=None)))):
        right = np.empty((d, 2, c))
        right[:, 0] = 1.0
        np.negative(B.T, out=right[:, 1])
        out = None if 0 < len(A) <= step else np.empty((len(A), c))
        for a in range(0, len(A), step):
            left = np.empty((d, len(A[a : a + step]), 2))
            left[:, :, 0] = A[a : a + step].T
            left[:, :, 1] = 1.0
            sq = left @ right
            sq *= sq
            for k in range(2, d):  # each lane in order
                np.add(sq[k % 2], sq[k], out=sq[k % 2])
            if d > 1:
                np.add(sq[0], sq[1], out=sq[0])
            if out is None:  # one block: its lane sum is the result
                return sq[0]
            out[a : a + step] = sq[0]
        return out
    out = np.empty((len(A), c), dtype=np.float64)
    for a in range(0, len(A), step):
        rows = A[a : a + step]
        diff = np.repeat(rows, c, axis=0).reshape(len(rows), c, d)  # -1 fails when c == 0
        diff -= B if B.ndim == 2 else B[a : a + step]
        out[a : a + step] = np.einsum("ijk,ijk->ij", diff, diff)
    return out


@dataclass(frozen=True, eq=False)
class NeighborIndex:
    """Representations and camera codes of one manifest, one row per tracklet.

    Takes n >= 1 strictly ascending ids, their cameras (at least two
    distinct, else DomainError) and finite X of shape (n, d >= 1), else
    ValueError; keeps a read-only float64 X.
    """

    ids: tuple[str, ...]
    cameras: tuple[str, ...]
    X: np.ndarray  # exact representations
    codes: np.ndarray = field(init=False)  # integer camera code per tracklet
    # float32 GEMM matrix: X minus its column midranges, times 2**scale_exp, rounded.
    Xc: np.ndarray = field(init=False)
    sq: np.ndarray = field(init=False)  # squared row norms of Xc, rounded to float32
    scale_exp: int = field(init=False)  # brings Xc's largest |entry| into [1/2, 1)
    index_of: dict[str, int] = field(init=False)

    def __post_init__(self):
        ids, cameras, X = tuple(self.ids), tuple(self.cameras), np.array(self.X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] == 0 or not len(ids) == len(cameras) == len(X) > 0:
            raise ValueError(f"need n >= 1 ids, n cameras and X of shape (n, d >= 1): got "
                             f"{len(ids)} ids, {len(cameras)} cameras, X of shape {X.shape}")
        for a, b in zip(ids, ids[1:]):
            if not a < b:
                raise ValueError(f"ids must be strictly ascending: {b!r} follows {a!r}")
        bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
        if len(bad):
            raise ValueError(f"X row {bad[0]} ({ids[bad[0]]!r}) is not finite")
        codes = np.unique(cameras, return_inverse=True)[1].astype(np.intp)
        if not codes.any():  # no row would have a gallery
            raise DomainError(f"cross-camera neighbors undefined: all on camera {cameras[0]!r}")
        # Any finite centre serves _tol; unlike the mean, the midrange cannot
        # overflow for finite X, and neither can X minus it.
        Xc = X - (X.max(axis=0) / 2 + X.min(axis=0) / 2)
        scale_exp = -int(np.frexp(np.abs(Xc).max())[1])  # 0 when Xc is all zero
        Xc = np.ldexp(Xc, scale_exp, out=Xc).astype(np.float32)
        # Float64 squares of float32 entries are exact; only the sum and the cast round.
        sq = np.einsum("ij,ij->i", Xc, Xc, dtype=np.float64).astype(np.float32)
        for a in (X, codes, Xc, sq):
            a.setflags(write=False)
        for name, value in dict(ids=ids, cameras=cameras, X=X, codes=codes, Xc=Xc, sq=sq,
                                scale_exp=scale_exp,
                                index_of={tid: i for i, tid in enumerate(ids)}).items():
            object.__setattr__(self, name, value)

    def __len__(self):
        return len(self.ids)

    def __contains__(self, tracklet_id: str) -> bool:
        return tracklet_id in self.index_of

    def neighbor_ids(self, tracklet_id: str) -> tuple[str, ...]:
        """Full cross-camera list for one tracklet, best match first."""
        return tuple(self.ids[j] for j in self._row(self._lookup(tracklet_id)))

    def heads(self, k: int) -> np.ndarray:
        """First min(k, L) entries of every row's list, padded with -1.

        Returns an (n, min(k, max L)) array of row indices.  Rows are taken
        one camera at a time, in _tasks.blocks of at most _BLOCK rows in
        all, each block against a float32 GEMM over the other cameras'
        columns only.  _smallest picks each row's c = 2k + 8 smallest
        entries from chunk minima; the exact kernel sorts them, and the row
        stands only if its k-th exact distance is below the least
        non-candidate entry's lower bound, else the row is redone exactly
        over the same other-camera columns.  A block writes only its own
        rows, so the output does not depend on the thread count.
        Rows of a camera whose gallery is shorter than the output keep -1
        past its end.
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

            # errstate is per thread.  Overflow only widens the bound.
            @np.errstate(over="ignore", invalid="ignore")
            def block(rows):
                H = (-2.0 * self.Xc[rows]) @ XoT
                H += sqo
                cand, rest = _smallest(H, c)
                head, d2 = self._sorted_exact(rows, other[cand], width)
                kth = np.ldexp(d2[:, width - 1], 2 * self.scale_exp)
                # Every non-candidate j has exact distance, scaled, >= H[i, j] + sq[i] - tol,
                # so a row whose k-th exact distance lies below that for all of
                # them has its whole head among the candidates.
                redo = ~(kth < rest.astype(np.float64) + self.sq[rows] - self._tol(rows))
                if redo.any():
                    head[redo] = self._sorted_exact(rows[redo], other, width)[0]
                out[rows, :width] = head

            _tasks.blocks(block, mine, _BLOCK)
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
        """Bound on |G[i, j] - 2^(2·scale_exp)·d2(i, j)| over all j, per row i.

        G[i, j] = H[i, j] + sq[i], with H the float32 GEMM entry −2·y_i·y_j +
        sq[j] on the rows y of Xc, and d2 the exact kernel's float64 value.
        The bound is in these scaled units: callers scale d2 by np.ldexp and
        compare in float64.  With u = 2^-24 (float32's unit roundoff),
        σ = ‖y_i‖² + ‖y_j‖² and S = sq[i] + max sq, so σ <= (1 + 2u)·S:
        - rounding s·c to float32 (s = 2^scale_exp, c the centred rows) moves
          each entry by at most u of itself, so ‖y_i − y_j‖² is within about
          4u·σ of s²·‖c_i − c_j‖²;
        - sq is the float64 sum of exact float64 squares, rounded once to
          float32: within about u·σ for the pair;
        - the float32 dot product errs by at most γ_d·Σ|2·y_ik·y_jk| <= γ_d·σ,
          γ_d = d·u/(1 − d·u), in any summation order, FMA or not (Higham
          2002, §3.1);
        - the float32 add of sq[j] rounds a value of magnitude <= 2σ: 2u·σ;
        - undoing the scale is exact, since np.ldexp rounds only on underflow;
        - centring (c = x − m rounded, for any finite centre m whose x − m
          stays finite: the proof never uses which m it is) moves
          ‖c_i − c_j‖² from ‖x_i − x_j‖² by about 4·2^-53·σ/s², the exact
          kernel is within (d + 2)·2^-53·2σ/s², and the float64 comparison
          rounds a few values of magnitude <= 3σ once each: about
          (2d + 20)·2^-53·σ in scaled units, below u·σ while d < 2^27.
        The total is about (d + 8)·u·σ <= (d + 9)·u·S, and the bound
        8·(d + 4)·u·S = 4·(d + 4)·eps32·S is at least four times that, which
        also absorbs the second-order terms while d < 2^20.

        The margin also covers ordering on the rounded distance sqrt(d2):
        if two exact d2 values a <= b round to one distance r, both roots
        lie within 2^-53·r of r, so b - a <= 2^-51·b, under 2^-48·σ when
        scaled, which the margin holds beside the GEMM error.  So an item
        whose root may collide with a threshold's lies in the band that is
        re-checked exactly, and outside it d2 and sqrt(d2) order strictly
        alike.

        Underflow.  Unless Xc is zero (and every error with it), its largest
        entry is at least 1/2, so S >= 1/4.  A float32 rounding errs by at most
        2^-126 beyond its relative error, even flushed to zero; fewer than
        10d + 3 such errors, each weighted at most 4 (entries are at most 1),
        reach G, far below u·S.  A float64 scaled value or comparison errs by
        at most 2^-1075 beyond its relative error, again far below u·S.
        Before scaling, centring and the exact kernel subtract and add
        exactly when the result is subnormal, and the kernel's d squares err
        by at most half the smallest subnormal each, which the added
        4·(d + 4)·2^-1074·s² covers.
        Overflow: no float32 value exceeds 4d, and the kernel's values stay
        below 2S/s² (up to rounding), so while 4S/s² is finite nothing
        overflowed; otherwise the bound is infinite and the row is settled by
        the exact kernel alone.
        """
        S = self.sq[rows].astype(np.float64) + self.sq.max()
        tol = 4.0 * (self.X.shape[1] + 4) * (_EPS32 * S + np.ldexp(_SUBNORMAL, 2 * self.scale_exp))
        tol[~np.isfinite(np.ldexp(4.0 * S, -2 * self.scale_exp))] = np.inf
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


def count_ranks(idx: NeighborIndex, rows, ptr, targets, ident: np.ndarray | None = None) -> np.ndarray:
    """Exact 1-based rank of each target in the gallery of its row, by counting.

    Row rows[i] owns targets[ptr[i]:ptr[i + 1]]: distinct tracklets in
    ascending order, each inside the row's gallery.  Without ident, a row's
    gallery is every tracklet outside its own camera, ordered on (d2, id).
    With ident (an integer label per tracklet) it is the evaluation protocol:
    every tracklet but those sharing both the row's camera and its label,
    ordered on the rounded distance, (sqrt(d2), id).  A rank is 1 plus the
    number of gallery items before the target.  Rows are taken in
    _tasks.blocks of at most _BLOCK rows in all, each block writing only its
    own targets' slots.  A block sorts its rows' GEMM entries once and, for
    band items, gathers no more GEMM rows again at a time than it has rows,
    so working memory is O(_BLOCK·n) however many targets a row has.
    """
    rows, ptr, targets = (np.asarray(a, dtype=np.intp) for a in (rows, ptr, targets))
    # 0 <= code < codes.max() + 1, so the label determines (code, ident).
    label, key = idx.codes, None
    if ident is not None:
        label, key = idx.codes + (idx.codes.max() + 1) * ident, np.sqrt
    size = np.diff(ptr)
    live = np.flatnonzero(size)
    out = np.empty(len(targets), dtype=np.int64)

    def block(blk):
        r = size[blk]
        flat = np.repeat(ptr[blk] - np.cumsum(r) + r, r) + np.arange(r.sum())
        out[flat] = _count_block(idx, rows[blk], r, targets[flat], label, key)

    _tasks.blocks(block, live, _BLOCK)
    return out


@np.errstate(over="ignore", invalid="ignore")  # overflow only widens the bound
def _count_block(idx, rows, r, tgt, label, key) -> np.ndarray:
    """count_ranks for rows, row i owning r[i] >= 1 of tgt, with row i's gallery
    every tracklet whose label differs from label[rows[i]].

    A target's rank is 1 plus its position among its row's targets in (key,
    id) order plus the other gallery items before it.  Those are counted on
    the row's float32 GEMM entries, sorted once.  With ds the target's exact
    d2 scaled by 2^(2·scale_exp), an item below lo = ds - sq[i] - tol surely
    precedes the target and one above hi = ds - sq[i] + tol surely follows,
    so two searchsorted calls count the items below its band [lo, hi] and in
    it.  _tol shows that the band also holds every item whose key may tie
    with the target's.  A row's targets with one d2 form a run, which shares
    its band and key; each band item meets the exact kernel once, in the
    first run of its row whose band holds it, and is compared on (key, id)
    once per run.  A row whose bound is not finite puts its whole gallery in
    every band.
    """
    X, n, b, w = idx.X, len(idx), len(rows), int(r.max())
    slot, end = np.repeat(np.arange(b), r), np.cumsum(r)
    col = np.arange(len(tgt)) - np.repeat(end - r, r)
    D = np.full((b, w), np.inf)  # each row's exact target d2, padded
    D[slot, col] = exact_sq_dists(np.repeat(X[rows], r, axis=0), X[tgt, None])[:, 0]
    K = D if key is None else key(D)
    # Ids ascend along a row, so a stable sort on the key places each target in (key, id)
    # order, and one on d2 lists the targets in (row, d2) order, along which bands ascend.
    rank = 1 + np.argsort(np.argsort(K, axis=1, kind="stable"), axis=1)[slot, col]
    srt = np.repeat(end - r, r) + np.argsort(D, axis=1, kind="stable")[slot, col]
    d2, K, tol = D[slot, col], K[slot, col], idx._tol(rows)
    loose = ~np.isfinite(tol)
    H = (-2.0 * idx.Xc[rows]) @ idx.Xc.T
    H += idx.sq
    H[loose] = 0  # meets the thresholds -inf and inf below
    H[label == label[rows, None]] = np.nan  # NaN sorts last and lies in no band
    H[slot, tgt] = np.nan  # targets are ordered among themselves above
    # Thresholds in the GEMM's scaled units, in float64; float32 H converts exactly to meet them.
    base = np.ldexp(d2, 2 * idx.scale_exp) - idx.sq[rows[slot]].astype(np.float64)
    lo, hi = base - tol[slot], base + tol[slot]
    lo[loose[slot]], hi[loose[slot]] = -np.inf, np.inf
    before, width = np.empty(len(tgt), dtype=np.int64), np.empty(len(tgt), dtype=np.int64)
    for s, a, z in zip(np.sort(H, axis=1), end - r, end):
        s = s.astype(np.float64)  # exact, so the float32 order holds
        before[a:z] = s.searchsorted(lo[a:z])
        width[a:z] = s.searchsorted(hi[a:z], side="right")
    width -= before

    # Band targets in (row, d2) order, the run each belongs to, and each run's first target.
    bt = srt[width[srt] > 0]
    head = np.ones(len(bt), dtype=bool)
    head[1:] = (slot[bt[1:]] != slot[bt[:-1]]) | (d2[bt[1:]] != d2[bt[:-1]])
    run, lead = np.cumsum(head) - 1, bt[head]
    # An item lies in a contiguous span of its row's runs; the first is the one whose
    # band holds it above the previous run's hi.
    above = np.r_[-np.inf, np.where(slot[lead[1:]] == slot[lead[:-1]], hi[lead[:-1]], -np.inf)]
    E = np.empty((b, n))  # E[i, j]: the key of band pair (i, j), once computed
    step = 1 + _DIFF_ELEMENTS // X.shape[1]
    for c in range(0, len(lead), b):  # at most b GEMM rows gathered at a time
        g = lead[c : c + b]
        G = H[slot[g]]
        # The chunk's band pairs, by run, then id; 2-D nonzero is slow.
        gi, j = np.divmod(np.flatnonzero((G >= lo[g, None]) & (G <= hi[g, None])), n)
        i, first = slot[g[gi]], np.flatnonzero(G[gi, j] > above[c + gi])
        for a in range(0, len(first), step):  # a wide band is gathered in pieces
            p = first[a : a + step]
            e = exact_sq_dists(X[rows[i[p]]], X[j[p], None])[:, 0]
            E[i[p], j[p]] = e if key is None else key(e)
        # A target's band items before it: those below its key, and those on it with lower ids.
        e, k = E[i, j], K[g[gi]]
        less = np.bincount(gi[e < k], minlength=len(g))
        tied = gi[e == k] * n + j[e == k]  # ascending
        a, z = np.searchsorted(run, [c, c + len(g)])
        t, loc = bt[a:z], run[a:z] - c
        before[t] += less[loc] + np.searchsorted(tied, loc * n + tgt[t])
        before[t] -= np.searchsorted(tied, loc * n)
    return rank + before


def build_neighbor_index(m: DomainManifest, embedder=None, normalize: bool = False) -> NeighborIndex:
    """Build the exact cross-camera neighbor index for a manifest.

    Each tracklet's exact mean (optionally embedded, optionally
    L2-normalized) frame vector from manifest_embeddings, which validates the
    manifest, and its camera.  NeighborIndex refuses a single camera
    (DomainError).
    """
    ids, X = manifest_embeddings(m, embedder=embedder, normalize=normalize)
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
    # One row's exact sort beats ranks() only on small indexes: per pair 0.05
    # against 0.18 ms at 316 tracklets, but 1.92 against 0.48 ms at 9002 (2-core
    # x86).  It stays for its one heavy caller, criterion 1, which checks
    # 126,886 pairs on manifests of at most 50 tracklets in about 5 s (30 s bound).
    return int(np.flatnonzero(idx._row(ti) == si)[0]) + 1
