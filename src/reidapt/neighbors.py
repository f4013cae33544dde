"""Exact cross-camera nearest-neighbor ranking in O(n·k) memory.

For every tracklet s, its cross-camera list holds the tracklets from *other*
cameras sorted by ascending Euclidean distance to s's representation (ties
broken by ascending tracklet_id).  Ranks are 1-based.  The rank-based
distance e(s, t) is the position of s inside t's list; it is deliberately
asymmetric: if t is s's 1-nearest neighbour while s is only t's 5-nearest
neighbour, then e(s, t) = 5.

Storage.  The index keeps the ids, integer camera codes, the representations
X, and for the GEMM a column-centred copy of X with its squared norms: O(n·d).
No n×n matrix is ever stored; lists and ranks are computed on demand, 256
rows at a time, so working memory is O(256·n) and results are O(n·k).

Exactness.  Every distance that decides an order comes from one exact
kernel, exact_sq_dists: coordinate differences, squared and summed by a
fixed einsum, so it does not depend on BLAS threading.  The differences are
taken from A's rows repeated once per row of B, minus B in place: each
element rounds exactly as in the broadcast A[:, None, :] - B, but NumPy runs
one long loop instead of one short loop per pair.  The GEMM form
‖a‖² + ‖b‖² − 2a·b only preselects: heads() re-sorts a fixed candidate set
with the exact kernel and accepts a row only when every non-candidate is
provably farther than the k-th exact distance (else it redoes the row
exactly).  count_ranks() ranks given targets by counting, not sorting: it
orders a row's targets exactly among themselves, counts every other
gallery item against their exact thresholds with one searchsorted of the
GEMM row, and re-checks exactly only the items the _tol bound cannot
place.  Its order key is d2 for ranks() and the rounded distance sqrt(d2)
for evaluation; _tol shows that the bound covers both.  Every order is
therefore the one a full exact sort on (key, id) gives.

Callers.  A command builds one index and hands it to cluster(),
build_ranking and inter_intra_distances, so it embeds its manifest once.
Clustering reads everything it needs from heads().  count_ranks() serves
build_ranking's hit ranks and ranks(), which gives only the exact edge
weights of build_graph called without K; k_reciprocal_distance counts one
exact row per pair instead, which is cheaper for a single pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ManifestError
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
    """Representations and camera codes of one manifest, ids ascending.

    The GEMM side works in camera-major order: position p holds tracklet
    order[p], so each camera's columns form one slice.
    """

    ids: tuple[str, ...]
    cameras: tuple[str, ...]
    codes: np.ndarray  # integer camera code per tracklet
    X: np.ndarray  # exact representations
    order: np.ndarray  # tracklets sorted by (camera code, id)
    Xc: np.ndarray  # X[order] minus its column means, for the GEMM only
    sq: np.ndarray  # squared row norms of Xc
    index_of: dict[str, int]

    def __len__(self):
        return len(self.ids)

    def __contains__(self, tracklet_id: str) -> bool:
        return tracklet_id in self.index_of

    def neighbor_ids(self, tracklet_id: str) -> tuple[str, ...]:
        """Full cross-camera list for one tracklet, best match first."""
        other, d2 = self._exact_row(self._lookup(tracklet_id))
        return tuple(self.ids[j] for j in other[np.argsort(d2, kind="stable")])

    @np.errstate(over="ignore", invalid="ignore")  # overflow only widens the bound
    def heads(self, k: int) -> np.ndarray:
        """First min(k, L) entries of every row's list, padded with -1.

        Returns an (n, min(k, max L)) array of row indices.
        """
        if k < 1:
            raise ValueError("k must be a positive integer")
        n = len(self.ids)
        n_other = n - np.bincount(self.codes)[self.codes]
        w = min(k, int(n_other.max()))
        c = min(2 * k + 8, n)
        out = np.empty((n, w), dtype=np.intp)
        for a in range(0, n, _BLOCK):
            pos = np.arange(a, min(a + _BLOCK, n))
            rows = self.order[pos]
            H = self._gemm(pos)
            cand = np.argpartition(H, c - 1, axis=1)[:, :c]
            head, d2 = self._sorted_exact(rows, self.order[cand], w)
            kth = d2[np.arange(len(rows)), np.minimum(w, n_other[rows]) - 1]
            # Every non-candidate j has exact distance >= H[i, j] + ‖c_i‖² - tol,
            # so a row whose k-th exact distance lies below that for all of
            # them has its whole head among the candidates.
            np.put_along_axis(H, cand, np.inf, axis=1)
            redo = ~(kth < H.min(axis=1) + self.sq[pos] - self._tol(pos))
            if redo.any():
                head[redo] = self._sorted_exact(rows[redo], np.arange(n), w)[0]
            out[rows] = head
        return out

    def ranks(self, t, s) -> np.ndarray:
        """Exact 1-based rank of row s[p] in row t[p]'s list (cameras must differ)."""
        n = len(self.ids)
        pairs, inverse = np.unique(np.asarray(t, dtype=np.intp) * n + s, return_inverse=True)
        rows, targets = np.divmod(pairs, n)
        rows, size = np.unique(rows, return_counts=True)
        return count_ranks(self, rows, np.r_[0, np.cumsum(size)], targets)[inverse.reshape(-1)]

    def _gemm(self, pos: np.ndarray, ident: np.ndarray | None = None) -> np.ndarray:
        """H = G - ‖c_i‖² from ascending positions pos to every position.

        G is the GEMM form of the squared distance.  Entries outside a row's
        gallery are +inf, set one camera slice at a time: the row's camera,
        or with ident (a label per tracklet) only its camera and label.
        """
        H = (-2.0 * self.Xc[pos]) @ self.Xc.T
        H += self.sq
        rows = self.order[pos]
        cams = self.codes[rows]
        starts = np.searchsorted(self.codes[self.order], np.arange(self.codes.max() + 2))
        for cam in np.unique(cams):
            r0, r1 = np.searchsorted(cams, [cam, cam + 1])
            cols = slice(starts[cam], starts[cam + 1])
            if ident is None:
                H[r0:r1, cols] = np.inf
            else:
                H[r0:r1, cols][self._outside(rows[r0:r1], self.order[cols], ident)] = np.inf
        return H

    def _outside(self, rows: np.ndarray, cols: np.ndarray, ident: np.ndarray | None) -> np.ndarray:
        """Whether cols[j] is outside row rows[i]'s gallery (see _gemm)."""
        out = self.codes[cols] == self.codes[rows, None]
        if ident is not None:
            out &= ident[cols] == ident[rows, None]
        return out

    def _tol(self, pos: np.ndarray) -> np.ndarray:
        """Bound on |G[i, j] - exact d2(i, j)| over all j, per position i.

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
        scale = self.sq[pos] + self.sq.max() + _TINY
        tol = 8.0 * (self.X.shape[1] + 4) * _EPS * scale
        tol[~np.isfinite(4.0 * scale)] = np.inf
        return tol

    def _sorted_exact(self, rows: np.ndarray, cols: np.ndarray, w: int):
        """First w of cols per row in (other camera first, distance, id) order.

        cols is one index row per row, or a single row shared by all of them.
        Returns (head, d2): same-camera entries of head are -1, and d2 holds
        the exact squared distances in head order.
        """
        d2 = exact_sq_dists(self.X[rows], self.X[cols])
        cols = np.broadcast_to(cols, d2.shape)
        same = self.codes[cols] == self.codes[rows, None]
        order = np.lexsort((cols, d2, same), axis=-1)[:, :w]
        head = np.take_along_axis(cols, order, axis=-1)
        head[np.take_along_axis(same, order, axis=-1)] = -1
        return head, np.take_along_axis(d2, order, axis=-1)

    def _exact_row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Other-camera indices of row i (ascending) and their exact squared distances."""
        other = np.flatnonzero(self.codes != self.codes[i])
        return other, exact_sq_dists(self.X[[i]], self.X[other])[0]

    def _rank_exact(self, t: int, s: int) -> int:
        """Rank of s in t's list by counting, from one exact row."""
        other, d2 = self._exact_row(t)
        ds = d2[np.searchsorted(other, s)]
        return 1 + int(np.count_nonzero((d2 < ds) | ((d2 == ds) & (other < s))))

    def _lookup(self, tracklet_id: str) -> int:
        try:
            return self.index_of[tracklet_id]
        except KeyError:
            raise KeyError(f"unknown tracklet id {tracklet_id!r}") from None


def count_ranks(idx: NeighborIndex, rows, ptr, targets, ident: np.ndarray | None = None,
                key=None) -> np.ndarray:
    """Exact 1-based rank of each target in the gallery of its row, by counting.

    Row rows[i] owns targets[ptr[i]:ptr[i + 1]]: distinct tracklets in
    ascending order, each inside the row's gallery.  A row's gallery is every
    tracklet outside its own camera, or with ident (an integer label per
    tracklet) every tracklet but those sharing both its camera and its label.
    It is ordered on (key(d2), id), key defaulting to d2 itself, and a rank
    is 1 plus the number of gallery items before the target.  Rows are taken
    _BLOCK at a time in camera-major order, so working memory is O(_BLOCK·n)
    however many targets a row has.
    """
    rows = np.asarray(rows, dtype=np.intp)
    ptr = np.asarray(ptr, dtype=np.intp)
    targets = np.asarray(targets, dtype=np.intp)
    pos_of = np.empty_like(idx.order)
    pos_of[idx.order] = np.arange(len(idx))
    size = np.diff(ptr)
    live = np.flatnonzero(size)
    live = live[np.argsort(pos_of[rows[live]], kind="stable")]
    out = np.empty(len(targets), dtype=np.int64)
    for a in range(0, len(live), _BLOCK):
        blk = live[a : a + _BLOCK]
        r = size[blk]
        flat = np.repeat(ptr[blk] - np.cumsum(r) + r, r) + np.arange(r.sum())
        out[flat] = _count_block(idx, pos_of[rows[blk]], r, targets[flat], pos_of, ident, key)
    return out


@np.errstate(over="ignore", invalid="ignore")  # overflow only widens the bound
def _count_block(idx, pos, r, tgt, pos_of, ident, key) -> np.ndarray:
    """count_ranks for rows at ascending positions pos, row i owning r[i] >= 1 of tgt.

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
    X, rows, n, b, w = idx.X, idx.order[pos], len(idx), len(pos), int(r.max())
    slot = np.repeat(np.arange(b), r)
    start = np.repeat(np.cumsum(r) - r, r)  # each target's row start in tgt
    col = np.arange(len(tgt)) - start
    D = np.full((b, w), np.inf)  # each row's exact target d2, padded
    D[slot, col] = exact_sq_dists(np.repeat(X[rows], r, axis=0), X[tgt, None])[:, 0]
    H = idx._gemm(pos, ident)
    H[slot, pos_of[tgt]] = np.inf  # targets are ordered among themselves below
    tol = idx._tol(pos)[:, None]
    base = np.sort(D, axis=1) - idx.sq[pos, None]
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
        band[loose] = ~idx._outside(rows[loose], idx.order, ident)
        band[slot, pos_of[tgt]] = False
    bi, bv = np.divmod(np.flatnonzero(band), n)  # 2-D nonzero is slow
    bins = np.bincount(B.ravel(), minlength=b * (w + 1))
    bins -= np.bincount(B[bi, bv], minlength=b * (w + 1))

    K = D if key is None else key(D)
    by_key = np.argsort(K, axis=1, kind="stable")  # ids ascend in each row: (key, id)
    if len(bi):
        bu = idx.order[bv]
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

    The one place a manifest becomes representations: each tracklet's exact
    mean (optionally embedded, optionally L2-normalized) frame vector, plus
    camera codes.  Requires a valid manifest spanning at least two cameras.
    """
    report = m.validation
    if not report.ok:
        first = report.violations[0]
        raise ManifestError(
            f"manifest {m.name!r} is invalid ({len(report.violations)} violations; "
            f"first: {first.kind}: {first.message})"
        )
    if len(m.cameras) < 2:
        raise DomainError(
            f"cross-camera neighbors undefined: manifest {m.name!r} has a single camera"
        )

    ids, X = manifest_embeddings(m, embedder=embedder, normalize=normalize)
    cameras = tuple(m.by_id[tid].camera_id for tid in ids)
    codes = np.unique(cameras, return_inverse=True)[1].astype(np.intp)
    order = np.argsort(codes, kind="stable")
    Xc = X[order] - X.mean(axis=0)
    for a in (X, codes, order, Xc):
        a.setflags(write=False)
    return NeighborIndex(
        ids=tuple(ids),
        cameras=cameras,
        codes=codes,
        X=X,
        order=order,
        Xc=Xc,
        sq=np.einsum("ij,ij->i", Xc, Xc),
        index_of={tid: i for i, tid in enumerate(ids)},
    )


def top_k(idx: NeighborIndex, k: int, tracklet_id: str) -> tuple[str, ...]:
    """First min(k, L) entries of the tracklet's cross-camera list."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    return idx.neighbor_ids(tracklet_id)[:k]


def k_reciprocal_distance(idx: NeighborIndex, s: str, t: str) -> int:
    """Rank of s inside t's cross-camera neighbor list (1-based, asymmetric)."""
    si = idx._lookup(s)
    ti = idx._lookup(t)
    if idx.cameras[si] == idx.cameras[ti]:
        raise DomainError(
            f"rank distance undefined for same-camera pair ({s!r}, {t!r}) "
            f"on camera {idx.cameras[si]!r}"
        )
    return idx._rank_exact(ti, si)
