"""Core data types: tracklets, domain manifests, cluster assignments, configs.

A *tracklet* is one person track observed by one camera, represented by the
per-frame feature vectors extracted for it.  A *domain manifest* is the full
set of tracklets for one deployment site (one "domain").  Everything in this
module is immutable after construction; operations that transform data return
new objects.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import ManifestError


def _as_frame_matrix(frames) -> np.ndarray:
    """Normalize raw frame data to a read-only (n_frames, dim) float64 array of numbers."""
    if isinstance(frames, np.ndarray) and frames.dtype.kind == "c":  # before numpy warns
        raise ManifestError(f"frame values must be numbers, found {frames.dtype.type.__name__}")
    try:
        arr = np.array(frames, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ManifestError(f"frames are not a rectangular numeric array: {exc}") from exc
    if arr.size == 0:  # no frames, or frames of dimension 0: both are empty-frames
        arr = arr.reshape(0, 0)
    if arr.ndim != 2:
        raise ManifestError(
            f"frames must be a sequence of equal-length vectors, got shape {arr.shape}"
        )
    if not (isinstance(frames, np.ndarray) and frames.dtype.kind in "iuf"):
        # numpy would read "1.5", True and None as numbers.  frames is 2-D here.
        values = frames.flat if isinstance(frames, np.ndarray) else chain.from_iterable(frames)
        for t in set(map(type, values)):
            if t is bool or not issubclass(t, (int, float, np.integer, np.floating)):
                raise ManifestError(f"frame values must be numbers, found {t.__name__}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Tracklet:
    """One single-camera person track.

    Attributes:
        tracklet_id: unique id within a manifest.
        camera_id: id of the camera that recorded the track.
        frames: read-only (n_frames, dim) float64 matrix, one feature vector
            per frame; shape (0, 0) when there are none.  The constructor
            copies what it is given.  read_manifest's tracklets instead hold
            row views of their manifest's frame matrix (DomainManifest
            .frame_layout).
        identity: ground-truth person label, or None for unlabeled data.
            The clustering path never reads this field.
    """

    tracklet_id: str
    camera_id: str
    frames: np.ndarray
    identity: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "frames", _as_frame_matrix(self.frames))

    @classmethod
    def _view(cls, tracklet_id, camera_id, frames, identity):
        """A tracklet over `frames` as they are: no copy and no checks.

        `frames` must already be what the constructor would make of them, a
        read-only float64 (n, dim) array with n, dim >= 1, or shape (0, 0).
        """
        t = object.__new__(cls)
        t.__dict__.update(tracklet_id=tracklet_id, camera_id=camera_id, frames=frames,
                          identity=identity)
        return t

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]

    def __eq__(self, other):
        if not isinstance(other, Tracklet):
            return NotImplemented
        return (
            self.tracklet_id == other.tracklet_id
            and self.camera_id == other.camera_id
            and self.identity == other.identity
            and self.frames.shape == other.frames.shape
            and np.array_equal(self.frames, other.frames)
        )

    def __repr__(self):
        return (
            f"Tracklet({self.tracklet_id!r}, camera={self.camera_id!r}, "
            f"frames={self.frames.shape}, identity={self.identity!r})"
        )


@dataclass(frozen=True, eq=False)
class DomainManifest:
    """All tracklets of one domain, in insertion order."""

    name: str
    tracklets: tuple[Tracklet, ...]

    def __post_init__(self):
        object.__setattr__(self, "tracklets", tuple(self.tracklets))

    @classmethod
    def _over(cls, name, tracklets, frame_layout):
        """A manifest whose frame_layout is given, not stacked: its tracklets' frames are its rows."""
        m = cls(name, tracklets)
        m.__dict__["frame_layout"] = frame_layout
        return m

    @cached_property
    def frame_layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(F, start, n): one read-only float64 matrix holding every tracklet's frames.

        Tracklet i's frames are F[start[i] : start[i] + n[i]].  Computed once,
        as stack_frames(self.tracklets), which needs every tracklet with
        frames to share one dim.  read_manifest over a sidecar gives the
        sidecar's own matrix instead, whose spans may overlap, skip rows or
        come out of order, and whose tracklets hold views of it.
        """
        return stack_frames(self.tracklets)

    @cached_property
    def by_id(self) -> dict[str, Tracklet]:
        # On duplicate ids the last occurrence wins; validate_manifest reports
        # the duplication itself.
        return {t.tracklet_id: t for t in self.tracklets}

    @cached_property
    def validation(self) -> ValidationReport:
        """validate_manifest(self), computed once: the manifest is immutable."""
        return validate_manifest(self)

    @cached_property
    def cameras(self) -> tuple[str, ...]:
        return tuple(sorted({t.camera_id for t in self.tracklets}))

    @cached_property
    def identities(self) -> tuple[str, ...]:
        return tuple(sorted({t.identity for t in self.tracklets if t.identity is not None}))

    @property
    def dim(self) -> int | None:
        """Feature dimensionality, taken from the first tracklet with frames."""
        for t in self.tracklets:
            if t.n_frames > 0:
                return t.dim
        return None

    def __len__(self):
        return len(self.tracklets)

    def __eq__(self, other):
        if not isinstance(other, DomainManifest):
            return NotImplemented
        return self.name == other.name and self.tracklets == other.tracklets

    def __repr__(self):
        return (
            f"DomainManifest({self.name!r}, tracklets={len(self.tracklets)}, "
            f"cameras={len(self.cameras)})"
        )


@dataclass(frozen=True)
class ClusterAssignment:
    """One cluster: a non-negative id and the tracklet ids it contains, at least one."""

    cluster_id: int
    members: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        if self.cluster_id < 0:
            raise ValueError("cluster_id must be non-negative")
        if not self.members:
            raise ValueError(f"cluster {self.cluster_id} has no members")


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_manifest: empty violations means the manifest is usable."""

    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def kinds(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for v in self.violations:
            out[v.kind] = out.get(v.kind, 0) + 1
        return out

    def check(self, what: str, error=ManifestError) -> None:
        """Raise error("<what> is invalid (<count> violations; first: ...)") unless ok."""
        if self.violations:
            first = self.violations[0]
            raise error(
                f"{what} is invalid ({len(self.violations)} violations; "
                f"first: {first.kind}: {first.message})"
            )


def validate_manifest(m: DomainManifest) -> ValidationReport:
    """Check manifest invariants, reporting violations instead of raising.

    Reported kinds: empty-manifest, duplicate-id, empty-frames, non-finite,
    dim-mismatch.  One violation per offending tracklet (one per duplicated
    id), so counts are stable for tests and tooling.  Non-finite values are
    found in one pass over m.frame_layout: a running count of non-finite
    rows, read at each tracklet's span.
    """
    violations: list[Violation] = []
    if not m.tracklets:
        violations.append(Violation("empty-manifest", "manifest has no tracklets"))
        return ValidationReport(tuple(violations))

    counts: dict[str, int] = {}
    for t in m.tracklets:
        counts[t.tracklet_id] = counts.get(t.tracklet_id, 0) + 1
    for tid in sorted(tid for tid, c in counts.items() if c > 1):
        violations.append(
            Violation("duplicate-id", f"tracklet id {tid!r} appears {counts[tid]} times")
        )

    ref_dim = m.dim
    try:
        F, start, n = m.frame_layout
    except ManifestError:  # frames of two dims share no matrix: only an invalid manifest
        n, dim = np.array([t.frames.shape for t in m.tracklets], dtype=np.intp).T
        off_dim = (n > 0) & (dim != ref_dim)
        finite = np.array([np.isfinite(t.frames).all() for t in m.tracklets])
    else:
        off_dim = np.zeros(len(n), dtype=bool)
        bad_rows = np.concatenate(([0], np.cumsum(~np.isfinite(F).all(axis=1))))
        finite = bad_rows[start + n] == bad_rows[start]
    empty = n == 0
    for i in np.flatnonzero(empty | ~finite | off_dim).tolist():
        t = m.tracklets[i]
        if empty[i]:
            violations.append(
                Violation("empty-frames", f"tracklet {t.tracklet_id!r} has no frames")
            )
            continue
        if not finite[i]:
            violations.append(
                Violation("non-finite", f"tracklet {t.tracklet_id!r} contains NaN or Inf")
            )
        if off_dim[i]:
            violations.append(
                Violation(
                    "dim-mismatch",
                    f"tracklet {t.tracklet_id!r} has dim {t.dim}, manifest dim {ref_dim}",
                )
            )
    return ValidationReport(tuple(violations))


# Values in one chunk's running sums in manifest_embeddings (256 KB), so that
# the sums and the frames added to them stay in cache.
_MEAN_ELEMENTS = 1 << 15


def _exact_mean(rows: np.ndarray) -> np.ndarray:
    """Correctly rounded mean of each column: math.fsum's sum divided by n.

    The compensated sum is exact up to its final rounding, hence independent
    of frame order.  fsum reads Python floats (tolist) far faster than numpy
    scalars; the values summed are the same.  A sum past float64's range
    (fsum raises OverflowError) or of both infinities (ValueError) has no
    finite mean: it reads as inf.
    """
    n = rows.shape[0]
    try:
        return np.array([math.fsum(col) / n for col in rows.T.tolist()], dtype=np.float64)
    except (OverflowError, ValueError):
        return np.full(rows.shape[1], np.inf)


def stack_frames(tracklets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(F, start, n): the frames in order; tracklet i's are F[start[i] : start[i] + n[i]].

    The one owner of the frame-matrix layout.  F is a new read-only float64
    matrix; tracklets without frames take no rows, and the others must
    share one dim (else ManifestError).  DomainManifest.frame_layout holds
    this layout for a whole manifest, and gather_frames reads spans out of it.
    """
    n = np.array([t.n_frames for t in tracklets], dtype=np.intp)
    rows = [t.frames for t in tracklets if t.n_frames]
    dims = sorted({r.shape[1] for r in rows})
    if len(dims) > 1:
        raise ManifestError(f"frames of dims {dims} cannot share one frame matrix")
    F = np.concatenate(rows) if rows else np.empty((0, 0))
    F.setflags(write=False)
    return F, np.cumsum(n) - n, n


def gather_frames(F, start, n) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(G, offsets, n): the spans F[start[i] : start[i] + n[i]] laid out as stack_frames lays them.

    G holds the spans one after another, span i at G[offsets[i] : offsets[i]
    + n[i]]; it is F itself, not a copy, when the spans already tile F in order.
    """
    offsets = np.cumsum(n) - n
    if not (len(F) == n.sum() and np.array_equal(start, offsets)):
        F = F[np.arange(n.sum()) + np.repeat(start - offsets, n)]
    return F, offsets, n


def _proven_means(F, start, n) -> tuple[np.ndarray, np.ndarray]:
    """(means, proven): each block's column means, and which rows are exact.

    Block i is F[start[i] : start[i] + n[i]], n[i] >= 1, read in place as a
    frame layout gives it.  All blocks are summed together, one frame
    position at a time (longest first, so the blocks with a frame at
    position p are a prefix).  Overflow only fails the proof, so callers
    run this under np.errstate(over="ignore", invalid="ignore").
    Every addition s = a + x records its TwoSum error (a - (s - v)) + (x - v),
    v = s - a, which is the exact rounding error of s whenever nothing
    overflowed (Knuth; Ogita, Rump & Oishi 2005), and is inf or nan, never 0,
    when something did.  A row whose every error term is 0 and whose sum is
    finite has an exact sum; fsum returns that sum unrounded, so sum / n is
    _exact_mean's value bit for bit.  Sums start from +0.0, as fsum's do, so
    an exact zero is +0.0.  Rows without the proof are marked False, and
    their means are meaningless.
    """
    by_len = np.argsort(-n, kind="stable")
    ns = n[by_len]
    start = start[by_len]
    S = F[start] + 0.0
    proven = np.ones(len(n), dtype=bool)
    for p in range(1, int(ns[0])):
        a = int(np.searchsorted(-ns, -p))  # blocks longer than p
        x = F[start[:a] + p]
        s = S[:a] + x
        v = s - S[:a]
        proven[:a] &= ~((S[:a] - (s - v)) + (x - v)).any(axis=1)
        S[:a] = s
    means, out = np.empty_like(S), np.empty(len(n), dtype=bool)
    means[by_len] = S / ns[:, None]
    out[by_len] = proven & np.isfinite(S).all(axis=1)
    return means, out


def tracklet_embedding(t: Tracklet) -> np.ndarray:
    """Mean of the tracklet's frame vectors: manifest_embeddings of it alone.

    Frame order does not affect the result: each coordinate is reduced with
    compensated summation.
    """
    return manifest_embeddings(DomainManifest(t.tracklet_id, (t,)))[1][0]


def manifest_embeddings(
    m: DomainManifest,
    embedder=None,
    normalize: bool = False,
) -> tuple[tuple[str, ...], np.ndarray]:
    """Per-tracklet representations for a whole manifest.

    The one gate from a manifest to representations: the manifest must pass
    validate_manifest (its cached ``validation``), else ManifestError.  Each
    tracklet is represented by the mean of its (optionally embedded) frame
    vectors, correctly rounded: math.fsum of each column divided by the
    frame count.  Raw frames are summed in contiguous chunks of tracklets,
    small enough that a chunk's sums stay in cache: each chunk's spans of
    m.frame_layout are summed in place with _proven_means, and a tracklet
    keeps that sum only where TwoSum proves it exact.  The rest,
    and embedder outputs (whose sums rarely pass), take _exact_mean's fsum.
    Tracklets are returned in ascending tracklet_id order, which is the
    canonical order used by the neighbor index.

    Args:
        m: manifest to represent.
        embedder: optional object with an ``embed(x)`` method mapping a
            (n, dim_in) batch to (n, dim_out).  None means raw frames.
        normalize: if True, scale each representation to unit L2 norm
            (zero vectors are left untouched).  Off by default.

    Returns:
        (ids, X): ids sorted ascending, X of shape (len(ids), dim).

    Raises:
        ManifestError: the manifest is invalid, or a tracklet's mean is not
            finite in float64 (NaN, or an embedder or the frame sum
            overflowed); the message names the first such tracklet in id order.
        ValueError: the embedder takes frames of another width.
    """
    m.validation.check(f"manifest {m.name!r}")
    ids = [t.tracklet_id for t in m.tracklets]
    pos = np.array(sorted(range(len(ids)), key=ids.__getitem__))
    F, start, n = m.frame_layout
    spans = np.stack((start, start + n), axis=1)[pos].tolist()  # row i's frames: F[a:b]
    # Overflow shows as a non-finite mean below, not as a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        if embedder is None:
            # Contiguous chunks in id order: a row's sums never depend on
            # the other rows summed with it.
            step = max(1, _MEAN_ELEMENTS // max(1, F.shape[1]))
            X, proven = np.empty((len(pos), F.shape[1])), np.empty(len(pos), dtype=bool)
            for a in range(0, len(pos), step):
                c = pos[a : a + step]
                X[a : a + step], proven[a : a + step] = _proven_means(F, start[c], n[c])
            for i in np.flatnonzero(~proven).tolist():
                a, b = spans[i]
                X[i] = _exact_mean(F[a:b])
        else:
            # One embed per tracklet: a 1-row product goes to gemv, whose
            # bits differ from the same row of a batched gemm.
            X = np.vstack([_exact_mean(np.asarray(embedder.embed(F[a:b]))) for a, b in spans])
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        what = "is NaN" if np.isnan(X[i]).any() else "overflows float64"
        raise ManifestError(f"tracklet {ids[pos[i]]!r}: representation {what}")
    if normalize:
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(X, axis=1, keepdims=True)
        # A norm that overflows, or underflows to 0 on a nonzero row, is
        # retaken on the row scaled by its largest |x|.
        bad = ((~np.isfinite(norms) | (norms == 0.0)) & X.any(axis=1, keepdims=True))[:, 0]
        if bad.any():
            X[bad] /= np.abs(X[bad]).max(axis=1, keepdims=True)
            norms[bad] = np.linalg.norm(X[bad], axis=1, keepdims=True)
        X = np.where(norms > 0.0, X / np.where(norms == 0.0, 1.0, norms), X)
    return tuple(ids[i] for i in pos.tolist()), X


def check_margin(margin: float | str, error: type[Exception]) -> None:
    """Raise error unless margin is "soft" or a finite float >= 0 (NaN is refused)."""
    if isinstance(margin, str):
        if margin != "soft":
            raise error(f"margin must be 'soft' or a non-negative float, got {margin!r}")
    elif not (float(margin) >= 0.0):
        raise error("hard margin must be >= 0")
    elif float(margin) == math.inf:
        raise error("hard margin must be finite")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one triplet-loss fine-tuning run.

    margin is either the string "soft" (softplus formulation, the default)
    or a finite non-negative float used as a hard hinge margin.  The learning
    rate is positive and finite, and decays exponentially: step t uses
    learning_rate * lr_decay**t.
    """

    iterations: int = 25_000
    batch_p: int = 8
    batch_k: int = 4
    margin: float | str = "soft"
    learning_rate: float = 0.05
    lr_decay: float = 0.9999
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.batch_p < 2 or self.batch_k < 2:
            raise ValueError("batch_p and batch_k must both be >= 2")
        check_margin(self.margin, ValueError)
        if not (0.0 < self.learning_rate < math.inf):
            raise ValueError("learning_rate must be positive and finite")
        if not (0.0 < self.lr_decay <= 1.0):
            raise ValueError("lr_decay must be in (0, 1]")


# Iteration budget used when training on a labeled source domain, which is
# typically run once and can afford a longer schedule than adaptation rounds.
SOURCE_ITERATIONS = 50_000


@dataclass(frozen=True)
class AdaptConfig:
    """Knobs for clustering and the adaptation loop.

    K: reciprocal-rank threshold; an edge survives if its rank weight <= K.
    T: cardinality threshold; a component becomes a cluster if size > T.
    k1: out-degree of the rank graph (defaults to K when omitted).
    I: number of cluster/fine-tune rounds.
    cluster_cap: soft upper bound on the expected number of distinct people;
        adaptation stops early when a round yields more clusters than this.
    connectivity: "weak" (default) or "strong" component semantics.
    normalize: L2-normalize tracklet representations when adapt() builds
        each round's neighbor index; cluster() reads the index it is given.
    """

    K: int = 2
    T: int = 2
    k1: int | None = None
    I: int = 2
    cluster_cap: int = 850
    train: TrainConfig = field(default_factory=TrainConfig)
    connectivity: str = "weak"
    normalize: bool = False

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be a positive integer")
        if self.T < 1:
            raise ValueError("T must be a positive integer")
        if self.I < 0:
            raise ValueError("I must be >= 0")
        if self.cluster_cap < 1:
            raise ValueError("cluster_cap must be positive")
        if self.connectivity not in ("weak", "strong"):
            raise ValueError(f"connectivity must be 'weak' or 'strong', got {self.connectivity!r}")
        if self.k1 is None:
            object.__setattr__(self, "k1", self.K)
        elif self.k1 < 1:
            raise ValueError("k1 must be a positive integer")
        if self.k1 < self.K:
            warnings.warn(
                f"k1={self.k1} is smaller than K={self.K}; an edge s->t is kept iff t is "
                "within s's first k1 cross-camera neighbors and s within t's first K, "
                "so each tracklet keeps at most k1 out-edges (weights up to K still survive)",
                stacklevel=3,  # past the generated __init__ to the caller
            )


def default_kt(n_cameras: int) -> tuple[int, int]:
    """Default (K, T) for a manifest with the given camera count.

    Two-camera domains use (1, 1); anything wider uses (2, 2).
    """
    if n_cameras < 2:
        raise ValueError("need at least two cameras")
    return (1, 1) if n_cameras == 2 else (2, 2)
