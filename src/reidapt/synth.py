"""Multi-source domain merging and synthetic domain generation.

merge_domains fuses several labeled manifests into one large training
domain: identities and cameras are namespaced per source, tiny sources and
distractor tracks are dropped, and identities that never cross a camera
boundary are removed (they teach nothing about cross-camera matching).

generate_synthetic_domain builds a fully controlled toy domain: one centroid
per identity, a per-camera affine distortion, i.i.d. Gaussian frame noise.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import GenerationError, ManifestError, MergeError
from .model import DomainManifest, Tracklet

# Reserved labels marking non-person crops; such tracklets never survive a merge.
DISTRACTOR_LABELS = frozenset({"-1", "distractor"})


@dataclass(frozen=True)
class MergePolicy:
    """Rules applied to every source before it joins the merged domain.

    min_identities: sources with fewer cross-camera identities than this are
        dropped entirely (default 201, i.e. sources with at most 200 usable
        identities are excluded).
    require_cross_camera: drop identities seen by a single camera only.
    exclusion_list: source names to skip outright, e.g. to keep a test
        domain out of its own training mixture.
    namespace_ids: prefix tracklet/camera/identity ids with "<source>/".
    """

    min_identities: int = 201
    require_cross_camera: bool = True
    exclusion_list: frozenset[str] = field(default_factory=frozenset)
    namespace_ids: bool = True

    def __post_init__(self):
        object.__setattr__(self, "exclusion_list", frozenset(self.exclusion_list))
        if self.min_identities < 1:
            raise ValueError("min_identities must be positive")


@dataclass(frozen=True)
class SourceSummary:
    """One source's merge outcome and counts.

    reason is None for an included source, and its counts are of what it
    contributes: its tracklets with distractors and (when required)
    single-camera identities removed.  "too-few-identities" counts the same
    curated content, whose identity count fell below policy.min_identities.
    "exclusion-list" counts the source as given, so its distractor labels
    and single-camera identities count as identities; such a source is
    neither validated nor checked for labels.  identities counts distinct
    labels (DomainManifest.identities): an unlabeled tracklet counts toward
    tracklets and images, never toward identities.
    """

    source: str
    included: bool
    reason: str | None
    identities: int
    images: int
    cameras: int
    tracklets: int


@dataclass(frozen=True)
class MergeReport:
    sources: tuple[SourceSummary, ...]
    identities: int
    images: int
    cameras: int
    tracklets: int

    def to_dict(self) -> dict:
        merged = asdict(self)
        return {"sources": list(merged.pop("sources")), "merged": merged}


def _counts(m: DomainManifest) -> tuple[int, int, int, int]:
    images = sum(t.n_frames for t in m.tracklets)
    return len(m.identities), images, len(m.cameras), len(m.tracklets)


def filter_cross_camera(m: DomainManifest) -> DomainManifest:
    """Drop tracklets whose identity appears in fewer than two cameras.

    Requires a fully labeled manifest.  Idempotent: filtering twice gives
    the same result as filtering once.
    """
    seen: dict[str, set[str]] = {}
    for t in m.tracklets:
        if t.identity is None:
            raise ManifestError(f"tracklet {t.tracklet_id!r} is unlabeled")
        seen.setdefault(t.identity, set()).add(t.camera_id)
    kept = tuple(t for t in m.tracklets if len(seen[t.identity]) >= 2)
    return DomainManifest(name=m.name, tracklets=kept)


def merge_domains(
    sources: list[DomainManifest],
    policy: MergePolicy,
) -> tuple[DomainManifest, MergeReport]:
    """Merge labeled source domains into one, applying the policy per source.

    A source on policy.exclusion_list is left out as given.  Every other
    source must be valid and fully labeled; its distractor tracklets are
    dropped, its single-camera identities are removed (when required), and
    it is left out if its surviving identity count falls below
    policy.min_identities.  The included sources' ids are then namespaced
    and everything is concatenated.  Source order in the output follows
    ascending source name.

    Returns the merged manifest and a report with merged totals and, per
    source, its reason and counts: of the curated content for an included
    or too-small source, of the source as given for an excluded one, each
    read from that part's DomainManifest (see SourceSummary).
    """
    if not sources:
        raise MergeError("no source domains given")
    names = [m.name for m in sources]
    if len(set(names)) != len(names):
        raise MergeError(f"duplicate source names: {sorted(names)}")

    summaries: list[SourceSummary] = []
    merged: list[Tracklet] = []
    for src in sorted(sources, key=lambda m: m.name):
        if src.name in policy.exclusion_list:
            usable, reason = src, "exclusion-list"
        else:
            src.validation.check(f"source {src.name!r}", MergeError)
            for t in src.tracklets:
                if t.identity is None:
                    raise MergeError(f"source {src.name!r}: tracklet {t.tracklet_id!r} is unlabeled")
            usable = DomainManifest(
                src.name, tuple(t for t in src.tracklets if t.identity not in DISTRACTOR_LABELS)
            )
            if policy.require_cross_camera:
                usable = filter_cross_camera(usable)
            few = len(usable.identities) < policy.min_identities
            reason = "too-few-identities" if few else None
        summaries.append(SourceSummary(src.name, reason is None, reason, *_counts(usable)))
        if reason is None:
            ns = f"{src.name}/"
            merged.extend(
                Tracklet(ns + t.tracklet_id, ns + t.camera_id, t.frames, ns + t.identity)
                if policy.namespace_ids else t
                for t in usable.tracklets
            )

    if not merged:
        raise MergeError("merge produced no tracklets; every source was excluded or empty")

    name = "+".join(s.source for s in summaries if s.included)
    out = DomainManifest(name=name, tracklets=tuple(merged))
    out.validation.check("merged manifest", MergeError)
    return out, MergeReport(tuple(summaries), *_counts(out))


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape of a generated domain.

    frames_per_tracklet and tracklets_per_identity_per_camera are inclusive
    (lo, hi) ranges.  identity_separation is the minimum pairwise distance
    between identity centroids; camera_shift scales both the linear and the
    translational part of each camera's distortion; noise_sigma is the std
    of the i.i.d. Gaussian noise added to every frame.
    """

    identities: int
    cameras: int
    dim: int
    frames_per_tracklet: tuple[int, int] = (3, 6)
    tracklets_per_identity_per_camera: tuple[int, int] = (1, 2)
    identity_separation: float = 8.0
    camera_shift: float = 0.2
    noise_sigma: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for name in ("frames_per_tracklet", "tracklets_per_identity_per_camera"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if self.identities < 1:
            raise ValueError("identities must be positive")
        if self.cameras < 2:
            raise ValueError("need at least two cameras")
        if self.dim < 1:
            raise ValueError("dim must be positive")
        flo, fhi = self.frames_per_tracklet
        tlo, thi = self.tracklets_per_identity_per_camera
        if not (1 <= flo <= fhi):
            raise ValueError("frames_per_tracklet must satisfy 1 <= lo <= hi")
        if not (0 <= tlo <= thi) or thi < 1:
            raise ValueError("tracklets_per_identity_per_camera must satisfy 0 <= lo <= hi, hi >= 1")
        if not (self.identity_separation > 0.0):
            raise ValueError("identity_separation must be positive")
        if self.camera_shift < 0.0 or self.noise_sigma < 0.0:
            raise ValueError("camera_shift and noise_sigma must be >= 0")


_PLACEMENT_TRIES = 500


def _place_centroids(rng: np.random.Generator, spec: SyntheticSpec) -> np.ndarray:
    sep = spec.identity_separation
    extent = sep * max(2.0, 2.0 * spec.identities ** (1.0 / spec.dim))
    placed = np.empty((spec.identities, spec.dim), dtype=np.float64)
    for i in range(spec.identities):
        for _ in range(_PLACEMENT_TRIES):
            cand = rng.uniform(-extent / 2.0, extent / 2.0, size=spec.dim)
            if i == 0 or np.linalg.norm(placed[:i] - cand, axis=1).min() >= sep:
                placed[i] = cand
                break
        else:
            raise GenerationError(
                f"could not place {spec.identities} centroids with separation {sep} "
                f"in {spec.dim}-d space"
            )
    return placed


def generate_synthetic_domain(spec: SyntheticSpec) -> DomainManifest:
    """Deterministically generate a labeled multi-camera domain.

    Frames of identity p seen by camera c are A_c @ centroid_p + b_c plus
    Gaussian noise, where A_c = I + camera_shift * G_c (G_c a fixed random
    matrix with ~unit gain) and b_c is a translation of length
    camera_shift * identity_separation.  The same seed always yields the
    same manifest.
    """
    rng = np.random.default_rng(spec.seed)
    centroids = _place_centroids(rng, spec)

    cam_linear = []
    cam_offset = []
    for _c in range(spec.cameras):
        G = rng.standard_normal((spec.dim, spec.dim)) / np.sqrt(spec.dim)
        direction = rng.standard_normal(spec.dim)
        norm = np.linalg.norm(direction)
        if norm == 0.0:
            direction = np.zeros(spec.dim)
        else:
            direction = direction / norm
        cam_linear.append(np.eye(spec.dim) + spec.camera_shift * G)
        cam_offset.append(spec.camera_shift * spec.identity_separation * direction)

    tlo, thi = spec.tracklets_per_identity_per_camera
    flo, fhi = spec.frames_per_tracklet
    tracklets: list[Tracklet] = []
    for p in range(spec.identities):
        identity = f"p{p:03d}"
        for c in range(spec.cameras):
            base = cam_linear[c] @ centroids[p] + cam_offset[c]
            n_tracks = int(rng.integers(tlo, thi + 1))
            for t in range(n_tracks):
                n_frames = int(rng.integers(flo, fhi + 1))
                noise = rng.standard_normal((n_frames, spec.dim)) * spec.noise_sigma
                tracklets.append(
                    Tracklet(
                        tracklet_id=f"c{c:02d}_{identity}_t{t}",
                        camera_id=f"cam{c:02d}",
                        frames=base[None, :] + noise,
                        identity=identity,
                    )
                )
    return DomainManifest(name=f"synth-{spec.seed}", tracklets=tuple(tracklets))
