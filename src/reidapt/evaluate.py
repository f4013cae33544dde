"""Retrieval metrics (CMC, mAP) and cluster quality reporting.

Ranking follows the standard single-shot protocol: every query ranks the
rest of the manifest by distance, with same-camera same-identity entries
removed from its gallery.  Cluster quality uses a four-way taxonomy:

  GC     one identity, appearing in no other cluster ("golden")
  MC     two or more identities, none shared with another cluster
  DC     one identity that also appears in at least one other cluster
  MC+DC  two or more identities, at least one shared
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError
from .graph import ClusterSet
from .model import ClusterAssignment, DomainManifest
from .neighbors import NeighborIndex, count_ranks, exact_sq_dists

GC = "GC"
MC = "MC"
DC = "DC"
MC_DC = "MC+DC"


@dataclass(frozen=True, eq=False)
class QueryRanking:
    """hits: 1-based ranks, ascending, of the query's relevant gallery items."""

    query_id: str
    hits: np.ndarray


@dataclass(frozen=True, eq=False)
class RankingResult:
    queries: tuple[QueryRanking, ...]

    def __len__(self):
        return len(self.queries)


def build_ranking(idx: NeighborIndex, truth: DomainManifest, queries=None) -> RankingResult:
    """Rank the index's tracklets, in its representation space, for each query.

    truth supplies identity labels, and every tracklet must carry one.  For
    each query the gallery is every other tracklet except same-camera entries
    of the same identity, ordered by ascending true Euclidean distance with
    ties broken by ascending tracklet_id.  Relevant items are those of the
    query's identity from other cameras.  No gallery is sorted: count_ranks
    counts the items before each relevant one, so a hit rank is exact on
    (distance, id) order.  queries defaults to all ids.
    """
    for t in truth.tracklets:
        if t.identity is None:
            raise EvaluationError(f"tracklet {t.tracklet_id!r} is unlabeled")
    idents = np.unique([truth.by_id[tid].identity for tid in idx.ids], return_inverse=True)[1]

    query_ids = list(idx.ids if queries is None else queries)
    unknown = [q for q in query_ids if q not in idx]
    if unknown:
        raise KeyError(f"unknown query tracklet id {unknown[0]!r}")
    rows = np.array([idx.index_of[q] for q in query_ids], dtype=np.intp)

    # Each query's relevant items: the tracklets of its identity (ids
    # ascending) seen from other cameras.
    members = np.lexsort((idents,))  # stable: ids ascend within an identity
    size = np.bincount(idents)[idents[rows]]
    first = np.searchsorted(idents[members], idents[rows]) - np.cumsum(size) + size
    targets = members[np.repeat(first, size) + np.arange(size.sum())]
    q = np.repeat(np.arange(len(rows)), size)
    keep = idx.codes[targets] != idx.codes[rows[q]]
    q, targets = q[keep], targets[keep]
    ptr = np.r_[0, np.cumsum(np.bincount(q, minlength=len(rows)))]
    hit = count_ranks(idx, rows, ptr, targets, ident=idents, key=np.sqrt)
    # Sort each query's hits: q ascends, and a hit is below len(idx).
    hit = np.sort(q * len(idx) + hit) - q * len(idx)
    hit.setflags(write=False)
    return RankingResult(queries=tuple(map(QueryRanking, query_ids, np.split(hit, ptr[1:-1]))))


def _first_hits(r: RankingResult) -> np.ndarray:
    firsts = np.empty(len(r.queries), dtype=np.int64)
    for i, q in enumerate(r.queries):
        if q.hits.size == 0:
            raise EvaluationError(f"query {q.query_id!r} has no relevant gallery items")
        firsts[i] = q.hits[0]
    return firsts


def cmc(r: RankingResult, ranks=(1, 5, 10, 20)) -> np.ndarray:
    """Cumulative match characteristic at the given ranks.

    cmc[k] is the fraction of queries whose first relevant gallery item
    appears at rank <= k.  Depends only on result order, so any strictly
    monotone rescaling of the distances leaves it unchanged.
    """
    ranks = list(ranks)
    if not ranks or any(k < 1 for k in ranks):
        raise ValueError("ranks must be positive integers")
    if not r.queries:
        raise EvaluationError("ranking holds no queries")
    firsts = np.sort(_first_hits(r))
    return np.searchsorted(firsts, ranks, side="right") / firsts.size


def average_precision(q: QueryRanking) -> float:
    """AP for one query: mean of precision-at-hit over its relevant items."""
    if q.hits.size == 0:
        raise EvaluationError(f"query {q.query_id!r} has no relevant gallery items")
    precisions = np.arange(1, q.hits.size + 1, dtype=np.float64) / q.hits
    return float(precisions.mean())


def mean_average_precision(r: RankingResult) -> float:
    if not r.queries:
        raise EvaluationError("ranking holds no queries")
    return float(np.mean([average_precision(q) for q in r.queries]))


@dataclass(frozen=True)
class ClusterQuality:
    """Per-cluster taxonomy labels, their counts, and mean purity."""

    labels: dict[int, str]
    counts: dict[str, int]
    purity: float


def _identity_profiles(
    clusters: ClusterSet, truth: DomainManifest
) -> list[tuple[ClusterAssignment, Counter, str]]:
    """Per cluster, in cluster-id order: (cluster, identity counts, majority identity).

    Ties for the majority go to the smallest identity string so the choice
    is deterministic.
    """
    profiles = []
    for c in sorted(clusters.clusters, key=lambda c: c.cluster_id):
        counts = Counter()
        for tid in sorted(c.members):
            t = truth.by_id.get(tid)
            if t is None:
                raise EvaluationError(f"clustered tracklet {tid!r} not present in truth manifest")
            if t.identity is None:
                raise EvaluationError(f"clustered tracklet {tid!r} has no ground-truth identity")
            counts[t.identity] += 1
        profiles.append((c, counts, min(counts, key=lambda ident: (-counts[ident], ident))))
    return profiles


def classify_clusters(clusters: ClusterSet, truth: DomainManifest) -> ClusterQuality:
    """Label every cluster GC / MC / DC / MC+DC against ground truth.

    Purity is the mean over clusters of the majority-identity fraction.
    """
    if not clusters.clusters:
        raise EvaluationError("no clusters to classify")
    profiles = _identity_profiles(clusters, truth)
    spread = Counter(ident for _, idents, _ in profiles for ident in idents)

    labels: dict[int, str] = {}
    purities = []
    for c, idents, majority in profiles:
        shared = any(spread[ident] > 1 for ident in idents)
        if len(idents) == 1:
            labels[c.cluster_id] = DC if shared else GC
        else:
            labels[c.cluster_id] = MC_DC if shared else MC
        purities.append(idents[majority] / len(c.members))

    counts = {GC: 0, MC: 0, DC: 0, MC_DC: 0}
    for lab in labels.values():
        counts[lab] += 1
    return ClusterQuality(labels=labels, counts=counts, purity=float(np.mean(purities)))


def inter_intra_distances(
    clusters: ClusterSet,
    truth: DomainManifest,
    idx: NeighborIndex,
    method: str = "centroid",
) -> tuple[list[float], list[float]]:
    """Distances between all cluster pairs, split by majority identity.

    A pair is *intra* when both clusters have the same majority identity
    (the same person split across clusters) and *inter* otherwise.  method
    "centroid" measures between cluster centroids; "min-pairwise" takes the
    minimum distance over member tracklet representations, which are idx.X.

    Returns (intra, inter) lists, ordered by ascending cluster id pairs.
    """
    if method not in ("centroid", "min-pairwise"):
        raise ValueError(f"method must be 'centroid' or 'min-pairwise', got {method!r}")
    if len(clusters.clusters) < 2:
        raise EvaluationError("need at least two clusters to compare distances")
    profiles = _identity_profiles(clusters, truth)
    member_rows = [np.array([idx.index_of[tid] for tid in sorted(c.members)]) for c, _, _ in profiles]
    majorities = np.array([majority for _, _, majority in profiles])

    if method == "centroid":
        centroids = np.vstack([idx.X[rows].mean(axis=0) for rows in member_rows])
        D2 = exact_sq_dists(centroids, centroids)
    else:
        # Row i: cluster i's members against all members, minimised over the
        # former and then over each cluster's slice of the latter.
        members = idx.X[np.concatenate(member_rows)]
        starts = np.cumsum([0] + [len(rows) for rows in member_rows[:-1]])
        D2 = np.vstack([np.minimum.reduceat(exact_sq_dists(idx.X[rows], members).min(axis=0), starts)
                        for rows in member_rows])
    i, j = np.triu_indices(len(profiles), 1)  # pairs in ascending cluster-id order
    d = np.sqrt(D2[i, j])
    intra = majorities[i] == majorities[j]
    return d[intra].tolist(), d[~intra].tolist()
