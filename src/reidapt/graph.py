"""Rank-weighted neighbor graph and its reduction to tracklet clusters.

Pipeline: build_graph wires each tracklet to its k1 best cross-camera
neighbors, weighting every edge s->t by the rank of s in t's own list.
threshold_graph keeps edges with weight <= K, connected_subgraphs splits the
survivors into components, and cluster_set promotes components larger than T
to numbered clusters.  cluster() composes the whole chain on the index a
command builds once.  It only needs to know which weights are <= K, and
both halves of that rule (t among s's first k1, s among t's first K) are
read from one heads(max(k1, K)) call: cluster() builds with
build_graph(..., K=), which reports every weight above K as K+1, and never
computes an exact rank.

Layout.  A ReciprocalGraph holds the tracklet ids in ascending order
(`vertices`) and three parallel read-only integer arrays: edge i runs from
vertices[src[i]] to vertices[dst[i]] with rank weight weight[i] (K+1 for
"above K" when built with K).  Edges are ordered by source, then by the
target's rank in the source's list, which is how the neighbor index's
heads() lays them out; thresholding is one boolean mask over the arrays and
keeps that order.

Components.  One routine, _strong_components, finds the strongly connected
components with an iterative Kosaraju over integer adjacency lists.  Weak
components are the strong components of the symmetrised graph, so "weak"
mode passes every edge in both directions and "strong" mode passes the
edges as they are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import AdaptConfig, ClusterAssignment
from .neighbors import NeighborIndex


@dataclass(frozen=True, eq=False)
class ReciprocalGraph:
    """Directed graph over tracklet ids with positive integer rank weights.

    Edge i runs from vertices[src[i]] to vertices[dst[i]] with weight[i].
    """

    vertices: tuple[str, ...]
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        for name in ("src", "dst", "weight"):
            a = np.array(getattr(self, name), dtype=np.intp)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        if not (self.src.ndim == 1 and self.src.shape == self.dst.shape == self.weight.shape):
            raise ValueError("src, dst and weight must be 1-D arrays of one length")


@dataclass(frozen=True)
class ClusterSet:
    """Clusters, kept in ascending id order, plus the ids in no cluster.

    Cluster ids are distinct, and each tracklet id sits in one cluster or
    in unclustered, never in two places: a ValueError names the first
    repeat otherwise.
    """

    clusters: tuple[ClusterAssignment, ...]
    unclustered: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "clusters", tuple(sorted(self.clusters, key=lambda c: c.cluster_id)))
        for a, b in zip(self.clusters, self.clusters[1:]):
            if a.cluster_id == b.cluster_id:
                raise ValueError(f"cluster id {a.cluster_id} appears twice")
        seen: set[str] = set()
        for members in [c.members for c in self.clusters] + [self.unclustered]:
            if not seen.isdisjoint(members):
                raise ValueError(f"tracklet {min(seen.intersection(members))!r} is assigned twice")
            seen.update(members)

    def __len__(self):
        return len(self.clusters)

    @property
    def n_tracklets(self) -> int:
        return sum(len(c.members) for c in self.clusters) + len(self.unclustered)

    @property
    def clustered_fraction(self) -> float:
        total = self.n_tracklets
        if total == 0:
            return 0.0
        return sum(len(c.members) for c in self.clusters) / total

    def labels(self) -> dict[str, int]:
        """tracklet_id -> cluster_id for clustered members, -1 otherwise."""
        out = {tid: -1 for tid in self.unclustered}
        for c in self.clusters:
            for tid in c.members:
                out[tid] = c.cluster_id
        return out


def build_graph(idx: NeighborIndex, k1: int, K: int | None = None) -> ReciprocalGraph:
    """Directed rank graph: s -> t for each t in top_k(k1, s), weight e(s, t).

    Without K every weight is exact.  With K, weights up to K are exact and
    every larger one reads K+1 ("above K"), so threshold_graph(g, K) keeps
    the same edges; both come from one heads(max(k1, K)) call.
    """
    if k1 < 1:
        raise ValueError("k1 must be a positive integer")
    if K is not None and K < 1:
        raise ValueError("K must be a positive integer")
    heads = idx.heads(k1 if K is None else max(k1, K))
    src, col = np.nonzero(heads[:, :k1] >= 0)
    dst = heads[src, col]
    # e(s, t) is the rank of s in t's list, not t's rank in s's list.
    if K is None:
        weight = idx.ranks(dst, src)
    else:
        # heads is exact, so s at column c of t's first K entries has rank c+1.
        # No rank exceeds len(idx) - 1, so a K past it needs no larger fill.
        found = heads[dst, :K] == src[:, None]
        weight = np.where(found.any(axis=1), found.argmax(axis=1) + 1, min(K, len(idx)) + 1)
    return ReciprocalGraph(vertices=idx.ids, src=src, dst=dst, weight=weight)


def threshold_graph(g: ReciprocalGraph, K: int) -> ReciprocalGraph:
    """Drop edges with weight > K.  Vertices are kept even when isolated."""
    if K < 1:
        raise ValueError("K must be a positive integer")
    keep = g.weight <= K
    return ReciprocalGraph(g.vertices, g.src[keep], g.dst[keep], g.weight[keep])


def _strong_components(n: int, src: np.ndarray, dst: np.ndarray) -> list[list[int]]:
    """Strongly connected components of a directed graph on vertices 0..n-1.

    Kosaraju: an iterative depth-first pass over the edges records finishing
    order; a pass over the reversed edges, starting from each vertex still
    unassigned in reverse finishing order, then collects one component each.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    radj: list[list[int]] = [[] for _ in range(n)]
    for s, t in zip(src.tolist(), dst.tolist()):
        adj[s].append(t)
        radj[t].append(s)

    seen = [False] * n
    finish: list[int] = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        stack = [(start, iter(adj[start]))]
        while stack:
            node, succ = stack[-1]
            for v in succ:
                if not seen[v]:
                    seen[v] = True
                    stack.append((v, iter(adj[v])))
                    break
            else:
                stack.pop()
                finish.append(node)

    # Second pass: seen[v] turns False once v is assigned to a component.
    components: list[list[int]] = []
    for start in reversed(finish):
        if not seen[start]:
            continue
        seen[start] = False
        members = [start]
        for node in members:  # grows while it is walked
            for v in radj[node]:
                if seen[v]:
                    seen[v] = False
                    members.append(v)
        components.append(members)
    return components


def connected_subgraphs(g: ReciprocalGraph, connectivity: str = "weak") -> list[frozenset[str]]:
    """Components of the graph, ordered by their smallest member id.

    Weak connectivity (the default) ignores edge direction; "strong" gives
    strongly connected components for ablation.
    """
    if connectivity == "weak":
        src, dst = np.concatenate([g.src, g.dst]), np.concatenate([g.dst, g.src])
    elif connectivity == "strong":
        src, dst = g.src, g.dst
    else:
        raise ValueError(f"connectivity must be 'weak' or 'strong', got {connectivity!r}")
    comps = _strong_components(len(g.vertices), src, dst)
    return sorted((frozenset(g.vertices[i] for i in c) for c in comps), key=min)


def cluster_set(components: list[frozenset[str]], T: int) -> ClusterSet:
    """Promote components with size strictly greater than T to clusters.

    Cluster ids are assigned 0..m-1 in order of each cluster's smallest
    member id.  Everything else lands in the unclustered remainder.
    """
    if T < 1:
        raise ValueError("T must be a positive integer")
    kept = sorted((c for c in components if len(c) > T), key=min)
    clusters = tuple(
        ClusterAssignment(cluster_id=i, members=c) for i, c in enumerate(kept)
    )
    leftover: set[str] = set()
    for c in components:
        if len(c) <= T:
            leftover.update(c)
    return ClusterSet(clusters=clusters, unclustered=frozenset(leftover))


def cluster(idx: NeighborIndex, cfg: AdaptConfig) -> ClusterSet:
    """Full unsupervised clustering of the tracklets in a neighbor index.

    Identity labels are never consulted; only geometry in the index's
    representation space matters.
    """
    g = threshold_graph(build_graph(idx, cfg.k1, K=cfg.K), cfg.K)
    comps = connected_subgraphs(g, connectivity=cfg.connectivity)
    return cluster_set(comps, cfg.T)
