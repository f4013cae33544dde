"""Rank-weighted neighbor graph and its reduction to tracklet clusters.

Pipeline: build_graph wires each tracklet to its k1 best cross-camera
neighbors, weighting every edge s->t by the rank of s in t's own list.
threshold_graph keeps edges with weight <= K, connected_subgraphs splits the
survivors into components, and cluster_set promotes components larger than T
to numbered clusters.  cluster() composes the whole chain for a manifest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import AdaptConfig, ClusterAssignment, DomainManifest
from .neighbors import NeighborIndex, build_neighbor_index


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    weight: int


@dataclass(frozen=True)
class ReciprocalGraph:
    """Directed graph over tracklet ids with positive integer rank weights."""

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def out_degree(self, vertex: str) -> int:
        return sum(1 for e in self.edges if e.src == vertex)


@dataclass(frozen=True)
class ClusterSet:
    """Clusters plus the ids that did not make it into any cluster."""

    clusters: tuple[ClusterAssignment, ...]
    unclustered: frozenset[str]

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


def build_graph(idx: NeighborIndex, k1: int) -> ReciprocalGraph:
    """Directed rank graph: s -> t for each t in top_k(k1, s), weight e(s, t)."""
    if k1 < 1:
        raise ValueError("k1 must be a positive integer")
    heads = idx.heads(k1)
    src, col = np.nonzero(heads >= 0)
    dst = heads[src, col]
    # e(s, t) is the rank of s in t's list, not t's rank in s's list.
    weights = idx.ranks(dst, src)
    ids = idx.ids
    edges = tuple(
        Edge(ids[s], ids[t], w) for s, t, w in zip(src.tolist(), dst.tolist(), weights.tolist())
    )
    return ReciprocalGraph(vertices=tuple(ids), edges=edges)


def threshold_graph(g: ReciprocalGraph, K: int) -> ReciprocalGraph:
    """Drop edges with weight > K.  Vertices are kept even when isolated."""
    if K < 1:
        raise ValueError("K must be a positive integer")
    return ReciprocalGraph(
        vertices=g.vertices,
        edges=tuple(e for e in g.edges if e.weight <= K),
    )


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _weak_components(g: ReciprocalGraph) -> list[frozenset[str]]:
    uf = _UnionFind(g.vertices)
    for e in g.edges:
        uf.union(e.src, e.dst)
    groups: dict[str, set[str]] = {}
    for v in g.vertices:
        groups.setdefault(uf.find(v), set()).add(v)
    return [frozenset(s) for s in groups.values()]


def _strong_components(g: ReciprocalGraph) -> list[frozenset[str]]:
    # Kosaraju with iterative DFS; vertices visited in sorted order so the
    # result is deterministic.
    adj: dict[str, list[str]] = {v: [] for v in g.vertices}
    radj: dict[str, list[str]] = {v: [] for v in g.vertices}
    for e in g.edges:
        adj[e.src].append(e.dst)
        radj[e.dst].append(e.src)
    for v in adj:
        adj[v].sort()
        radj[v].sort()

    seen: set[str] = set()
    finish_order: list[str] = []
    for start in sorted(g.vertices):
        if start in seen:
            continue
        stack: list[tuple[str, int]] = [(start, 0)]
        seen.add(start)
        while stack:
            node, ptr = stack[-1]
            if ptr < len(adj[node]):
                stack[-1] = (node, ptr + 1)
                nxt = adj[node][ptr]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, 0))
            else:
                stack.pop()
                finish_order.append(node)

    assigned: set[str] = set()
    components: list[frozenset[str]] = []
    for start in reversed(finish_order):
        if start in assigned:
            continue
        comp = {start}
        assigned.add(start)
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nxt in radj[node]:
                if nxt not in assigned:
                    assigned.add(nxt)
                    comp.add(nxt)
                    frontier.append(nxt)
        components.append(frozenset(comp))
    return components


def connected_subgraphs(g: ReciprocalGraph, connectivity: str = "weak") -> list[frozenset[str]]:
    """Components of the graph, ordered by their smallest member id.

    Weak connectivity (the default) ignores edge direction; "strong" gives
    strongly connected components for ablation.
    """
    if connectivity == "weak":
        comps = _weak_components(g)
    elif connectivity == "strong":
        comps = _strong_components(g)
    else:
        raise ValueError(f"connectivity must be 'weak' or 'strong', got {connectivity!r}")
    return sorted(comps, key=min)


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


def cluster(m: DomainManifest, cfg: AdaptConfig, embedder=None) -> ClusterSet:
    """Full unsupervised clustering of one manifest.

    Identity labels are never consulted; only geometry in the (embedded)
    feature space matters.
    """
    idx = build_neighbor_index(m, embedder=embedder, normalize=cfg.normalize)
    g = threshold_graph(build_graph(idx, cfg.k1), cfg.K)
    comps = connected_subgraphs(g, connectivity=cfg.connectivity)
    return cluster_set(comps, cfg.T)
