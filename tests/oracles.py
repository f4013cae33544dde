"""Independent reference implementations used to check the library.

Everything here is deliberately naive pure Python (math.dist, sorted, BFS)
so it shares no code path with the package: same definitions, different
algorithms.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from reidapt import (
    BatchError,
    DomainManifest,
    EvaluationError,
    GenerationError,
    SyntheticSpec,
    Tracklet,
    manifest_embeddings,
)


def mean_vector(tracklet: Tracklet) -> list[float]:
    n = tracklet.n_frames
    return [math.fsum(tracklet.frames[:, j]) / n for j in range(tracklet.dim)]


def naive_sorted_list(m: DomainManifest, tid: str) -> list[str]:
    """Cross-camera ids of tid sorted by (euclidean distance, id)."""
    me = m.by_id[tid]
    mine = mean_vector(me)
    rows = []
    for t in m.tracklets:
        if t.camera_id == me.camera_id:
            continue
        rows.append((math.dist(mine, mean_vector(t)), t.tracklet_id))
    rows.sort()
    return [tid2 for _, tid2 in rows]


def naive_rank(m: DomainManifest, s: str, t: str) -> int:
    """1-based rank of s inside t's cross-camera list."""
    return naive_sorted_list(m, t).index(s) + 1


def naive_cluster(m: DomainManifest, K: int, T: int, k1: int):
    """From-scratch clustering: ranks, edges, BFS components, size filter.

    Returns (set of frozensets, frozenset of unclustered ids).
    """
    ids = sorted(t.tracklet_id for t in m.tracklets)
    lists = {tid: naive_sorted_list(m, tid) for tid in ids}

    edges = []
    for s in ids:
        for t in lists[s][:k1]:
            weight = lists[t].index(s) + 1
            if weight <= K:
                edges.append((s, t))
    return _bfs_clusters(ids, edges, T)


def bfs_components(ids, edges) -> list[frozenset]:
    """Weak components: BFS over the edges with their direction ignored."""
    adj = {tid: set() for tid in ids}
    for s, t in edges:
        adj[s].add(t)
        adj[t].add(s)

    seen = set()
    components = []
    for start in ids:
        if start in seen:
            continue
        comp = set()
        queue = [start]
        seen.add(start)
        while queue:
            node = queue.pop(0)
            comp.add(node)
            for nxt in sorted(adj[node]):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        components.append(frozenset(comp))
    return components


def reachability_components(ids, edges) -> list[frozenset]:
    """Strong components: u and v share one iff each reaches the other.

    Reachability is the reflexive transitive closure of the edge relation,
    grown to a fixed point by repeated composition.
    """
    reach = {v: {v} for v in ids}
    for s, t in edges:
        reach[s].add(t)
    changed = True
    while changed:
        changed = False
        for v in ids:
            grown = set().union(*(reach[u] for u in reach[v]))
            if grown != reach[v]:
                reach[v] = grown
                changed = True
    return list({frozenset(u for u in reach[v] if v in reach[u]) for v in ids})


def _bfs_clusters(ids, edges, T: int):
    components = bfs_components(ids, edges)
    clusters = {c for c in components if len(c) > T}
    unclustered = frozenset().union(*(c for c in components if len(c) <= T)) if any(
        len(c) <= T for c in components
    ) else frozenset()
    return clusters, unclustered


# --------------------------------------------------------------------------
# Dense reference index: the n x n distance matrix and full stable sorts the
# library used before it kept only the heads of the lists.


def dense_sq_dists(X: np.ndarray, block: int = 256) -> np.ndarray:
    """All squared distances from blocked coordinate differences."""
    n = X.shape[0]
    d2 = np.empty((n, n), dtype=np.float64)
    for start in range(0, n, block):
        diff = X[start : start + block, None, :] - X[None, :, :]
        d2[start : start + block] = np.einsum("ijk,ijk->ij", diff, diff)
    return d2


def dense_index(m: DomainManifest, embedder=None, normalize: bool = False):
    """(ids, lists, ranks): every full cross-camera list and an n x n rank matrix.

    lists[i] holds row indices sorted by (distance, id); ranks[i, j] is the
    1-based rank of j in i's list, 0 for same-camera pairs.
    """
    ids, X = manifest_embeddings(m, embedder=embedder, normalize=normalize)
    cams = np.array([m.by_id[tid].camera_id for tid in ids])
    d2 = dense_sq_dists(X)
    n = len(ids)
    lists = []
    ranks = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        cand = np.flatnonzero(cams != cams[i])
        order = cand[np.argsort(d2[i, cand], kind="stable")]
        lists.append(order)
        ranks[i, order] = np.arange(1, len(order) + 1)
    return ids, lists, ranks


def dense_edges(lists, ranks, k1: int) -> list[tuple[int, int, int]]:
    """(s, t, weight) for t in s's first k1, weight = rank of s in t's list."""
    return [(s, int(t), int(ranks[t, s])) for s, lst in enumerate(lists) for t in lst[:k1]]


def dense_cluster(m: DomainManifest, K: int, T: int, k1: int):
    """naive_cluster on the dense reference index; same return shape."""
    ids, lists, ranks = dense_index(m)
    edges = [(ids[s], ids[t]) for s, t, w in dense_edges(lists, ranks, k1) if w <= K]
    return _bfs_clusters(ids, edges, T)


# --------------------------------------------------------------------------
# Evaluation references: build_ranking as it was before it ranked blocks of
# queries on integer codes, and the per-pair loop inter_intra_distances ran.


@dataclass(frozen=True, eq=False)
class NaiveQueryRanking:
    """One query's full ranking: the record build_ranking used to return."""

    query_id: str
    gallery_ids: tuple[str, ...]
    distances: np.ndarray
    relevant: np.ndarray  # boolean mask aligned with gallery_ids


def naive_ranking(
    m: DomainManifest,
    embedder=None,
    queries=None,
    normalize: bool = False,
) -> tuple[NaiveQueryRanking, ...]:
    """Rank the manifest for each query tracklet.

    Every tracklet must carry an identity label.  For each query the gallery
    is every other tracklet except same-camera entries of the same identity;
    it is sorted by ascending true Euclidean distance with ties broken by
    ascending tracklet_id.  queries defaults to all tracklet ids.
    """
    for t in m.tracklets:
        if t.identity is None:
            raise EvaluationError(f"tracklet {t.tracklet_id!r} is unlabeled")
    ids, X = manifest_embeddings(m, embedder=embedder, normalize=normalize)
    pos = {tid: i for i, tid in enumerate(ids)}
    cams = [m.by_id[tid].camera_id for tid in ids]
    idents = [m.by_id[tid].identity for tid in ids]

    if queries is None:
        query_ids = list(ids)
    else:
        query_ids = list(queries)
        for q in query_ids:
            if q not in pos:
                raise KeyError(f"unknown query tracklet id {q!r}")

    out = []
    for q in query_ids:
        qi = pos[q]
        keep = [
            j
            for j in range(len(ids))
            if j != qi and not (cams[j] == cams[qi] and idents[j] == idents[qi])
        ]
        keep = np.array(keep, dtype=int)
        diff = X[keep] - X[qi]
        d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        order = keep[np.argsort(d, kind="stable")]  # keep ascends in id: ties -> id order
        dist_sorted = np.sqrt(np.einsum("ij,ij->i", X[order] - X[qi], X[order] - X[qi]))
        dist_sorted.setflags(write=False)
        rel = np.array([idents[j] == idents[qi] for j in order], dtype=bool)
        rel.setflags(write=False)
        out.append(
            NaiveQueryRanking(
                query_id=q,
                gallery_ids=tuple(ids[j] for j in order),
                distances=dist_sorted,
                relevant=rel,
            )
        )
    return tuple(out)


def naive_inter_intra_distances(clusters, truth: DomainManifest, method: str):
    """(intra, inter) by one distance per cluster pair, in ascending id order.

    "centroid" uses np.linalg.norm of the centroid difference; "min-pairwise"
    the smallest member-to-member distance from coordinate differences.
    """
    ids, X = manifest_embeddings(truth)
    pos = {tid: i for i, tid in enumerate(ids)}
    ordered = sorted(clusters.clusters, key=lambda c: c.cluster_id)
    rows = [[pos[tid] for tid in sorted(c.members)] for c in ordered]
    majorities = []
    for c in ordered:
        counts = Counter(truth.by_id[tid].identity for tid in c.members)
        majorities.append(min(counts, key=lambda ident: (-counts[ident], ident)))
    intra, inter = [], []
    for i in range(len(ordered)):
        for j in range(i + 1, len(ordered)):
            if method == "centroid":
                d = float(np.linalg.norm(X[rows[i]].mean(axis=0) - X[rows[j]].mean(axis=0)))
            else:
                diff = X[rows[i]][:, None, :] - X[rows[j]][None, :, :]
                d = float(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)).min())
            (intra if majorities[i] == majorities[j] else inter).append(d)
    return intra, inter


def naive_average_precision(relevant_flags) -> float:
    """AP by explicit precision-at-cutoff enumeration."""
    total = sum(bool(f) for f in relevant_flags)
    if total == 0:
        raise ValueError("no relevant items")
    hits = 0
    acc = 0.0
    for k, flag in enumerate(relevant_flags, 1):
        if flag:
            hits += 1
            acc += hits / k
    return acc / total


def random_manifest(
    rng: np.random.Generator,
    max_tracklets: int = 50,
    max_cameras: int = 5,
    max_dim: int = 8,
    name: str = "rand",
) -> DomainManifest:
    """Random valid multi-camera manifest with unlabeled tracklets."""
    n_cams = int(rng.integers(2, max_cameras + 1))
    n = int(rng.integers(n_cams, max_tracklets + 1))
    dim = int(rng.integers(1, max_dim + 1))
    # First n_cams tracklets pin one per camera so every camera is non-empty.
    cams = [f"cam{c}" for c in range(n_cams)]
    assignment = [cams[i] if i < n_cams else cams[int(rng.integers(n_cams))] for i in range(n)]
    order = rng.permutation(n)  # insertion order differs from id order
    tracklets = []
    for i in order:
        n_frames = int(rng.integers(1, 5))
        frames = rng.normal(size=(n_frames, dim))
        tracklets.append(
            Tracklet(
                tracklet_id=f"t{i:03d}",
                camera_id=assignment[i],
                frames=frames,
                identity=None,
            )
        )
    return DomainManifest(name=name, tracklets=tuple(tracklets))


def fd_gradient(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function on a flat array."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    denom = max(na, nb, 1e-12)
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b))) / denom


# Loop references: the training step as the library wrote it before batches
# were gathered from one flat frame array, the loss before it validated from
# its label mask, and the distance kernel before it repeated the rows of A.
# Kept verbatim (only renamed) so the fast forms can be held to their bytes.

_LOOP_DIFF_ELEMENTS = 1 << 18


def loop_exact_sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared distances from A[i] to the rows of B (c, d) or of B[i] (len(A), c, d)."""
    out = np.empty((len(A), B.shape[-2]), dtype=np.float64)
    step = max(1, _LOOP_DIFF_ELEMENTS // max(1, B.shape[-2] * A.shape[1]))
    for a in range(0, len(A), step):
        diff = A[a : a + step, None, :] - (B if B.ndim == 2 else B[a : a + step])
        out[a : a + step] = np.einsum("ijk,ijk->ij", diff, diff)
    return out


def _loop_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def loop_batch_hard_triplet_loss(embeddings, labels, margin="soft"):
    """Batch-hard triplet loss and its gradient, two masked passes per side."""
    X = np.asarray(embeddings, dtype=np.float64)
    if X.ndim != 2:
        raise BatchError(f"embeddings must be 2-D, got shape {X.shape}")
    y = np.asarray(labels)
    B = X.shape[0]
    if y.shape != (B,):
        raise BatchError(f"labels shape {y.shape} does not match batch size {B}")
    uniq, counts = np.unique(y, return_counts=True)
    if len(uniq) < 2:
        raise BatchError("triplets require at least two distinct labels in the batch")
    if counts.min() < 2:
        lonely = uniq[counts.argmin()]
        raise BatchError(f"label {lonely!r} has a single sample; need >= 2 per label")
    if isinstance(margin, str):
        if margin != "soft":
            raise BatchError(f"margin must be 'soft' or a non-negative float, got {margin!r}")
    elif not (float(margin) >= 0.0):
        raise BatchError("hard margin must be >= 0")

    D = np.sqrt(loop_exact_sq_dists(X, X))

    same = y[:, None] == y[None, :]
    eye = np.eye(B, dtype=bool)
    pos_mask = same & ~eye
    neg_mask = ~same

    d_pos = np.where(pos_mask, D, -np.inf).max(axis=1)
    p_idx = np.where(pos_mask, D, -np.inf).argmax(axis=1)
    d_neg = np.where(neg_mask, D, np.inf).min(axis=1)
    n_idx = np.where(neg_mask, D, np.inf).argmin(axis=1)

    raw = d_pos - d_neg
    if margin == "soft":
        losses = np.logaddexp(0.0, raw)
        w = _loop_sigmoid(raw)
    else:
        losses = np.maximum(0.0, float(margin) + raw)
        w = (losses > 0.0).astype(np.float64)
    loss = float(losses.mean())

    def _unit(rows):
        vec = X - X[rows]
        norm = D[np.arange(B), rows]
        safe = np.where(norm > 0.0, norm, 1.0)
        return np.where((norm > 0.0)[:, None], vec / safe[:, None], 0.0)

    u_pos = _unit(p_idx)
    u_neg = _unit(n_idx)
    scale = (w / B)[:, None]
    grad = scale * (u_pos - u_neg)
    np.add.at(grad, p_idx, -scale * u_pos)
    np.add.at(grad, n_idx, scale * u_neg)
    return loss, grad


def loop_train_embedder(embedder, clusters, m: DomainManifest, cfg):
    """train_embedder with one frame pool per cluster and a concatenated batch."""
    pools = []
    for c in sorted(clusters.clusters, key=lambda c: c.cluster_id):
        pools.append(np.concatenate([m.by_id[tid].frames for tid in sorted(c.members)], axis=0))
    rng = np.random.default_rng(cfg.seed)
    out = embedder.clone()
    params = out.param_vector()

    n_pools = len(pools)
    P = min(cfg.batch_p, n_pools)
    for step in range(cfg.iterations):
        chosen = rng.choice(n_pools, size=P, replace=False)
        parts = []
        labels = np.repeat(chosen, cfg.batch_k)
        for ci in chosen:
            pool = pools[ci]
            if len(pool) >= cfg.batch_k:
                sel = rng.choice(len(pool), size=cfg.batch_k, replace=False)
            else:
                sel = rng.integers(0, len(pool), size=cfg.batch_k)
            parts.append(pool[sel])
        x = np.concatenate(parts, axis=0)

        yhat = out.embed(x)
        loss, gy = loop_batch_hard_triplet_loss(yhat, labels, cfg.margin)
        grad = out.param_grad(x, gy)
        lr = cfg.learning_rate * cfg.lr_decay**step
        if params.size:
            params = params - lr * grad
            out.set_param_vector(params)
    return out


def loop_violations(m: DomainManifest) -> tuple[tuple[str, str], ...]:
    """validate_manifest's (kind, message) pairs, tracklet by tracklet in plain Python."""
    if not m.tracklets:
        return (("empty-manifest", "manifest has no tracklets"),)
    counts = Counter(t.tracklet_id for t in m.tracklets)
    out = [("duplicate-id", f"tracklet id {tid!r} appears {c} times")
           for tid, c in sorted(counts.items()) if c > 1]
    ref_dim = next((t.dim for t in m.tracklets if t.n_frames), None)
    for t in m.tracklets:
        if t.n_frames == 0:
            out.append(("empty-frames", f"tracklet {t.tracklet_id!r} has no frames"))
            continue
        if not all(math.isfinite(x) for row in t.frames.tolist() for x in row):
            out.append(("non-finite", f"tracklet {t.tracklet_id!r} contains NaN or Inf"))
        if t.dim != ref_dim:
            out.append(("dim-mismatch",
                        f"tracklet {t.tracklet_id!r} has dim {t.dim}, manifest dim {ref_dim}"))
    return tuple(out)


# The synthetic generator as the library wrote it before centroids were
# placed in bulk and the frames were drawn into one matrix.  Kept verbatim
# (only renamed) so the fast forms can be held to their bytes.

LOOP_PLACEMENT_TRIES = 500


def loop_place_centroids(rng: np.random.Generator, spec: SyntheticSpec) -> np.ndarray:
    sep = spec.identity_separation
    extent = sep * max(2.0, 2.0 * spec.identities ** (1.0 / spec.dim))
    if not np.isfinite(extent):
        raise GenerationError(f"separation {sep} places centroids past the float64 range")
    placed = np.empty((spec.identities, spec.dim), dtype=np.float64)
    for i in range(spec.identities):
        for _ in range(LOOP_PLACEMENT_TRIES):
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


def loop_generate_synthetic_domain(spec: SyntheticSpec) -> DomainManifest:
    rng = np.random.default_rng(spec.seed)
    centroids = loop_place_centroids(rng, spec)

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
