"""Independent reference results for the benchmark's output checks.

Nothing here imports reidapt: the files the CLI wrote are checked against
results recomputed from the same input files, so a faster program that
changes an output is caught even when its own code agrees with itself.  The
rules reproduced are those of the seed release:

- A tracklet is the exact (math.fsum) mean of its frames, embedded by the
  checkpoint first when one is given; tracklets are ordered by id.
- Cross-camera neighbor lists are ordered by (distance, id).  The edge
  s -> t exists for t in s's first k1 and survives when s is within t's
  first K; weakly connected components larger than T are clusters, numbered
  by their smallest member id.
- Retrieval drops same-camera matches of the query's identity and ranks the
  rest by (distance, id).

Only the first max(k1, K) neighbors are needed.  They are preselected with a
GEMM distance and recomputed exactly from coordinate differences; a row is
recomputed in full when the GEMM error could have hidden a neighbor.
"""

from __future__ import annotations

import json
import math
import struct
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Elements of a coordinate-difference tensor built at once; keeps the checker small in memory.
_DIFF_ELEMENTS = 1 << 22


@dataclass(frozen=True)
class Domain:
    ids: tuple[str, ...]  # ascending
    cameras: np.ndarray  # integer camera code per tracklet
    identities: tuple[str, ...]
    frames: tuple[np.ndarray, ...]


def read_domain(manifest, sidecar=None) -> Domain:
    rows = None
    if sidecar is not None:
        blob = Path(sidecar).read_bytes()
        magic, n, dim = struct.unpack_from("<4sII", blob)
        if magic != b"KTF1":
            raise ValueError(f"{sidecar}: bad magic")
        rows = np.frombuffer(blob, dtype="<f4", offset=12).reshape(n, dim).astype(np.float64)
    recs = []
    for line in Path(manifest).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if "frames" in rec:
            frames = np.asarray(rec["frames"], dtype=np.float64)
        else:
            ref = rec["frames_ref"]
            frames = rows[ref["offset"] : ref["offset"] + ref["count"]]
        recs.append((rec["tracklet_id"], rec["camera_id"], rec["identity"], frames))
    recs.sort(key=lambda r: r[0])
    cams = sorted({r[1] for r in recs})
    return Domain(
        ids=tuple(r[0] for r in recs),
        cameras=np.array([cams.index(r[1]) for r in recs]),
        identities=tuple(r[2] for r in recs),
        frames=tuple(r[3] for r in recs),
    )


def read_linear_checkpoint(path) -> tuple[np.ndarray, np.ndarray]:
    """(W, b) of a KTE1 linear checkpoint."""
    blob = Path(path).read_bytes()
    header = struct.Struct("<4sIIIIQIQ")
    magic, kind, d_in, _hidden, d_out, _seed, _round, n_params = header.unpack_from(blob)
    if magic != b"KTE1" or kind != 1 or n_params != d_in * d_out + d_out:
        raise ValueError(f"{path}: not a linear checkpoint")
    params = np.frombuffer(blob, dtype="<f8", offset=header.size)
    return params[: d_in * d_out].reshape(d_in, d_out), params[d_in * d_out :]


def representations(domain: Domain, checkpoint=None) -> np.ndarray:
    W, b = read_linear_checkpoint(checkpoint) if checkpoint is not None else (None, None)
    reps = []
    for frames in domain.frames:
        x = frames if W is None else frames @ W + b
        reps.append([math.fsum(col) / x.shape[0] for col in x.T])
    return np.array(reps, dtype=np.float64)


def _sq_dists(X: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Exact squared distances for row i against cols[i] (cols is (len(rows), m))."""
    out = np.empty(cols.shape, dtype=np.float64)
    step = max(1, _DIFF_ELEMENTS // max(1, cols.shape[1] * X.shape[1]))
    for a in range(0, len(rows), step):
        diff = X[cols[a : a + step]] - X[rows[a : a + step], None, :]
        out[a : a + step] = np.einsum("ijk,ijk->ij", diff, diff)
    return out


def _sorted_by_distance(X, rows, cols) -> np.ndarray:
    d2 = _sq_dists(X, rows, cols)
    return np.take_along_axis(cols, np.lexsort((cols, d2), axis=-1), axis=-1)


def cross_camera_top(X: np.ndarray, cams: np.ndarray, m: int) -> np.ndarray:
    """First m cross-camera neighbors of every tracklet, ordered by (distance, index)."""
    n = X.shape[0]
    n_other = int(min(np.sum(cams != c) for c in np.unique(cams)))
    m = min(m, n_other)
    width = min(m + 8, n_other)
    sq = np.einsum("ij,ij->i", X, X)
    top = np.empty((n, m), dtype=np.int64)
    for a in range(0, n, 1024):
        rows = np.arange(a, min(a + 1024, n))
        approx = sq[rows, None] + sq[None, :] - 2.0 * (X[rows] @ X.T)
        approx[cams[rows, None] == cams[None, :]] = np.inf
        cand = np.argpartition(approx, width - 1, axis=1)[:, :width]
        best = _sorted_by_distance(X, rows, cand)[:, :m]
        # Every non-candidate lies at least its GEMM value minus the GEMM
        # error away; rows where that could beat the m-th neighbor are redone.
        np.put_along_axis(approx, cand, np.inf, axis=1)
        boundary = approx.min(axis=1)
        kth = _sq_dists(X, rows, best[:, -1:])[:, 0]
        tol = 1e-9 * (sq[rows] + sq.max())  # far above the ~dim * eps error of the GEMM form
        for i in np.flatnonzero(~(boundary - tol > kth)):
            other = np.flatnonzero(cams != cams[rows[i]])
            best[i] = _sorted_by_distance(X, rows[i : i + 1], other[None, :])[0, :m]
        top[rows] = best
    return top


def cluster(X: np.ndarray, cams: np.ndarray, K: int, T: int, k1: int | None = None):
    """(clusters, unclustered): member index lists, clusters ordered by smallest member."""
    k1 = K if k1 is None else k1
    top = cross_camera_top(X, cams, max(k1, K))
    n = X.shape[0]
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    in_top_K = [set(row[:K].tolist()) for row in top]
    for s in range(n):
        for t in top[s, :k1].tolist():
            if s in in_top_K[t]:
                parent[find(t)] = find(s)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    comps = sorted(groups.values(), key=min)
    clusters = [c for c in comps if len(c) > T]
    unclustered = sorted(i for c in comps if len(c) <= T for i in c)
    return clusters, unclustered


def assignments_tsv(ids, clusters, unclustered) -> str:
    lines = []
    for cid, members in enumerate(clusters):
        lines += [f"{cid}\t{ids[i]}" for i in sorted(members, key=lambda i: ids[i])]
    lines += [f"-1\t{ids[i]}" for i in sorted(unclustered, key=lambda i: ids[i])]
    return "".join(line + "\n" for line in lines)


def retrieval(X, domain: Domain, ranks, queries=None) -> tuple[dict, float]:
    """(CMC by rank, mAP) over the given query indices (all by default)."""
    n = X.shape[0]
    queries = np.arange(n) if queries is None else np.asarray(queries)
    idents = np.array(domain.identities)
    firsts, aps = [], []
    step = max(1, _DIFF_ELEMENTS // (n * X.shape[1]))
    everyone = np.arange(n)
    for a in range(0, len(queries), step):
        qs = queries[a : a + step]
        d = np.sqrt(_sq_dists(X, qs, np.broadcast_to(everyone, (len(qs), n))))
        dropped = (everyone[None, :] == qs[:, None]) | (
            (domain.cameras[None, :] == domain.cameras[qs, None])
            & (idents[None, :] == idents[qs, None])
        )
        d[dropped] = np.inf
        order = np.argsort(d, axis=1, kind="stable")
        relevant = (idents[order] == idents[qs, None]) & ~np.take_along_axis(dropped, order, axis=1)
        for row in relevant:
            hits = np.flatnonzero(row)
            if hits.size == 0:
                raise ValueError("query without a relevant gallery item")
            firsts.append(hits[0] + 1)
            aps.append(float((np.arange(1, hits.size + 1, dtype=np.float64) / (hits + 1)).mean()))
    firsts = np.array(firsts)
    return {str(k): float((firsts <= k).mean()) for k in ranks}, float(np.mean(aps))


def _majority(idents: list[str]) -> str:
    counts = Counter(idents)
    return min(counts, key=lambda ident: (-counts[ident], ident))


def cluster_quality(clusters, domain: Domain) -> tuple[dict, float]:
    """(GC/MC/DC/MC+DC counts, mean majority purity)."""
    rows = [[domain.identities[i] for i in c] for c in clusters]
    seen_in = Counter(ident for row in rows for ident in set(row))
    counts = {"GC": 0, "MC": 0, "DC": 0, "MC+DC": 0}
    purities = []
    for row in rows:
        uniq = set(row)
        shared = any(seen_in[ident] > 1 for ident in uniq)
        kind = ("DC" if shared else "GC") if len(uniq) == 1 else ("MC+DC" if shared else "MC")
        counts[kind] += 1
        purities.append(row.count(_majority(row)) / len(row))
    return counts, float(np.mean(purities))


def mean_intra_inter(X, clusters, domain: Domain) -> tuple[float | None, float | None]:
    """Mean centroid distance between clusters sharing / not sharing a majority identity."""
    if len(clusters) < 2:
        return None, None
    centroids = np.vstack([X[sorted(c)].mean(axis=0) for c in clusters])
    majorities = np.array([_majority([domain.identities[i] for i in c]) for c in clusters])
    i, j = np.triu_indices(len(clusters), k=1)
    d = np.linalg.norm(centroids[i] - centroids[j], axis=1)
    same = majorities[i] == majorities[j]
    return (float(d[same].mean()) if same.any() else None,
            float(d[~same].mean()) if (~same).any() else None)


def eval_summary(domain: Domain, X: np.ndarray, K: int, T: int, ranks=(1, 5, 10, 20)) -> dict:
    """The fields of `reidapt eval`'s summary.json, recomputed."""
    cmc, mean_ap = retrieval(X, domain, ranks)
    clusters, _ = cluster(X, domain.cameras, K, T)
    counts, purity = cluster_quality(clusters, domain) if clusters else (None, None)
    intra, inter = mean_intra_inter(X, clusters, domain)
    return {
        "cmc": cmc,
        "map": mean_ap,
        "clusters": len(clusters),
        "cluster_counts": counts,
        "purity": purity,
        "mean_inter_distance": inter,
        "mean_intra_distance": intra,
    }


# Ranks and counts must match exactly.  mAP and purity are means of floats, so
# a different summation order may change the last bits; the centroid distances
# also depend on the order of the embedding matmul.
ABS_TOL = {"map": 1e-12, "purity": 1e-12}
REL_TOL = {"mean_inter_distance": 1e-9, "mean_intra_distance": 1e-9}


def compare_summary(got: dict, want: dict) -> list[str]:
    """Differences between an eval summary.json and the reference, as messages."""
    problems = []
    for key, expected in want.items():
        value = got.get(key)
        if key in ABS_TOL or key in REL_TOL:
            if (value is None) != (expected is None):
                ok = False
            elif value is None:
                ok = True
            else:
                ok = math.isclose(value, expected, rel_tol=REL_TOL.get(key, 0.0),
                                  abs_tol=ABS_TOL.get(key, 0.0))
        else:
            ok = value == expected
        if not ok:
            problems.append(f"summary {key}: got {value!r}, reference {expected!r}")
    return problems
