"""Acceptance suite: ten end-to-end checks, one printed verdict line each.

Criteria 6 and 7 share a five-seed adaptation experiment (a dimension-reducing
linear embedder trained on one synthetic domain, then adapted to a disjoint
one); the experiment runs once per session and both tests read its results.
"""

import hashlib
import time

import numpy as np
import pytest

from oracles import (
    fd_gradient,
    naive_average_precision,
    naive_cluster,
    naive_sorted_list,
    random_manifest,
    rel_error,
)
from reidapt import (
    AdaptConfig,
    DomainManifest,
    LinearEmbedder,
    QueryRanking,
    RankingResult,
    SyntheticSpec,
    Tracklet,
    TrainConfig,
    adapt,
    average_precision,
    batch_hard_triplet_loss,
    build_graph,
    build_neighbor_index,
    build_ranking,
    classify_clusters,
    cluster,
    cmc,
    connected_subgraphs,
    generate_synthetic_domain,
    identity_clusters,
    inter_intra_distances,
    k_reciprocal_distance,
    mean_average_precision,
    threshold_graph,
    train_embedder,
)
from reidapt.cli import run


def verdict(number, label, ok, detail=""):
    line = f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}  {label}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def tracklet_1d(tid, cam, x, identity=None):
    return Tracklet(tid, cam, [[float(x)]], identity=identity)


# --------------------------------------------------------------------------
# 1. rank distances agree with a naive full-sort oracle


def test_criterion_01_rank_oracle_equivalence():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(200):
        m = random_manifest(rng, max_tracklets=50, max_cameras=5, max_dim=8)
        idx = build_neighbor_index(m)
        lists = {t.tracklet_id: naive_sorted_list(m, t.tracklet_id) for t in m.tracklets}
        positions = {
            tid: {other: r for r, other in enumerate(lst, 1)} for tid, lst in lists.items()
        }
        for s in m.tracklets:
            for t in m.tracklets:
                if t.camera_id == s.camera_id:
                    continue
                got = k_reciprocal_distance(idx, s.tracklet_id, t.tracklet_id)
                want = positions[t.tracklet_id][s.tracklet_id]
                assert got == want, (m.name, s.tracklet_id, t.tracklet_id, got, want)
                checked += 1
    elapsed = time.perf_counter() - t0
    verdict(
        1,
        "rank distance equals full-sort oracle on 200 manifests",
        elapsed < 30.0,
        f"{checked} pairs in {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# 2. end-to-end clustering agrees with a from-scratch implementation


def test_criterion_02_clustering_oracle_equivalence():
    rng = np.random.default_rng(23)
    mismatches = 0
    for trial in range(100):
        m = random_manifest(rng, max_tracklets=30, max_cameras=4, max_dim=6)
        K = int(rng.integers(1, 4))
        T = int(rng.integers(1, 4))
        cfg = AdaptConfig(K=K, T=T)
        cs = cluster(build_neighbor_index(m), cfg)
        got = ({frozenset(c.members) for c in cs.clusters}, frozenset(cs.unclustered))
        want = naive_cluster(m, K=K, T=T, k1=K)
        if got != want:
            mismatches += 1
    verdict(2, "pipeline clustering equals brute-force oracle on 100 manifests",
            mismatches == 0, f"{mismatches} mismatches")


# --------------------------------------------------------------------------
# 3. asymmetric rank distance worked example


def test_criterion_03_asymmetric_rank_example():
    # t is s's nearest cross-camera tracklet, but four decoys sit between
    # t and s on t's side, so the reverse relation has rank 5.
    rows = [tracklet_1d("s", "A", 0.0), tracklet_1d("t", "B", 1.0)]
    rows += [tracklet_1d(f"d{i}", "A", 0.4 + 0.1 * i) for i in range(1, 5)]
    idx = build_neighbor_index(DomainManifest("pair", tuple(rows)))
    e_st = k_reciprocal_distance(idx, "s", "t")
    e_ts = k_reciprocal_distance(idx, "t", "s")
    verdict(3, "1-NN/5-NN construction gives e(s,t)=5 and e(t,s)=1",
            e_st == 5 and e_ts == 1, f"e(s,t)={e_st}, e(t,s)={e_ts}")


# --------------------------------------------------------------------------
# 4. clustering invariants over 1000 randomized trials


def orthogonal(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


def transformed(m, fn):
    return DomainManifest(
        m.name,
        tuple(
            Tracklet(t.tracklet_id, t.camera_id, fn(t.frames), identity=t.identity)
            for t in m.tracklets
        ),
    )


def cluster_key(cs):
    return {frozenset(c.members) for c in cs.clusters}


def test_criterion_04_invariant_suite():
    rng = np.random.default_rng(37)
    for trial in range(1000):
        m = random_manifest(rng, max_tracklets=16, max_cameras=4, max_dim=6)
        K = int(rng.integers(1, 4))
        T = int(rng.integers(1, 4))
        k1 = K + int(rng.integers(0, 3))
        cfg = AdaptConfig(K=K, T=T, k1=k1)
        idx = build_neighbor_index(m)
        cs = cluster(idx, cfg)

        # disjoint clusters, every cluster strictly larger than T
        seen = set()
        for c in cs.clusters:
            assert len(c.members) > T, (trial, len(c.members), T)
            assert not (c.members & seen), (trial, "clusters overlap")
            seen |= c.members

        # surviving edges never exceed the rank threshold
        g = threshold_graph(build_graph(idx, k1), K)
        assert (g.weight <= K).all(), trial

        if trial % 2 == 0:
            # raising K with a fixed graph only merges components
            g4 = build_graph(idx, 4)
            fine = connected_subgraphs(threshold_graph(g4, K))
            coarse = connected_subgraphs(threshold_graph(g4, K + 1))
            for comp in fine:
                assert any(comp <= big for big in coarse), (trial, "coarsening broken")
        else:
            # cluster output ignores rotation, reflection, shift and scale
            dim = m.dim
            Q = orthogonal(rng, dim)
            shift = rng.normal(size=dim)
            scale = float(rng.uniform(0.1, 10.0))
            iso = cluster(build_neighbor_index(transformed(m, lambda F: F @ Q + shift)), cfg)
            scl = cluster(build_neighbor_index(transformed(m, lambda F: F * scale)), cfg)
            assert cluster_key(iso) == cluster_key(cs), (trial, "isometry changed clusters")
            assert cluster_key(scl) == cluster_key(cs), (trial, "scaling changed clusters")
    verdict(4, "1000-trial invariant suite (disjoint, size, weights, coarsening, isometry)",
            True)


# --------------------------------------------------------------------------
# 5. analytic triplet gradients match finite differences


def test_criterion_05_gradient_check():
    rng = np.random.default_rng(41)
    worst = 0.0
    for trial in range(50):
        n_labels = int(rng.integers(2, 4))
        counts = rng.integers(2, 4, size=n_labels)
        labels = np.repeat(np.arange(n_labels), counts)
        x = rng.normal(size=(labels.size, int(rng.integers(2, 6))))
        margin = "soft" if trial % 2 == 0 else float(rng.uniform(0.05, 1.0))

        _, grad = batch_hard_triplet_loss(x, labels, margin=margin)
        numeric = fd_gradient(
            lambda v: batch_hard_triplet_loss(v, labels, margin=margin)[0], x
        )
        worst = max(worst, rel_error(grad, numeric))
    verdict(5, "triplet gradients match finite differences on 50 batches",
            worst <= 1e-4, f"worst rel err {worst:.2e}")


# --------------------------------------------------------------------------
# 6 + 7. five-seed adaptation experiment, shared by both criteria

EXPERIMENT_SEEDS = (0, 1, 2, 3, 4)


def rank1(m, embedder):
    return cmc(build_ranking(build_neighbor_index(m, embedder), m), [1])[0]


def mean_growth(cs, m, before, after):
    """Per-pair post/pre centroid distance ratios, averaged, intra vs inter."""
    intra0, inter0 = inter_intra_distances(cs, m, build_neighbor_index(m, before))
    intra1, inter1 = inter_intra_distances(cs, m, build_neighbor_index(m, after))
    g_intra = [b / a for a, b in zip(intra0, intra1) if a > 0]
    g_inter = [b / a for a, b in zip(inter0, inter1) if a > 0]
    intra = float(np.mean(g_intra)) if g_intra else None
    inter = float(np.mean(g_inter)) if g_inter else None
    return intra, inter


@pytest.fixture(scope="module")
def adaptation_experiment():
    """Train on one synthetic domain, adapt to a disjoint one, five seeds.

    The embedder is a random 16->3 linear projection, so direct transfer
    loses much of the target's identity structure; three cluster/fine-tune
    rounds have to win it back.
    """
    domain = dict(
        identities=50,
        cameras=4,
        dim=16,
        identity_separation=3.5,
        camera_shift=0.1,
        noise_sigma=0.65,
    )
    results = []
    t0 = time.perf_counter()
    for seed in EXPERIMENT_SEEDS:
        source = generate_synthetic_domain(SyntheticSpec(seed=1000 + seed, **domain))
        target = generate_synthetic_domain(SyntheticSpec(seed=2000 + seed, **domain))

        train = TrainConfig(iterations=2500, learning_rate=0.1, batch_p=16, seed=seed)
        rng = np.random.default_rng(seed)
        source_emb = train_embedder(
            LinearEmbedder.random(16, 3, rng), identity_clusters(source), source, train
        )
        direct = rank1(target, source_emb)

        cfg = AdaptConfig(K=2, T=2, k1=2, I=3, train=train)
        adapted, report = adapt(source_emb, target, cfg)
        post = rank1(target, adapted)

        final_clusters = cluster(build_neighbor_index(target, adapted), cfg)
        purity = classify_clusters(final_clusters, target).purity
        g_intra, g_inter = mean_growth(final_clusters, target, source_emb, adapted)

        results.append(
            dict(
                seed=seed,
                direct=direct,
                post=post,
                gain=post - direct,
                purity=purity,
                g_intra=g_intra,
                g_inter=g_inter,
                reason=report.reason,
                passed=(post - direct >= 0.10 and purity >= 0.90),
            )
        )
    return dict(results=results, elapsed=time.perf_counter() - t0)


def test_criterion_06_adaptation_beats_direct_transfer(adaptation_experiment):
    results = adaptation_experiment["results"]
    elapsed = adaptation_experiment["elapsed"]
    n_passed = sum(r["passed"] for r in results)
    detail = ", ".join(
        f"seed {r['seed']}: {r['direct']:.2f}->{r['post']:.2f} purity {r['purity']:.2f}"
        for r in results
    )
    verdict(6, "adaptation gains >=10 rank-1 points with purity >=0.9 on >=4/5 seeds",
            n_passed >= 4 and elapsed < 300.0, f"{n_passed}/5 in {elapsed:.0f}s; {detail}")


def test_criterion_07_inter_growth_exceeds_intra(adaptation_experiment):
    results = [r for r in adaptation_experiment["results"] if r["passed"]]
    bad = [
        r["seed"]
        for r in results
        if r["g_intra"] is not None
        and (r["g_inter"] is None or r["g_inter"] <= r["g_intra"])
    ]
    detail = ", ".join(
        f"seed {r['seed']}: intra x{r['g_intra']:.2f} vs inter x{r['g_inter']:.2f}"
        for r in results
        if r["g_intra"] is not None and r["g_inter"] is not None
    )
    verdict(7, "same-person cluster pairs grow less than different-person pairs",
            len(bad) == 0, detail or "no divided clusters on any passing seed")


# --------------------------------------------------------------------------
# 8. cluster-count cap halts the loop


def test_criterion_08_cluster_cap_early_stop():
    target = generate_synthetic_domain(
        SyntheticSpec(
            identities=12, cameras=2, dim=4, identity_separation=8.0,
            camera_shift=0.05, noise_sigma=0.2, seed=5,
        )
    )
    cfg = AdaptConfig(
        K=1, T=1, I=4, cluster_cap=5,
        train=TrainConfig(iterations=50, seed=0),
    )
    source = LinearEmbedder.identity(4)
    adapted, report = adapt(source, target, cfg)
    untouched = np.array_equal(adapted.param_vector(), source.param_vector())
    ok = (
        report.reason == "cluster-cap"
        and report.early_stop
        and len(report.rounds) == 1
        and report.rounds[0].cluster_count > 5
        and report.rounds[0].losses == ()
        and untouched
    )
    verdict(8, "over-cap clustering halts in round 1 without training",
            ok, f"reason={report.reason!r}, {report.rounds[0].cluster_count} clusters")


# --------------------------------------------------------------------------
# 9. metric evaluator exactness


def ranking_from_ranks(first_hit_ranks, gallery_size=20):
    queries = []
    for qi, r in enumerate(first_hit_ranks):
        relevant = np.zeros(gallery_size, dtype=bool)
        relevant[r - 1] = True
        queries.append(QueryRanking(query_id=f"q{qi}", hits=np.flatnonzero(relevant) + 1))
    return RankingResult(tuple(queries))


def test_criterion_09_metric_exactness():
    fixture = ranking_from_ranks([1, 1, 3, 6])
    r1, r5, r20 = cmc(fixture, [1, 5, 20])
    cmc_ok = (
        abs(r1 - 0.5) <= 1e-9 and abs(r5 - 0.75) <= 1e-9 and abs(r20 - 1.0) <= 1e-9
    )

    two_rel = QueryRanking(
        query_id="q", hits=np.flatnonzero(np.array([True, False, True, False])) + 1
    )
    ap_ok = abs(average_precision(two_rel) - (1.0 + 2.0 / 3.0) / 2.0) <= 1e-9
    map_ok = abs(mean_average_precision(fixture) - (1 + 1 + 1 / 3 + 1 / 6) / 4) <= 1e-9

    rng = np.random.default_rng(59)
    worst = 0.0
    for _ in range(100):
        size = int(rng.integers(2, 30))
        flags = rng.random(size) < 0.4
        if not flags.any():
            flags[int(rng.integers(size))] = True
        rng.normal(size=size)  # keep the instance stream: distances used to be drawn here
        q = QueryRanking(query_id="q", hits=np.flatnonzero(flags) + 1)
        worst = max(worst, abs(average_precision(q) - naive_average_precision(flags)))

    verdict(9, "CMC/mAP fixtures exact and AP matches oracle on 100 instances",
            cmc_ok and ap_ok and map_ok and worst <= 1e-12,
            f"worst AP deviation {worst:.1e}")


# --------------------------------------------------------------------------
# 10. CLI runs are checksum-reproducible


def file_hash(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_criterion_10_cli_determinism(tmp_path):
    manifest = tmp_path / "domain.jsonl"
    assert run(["--seed", "13", "synth", "--out", str(manifest), "--identities", "10",
                "--cameras", "3", "--dim", "4"]) == 0

    hashes = []
    for tag in ("a", "b"):
        out = tmp_path / f"assign_{tag}.tsv"
        assert run(["--seed", "7", "cluster", "--manifest", str(manifest),
                    "--out", str(out)]) == 0
        hashes.append(file_hash(out))
    cluster_same = hashes[0] == hashes[1]

    ckpt = tmp_path / "src.kte"
    assert run(["--seed", "3", "train-source", "--manifest", str(manifest),
                "--out", str(ckpt), "--iterations", "30", "--lr", "0.01"]) == 0
    adapt_hashes = []
    for tag in ("a", "b"):
        out = tmp_path / f"adapted_{tag}.kte"
        rep = tmp_path / f"report_{tag}.json"
        assert run(["--seed", "9", "adapt", "--checkpoint", str(ckpt),
                    "--manifest", str(manifest), "--out", str(out),
                    "--report", str(rep), "--rounds", "1", "--iterations", "25",
                    "--lr", "0.01"]) == 0
        adapt_hashes.append((file_hash(out), file_hash(rep)))
    adapt_same = adapt_hashes[0] == adapt_hashes[1]

    verdict(10, "repeated seeded cluster and adapt runs are checksum-identical",
            cluster_same and adapt_same)
