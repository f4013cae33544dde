import importlib

import numpy as np
import pytest

from reidapt import (
    DomainManifest,
    EvaluationError,
    Tracklet,
    build_neighbor_index,
    build_ranking,
    classify_clusters,
    cluster_set,
    cmc,
    inter_intra_distances,
    mean_average_precision,
)
from reidapt.evaluate import QueryRanking, RankingResult, average_precision
from reidapt.graph import ClusterSet
from reidapt.model import ClusterAssignment
from reidapt.neighbors import count_ranks, exact_sq_dists

from oracles import naive_average_precision, naive_inter_intra_distances, naive_ranking


def ranking_of(m, queries=None, normalize=False):
    """build_ranking over m's own neighbor index."""
    return build_ranking(build_neighbor_index(m, normalize=normalize), m, queries=queries)


def ranking_from_flags(per_query_flags):
    """Build a RankingResult straight from relevance masks."""
    queries = []
    for qi, flags in enumerate(per_query_flags):
        hits = np.flatnonzero(np.array(flags, dtype=bool)) + 1
        queries.append(QueryRanking(query_id=f"q{qi}", hits=hits))
    return RankingResult(queries=tuple(queries))


def flags_with_first_hit(rank, length=25):
    flags = [False] * length
    flags[rank - 1] = True
    return flags


class TestCmc:
    def test_four_query_fixture(self):
        # First relevant items at ranks 1, 1, 3, 6.
        r = ranking_from_flags([flags_with_first_hit(k) for k in (1, 1, 3, 6)])
        vals = cmc(r, ranks=[1, 5, 20])
        assert vals[0] == pytest.approx(0.5, abs=1e-12)
        assert vals[1] == pytest.approx(0.75, abs=1e-12)
        assert vals[2] == pytest.approx(1.0, abs=1e-12)

    def test_non_decreasing_in_k(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            flags = rng.random((6, 30)) < 0.2
            flags[:, -1] = True  # every query has a relevant item
            r = ranking_from_flags(list(flags))
            curve = cmc(r, ranks=range(1, 31))
            assert np.all(np.diff(curve) >= 0)
            assert 0.0 <= curve[0] and curve[-1] <= 1.0

    def test_each_value_is_the_fraction_at_its_rank(self):
        rng = np.random.default_rng(1)
        firsts = rng.integers(1, 40, size=37).tolist()
        r = ranking_from_flags([flags_with_first_hit(k, length=40) for k in firsts])
        ranks = [7, 1, 7, 39, 3, 100, 2]  # unordered, repeated, past every first hit
        want = np.array([sum(f <= k for f in firsts) / len(firsts) for k in ranks])
        assert cmc(r, ranks).tobytes() == want.tobytes()

    def test_zero_relevant_query_names_query(self):
        r = ranking_from_flags([flags_with_first_hit(1), [False] * 5])
        with pytest.raises(EvaluationError, match="q1"):
            cmc(r, ranks=[1])

    def test_bad_ranks(self):
        r = ranking_from_flags([flags_with_first_hit(1)])
        with pytest.raises(ValueError):
            cmc(r, ranks=[0])

    def test_empty_ranking(self):
        with pytest.raises(EvaluationError, match="^ranking holds no queries$"):
            cmc(RankingResult(queries=()), ranks=[1])


class TestAveragePrecision:
    def test_single_relevant_at_rank_two(self):
        r = ranking_from_flags([flags_with_first_hit(2)])
        assert mean_average_precision(r) == pytest.approx(0.5, abs=1e-12)

    def test_two_relevant_ranks_one_and_three(self):
        flags = [True, False, True, False]
        r = ranking_from_flags([flags])
        want = (1.0 / 1.0 + 2.0 / 3.0) / 2.0
        assert mean_average_precision(r) == pytest.approx(want, abs=1e-12)

    def test_perfect_ranking_is_one(self):
        r = ranking_from_flags([[True, True, False, False]])
        assert mean_average_precision(r) == pytest.approx(1.0, abs=1e-12)

    def test_empty_ranking(self):
        with pytest.raises(EvaluationError, match="^ranking holds no queries$"):
            mean_average_precision(RankingResult(queries=()))

    def test_query_without_hits_named(self):
        r = ranking_from_flags([flags_with_first_hit(1), [False] * 5])
        for metric in (lambda: average_precision(r.queries[1]), lambda: mean_average_precision(r)):
            with pytest.raises(EvaluationError, match="^query 'q1' has no relevant gallery items$"):
                metric()

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            flags = rng.random(n) < 0.3
            if not flags.any():
                flags[int(rng.integers(n))] = True
            r = ranking_from_flags([list(flags)])
            q = r.queries[0]
            assert abs(average_precision(q) - naive_average_precision(flags)) <= 1e-12

    def test_invariant_under_monotone_distance_transform(self):
        # Scaling every frame by 2^k scales every distance exactly, ties
        # included, so the order, the hits and the metrics cannot move.
        rng = np.random.default_rng(2)
        n = 60
        X = rng.integers(0, 4, size=(n, 3)).astype(float)
        # Five tracklets per identity over three cameras: every query has hits.
        m = labeled_points(X, np.arange(n) % 3, np.arange(n) // 5, rng)
        r1 = ranking_of(m)
        for k in (-20, 3, 30):
            scaled = DomainManifest(
                "scaled",
                tuple(Tracklet(t.tracklet_id, t.camera_id, t.frames * 2.0**k, t.identity)
                      for t in m.tracklets),
            )
            r2 = ranking_of(scaled)
            for q1, q2 in zip(r1.queries, r2.queries):
                assert np.array_equal(q1.hits, q2.hits), q1.query_id
            assert mean_average_precision(r1) == mean_average_precision(r2)
            assert np.array_equal(cmc(r1, [1, 5, 10]), cmc(r2, [1, 5, 10]))


class TestBuildRanking:
    def manifest(self):
        # Camera A: two identities; camera B: their matches plus a decoy.
        mk = lambda tid, cam, ident, x: Tracklet(tid, cam, [[x]], identity=ident)
        return DomainManifest(
            "m",
            (
                mk("a1", "A", "p1", 0.0),
                mk("a2", "A", "p2", 10.0),
                mk("b1", "B", "p1", 0.5),
                mk("b2", "B", "p2", 10.5),
                mk("b3", "B", "p3", 0.2),
                mk("a3", "A", "p3", 0.3),
            ),
        )

    def test_gallery_excludes_self_and_same_camera_same_identity(self):
        mk = lambda tid, cam, ident, x: Tracklet(tid, cam, [[x]], identity=ident)
        m = DomainManifest(
            "m",
            (
                mk("a1", "A", "p1", 0.0),
                mk("a2", "A", "p1", 0.1),  # same camera, same identity: junk for a1
                mk("b1", "B", "p1", 0.2),
            ),
        )
        r = ranking_of(m, queries=["a1"])
        q = r.queries[0]
        # Gallery ("b1",): a2 is nearer than b1 but not in the gallery.
        assert q.hits.tolist() == [1]

    def test_same_camera_other_identities_stay_in_gallery(self):
        r = ranking_of(self.manifest(), queries=["a1"])
        q = r.queries[0]
        # b1 follows b3 and a3 (same camera, different identity); a1 itself
        # at distance 0 is not counted.
        assert q.hits.tolist() == [3]

    def test_orders_by_distance(self):
        # Galleries by distance: a1 (b3, a3, b1, a2, b2), a2 (b2, b1, a3, b3,
        # a1), a3 (b3, b1, a1, a2, b2), b1 (a3, b3, a1, a2, b2), b2 (a2, b1,
        # a3, b3, a1), b3 (a3, a1, b1, a2, b2).
        r = ranking_of(self.manifest())
        got = {q.query_id: q.hits.tolist() for q in r.queries}
        assert got == {"a1": [3], "a2": [1], "a3": [1], "b1": [3], "b2": [1], "b3": [1]}

    def test_rank_one_fixture(self):
        r = ranking_of(self.manifest())
        vals = cmc(r, ranks=[1])
        # a1's best match b3 is a decoy, so not every query hits at rank 1.
        assert 0.0 < vals[0] < 1.0

    def test_unlabeled_manifest_rejected(self):
        # A second camera lets the index build, so the label check is what fails.
        m = DomainManifest("m", (Tracklet("t", "A", [[0.0]]), Tracklet("u", "B", [[1.0]])))
        with pytest.raises(EvaluationError):
            ranking_of(m)

    def test_unknown_query_rejected(self):
        with pytest.raises(KeyError):
            ranking_of(self.manifest(), queries=["nope"])


def truth_manifest(assignments):
    """assignments: list of (tid, identity)."""
    cams = ["A", "B"]
    return DomainManifest(
        "truth",
        tuple(
            Tracklet(tid, cams[i % 2], [[float(i)]], identity=ident)
            for i, (tid, ident) in enumerate(assignments)
        ),
    )


def clusters_of(*groups):
    return ClusterSet(
        clusters=tuple(
            ClusterAssignment(cluster_id=i, members=frozenset(g))
            for i, g in enumerate(groups)
        ),
        unclustered=frozenset(),
    )


class TestClassifyClusters:
    def test_no_clusters(self):
        truth = truth_manifest([("t1", "p1"), ("t2", "p1")])
        with pytest.raises(EvaluationError, match="^no clusters to classify$"):
            classify_clusters(clusters_of(), truth)

    def test_taxonomy(self):
        truth = truth_manifest(
            [
                ("t1", "p1"), ("t2", "p1"),          # golden cluster
                ("t3", "p2"), ("t4", "p3"),          # mixed cluster
                ("t5", "p4"), ("t6", "p4"),          # p4 divided over two clusters
                ("t7", "p4"), ("t8", "p5"),          # mixed and divided
            ]
        )
        cs = clusters_of({"t1", "t2"}, {"t3", "t4"}, {"t5", "t6"}, {"t7", "t8"})
        q = classify_clusters(cs, truth)
        assert q.labels == {0: "GC", 1: "MC", 2: "DC", 3: "MC+DC"}
        assert q.counts == {"GC": 1, "MC": 1, "DC": 1, "MC+DC": 1}

    def test_purity(self):
        truth = truth_manifest(
            [("t1", "p1"), ("t2", "p1"), ("t3", "p1"), ("t4", "p2")]
        )
        cs = clusters_of({"t1", "t2"}, {"t3", "t4"})
        q = classify_clusters(cs, truth)
        assert q.purity == pytest.approx((1.0 + 0.5) / 2.0, abs=1e-12)

    def test_all_golden(self):
        truth = truth_manifest([("t1", "p1"), ("t2", "p1"), ("t3", "p2"), ("t4", "p2")])
        cs = clusters_of({"t1", "t2"}, {"t3", "t4"})
        q = classify_clusters(cs, truth)
        assert q.counts == {"GC": 2, "MC": 0, "DC": 0, "MC+DC": 0}
        assert q.purity == 1.0

    def test_unlabeled_member_rejected(self):
        truth = DomainManifest(
            "t",
            (
                Tracklet("t1", "A", [[0.0]], identity="p1"),
                Tracklet("t2", "B", [[1.0]]),
            ),
        )
        cs = clusters_of({"t1", "t2"})
        with pytest.raises(EvaluationError):
            classify_clusters(cs, truth)

    def test_member_missing_from_truth_rejected(self):
        truth = truth_manifest([("t1", "p1"), ("t2", "p1")])
        cs = clusters_of({"t1", "ghost"})
        with pytest.raises(EvaluationError):
            classify_clusters(cs, truth)


class TestClusterOrder:
    def test_reverse_listed_set_reads_as_the_id_ordered_one(self):
        truth = truth_manifest(
            [("t1", "p1"), ("t2", "p1"),                            # GC, purity 1
             ("t3", "p2"), ("t4", "p3"), ("t5", "p3"),              # MC, 2/3
             ("t6", "p4"), ("t7", "p4"),                            # DC, 1
             ("t8", "p4"), ("t9", "p5"), ("t10", "p5"), ("t11", "p6")]  # MC+DC, 2/4
        )
        cs = clusters_of({"t1", "t2"}, {"t3", "t4", "t5"}, {"t6", "t7"}, {"t8", "t9", "t10", "t11"})
        rev = ClusterSet(clusters=cs.clusters[::-1], unclustered=cs.unclustered)
        q, q_rev = classify_clusters(cs, truth), classify_clusters(rev, truth)
        assert list(q_rev.labels.items()) == list(q.labels.items()) == [
            (0, "GC"), (1, "MC"), (2, "DC"), (3, "MC+DC")]
        assert np.float64(q_rev.purity).tobytes() == np.float64(q.purity).tobytes()
        idx = build_neighbor_index(truth)
        for method in ("centroid", "min-pairwise"):
            assert inter_intra_distances(rev, truth, idx, method) == inter_intra_distances(cs, truth, idx, method)

    def test_lowest_faulty_cluster_id_is_named_first(self):
        truth = truth_manifest([("t1", "p1"), ("t2", "p1")])
        cs = clusters_of({"t1", "ghost1"}, {"t2", "ghost0"})
        rev = ClusterSet(clusters=cs.clusters[::-1], unclustered=cs.unclustered)
        with pytest.raises(EvaluationError, match="^clustered tracklet 'ghost1' not present"):
            classify_clusters(rev, truth)


class TestInterIntraDistances:
    def placed_truth(self, placements):
        """placements: (tid, identity, coords) with alternating cameras."""
        cams = ["A", "B"]
        return DomainManifest(
            "truth",
            tuple(
                Tracklet(tid, cams[i % 2], [list(map(float, xyz))], identity=ident)
                for i, (tid, ident, xyz) in enumerate(placements)
            ),
        )

    def test_two_clusters_same_identity(self):
        truth = self.placed_truth(
            [
                ("t1", "p7", (0.0,)), ("t2", "p7", (0.0,)),
                ("t3", "p7", (3.0,)), ("t4", "p7", (3.0,)),
            ]
        )
        cs = clusters_of({"t1", "t2"}, {"t3", "t4"})
        intra, inter = inter_intra_distances(cs, truth, build_neighbor_index(truth))
        assert intra == pytest.approx([3.0], abs=1e-12)
        assert inter == []

    def test_mixed_pairs(self):
        truth = self.placed_truth(
            [
                ("t1", "p7", (0.0,)), ("t2", "p7", (0.0,)),
                ("t3", "p7", (1.0,)), ("t4", "p7", (1.0,)),
                ("t5", "p9", (4.0,)), ("t6", "p9", (6.0,)),
            ]
        )
        cs = clusters_of({"t1", "t2"}, {"t3", "t4"}, {"t5", "t6"})
        intra, inter = inter_intra_distances(cs, truth, build_neighbor_index(truth))
        # clusters 0 and 1 share majority p7 (centroids 0 and 1);
        # cluster 2 is p9 at centroid 5.
        assert intra == pytest.approx([1.0], abs=1e-12)
        assert inter == pytest.approx([5.0, 4.0], abs=1e-12)

    def test_min_pairwise_method(self):
        truth = self.placed_truth(
            [
                ("t1", "p1", (0.0,)), ("t2", "p1", (2.0,)),
                ("t3", "p2", (5.0,)), ("t4", "p2", (9.0,)),
            ]
        )
        cs = clusters_of({"t1", "t2"}, {"t3", "t4"})
        idx = build_neighbor_index(truth)
        _, inter_c = inter_intra_distances(cs, truth, idx, method="centroid")
        _, inter_m = inter_intra_distances(cs, truth, idx, method="min-pairwise")
        assert inter_c == pytest.approx([6.0], abs=1e-12)  # |1 - 7|
        assert inter_m == pytest.approx([3.0], abs=1e-12)  # |2 - 5|

    def test_majority_tie_breaks_to_smallest_identity(self):
        truth = self.placed_truth(
            [
                ("t1", "pB", (0.0,)), ("t2", "pA", (0.0,)),  # tied majority -> pA
                ("t3", "pA", (4.0,)), ("t4", "pA", (4.0,)),
            ]
        )
        cs = clusters_of({"t1", "t2"}, {"t3", "t4"})
        intra, inter = inter_intra_distances(cs, truth, build_neighbor_index(truth))
        assert intra == pytest.approx([4.0])  # both majorities are pA
        assert inter == []

    def test_fewer_than_two_clusters_rejected(self):
        truth = truth_manifest([("t1", "p1"), ("t2", "p1")])
        cs = clusters_of({"t1", "t2"})
        with pytest.raises(EvaluationError):
            inter_intra_distances(cs, truth, build_neighbor_index(truth))

    def test_bad_method_rejected(self):
        truth = truth_manifest([("t1", "p1"), ("t2", "p1"), ("t3", "p2"), ("t4", "p2")])
        cs = clusters_of({"t1", "t2"}, {"t3", "t4"})
        with pytest.raises(ValueError):
            inter_intra_distances(cs, truth, build_neighbor_index(truth), method="median")


def labeled_points(X, cams, idents, rng):
    """One single-frame tracklet per row of X, inserted in shuffled order."""
    rows = [
        Tracklet(f"t{i:04d}", f"c{cams[i]}", X[i : i + 1], identity=f"p{idents[i]}")
        for i in range(len(X))
    ]
    return DomainManifest("points", tuple(rows[i] for i in rng.permutation(len(rows))))


def ranking_cases():
    rng = np.random.default_rng(41)

    def labels(n, n_cams=3):
        cams = rng.integers(0, n_cams, size=n)
        cams[:n_cams] = np.arange(n_cams)
        return cams, rng.integers(0, n // 4, size=n)

    cases = [
        pytest.param(
            rng.integers(0, 3, size=(150, 3)).astype(float), *labels(150), None, id="integer_ties"
        ),
        pytest.param(rng.normal(size=(150, 8)) + 1e6, *labels(150), None, id="offset_1e6"),
        pytest.param(rng.normal(size=(80, 5)) * 1e160, *labels(80), None, id="overflow_1e160"),
        pytest.param(
            rng.normal(size=(120, 4)), *labels(120), [f"t{i:04d}" for i in (77, 3, 77, 119, 0)],
            id="query_subset",
        ),
        pytest.param(rng.normal(size=(600, 16)), *labels(600, 4), None, id="multi_block_600"),
    ]
    # In each pair, d² of the first point exceeds that of the second by one
    # ulp, but both round to one distance, so the tie goes to the smaller id.
    # Scaling by 2^k keeps that; one point of each pair is relevant to the
    # query at the origin, so the tie order shows in its hits.
    pair = np.array([[3.875, 3.3750000000000004], [3.875, 3.375]])
    ks = rng.permutation(np.arange(-12, 12))
    idents = np.ones(2 * len(ks) + 1, dtype=int)
    idents[0] = 0
    idents[1 + 2 * np.arange(len(ks)) + rng.integers(0, 2, size=len(ks))] = 0
    cams = np.minimum(np.arange(len(idents)), 1)
    X = np.vstack([np.zeros((1, 2))] + [pair * 2.0**k for k in ks])
    cases.append(pytest.param(X, cams, idents, None, id="sqrt_ties"))
    # In each triple, the first and last points are relevant to the query at
    # the origin and the middle one is not; all three round to one distance,
    # but the first's d² is one ulp above the others'.  So the (distance, id)
    # order is relevant, other, relevant, while d² would put the last
    # relevant item first.
    triple = np.array([[3.875, 3.3750000000000004], [3.375, 3.875], [3.875, 3.375]])
    ks = np.arange(-6, 6)
    X = np.vstack([np.zeros((1, 2))] + [triple * 2.0**k for k in ks])
    idents = np.zeros(len(X), dtype=int)
    idents[2::3] = 1 + np.arange(len(ks))
    cams = np.minimum(np.arange(len(X)), 1)
    cases.append(pytest.param(X, cams, idents, None, id="sqrt_ties_interleaved"))
    cases = [pytest.param(*c.values, False, id=c.id) for c in cases]
    # Norms spread over four decades, so unit length reorders the galleries.
    X = rng.normal(size=(150, 6)) * 10.0 ** rng.uniform(-2, 2, size=(150, 1))
    cases.append(pytest.param(X, *labels(150), None, True, id="normalize"))
    return cases


class TestRankingReference:
    """build_ranking's hit ranks equal the per-query full reference sort."""

    @pytest.mark.parametrize("X,cams,idents,queries,normalize", ranking_cases())
    def test_identical_to_naive_ranking(self, X, cams, idents, queries, normalize):
        m = labeled_points(X, cams, idents, np.random.default_rng(0))
        got = ranking_of(m, queries=queries, normalize=normalize)
        want = naive_ranking(m, queries=queries, normalize=normalize)
        assert len(got) == len(want)
        for g, w in zip(got.queries, want):
            assert g.query_id == w.query_id
            assert np.array_equal(g.hits, np.flatnonzero(w.relevant) + 1), g.query_id
            assert g.hits.dtype.kind == "i" and not g.hits.flags.writeable

    @pytest.mark.parametrize("X,cams,idents,queries,normalize", ranking_cases())
    def test_each_relevant_item_keeps_its_rank(self, X, cams, idents, queries, normalize):
        # A hit set does not show which relevant item got which rank;
        # count_ranks' per-item ranks must match the reference order too.
        m = labeled_points(X, cams, idents, np.random.default_rng(0))
        idx = build_neighbor_index(m, normalize=normalize)
        labels = np.unique([m.by_id[tid].identity for tid in idx.ids], return_inverse=True)[1]
        rows, ptr, targets, want = [], [0], [], []
        for w in naive_ranking(m, queries=queries, normalize=normalize):
            rel = sorted((idx.index_of[g], r) for r, g in enumerate(w.gallery_ids, 1)
                         if w.relevant[r - 1])
            rows.append(idx.index_of[w.query_id])
            ptr.append(ptr[-1] + len(rel))
            targets += [j for j, _ in rel]
            want += [r for _, r in rel]
        got = count_ranks(idx, rows, ptr, targets, ident=labels, key=np.sqrt)
        assert got.tolist() == want

    @pytest.mark.parametrize("n_ids,n_cams", [(4, 3), (100, 4)])
    def test_exact_work_stays_with_the_relevant_items(self, monkeypatch, n_ids, n_cams):
        # Relevant items are ordered among themselves, not re-checked in the
        # band, so few identities do not multiply the exact kernel's work.
        rng = np.random.default_rng(n_ids)
        X = rng.normal(size=(600, 16))
        cams = np.r_[np.arange(n_cams), rng.integers(0, n_cams, size=600 - n_cams)]
        idents = rng.integers(0, n_ids, size=600)
        m = labeled_points(X, cams, idents, rng)
        idx = build_neighbor_index(m)
        pairs = []

        def counting(A, B):
            pairs.append(len(A) * B.shape[-2])
            return exact_sq_dists(A, B)

        monkeypatch.setattr(importlib.import_module("reidapt.neighbors"), "exact_sq_dists", counting)
        r = build_ranking(idx, m)
        relevant = sum(q.hits.size for q in r.queries)
        assert relevant > 0 and sum(pairs) <= 1.5 * relevant

    @pytest.mark.parametrize("points", ["identical", "integer_grid", "below_float32"])
    def test_exact_work_stays_bounded_on_ties(self, monkeypatch, points):
        # Tied points put much of a gallery in the band of every relevant
        # item of a query, yet each (query, item) pair meets the exact
        # kernel at most once.  Below float32's resolution, a query's
        # relevant items have distinct d2 but overlapping bands.
        rng = np.random.default_rng(13)
        X = {"identical": lambda: np.full((600, 16), 3.7),
             "integer_grid": lambda: rng.integers(0, 3, size=(600, 3)).astype(float),
             "below_float32": lambda: np.repeat(rng.normal(size=(3, 4)), 200, axis=0)
             + rng.permutation(2400).reshape(600, 4) * 1e-9}[points]()
        cams = np.r_[np.arange(4), rng.integers(0, 4, size=596)]
        idents = rng.integers(0, 100, size=600)
        m = labeled_points(X, cams, idents, rng)
        idx = build_neighbor_index(m)
        pairs = []

        def counting(A, B):
            pairs.append(len(A) * B.shape[-2])
            return exact_sq_dists(A, B)

        monkeypatch.setattr(importlib.import_module("reidapt.neighbors"), "exact_sq_dists", counting)
        r = build_ranking(idx, m)
        relevant = sum(q.hits.size for q in r.queries)
        # Every tracklet queries; its gallery drops its own (camera, identity) group.
        label = cams * 100 + idents
        gallery = len(X) ** 2 - (np.bincount(label)[label]).sum()
        assert relevant > 0 and sum(pairs) <= relevant + gallery


class TestInterIntraReference:
    @pytest.mark.parametrize("scale,offset", [(1.0, 0.0), (1e3, 1e6)])
    def test_matches_per_pair_loop(self, scale, offset):
        rng = np.random.default_rng(43)
        n = 400
        X = rng.normal(size=(n, 8)) * scale + offset
        truth = labeled_points(X, np.arange(n) % 3, rng.integers(0, 12, size=n), rng)
        # 40 clusters of 1 to 9 members; the rest stay unclustered.
        sizes = rng.integers(1, 10, size=40)
        members = np.split(rng.permutation(n)[: sizes.sum()], np.cumsum(sizes)[:-1])
        cs = clusters_of(*({f"t{i:04d}" for i in g} for g in members))

        idx = build_neighbor_index(truth)
        got = inter_intra_distances(cs, truth, idx, method="min-pairwise")
        assert got == naive_inter_intra_distances(cs, truth, "min-pairwise")

        got = inter_intra_distances(cs, truth, idx, method="centroid")
        want = naive_inter_intra_distances(cs, truth, "centroid")
        assert len(got[0]) > 0 and len(got[1]) > 0
        for g, w in zip(got, want):
            assert len(g) == len(w)
            assert np.all(np.abs(np.subtract(g, w)) <= 1e-15 * np.abs(w))
