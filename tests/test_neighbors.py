import dataclasses
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import reidapt
from reidapt import (
    AdaptConfig,
    DomainError,
    DomainManifest,
    ManifestError,
    NeighborIndex,
    Tracklet,
    build_graph,
    build_neighbor_index,
    build_ranking,
    cluster,
    k_reciprocal_distance,
    manifest_embeddings,
    threshold_graph,
    top_k,
)

from reidapt import _tasks
from reidapt.neighbors import _DIFF_ELEMENTS, _smallest, exact_sq_dists

from oracles import (
    dense_cluster,
    dense_edges,
    dense_index,
    loop_exact_sq_dists,
    naive_rank,
    naive_sorted_list,
    random_manifest,
)


def scalar_manifest(points, name="m"):
    """points: list of (tid, cam, x) with 1-D features."""
    return DomainManifest(
        name, tuple(Tracklet(tid, cam, [[x]]) for tid, cam, x in points)
    )


@pytest.fixture
def toy():
    # Two cameras on a line; every rank below is hand-checkable.
    return scalar_manifest(
        [
            ("a1", "A", 0.0),
            ("a2", "A", 1.0),
            ("b1", "B", 0.1),
            ("b2", "B", 0.9),
            ("b3", "B", 5.0),
        ]
    )


class TestBuildIndex:
    def test_toy_lists(self, toy):
        idx = build_neighbor_index(toy)
        assert idx.neighbor_ids("a1") == ("b1", "b2", "b3")
        assert idx.neighbor_ids("a2") == ("b2", "b1", "b3")
        assert idx.neighbor_ids("b1") == ("a1", "a2")
        assert idx.neighbor_ids("b3") == ("a2", "a1")

    def test_single_camera_rejected(self):
        m = scalar_manifest([("a", "A", 0.0), ("b", "A", 1.0)])
        with pytest.raises(DomainError, match="all on camera"):
            build_neighbor_index(m)

    def test_single_camera_named_by_the_index(self):
        m = scalar_manifest([("a", "cam7", 0.0), ("b", "cam7", 1.0)])
        with pytest.raises(DomainError) as exc:
            build_neighbor_index(m)
        assert str(exc.value) == "cross-camera neighbors undefined: all on camera 'cam7'"

    def test_invalid_manifest_rejected(self):
        m = DomainManifest(
            "m", (Tracklet("a", "A", [[1.0]]), Tracklet("a", "B", [[2.0]]))
        )
        with pytest.raises(ManifestError):
            build_neighbor_index(m)
        single_camera = DomainManifest("m", (Tracklet("a", "A", [[1.0]]), Tracklet("b", "A", [])))
        with pytest.raises(ManifestError, match="empty-frames"):  # not DomainError
            build_neighbor_index(single_camera)

    def test_two_tracklets_two_cameras(self):
        m = scalar_manifest([("a", "A", 0.0), ("b", "B", 9.0)])
        idx = build_neighbor_index(m)
        assert idx.neighbor_ids("a") == ("b",)
        assert k_reciprocal_distance(idx, "a", "b") == 1
        assert k_reciprocal_distance(idx, "b", "a") == 1

    def test_distance_ties_break_by_ascending_id(self):
        # b1 and b2 are equidistant from a.
        m = scalar_manifest([("a", "A", 0.0), ("b2", "B", 1.0), ("b1", "B", -1.0)])
        idx = build_neighbor_index(m)
        assert idx.neighbor_ids("a") == ("b1", "b2")

    def test_ranks_contiguous_from_one(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            m = random_manifest(rng, max_tracklets=20, max_cameras=4, max_dim=4)
            idx = build_neighbor_index(m)
            for t in idx.ids:
                lst = idx.neighbor_ids(t)
                got = [k_reciprocal_distance(idx, s, t) for s in lst]
                assert got == list(range(1, len(lst) + 1))

    def test_lists_cover_exactly_other_cameras(self):
        rng = np.random.default_rng(4)
        m = random_manifest(rng, max_tracklets=20, max_cameras=4, max_dim=4)
        idx = build_neighbor_index(m)
        for i, tid in enumerate(idx.ids):
            cam = m.by_id[tid].camera_id
            expect = {t.tracklet_id for t in m.tracklets if t.camera_id != cam}
            assert set(idx.neighbor_ids(tid)) == expect


class TestConstructor:
    def test_equals_build_neighbor_index(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            m = random_manifest(rng, max_tracklets=20, max_dim=4)
            built = build_neighbor_index(m)
            ids, X = manifest_embeddings(m)
            idx = NeighborIndex(list(ids), [m.by_id[tid].camera_id for tid in ids], X)
            for f in dataclasses.fields(NeighborIndex):
                got, want = getattr(idx, f.name), getattr(built, f.name)
                if isinstance(want, np.ndarray):
                    assert got.dtype == want.dtype and got.shape == want.shape, f.name
                    assert got.tobytes() == want.tobytes(), f.name
                else:
                    assert type(got) is type(want) and got == want, f.name

    def test_derived_arrays_read_only_and_caller_x_untouched(self, toy):
        built = build_neighbor_index(toy)
        X = np.array(built.X)
        idx = NeighborIndex(built.ids, built.cameras, X)
        for a in (idx.X, idx.codes, idx.Xc):
            assert not a.flags.writeable
        assert X.flags.writeable
        X[0, 0] = 99.0
        assert idx.X[0, 0] == built.X[0, 0]
        assert idx.neighbor_ids("a1") == ("b1", "b2", "b3")

    @pytest.mark.parametrize("ids,cameras,X,message", [
        pytest.param(("b", "a"), ("A", "B"), [[0.0], [1.0]], "strictly ascending: 'a' follows 'b'",
                     id="unsorted_ids"),
        pytest.param(("a", "a"), ("A", "B"), [[0.0], [1.0]], "strictly ascending: 'a' follows 'a'",
                     id="duplicate_ids"),
        pytest.param(("a", "b"), ("A",), [[0.0], [1.0]], "1 cameras", id="cameras_short"),
        pytest.param(("a", "b"), ("A", "B"), [[0.0]], "X of shape (1, 1)", id="x_short"),
        pytest.param(("a", "b"), ("A", "B"), [0.0, 1.0], "X of shape (2,)", id="x_1d"),
        pytest.param(("a", "b"), ("A", "B"), np.zeros((2, 0)), "X of shape (2, 0)",
                     id="x_no_columns"),
        pytest.param((), (), np.zeros((0, 1)), "got 0 ids", id="empty"),
        pytest.param(("a", "b"), ("A", "A"), [[0.0], [1.0]], "all on camera 'A'",
                     id="one_camera"),  # a DomainError, which is a ValueError
        pytest.param(("a", "b", "c"), ("A", "B", "A"), [[0.0, 1.0], [2.0, np.nan], [np.nan, 0.0]],
                     "X row 1 ('b') is not finite", id="x_nan"),
        pytest.param(("a", "b"), ("A", "B"), [[-np.inf], [1.0]], "X row 0 ('a') is not finite",
                     id="x_inf"),
    ])
    def test_bad_input_rejected(self, ids, cameras, X, message):
        with pytest.raises(ValueError) as exc:
            NeighborIndex(ids, cameras, X)
        assert message in str(exc.value)


class TestTopK:
    def test_toy(self, toy):
        idx = build_neighbor_index(toy)
        assert top_k(idx, 2, "a1") == ("b1", "b2")
        assert top_k(idx, 1, "b3") == ("a2",)

    def test_k_larger_than_list(self, toy):
        idx = build_neighbor_index(toy)
        assert top_k(idx, 99, "b1") == ("a1", "a2")

    def test_bad_k(self, toy):
        idx = build_neighbor_index(toy)
        with pytest.raises(ValueError):
            top_k(idx, 0, "a1")

    def test_unknown_id(self, toy):
        idx = build_neighbor_index(toy)
        with pytest.raises(KeyError):
            top_k(idx, 1, "zz")


class TestRankDistance:
    def test_toy_example(self, toy):
        idx = build_neighbor_index(toy)
        # b3's list is [a2, a1], so a1 sits at rank 2 regardless of how
        # close b3 is to a1's own neighbors.
        assert k_reciprocal_distance(idx, "a1", "b3") == 2
        assert k_reciprocal_distance(idx, "b3", "a1") == 3

    def test_asymmetric_one_vs_five(self):
        # t is s's 1-nearest neighbour, but four decoys sit between t and s
        # on t's side, so s is only t's 5-nearest neighbour: e(s, t) = 5.
        m = scalar_manifest(
            [
                ("s", "A", 0.0),
                ("d1", "A", 0.8),
                ("d2", "A", 0.9),
                ("d3", "A", 1.05),
                ("d4", "A", 1.1),
                ("t", "B", 1.0),
            ]
        )
        idx = build_neighbor_index(m)
        assert top_k(idx, 1, "s") == ("t",)
        assert naive_sorted_list(m, "t").index("s") == 4
        assert k_reciprocal_distance(idx, "s", "t") == 5
        assert k_reciprocal_distance(idx, "t", "s") == 1

    def test_same_camera_pair_rejected(self, toy):
        idx = build_neighbor_index(toy)
        with pytest.raises(DomainError):
            k_reciprocal_distance(idx, "a1", "a2")

    def test_unknown_id(self, toy):
        idx = build_neighbor_index(toy)
        with pytest.raises(KeyError):
            k_reciprocal_distance(idx, "a1", "zz")

    def test_ranks_same_camera_pair_rejected(self, toy):
        idx = build_neighbor_index(toy)
        a1, a2, b1, b2 = (idx.index_of[tid] for tid in ("a1", "a2", "b1", "b2"))
        assert idx.ranks([b1], [a1]).tolist() == [1]
        with pytest.raises(DomainError, match=r"same-camera pair \('a1', 'a2'\) on camera 'A'$"):
            idx.ranks([a2], [a1])
        # The first same-camera pair in input order is named, not the first by row.
        with pytest.raises(DomainError, match=r"\('b2', 'b1'\) on camera 'B'$"):
            idx.ranks([b1, b1, a2], [a1, b2, a1])

    def test_ranks_reject_rows_outside_the_index(self):
        m = scalar_manifest([("t0", "a", 0.0), ("t1", "b", 1.0), ("t2", "a", 3.0),
                             ("t3", "b", 7.0), ("t4", "a", 15.0)])
        idx = build_neighbor_index(m)
        assert idx.ranks([0], [3]).tolist() == [2]
        # Row -2 would wrap to row 3, and the pair code t * n + s to another pair.
        for t, s, msg in (([0], [-2], "s row -2"), ([-1], [1], "t row -1"),
                          ([0, 0], [1, 5], "s row 5"), ([5], [0], "t row 5")):
            with pytest.raises(IndexError, match=rf"^{msg} is outside \[0, 5\)$"):
                idx.ranks(t, s)


class TestOracleAgreement:
    def test_lists_and_ranks_match_naive(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            m = random_manifest(rng, max_tracklets=25, max_cameras=5, max_dim=6)
            idx = build_neighbor_index(m)
            for tid in idx.ids:
                assert list(idx.neighbor_ids(tid)) == naive_sorted_list(m, tid)
            for s in idx.ids:
                for t in idx.neighbor_ids(s)[:5]:
                    assert k_reciprocal_distance(idx, s, t) == naive_rank(m, s, t)

    def test_rank_invariant_under_isometry(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            m = random_manifest(rng, max_tracklets=18, max_cameras=4, max_dim=5)
            d = m.dim
            Q, R = np.linalg.qr(rng.normal(size=(d, d)))
            Q = Q * np.sign(np.diag(R))  # deterministic orthogonal matrix
            shift = rng.normal(size=d)
            moved = DomainManifest(
                m.name,
                tuple(
                    Tracklet(t.tracklet_id, t.camera_id, t.frames @ Q + shift, t.identity)
                    for t in m.tracklets
                ),
            )
            a = build_neighbor_index(m)
            b = build_neighbor_index(moved)
            for tid in a.ids:
                assert a.neighbor_ids(tid) == b.neighbor_ids(tid)


def point_manifest(X, cams):
    """One single-frame tracklet per row of X; cams[i] is its camera number."""
    return DomainManifest(
        "points",
        tuple(Tracklet(f"t{i:04d}", f"c{c}", X[i : i + 1]) for i, c in enumerate(cams)),
    )


def stress_cases():
    rng = np.random.default_rng(29)

    def cams(n, k=3):
        c = rng.integers(0, k, size=n)
        c[:k] = np.arange(k)
        return c

    cases = [
        pytest.param(rng.normal(size=(150, 8)) + 1e6, cams(150), id="offset_1e6"),
        pytest.param(rng.integers(0, 3, size=(150, 3)).astype(float), cams(150), id="integer_ties"),
        pytest.param(np.full((60, 4), 3.7), cams(60), id="all_identical"),
        # camera c0 has two tracklets, so the other rows' lists are shorter than k1
        pytest.param(rng.normal(size=(40, 2)), np.r_[0, 0, np.ones(38, dtype=int)], id="short_lists"),
        pytest.param(rng.normal(size=(600, 16)), cams(600, 4), id="multi_block_600"),
        pytest.param(rng.normal(size=(80, 5)) * 1e160, cams(80), id="overflow_1e160"),
        # Big enough that heads() selects candidates by chunk minima at k = 7.
        pytest.param(rng.integers(0, 8, size=(1200, 3)).astype(float), cams(1200),
                     id="chunk_grid_ties"),
        pytest.param(rng.normal(size=(1200, 6)), np.repeat([0, 1, 2], [2, 500, 698]),
                     id="chunk_unequal_cameras"),
        pytest.param(rng.normal(size=(1200, 5)) * 1e160, cams(1200), id="chunk_overflow_1e160"),
        # Three groups of 50 points, distinct multiples of 1e-9 apart: within a
        # group the float32 GEMM cannot order neighbours, so rows are redone.
        pytest.param(np.repeat(rng.normal(size=(3, 4)), 50, axis=0)
                     + rng.permutation(600).reshape(150, 4) * 1e-9, cams(150), id="below_float32"),
    ]
    # One set, outside float32's range unless Xc is scaled by a power of two.
    well_separated, c = rng.normal(size=(300, 4)), cams(300)
    return cases + [pytest.param(well_separated * 2.0**140, c, id="scaled_2p140"),
                    pytest.param(well_separated * 2.0**-140, c, id="scaled_2m140")]


def stress_case(name):
    """(X, cams) of the stress case with that id."""
    (case,) = [p for p in stress_cases() if p.id == name]
    return case.values


class TestDenseReference:
    """heads, ranks, edge weights and clusters equal the dense full-sort index."""

    @pytest.mark.parametrize("X,cams", stress_cases())
    def test_identical_to_dense_index(self, X, cams):
        m = point_manifest(X, cams)
        idx = build_neighbor_index(m)
        ids, lists, ranks = dense_index(m)
        for k in (1, 2, 3, 7):
            heads = idx.heads(k)
            for i, lst in enumerate(lists):
                head = heads[i][heads[i] >= 0]
                assert head.tolist() == lst[:k].tolist(), (k, i)
            g = build_graph(idx, k)
            edges = zip(g.src.tolist(), g.dst.tolist(), g.weight.tolist())
            got = [(g.vertices[s], g.vertices[t], w) for s, t, w in edges]
            want = [(ids[s], ids[t], w) for s, t, w in dense_edges(lists, ranks, k)]
            assert got == want, k
        t, s = np.nonzero(ranks)
        assert np.array_equal(idx.ranks(t, s), ranks[t, s])
        for K, T, k1 in ((1, 1, 1), (2, 2, 2), (2, 1, 4)):
            cs = cluster(build_neighbor_index(m), AdaptConfig(K=K, T=T, k1=k1))
            want_clusters, want_rest = dense_cluster(m, K=K, T=T, k1=k1)
            assert {frozenset(c.members) for c in cs.clusters} == want_clusters, (K, T, k1)
            assert cs.unclustered == want_rest, (K, T, k1)

    def test_ranks_of_repeated_and_shuffled_pairs(self):
        # Several s per t, repeated pairs, and rows in no particular order.
        X, cams = stress_cases()[0].values
        m = point_manifest(X[:90], cams[:90])
        ranks = dense_index(m)[2]
        t, s = np.nonzero(ranks)
        rng = np.random.default_rng(11)
        pick = rng.choice(len(t), size=400)
        t, s = t[pick], s[pick]
        idx = build_neighbor_index(m)
        assert np.array_equal(idx.ranks(t, s), ranks[t, s])
        assert idx.ranks([t[0], t[0]], [s[0], s[0]]).tolist() == [ranks[t[0], s[0]]] * 2
        assert idx.ranks([], []).shape == (0,)

    @pytest.mark.parametrize("X,cams", stress_cases())
    def test_heads_only_graph_equals_exact_ranks(self, X, cams):
        # k1 < K, k1 = K and k1 > K
        idx = build_neighbor_index(point_manifest(X, cams))
        for k1, K in ((1, 3), (2, 2), (4, 2)):
            exact, fast = build_graph(idx, k1), build_graph(idx, k1, K=K)
            assert np.array_equal(fast.src, exact.src), (k1, K)
            assert np.array_equal(fast.dst, exact.dst), (k1, K)
            want = np.where(exact.weight <= K, exact.weight, K + 1)
            assert np.array_equal(fast.weight, want), (k1, K)
            a, b = threshold_graph(exact, K), threshold_graph(fast, K)
            for name in ("src", "dst", "weight"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), (k1, K, name)

    @pytest.mark.filterwarnings("ignore:k1=1 is smaller than K")
    def test_cluster_never_computes_ranks(self, monkeypatch):
        def refuse(self, t, s):
            raise AssertionError("cluster() must not compute exact ranks")

        monkeypatch.setattr(NeighborIndex, "ranks", refuse)
        m = point_manifest(np.random.default_rng(3).normal(size=(90, 4)), np.arange(90) % 3)
        for K, T, k1 in ((1, 1, 1), (2, 2, 2), (2, 1, 4), (3, 1, 1)):
            cs = cluster(build_neighbor_index(m), AdaptConfig(K=K, T=T, k1=k1))
            want_clusters, want_rest = dense_cluster(m, K=K, T=T, k1=k1)
            assert {frozenset(c.members) for c in cs.clusters} == want_clusters, (K, T, k1)
            assert cs.unclustered == want_rest, (K, T, k1)

    def test_build_graph_bad_K(self, toy):
        with pytest.raises(ValueError, match="K must be"):
            build_graph(build_neighbor_index(toy), 1, K=0)

    def test_heads_pad_short_lists(self):
        m = point_manifest(np.arange(5.0)[:, None], [0, 0, 1, 1, 1])
        heads = build_neighbor_index(m).heads(4)
        assert heads.shape == (5, 3)
        assert heads[0].tolist() == [2, 3, 4]
        assert heads[2].tolist() == [1, 0, -1]

    @pytest.mark.parametrize("m,c", [(12, 12), (40, 12), (700, 12), (5000, 22), (6750, 48)])
    def test_chunk_candidates_are_c_smallest(self, m, c):
        # Integer entries tie often, also across chunk borders.
        rng = np.random.default_rng(m)
        H = rng.integers(0, 60, size=(64, m)).astype(float)
        H[:4] = 7.0  # whole rows of ties
        want = np.sort(H, axis=1)
        cand, rest = _smallest(H, c)
        assert all(len(set(row)) == c for row in cand.tolist())
        assert np.array_equal(np.sort(np.take_along_axis(H, cand, axis=1), axis=1), want[:, :c])
        assert np.array_equal(rest, want[:, c] if c < m else np.full(64, np.inf))

    def test_heads_bad_k(self, toy):
        with pytest.raises(ValueError):
            build_neighbor_index(toy).heads(0)

    @pytest.mark.parametrize("case,redone", [
        ("below_float32", True),  # the case exercises the exact redo
        ("scaled_2p140", False),  # scaling keeps every GEMM entry in float32 range
        ("scaled_2m140", False),
    ])
    def test_heads_redo_rows(self, monkeypatch, case, redone):
        idx = build_neighbor_index(point_manifest(*stress_case(case)))
        real, redo = NeighborIndex._sorted_exact, []

        def counted(self, rows, cols, w):
            if cols.ndim == 1:  # rows redone over their whole gallery, not a candidate re-sort
                redo.append(len(rows))
            return real(self, rows, cols, w)

        monkeypatch.setattr(NeighborIndex, "_sorted_exact", counted)
        for k in (1, 2, 3, 7):
            idx.heads(k)
        assert (sum(redo) > 0) == redone, redo


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("X,cams", [
    # The column sum overflows float64.
    pytest.param([[1.7e308], [1.6e308], [0.0], [1e300]], "ABAB", id="sum_overflows"),
    # The mean is finite, but x minus the mean is not.
    pytest.param([[1.7e308], [-1.7e308], [-1.7e308]], "ABA", id="difference_overflows"),
])
def test_centre_of_finite_x_cannot_overflow(X, cams):
    ids = "abcd"[: len(X)]
    idx = NeighborIndex(list(ids), list(cams), X)
    assert np.isfinite(idx.Xc).all()
    m = DomainManifest("huge", tuple(Tracklet(i, c, [x]) for i, c, x in zip(ids, cams, X)))
    with np.errstate(over="ignore"):  # the oracle's distances overflow to inf and tie on id
        lists, ranks = dense_index(m)[1:]
    for k in (1, 2, 3):
        heads = idx.heads(k)
        for i, lst in enumerate(lists):
            assert heads[i][heads[i] >= 0].tolist() == lst[:k].tolist(), (k, i)
    t, s = np.nonzero(ranks)
    assert np.array_equal(idx.ranks(t, s), ranks[t, s])


class TestWorkerThreads:
    """Row blocks on W threads give the W = 1 bytes, and every thread ends with its call."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", ["chunk_grid_ties", "chunk_unequal_cameras",
                                      "chunk_overflow_1e160", "overflow_1e160", "scaled_2p140",
                                      "scaled_2m140", "below_float32"])
    def test_outputs_independent_of_worker_count(self, monkeypatch, case):
        X, cams = stress_case(case)
        points = DomainManifest("points", tuple(
            Tracklet(f"t{i:04d}", f"c{c}", X[i : i + 1], identity=f"p{i % 29}")
            for i, c in enumerate(cams)))
        # One to three frames per tracklet: some sums are proven exact, some fall back.
        frames = DomainManifest("frames", tuple(
            Tracklet(f"t{i:04d}", f"c{c}", X[i : i + 1 + i % 3]) for i, c in enumerate(cams)))
        idx = build_neighbor_index(points)
        t, s = np.nonzero(idx.codes[:, None] != idx.codes)

        outs = []
        for w in (1, 2, 3):
            monkeypatch.setattr(_tasks, "workers", lambda: w)
            outs.append([*(idx.heads(k).tobytes() for k in (1, 2, 7)),
                         idx.ranks(t, s).tobytes(),
                         b"|".join(q.hits.tobytes() for q in build_ranking(idx, points).queries),
                         manifest_embeddings(frames)[1].tobytes()])
        assert outs[0] == outs[1] == outs[2]

    def test_task_error_is_raised_after_every_thread_ends(self, monkeypatch):
        monkeypatch.setattr(_tasks, "workers", lambda: 2)
        idx = build_neighbor_index(point_manifest(*stress_case("chunk_grid_ties")))
        real, calls = NeighborIndex._sorted_exact, []

        def failing(self, rows, cols, w):
            calls.append(len(rows))
            if len(calls) == 2:
                raise ArithmeticError("second task")
            return real(self, rows, cols, w)

        monkeypatch.setattr(NeighborIndex, "_sorted_exact", failing)
        before = threading.active_count()
        with pytest.raises(ArithmeticError, match="second task"):
            idx.heads(2)
        assert threading.active_count() == before

    def test_one_worker_or_one_item_starts_no_thread(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("no thread may start")

        monkeypatch.setattr(threading, "Thread", refuse)
        for w, n, size, want in ((1, 10, 4, [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]),
                                 (4, 3, 16, [[0, 1, 2]]), (4, 0, 16, [])):
            monkeypatch.setattr(_tasks, "workers", lambda: w)
            seen = []
            _tasks.blocks(lambda b: seen.append(b.tolist()), np.arange(n), size)
            assert seen == want

    @pytest.mark.parametrize("w", [1, 2, 3])
    def test_blocks_cover_every_row_once_in_order(self, monkeypatch, w):
        monkeypatch.setattr(_tasks, "workers", lambda: w)
        rows, seen = np.arange(1000, 1100), []
        _tasks.blocks(seen.append, rows, 12)
        seen.sort(key=lambda b: b[0])
        assert all(0 < len(b) <= 12 // w for b in seen)
        assert np.array_equal(np.concatenate(seen), rows)  # consecutive, ascending, each once

    @pytest.mark.parametrize("w", [1, 2])
    def test_no_block_starts_after_one_raised(self, monkeypatch, w):
        monkeypatch.setattr(_tasks, "workers", lambda: w)
        calls = []

        def fn(block):
            calls.append(block[0])
            if block[0] == 3:
                raise ArithmeticError("block 3")
            time.sleep(0.001)  # a block in flight on the other thread ends well after the raise

        before = threading.active_count()
        with pytest.raises(ArithmeticError, match="block 3"):
            _tasks.blocks(fn, np.arange(200), w)  # blocks of one row
        assert threading.active_count() == before
        assert sorted(calls)[:4] == [0, 1, 2, 3] and len(calls) <= 4 + 2 * (w - 1)

    @pytest.mark.parametrize("env,want", [
        ({}, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2),
        ({"OPENBLAS_NUM_THREADS": "2"}, 1),
        ({"OMP_NUM_THREADS": "1"}, 2),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),  # OpenBLAS's own first
        ({"OPENBLAS_NUM_THREADS": "0"}, 1),
        ({"OPENBLAS_NUM_THREADS": "x"}, 1),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2),
        ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, 2),
    ])
    def test_worker_count_rule(self, monkeypatch, env, want):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert _tasks.workers() == want

    def test_worker_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert _tasks.workers() == 4


_THREADS_CHILD = """
import sys
from pathlib import Path
import numpy as np
from reidapt import NeighborIndex

d = Path(sys.argv[1])
X, cams = np.load(d / "X.npy"), np.load(d / "cams.npy")
idx = NeighborIndex([f"t{i:04d}" for i in range(len(X))], [f"c{c}" for c in cams], X)
t, s = np.nonzero(idx.codes[:, None] != idx.codes)
np.savez(sys.argv[2], heads=idx.heads(7), ranks=idx.ranks(t, s))
"""


def test_outputs_independent_of_blas_threads(tmp_path):
    # BLAS reads its thread count at start-up, so each count gets its own process.
    X, cams = stress_case("chunk_grid_ties")
    np.save(tmp_path / "X.npy", X)
    np.save(tmp_path / "cams.npy", cams)
    src = str(Path(reidapt.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        out = tmp_path / f"threads{threads}.npz"
        subprocess.run([sys.executable, "-c", _THREADS_CHILD, str(tmp_path), str(out)],
                       env=env, check=True, timeout=300)
        with np.load(out) as f:
            outs.append((f["heads"].tobytes(), f["ranks"].tobytes()))
    assert outs[0] == outs[1]


class TestExactKernel:
    """exact_sq_dists against its broadcast loop form in oracles.py, bit for bit."""

    @pytest.mark.parametrize("d", [1, 3, 16, 64])
    @pytest.mark.parametrize("c", [0, 1, 7, 64])
    @pytest.mark.parametrize("paired", [False, True], ids=["2d", "3d"])
    def test_matches_loop_form(self, d, c, paired):
        rng = np.random.default_rng(d * 100 + c)
        # Enough rows for several difference chunks when c * d is large.
        n = 3 * max(1, _DIFF_ELEMENTS // max(1, c * d)) + 5 if c * d >= 1024 else 37
        A = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
        B = rng.normal(size=(n, c, d) if paired else (c, d))
        got = exact_sq_dists(A, B)
        want = loop_exact_sq_dists(A, B)
        assert got.shape == (n, c) and got.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("a_type,b_type", [
        (np.float32, np.float32), (np.float32, np.float64), (np.float64, np.float32),
    ])
    def test_differences_keep_the_result_dtype(self, a_type, b_type):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(9, 3)).astype(a_type)
        B = rng.normal(size=(4, 3)).astype(b_type)
        assert exact_sq_dists(A, B).tobytes() == loop_exact_sq_dists(A, B).tobytes()

    def test_empty_inputs(self):
        for A, B in [(np.empty((0, 3)), np.ones((4, 3))), (np.ones((2, 3)), np.empty((0, 3)))]:
            assert exact_sq_dists(A, B).shape == loop_exact_sq_dists(A, B).shape
