import numpy as np
import pytest

from reidapt import (
    AdaptConfig,
    DomainManifest,
    ReciprocalGraph,
    Tracklet,
    build_graph,
    build_neighbor_index,
    cluster,
    cluster_set,
    connected_subgraphs,
    threshold_graph,
)
from reidapt.graph import ClusterSet
from reidapt.model import ClusterAssignment

from oracles import (
    bfs_components,
    naive_cluster,
    naive_sorted_list,
    random_manifest,
    reachability_components,
)


def scalar_manifest(points, name="m"):
    return DomainManifest(
        name, tuple(Tracklet(tid, cam, [[x]]) for tid, cam, x in points)
    )


@pytest.fixture
def toy():
    return scalar_manifest(
        [
            ("a1", "A", 0.0),
            ("a2", "A", 1.0),
            ("b1", "B", 0.1),
            ("b2", "B", 0.9),
            ("b3", "B", 5.0),
        ]
    )


def random_index_graph(rng):
    """(graph, index edges) mixing cycles, one-way chains, self-loops,
    duplicate edges and isolated vertices; n and the edge count may be 0."""
    n = int(rng.integers(0, 25))
    vertices = tuple(sorted(f"t{x:03d}" for x in rng.choice(1000, size=n, replace=False)))
    edges = []
    if n and rng.random() > 0.1:
        for _ in range(rng.integers(0, 3)):  # cycles; a one-vertex cycle is a self-loop
            path = rng.choice(n, size=rng.integers(1, n + 1), replace=False).tolist()
            edges += zip(path, path[1:] + path[:1])
        for _ in range(rng.integers(0, 3)):  # one-way chains
            path = rng.choice(n, size=rng.integers(1, n + 1), replace=False).tolist()
            edges += zip(path, path[1:])
        edges += [(v, v) for v in rng.choice(n, size=rng.integers(0, 3)).tolist()]
        edges += [tuple(e) for e in rng.integers(0, n, size=(rng.integers(0, n), 2)).tolist()]
        edges += edges[: rng.integers(0, 4)]  # duplicates
    src = [s for s, _ in edges]
    dst = [t for _, t in edges]
    weight = rng.integers(1, 6, size=len(edges))
    return ReciprocalGraph(vertices, src, dst, weight), edges


def edge_set(g):
    v = g.vertices
    return {(v[s], v[t], w) for s, t, w in zip(g.src.tolist(), g.dst.tolist(), g.weight.tolist())}


@pytest.mark.parametrize("make,error,message", [
    *(pytest.param(lambda a=a: ReciprocalGraph(("a", "b"), *a), ValueError,
                   "src, dst and weight must be 1-D arrays of one length", id=name)
      for name, a in [("dst_short", ([0, 1], [1], [1, 1])),
                      ("weight_long", ([0], [1], [1, 1])),
                      ("two_d", ([[0]], [[1]], [[1]]))]),
])
def test_refusal_message(make, error, message):
    with pytest.raises(error) as exc:
        make()
    assert type(exc.value) is error and str(exc.value) == message


class TestBuildGraph:
    def test_toy_k1_1(self, toy):
        g = build_graph(build_neighbor_index(toy), k1=1)
        assert edge_set(g) == {
            ("a1", "b1", 1),
            ("a2", "b2", 1),
            ("b1", "a1", 1),
            ("b2", "a2", 1),
            ("b3", "a2", 3),
        }
        assert set(g.vertices) == {"a1", "a2", "b1", "b2", "b3"}

    def test_out_degree_bounded_by_k1(self):
        rng = np.random.default_rng(0)
        m = random_manifest(rng, max_tracklets=20, max_cameras=4, max_dim=4)
        idx = build_neighbor_index(m)
        for k1 in (1, 2, 3):
            g = build_graph(idx, k1)
            assert np.bincount(g.src, minlength=len(g.vertices)).max() <= k1

    def test_weights_positive(self):
        rng = np.random.default_rng(1)
        m = random_manifest(rng, max_tracklets=20, max_cameras=4, max_dim=4)
        g = build_graph(build_neighbor_index(m), 3)
        assert (g.weight >= 1).all()

    def test_bad_k1(self, toy):
        with pytest.raises(ValueError):
            build_graph(build_neighbor_index(toy), 0)

    def test_K_past_int64_builds_the_graph_of_K_n(self):
        # No rank reaches len(idx), so every K from there on keeps every edge
        # at its exact weight; the "above K" fill once overflowed int64.
        rng = np.random.default_rng(3)
        for _ in range(5):
            idx = build_neighbor_index(random_manifest(rng, max_tracklets=16, max_dim=3))
            n = build_graph(idx, 1, K=len(idx))
            for big in (build_graph(idx, 1, K=2**63 - 1), build_graph(idx, 1, K=10**20)):
                for name in ("src", "dst", "weight"):
                    assert np.array_equal(getattr(big, name), getattr(n, name))


class TestThreshold:
    def test_toy_K1_drops_weight3(self, toy):
        g = build_graph(build_neighbor_index(toy), 1)
        gt = threshold_graph(g, 1)
        assert edge_set(gt) == {
            ("a1", "b1", 1),
            ("a2", "b2", 1),
            ("b1", "a1", 1),
            ("b2", "a2", 1),
        }
        assert gt.vertices == g.vertices  # isolated vertices survive

    def test_weight_above_k1_survives(self, toy):
        # k1=1 still yields b3->a2 with weight 3, and K=3 keeps it.
        g = threshold_graph(build_graph(build_neighbor_index(toy), 1), 3)
        assert ("b3", "a2", 3) in edge_set(g)

    def test_edge_rule(self):
        # s->t is kept iff rank(t in s) <= k1 and rank(s in t) <= K, k1 < K included.
        rng = np.random.default_rng(7)
        for _ in range(15):
            m = random_manifest(rng, max_tracklets=16, max_cameras=4, max_dim=3)
            idx = build_neighbor_index(m)
            ids = [t.tracklet_id for t in m.tracklets]
            lists = {tid: naive_sorted_list(m, tid) for tid in ids}
            for k1 in (1, 2, 3):
                for K in (1, 2, 4):
                    got = {(s, t) for s, t, _ in edge_set(threshold_graph(build_graph(idx, k1), K))}
                    want = {
                        (s, t)
                        for s in ids
                        for t in lists[s]
                        if lists[s].index(t) < k1 and lists[t].index(s) < K
                    }
                    assert got == want, (k1, K)

    def test_K_below_one_rejected(self, toy):
        g = build_graph(build_neighbor_index(toy), 1)
        with pytest.raises(ValueError):
            threshold_graph(g, 0)

    def test_all_weights_within_K(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = random_manifest(rng, max_tracklets=16, max_cameras=3, max_dim=3)
            g = build_graph(build_neighbor_index(m), 3)
            for K in (1, 2, 3):
                assert (threshold_graph(g, K).weight <= K).all()


class TestComponents:
    def test_toy_components(self, toy):
        g = threshold_graph(build_graph(build_neighbor_index(toy), 1), 1)
        comps = connected_subgraphs(g)
        assert [sorted(c) for c in comps] == [["a1", "b1"], ["a2", "b2"], ["b3"]]

    def test_components_partition_vertices(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = random_manifest(rng, max_tracklets=16, max_cameras=4, max_dim=3)
            g = threshold_graph(build_graph(build_neighbor_index(m), 2), 2)
            comps = connected_subgraphs(g)
            everything = [tid for c in comps for tid in c]
            assert sorted(everything) == sorted(g.vertices)
            assert len(everything) == len(set(everything))

    def test_strong_vs_weak_on_one_way_edge(self):
        g = ReciprocalGraph(vertices=("a", "b"), src=[0], dst=[1], weight=[1])
        assert [sorted(c) for c in connected_subgraphs(g, "weak")] == [["a", "b"]]
        assert [sorted(c) for c in connected_subgraphs(g, "strong")] == [["a"], ["b"]]

    def test_strong_finds_cycles(self):
        g = ReciprocalGraph(
            vertices=("a", "b", "c"), src=[0, 1, 1], dst=[1, 0, 2], weight=[1, 1, 1]
        )
        assert [sorted(c) for c in connected_subgraphs(g, "strong")] == [["a", "b"], ["c"]]

    def test_both_modes_match_oracles_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for trial in range(400):
            g, edges = random_index_graph(rng)
            named = [(g.vertices[s], g.vertices[t]) for s, t in edges]
            for mode, oracle in (("weak", bfs_components), ("strong", reachability_components)):
                want = sorted(oracle(g.vertices, named), key=min)
                assert connected_subgraphs(g, mode) == want, (trial, mode)

    def test_unknown_mode_rejected(self, toy):
        g = build_graph(build_neighbor_index(toy), 1)
        with pytest.raises(ValueError):
            connected_subgraphs(g, "weird")


class TestClusterSet:
    def test_size_strictly_greater_than_T(self):
        comps = [frozenset({"a", "b"}), frozenset({"c", "d", "e"}), frozenset({"f"})]
        cs = cluster_set(comps, T=2)
        assert [sorted(c.members) for c in cs.clusters] == [["c", "d", "e"]]
        assert cs.unclustered == {"a", "b", "f"}

    def test_ids_ordered_by_smallest_member(self):
        comps = [frozenset({"z", "y"}), frozenset({"a", "b"}), frozenset({"m", "n"})]
        cs = cluster_set(comps, T=1)
        assert [(c.cluster_id, min(c.members)) for c in cs.clusters] == [
            (0, "a"),
            (1, "m"),
            (2, "y"),
        ]

    def test_T_below_one_rejected(self):
        with pytest.raises(ValueError):
            cluster_set([frozenset({"a", "b"})], 0)

    def test_everything_unclustered(self):
        cs = cluster_set([frozenset({"a"}), frozenset({"b"})], 1)
        assert cs.clusters == ()
        assert cs.unclustered == {"a", "b"}

    @pytest.mark.parametrize("clusters,unclustered,repeat", [
        pytest.param([(0, {"a", "b"}), (1, {"a", "c"})], {"d"}, "tracklet 'a'", id="two_clusters"),
        pytest.param([(0, {"a", "b"})], {"b", "c"}, "tracklet 'b'", id="cluster_and_unclustered"),
        pytest.param([(0, {"a", "b"}), (0, {"c", "d"})], set(), "cluster id 0", id="cluster_id"),
        pytest.param([(2, {"a"}), (1, {"b"}), (2, {"c"})], set(), "cluster id 2", id="cluster_id_apart"),
    ])
    def test_repeats_rejected(self, clusters, unclustered, repeat):
        # A repeated tracklet would be counted twice by n_tracklets and
        # clustered_fraction; a repeated cluster id would merge two clusters
        # on the assignments round trip.
        assignments = tuple(ClusterAssignment(i, frozenset(m)) for i, m in clusters)
        with pytest.raises(ValueError, match=repeat):
            ClusterSet(assignments, frozenset(unclustered))

    def test_clusters_kept_in_id_order(self):
        c0, c1 = ClusterAssignment(0, frozenset({"b"})), ClusterAssignment(1, frozenset({"a"}))
        cs = ClusterSet((c1, c0), frozenset({"z"}))
        assert cs.clusters == (c0, c1)
        assert cs == ClusterSet((c0, c1), frozenset({"z"}))

    def test_empty_set_has_no_clustered_fraction_to_divide(self):
        cs = ClusterSet((), frozenset())
        assert cs.n_tracklets == 0 and cs.clustered_fraction == 0.0

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError, match="^cluster 3 has no members$"):
            ClusterAssignment(3, [])


class TestClusterPipeline:
    def test_toy_end_to_end(self, toy):
        cs = cluster(build_neighbor_index(toy), AdaptConfig(K=1, T=1))
        assert [(c.cluster_id, sorted(c.members)) for c in cs.clusters] == [
            (0, ["a1", "b1"]),
            (1, ["a2", "b2"]),
        ]
        assert cs.unclustered == {"b3"}
        labels = cs.labels()
        assert labels["b3"] == -1 and labels["a1"] == 0

    def test_ignores_identity_labels(self):
        # Same geometry, adversarial labels: clustering must not change.
        pts = [("a1", "A", 0.0), ("a2", "A", 1.0), ("b1", "B", 0.1), ("b2", "B", 0.9)]
        unlabeled = scalar_manifest(pts)
        labeled = DomainManifest(
            "m",
            tuple(
                Tracklet(tid, cam, [[x]], identity=f"wrong{i % 2}")
                for i, (tid, cam, x) in enumerate(pts)
            ),
        )
        cfg = AdaptConfig(K=1, T=1)
        assert cluster(build_neighbor_index(unlabeled), cfg) == cluster(build_neighbor_index(labeled), cfg)

    def test_matches_naive_implementation(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            m = random_manifest(rng, max_tracklets=18, max_cameras=4, max_dim=4)
            K = int(rng.integers(1, 4))
            T = int(rng.integers(1, 3))
            k1 = int(rng.integers(K, 5))
            cs = cluster(build_neighbor_index(m), AdaptConfig(K=K, T=T, k1=k1))
            got = {frozenset(c.members) for c in cs.clusters}
            want, want_rest = naive_cluster(m, K=K, T=T, k1=k1)
            assert got == want
            assert cs.unclustered == want_rest

    def test_coarsens_as_K_grows(self):
        # With k1 fixed, raising K only adds edges, so components merge.
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = random_manifest(rng, max_tracklets=16, max_cameras=3, max_dim=3)
            idx = build_neighbor_index(m)
            g = build_graph(idx, k1=4)
            prev = None
            for K in (1, 2, 3, 4):
                comps = connected_subgraphs(threshold_graph(g, K))
                by_id = {}
                for ci, comp in enumerate(comps):
                    for tid in comp:
                        by_id[tid] = ci
                if prev is not None:
                    # every previous component stays within one new component
                    for comp in prev:
                        assert len({by_id[tid] for tid in comp}) == 1
                prev = comps

    def test_invariant_under_scaling_and_shift(self):
        rng = np.random.default_rng(6)
        m = random_manifest(rng, max_tracklets=16, max_cameras=3, max_dim=4)
        scaled = DomainManifest(
            m.name,
            tuple(
                Tracklet(t.tracklet_id, t.camera_id, t.frames * 3.5 + 1.25, t.identity)
                for t in m.tracklets
            ),
        )
        cfg = AdaptConfig(K=2, T=1)
        assert cluster(build_neighbor_index(m), cfg) == cluster(build_neighbor_index(scaled), cfg)

    def test_identical_embeddings_deterministic(self):
        # Fully degenerate geometry: every distance ties, so ordering falls
        # back to tracklet ids and the result is reproducible.
        pts = [("a1", "A", 1.0), ("a2", "A", 1.0), ("b1", "B", 1.0), ("b2", "B", 1.0)]
        m = scalar_manifest(pts)
        cfg = AdaptConfig(K=1, T=1)
        first = cluster(build_neighbor_index(m), cfg)
        for _ in range(5):
            assert cluster(build_neighbor_index(m), cfg) == first
