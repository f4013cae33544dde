import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reidapt import model
from reidapt import (
    AdaptConfig,
    DomainManifest,
    LinearEmbedder,
    ManifestError,
    SyntheticSpec,
    Tracklet,
    TrainConfig,
    default_kt,
    generate_synthetic_domain,
    manifest_embeddings,
    tracklet_embedding,
    validate_manifest,
)

from oracles import loop_violations, mean_vector


def T(tid, cam, frames, identity=None):
    return Tracklet(tid, cam, frames, identity=identity)


@pytest.mark.parametrize("make,error,message", [
    pytest.param(lambda: TrainConfig(iterations=-1), ValueError, "iterations must be >= 0",
                 id="iterations"),
    *(pytest.param(lambda lr=lr: TrainConfig(learning_rate=lr), ValueError,
                   "learning_rate must be positive and finite", id=f"learning_rate_{lr}")
      for lr in (0.0, -1.0, math.nan, math.inf)),
    *(pytest.param(lambda d=d: TrainConfig(lr_decay=d), ValueError,
                   "lr_decay must be in (0, 1]", id=f"lr_decay_{d}")
      for d in (0.0, 1.5, math.nan)),
    pytest.param(lambda: TrainConfig(margin=math.inf), ValueError, "hard margin must be finite",
                 id="margin_inf"),
    pytest.param(lambda: AdaptConfig(I=-1), ValueError, "I must be >= 0", id="I"),
    pytest.param(lambda: AdaptConfig(cluster_cap=0), ValueError, "cluster_cap must be positive",
                 id="cluster_cap"),
    pytest.param(lambda: AdaptConfig(connectivity="both"), ValueError,
                 "connectivity must be 'weak' or 'strong', got 'both'", id="connectivity"),
    pytest.param(lambda: AdaptConfig(k1=0), ValueError, "k1 must be a positive integer", id="k1"),
    pytest.param(lambda: model.ClusterAssignment(-1, frozenset({"a"})), ValueError,
                 "cluster_id must be non-negative", id="cluster_id"),
    pytest.param(lambda: Tracklet("a", "A", [[[1.0]]]), ManifestError,
                 "frames must be a sequence of equal-length vectors, got shape (1, 1, 1)",
                 id="frames_3d"),
])
def test_refusal_message(make, error, message):
    with pytest.raises(error) as exc:
        make()
    assert type(exc.value) is error and str(exc.value) == message


class TestTracklet:
    def test_frames_normalized_to_float64(self):
        t = T("a", "c", [[1, 2], [3, 4]])
        assert t.frames.dtype == np.float64
        assert t.frames.shape == (2, 2)
        assert t.n_frames == 2 and t.dim == 2

    def test_frames_read_only(self):
        t = T("a", "c", [[1.0, 2.0]])
        with pytest.raises(ValueError):
            t.frames[0, 0] = 9.0

    def test_zero_dim_frames_are_no_frames(self):
        # Frames of dimension 0 hold nothing, inline or as an ndarray (a dim-0 sidecar).
        inline, sidecar = T("a", "c", [[]]), T("a", "c", np.zeros((3, 0)))
        assert inline.frames.shape == sidecar.frames.shape == (0, 0)
        report = validate_manifest(DomainManifest("m", (sidecar, T("b", "d", [[1.0]]))))
        assert report.kinds() == {"empty-frames": 1}

    def test_ragged_frames_rejected(self):
        with pytest.raises(ManifestError):
            T("a", "c", [[1.0, 2.0], [3.0]])

    @pytest.mark.parametrize("frames,found", [
        pytest.param([["1.5"]], "str", id="string"),
        pytest.param([[True]], "bool", id="bool"),
        pytest.param([[1.5, True]], "bool", id="bool_beside_float"),
        pytest.param([[None, 1.0]], "NoneType", id="none"),
        pytest.param(np.array([[True]]), "bool", id="bool_array"),
        pytest.param(np.array([["1.5"]]), "str_", id="string_array"),
        pytest.param(np.array([[None, 1.0]], dtype=object), "NoneType", id="object_array"),
    ])
    def test_non_number_frame_values_rejected(self, frames, found):
        with pytest.raises(ManifestError, match=f"^frame values must be numbers, found {found}$"):
            T("a", "c", frames)

    @pytest.mark.parametrize("frames", [
        pytest.param([[2**70, 1]], id="int_past_int64"),
        pytest.param(np.array([[2**70, 1]], dtype=object), id="object_array"),
        pytest.param([np.array([2**70, 1], dtype=np.float32)], id="rows_of_float32"),
    ])
    def test_any_number_accepted(self, frames):
        assert T("a", "c", frames).frames.tolist() == [[2.0**70, 1.0]]

    def test_complex_frames_refused_before_numpy_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ManifestError, match="^frame values must be numbers, found complex128$"):
                T("a", "c", np.array([[1 + 2j]]))

    def test_stack_frames_layout(self):
        ts = [T("a", "c", [[1.0], [2.0]]), T("b", "c", [[3.0]]), T("d", "c", [[4.0], [5.0]])]
        F, start, n = model.stack_frames(ts)
        assert F.tolist() == [[1.0], [2.0], [3.0], [4.0], [5.0]]
        assert start.tolist() == [0, 2, 3] and n.tolist() == [2, 1, 2]
        for t, a, c in zip(ts, start, n):
            assert np.array_equal(F[a : a + c], t.frames)
        F, start, n = model.stack_frames([])
        assert F.shape == (0, 0) and start.size == n.size == 0

    def test_stack_frames_leaves_no_rows_to_empty_tracklets(self):
        ts = [T("a", "c", [[1.0, 2.0]]), T("b", "c", []), T("d", "c", [[3.0, 4.0], [5.0, 6.0]])]
        F, start, n = model.stack_frames(ts)
        assert F.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]] and not F.flags.writeable
        assert start.tolist() == [0, 1, 1] and n.tolist() == [1, 0, 2]

    def test_stack_frames_refuses_two_dims(self):
        with pytest.raises(ManifestError, match=r"^frames of dims \[1, 2\] cannot share"):
            model.stack_frames([T("a", "c", [[1.0]]), T("b", "c", [[1.0, 2.0]])])

    def test_gather_frames_matches_concatenated_spans(self):
        rng = np.random.default_rng(3)
        F = rng.normal(size=(9, 2))
        for _ in range(50):
            n = rng.integers(0, 4, size=int(rng.integers(0, 6)))
            start = rng.integers(0, 10 - n)  # spans may overlap, skip rows or run backwards
            want = [F[a : a + c] for a, c in zip(start, n)]
            got, _, _ = model.gather_frames(F, start, n)
            assert np.array_equal(got, np.concatenate(want) if want else np.empty((0, 2)))
        n = np.array([2, 3, 4])
        assert model.gather_frames(F, np.cumsum(n) - n, n)[0] is F  # already in order: no copy

    def test_gather_frames_gives_its_layout(self):
        F = np.arange(20.0).reshape(10, 2)
        n = np.array([2, 0, 3])
        G, offsets, n_out = model.gather_frames(F, np.array([5, 9, 1]), n)
        assert offsets.tolist() == (np.cumsum(n) - n).tolist() == [0, 2, 2]
        assert np.array_equal(n_out, n)
        for a, o, c in zip([5, 9, 1], offsets, n):
            assert np.array_equal(G[o : o + c], F[a : a + c])

    def test_equality_by_value(self):
        a = T("a", "c", [[1.0, 2.0]], identity="p1")
        b = T("a", "c", [[1.0, 2.0]], identity="p1")
        c = T("a", "c", [[1.0, 2.5]], identity="p1")
        assert a == b
        assert a != c


class TestTrackletEmbedding:
    def test_single_frame_is_identity(self):
        t = T("a", "c", [[1.0, -2.0, 3.5]])
        assert np.array_equal(tracklet_embedding(t), [1.0, -2.0, 3.5])

    def test_two_frames_mean(self):
        t = T("a", "c", [[0.0, 2.0], [2.0, 4.0]])
        assert np.array_equal(tracklet_embedding(t), [1.0, 3.0])

    def test_empty_frames_raises(self):
        t = T("a", "c", [])
        with pytest.raises(ManifestError):
            tracklet_embedding(t)

    def test_non_finite_raises(self):
        t = T("a", "c", [[1.0, float("nan")]])
        with pytest.raises(ManifestError):
            tracklet_embedding(t)

    def test_permutation_invariant_and_matches_fsum(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            d = int(rng.integers(1, 6))
            frames = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=(n, d))
            t1 = T("a", "c", frames)
            t2 = T("a", "c", frames[rng.permutation(n)])
            e1, e2 = tracklet_embedding(t1), tracklet_embedding(t2)
            assert np.array_equal(e1, e2)
            oracle = [math.fsum(frames[:, j]) / n for j in range(d)]
            assert e1.tobytes() == np.array(oracle).tobytes()  # correctly rounded, not close


class TestValidateManifest:
    def test_valid_manifest_is_ok(self):
        m = DomainManifest("m", (T("a", "c1", [[1.0]]), T("b", "c2", [[2.0]])))
        assert validate_manifest(m).ok

    def test_empty_manifest(self):
        report = validate_manifest(DomainManifest("m", ()))
        assert report.kinds() == {"empty-manifest": 1}

    def test_duplicate_id_counted_once(self):
        m = DomainManifest(
            "m", (T("t1", "c1", [[1.0]]), T("t1", "c2", [[2.0]]), T("t2", "c1", [[3.0]]))
        )
        report = validate_manifest(m)
        assert report.kinds() == {"duplicate-id": 1}

    def test_nan_frame_counted_once(self):
        m = DomainManifest(
            "m", (T("a", "c1", [[1.0], [float("nan")]]), T("b", "c2", [[2.0]]))
        )
        assert validate_manifest(m).kinds() == {"non-finite": 1}

    def test_mixed_dims_reported(self):
        m = DomainManifest("m", (T("a", "c1", [[1.0]]), T("b", "c2", [[1.0, 2.0]])))
        assert "dim-mismatch" in validate_manifest(m).kinds()

    def test_empty_frames_reported(self):
        m = DomainManifest("m", (T("a", "c1", []), T("b", "c2", [[1.0]])))
        assert validate_manifest(m).kinds() == {"empty-frames": 1}

    def test_matches_loop_oracle_on_mixed_violations(self):
        # NaN and Inf in first, middle and last rows of several tracklets,
        # empty frames, a second dim, and a duplicated id, in random mixes.
        rng = np.random.default_rng(11)
        for trial in range(200):
            dims = (2, 2, 2, 3) if trial % 2 else (2,)
            tracklets = []
            for i in range(int(rng.integers(1, 8))):
                n = int(rng.integers(0, 5))
                frames = rng.normal(size=(n, int(rng.choice(dims))))
                for _ in range(int(rng.integers(0, 3))):
                    if n:
                        frames[rng.integers(n), rng.integers(frames.shape[1])] = rng.choice(
                            [np.nan, np.inf, -np.inf])
                tid = f"t{i}" if rng.random() < 0.9 else "t0"
                tracklets.append(T(tid, f"c{i % 2}", frames))
            m = DomainManifest("m", tracklets)
            got = validate_manifest(m).violations
            assert tuple((v.kind, v.message) for v in got) == loop_violations(m)

    def test_non_finite_in_a_last_row_only(self):
        ts = (T("a", "c1", [[1.0], [2.0], [np.nan]]), T("b", "c2", [[np.inf]]),
              T("c", "c1", [[3.0]]), T("d", "c2", [[4.0], [-np.inf]]))
        report = validate_manifest(DomainManifest("m", ts))
        assert [v.message for v in report.violations] == [
            "tracklet 'a' contains NaN or Inf", "tracklet 'b' contains NaN or Inf",
            "tracklet 'd' contains NaN or Inf"]


class TestManifestEmbeddings:
    def test_ids_sorted_and_rows_aligned(self):
        m = DomainManifest(
            "m",
            (T("z", "c1", [[5.0]]), T("a", "c2", [[1.0]]), T("k", "c1", [[3.0]])),
        )
        ids, X = manifest_embeddings(m)
        assert ids == ("a", "k", "z")
        assert X[:, 0].tolist() == [1.0, 3.0, 5.0]

    def test_normalize_flag(self):
        m = DomainManifest("m", (T("a", "c1", [[3.0, 4.0]]), T("b", "c2", [[0.0, 0.0]])))
        _, X = manifest_embeddings(m, normalize=True)
        assert np.allclose(X[0], [0.6, 0.8])
        assert np.array_equal(X[1], [0.0, 0.0])  # zero rows left alone

    @pytest.mark.filterwarnings("error")
    def test_normalize_rows_whose_norm_overflows_or_underflows(self):
        rows = [[1e200, 1e200], [1e-200, 1e-200], [1.7e308, -1.7e308], [0.0, 0.0], [1.0, 1.0]]
        m = DomainManifest("m", tuple(T(f"t{i}", f"c{i % 2}", [r]) for i, r in enumerate(rows)))
        _, X = manifest_embeddings(m, normalize=True)
        assert np.allclose(np.abs(X[[0, 1, 2, 4]]), 2**-0.5, rtol=0, atol=2 * np.finfo(float).eps)
        assert np.array_equal(X[[0, 1]], X[[4, 4]])  # the same bytes as the unscaled [1, 1]
        assert np.array_equal(X[2], X[4] * [1, -1])
        assert np.array_equal(X[3], [0.0, 0.0])

    @pytest.mark.filterwarnings("error")
    def test_normalize_ordinary_rows_divide_by_their_norm(self):
        m = generate_synthetic_domain(SyntheticSpec(identities=500, cameras=3, dim=16, seed=5))
        _, X = manifest_embeddings(m)
        _, Xn = manifest_embeddings(m, normalize=True)
        assert np.array_equal(Xn, X / np.linalg.norm(X, axis=1, keepdims=True))

    def test_default_is_unnormalized(self):
        m = DomainManifest("m", (T("a", "c1", [[3.0, 4.0]]), T("b", "c2", [[6.0, 8.0]])))
        _, X = manifest_embeddings(m)
        assert np.array_equal(X[0], [3.0, 4.0])

    @pytest.mark.parametrize("tracklets,kind", [
        pytest.param((), "empty-manifest", id="empty_manifest"),
        pytest.param((T("a", "c1", [[1.0]]), T("a", "c2", [[2.0]]), T("b", "c1", [[3.0]])),
                     "duplicate-id", id="duplicate_id"),
        pytest.param((T("a", "c1", []), T("b", "c2", [[1.0]])), "empty-frames", id="empty_frames"),
        pytest.param((T("a", "c1", [[1.0]]), T("b", "c2", [[1.0, 2.0]])), "dim-mismatch",
                     id="dim_mismatch"),
        pytest.param((T("a", "c1", [[np.inf]]), T("b", "c2", [[1.0]])), "non-finite",
                     id="non_finite"),
    ])
    def test_invalid_manifest_rejected(self, tracklets, kind):
        with pytest.raises(ManifestError, match=f"manifest 'm' is invalid .*first: {kind}:"):
            manifest_embeddings(DomainManifest("m", tracklets))

    @pytest.mark.filterwarnings("error")  # an overflow must not also print a numpy warning
    @pytest.mark.parametrize("frames,embedder", [
        pytest.param([[1.7e308], [1.7e308]], None, id="frame_sum"),
        pytest.param([[1.0], [-1.0]], lambda x: x * 1e308 * 10.0, id="embedder_both_signs"),
        pytest.param([[1e200]], lambda x: x * 1e200, id="embedder_product"),
    ])
    def test_overflow_names_the_tracklet(self, frames, embedder):
        m = DomainManifest("m", (T("a", "c1", [[0.0]]), T("b", "c2", frames)))
        wrapped = None if embedder is None else type("E", (), {"embed": staticmethod(embedder)})()
        with pytest.raises(ManifestError, match=r"^tracklet 'b': representation overflows float64$"):
            manifest_embeddings(m, wrapped)

    @pytest.mark.filterwarnings("error")
    def test_nan_names_the_tracklet_as_nan(self):
        # fsum of NaN is NaN: nothing overflowed, so the message must not say so.
        m = DomainManifest("m", (T("b", "c1", [[0.0]]), T("a", "c2", [[1.0]])))
        nan = LinearEmbedder(np.array([[np.nan]]), np.zeros(1))
        with pytest.raises(ManifestError, match=r"^tracklet 'a': representation is NaN$"):
            manifest_embeddings(m, nan)


grid_values = st.integers(-(2**20), 2**20).map(lambda v: v * 2.0**-10)  # sums are exact
float32_values = st.floats(-1e6, 1e6, width=32)
float64_values = st.floats(-1e6, 1e6)
# In this frame order every sum is inexact: 1e16 + 1.0 rounds.
SPECIAL = {"spread": [1e-300, 1.0], "cancel": [1e16, 1.0, -1e16]}


@st.composite
def mixed_manifests(draw):
    """(manifest, rows whose sum is surely exact, rows whose sum surely is not)."""
    d = draw(st.integers(1, 3))
    kinds = ["grid", "cancel"] + draw(st.lists(st.sampled_from(
        ["grid", "float32", "single", "zeros", "spread", "cancel", "float64"]), max_size=6))
    tracklets = []
    for i, kind in enumerate(kinds):
        if kind in SPECIAL:
            frames = np.repeat(np.array(SPECIAL[kind])[:, None], d, axis=1)
        else:
            values = {"grid": grid_values, "float32": float32_values,
                      "zeros": st.just(-0.0)}.get(kind, float64_values)  # fsum gives +0.0
            n = 1 if kind == "single" else draw(st.integers(1, 6))
            row = st.lists(values, min_size=d, max_size=d)
            frames = draw(st.lists(row, min_size=n, max_size=n))
        tracklets.append(T(f"t{i:02d}", f"c{i % 2}", frames))
    shuffled = draw(st.permutations(tracklets))
    exact = sum(k in ("grid", "single", "zeros") for k in kinds)
    inexact = sum(k in SPECIAL for k in kinds)
    return DomainManifest("m", tuple(shuffled)), exact, inexact


class TestProvenMeans:
    """Summed means proven exact, and the fsum fallback, equal math.fsum bit for bit."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(mixed_manifests())
    def test_bytes_equal_fsum_on_both_paths(self, case):
        m, exact, inexact = case
        embedder = LinearEmbedder.random(m.dim, 2, np.random.default_rng(0))
        calls, exact_mean = [], model._exact_mean

        def counted(rows):
            calls.append(len(rows))
            return exact_mean(rows)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "_exact_mean", counted)
            ids, X = manifest_embeddings(m)
            assert inexact <= len(calls) <= len(ids) - exact  # both paths ran
            calls.clear()
            _, E = manifest_embeddings(m, embedder)
            assert len(calls) == len(ids)  # embedder outputs always take fsum
        for i, tid in enumerate(ids):
            t = m.by_id[tid]
            assert X[i].tobytes() == np.array(mean_vector(t)).tobytes(), tid
            embedded = T(tid, t.camera_id, embedder.embed(t.frames))
            assert E[i].tobytes() == np.array(mean_vector(embedded)).tobytes(), tid

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("big", [
        pytest.param([[1.7e308], [1.7e308]], id="sum_overflows"),
        pytest.param([[1.7e308], [1.7e308], [-1.7e308]], id="partial_sum_overflows"),
        pytest.param([[-1e308], [-1e308], [1.0]], id="negative_overflow"),
    ])
    def test_overflow_names_first_tracklet_in_id_order(self, big):
        fine = [[1.0], [2.0], [4.0]]
        m = DomainManifest("m", (T("e", "c1", big), T("a", "c2", fine), T("c", "c1", big),
                                 T("b", "c2", [[1e16], [1.0], [-1e16]])))
        with pytest.raises(ManifestError, match=r"^tracklet 'c': representation overflows float64$"):
            manifest_embeddings(m)


class TestConfigs:
    def test_k1_defaults_to_K(self):
        cfg = AdaptConfig(K=3, T=2)
        assert cfg.k1 == 3

    def test_k1_below_K_warns(self):
        with pytest.warns(UserWarning, match="at most k1 out-edges") as record:
            AdaptConfig(K=2, T=2, k1=1)
        assert record[0].filename == __file__  # the caller's line, not the dataclass __init__

    def test_rejects_K_below_one(self):
        with pytest.raises(ValueError):
            AdaptConfig(K=0, T=1)

    def test_rejects_bad_T(self):
        with pytest.raises(ValueError):
            AdaptConfig(K=1, T=0)

    def test_defaults(self):
        cfg = AdaptConfig()
        assert (cfg.K, cfg.T, cfg.k1) == (2, 2, 2)
        assert cfg.cluster_cap == 850
        assert cfg.I == 2
        assert cfg.connectivity == "weak"
        assert cfg.normalize is False

    def test_train_config_bounds(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_p=1)
        with pytest.raises(ValueError):
            TrainConfig(batch_k=1)
        with pytest.raises(ValueError):
            TrainConfig(margin=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(margin="hinge")
        TrainConfig(margin=0.0)  # hard margin zero is legal

    def test_default_kt_by_camera_count(self):
        assert default_kt(2) == (1, 1)
        assert default_kt(3) == (2, 2)
        assert default_kt(6) == (2, 2)
        with pytest.raises(ValueError):
            default_kt(1)
