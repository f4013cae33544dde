import math

import numpy as np
import pytest

from reidapt import (
    AdaptConfig,
    DomainManifest,
    ManifestError,
    Tracklet,
    TrainConfig,
    default_kt,
    manifest_embeddings,
    tracklet_embedding,
    validate_manifest,
)


def T(tid, cam, frames, identity=None):
    return Tracklet(tid, cam, frames, identity=identity)


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

    def test_ragged_frames_rejected(self):
        with pytest.raises(ManifestError):
            T("a", "c", [[1.0, 2.0], [3.0]])

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
            assert np.max(np.abs(e1 - oracle)) <= 1e-12 * max(1.0, np.abs(oracle).max())


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

    def test_default_is_unnormalized(self):
        m = DomainManifest("m", (T("a", "c1", [[3.0, 4.0]]), T("b", "c2", [[6.0, 8.0]])))
        _, X = manifest_embeddings(m)
        assert np.array_equal(X[0], [3.0, 4.0])


class TestConfigs:
    def test_k1_defaults_to_K(self):
        cfg = AdaptConfig(K=3, T=2)
        assert cfg.k1 == 3

    def test_k1_below_K_warns(self):
        with pytest.warns(UserWarning, match="at most k1 out-edges"):
            AdaptConfig(K=2, T=2, k1=1)

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
