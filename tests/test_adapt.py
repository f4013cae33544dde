import importlib
import itertools
import math
import os
import struct
import threading
from dataclasses import replace

import numpy as np
import pytest

from reidapt import (
    AdaptConfig,
    AdaptationError,
    BatchError,
    Checkpoint,
    DomainManifest,
    Embedder,
    LinearEmbedder,
    ManifestError,
    MlpEmbedder,
    SyntheticSpec,
    Tracklet,
    TrainConfig,
    adapt,
    batch_hard_triplet_loss,
    cluster,
    generate_synthetic_domain,
    identity_clusters,
    load_checkpoint,
    manifest_embeddings,
    save_checkpoint,
    train_embedder,
)
from reidapt import _tasks
from reidapt.adapt import _CHUNK, _Draws
from reidapt.graph import ClusterSet
from reidapt.model import ClusterAssignment

from oracles import fd_gradient, loop_batch_hard_triplet_loss, loop_train_embedder, rel_error


@pytest.mark.parametrize("make,error,message", [
    pytest.param(lambda: batch_hard_triplet_loss(np.zeros(4), np.array([0, 0, 1, 1])),
                 BatchError, "embeddings must be 2-D, got shape (4,)", id="loss_1d"),
    pytest.param(lambda: batch_hard_triplet_loss(np.zeros((4, 2)), np.array([0, 0, 1])),
                 BatchError, "labels shape (3,) does not match batch size 4", id="loss_labels"),
    pytest.param(lambda: LinearEmbedder.identity(2).set_param_vector(np.zeros(5)),
                 ValueError, "expected 6 parameters, got (5,)", id="param_vector_size"),
    pytest.param(lambda: LinearEmbedder.identity(2).embed(np.zeros((1, 2, 2))),
                 ValueError, "expected a vector or a batch of vectors, got shape (1, 2, 2)",
                 id="embed_3d"),
])
def test_refusal_message(make, error, message):
    with pytest.raises(error) as exc:
        make()
    assert type(exc.value) is error and str(exc.value) == message


class TestImportForms:
    def test_adapt_is_the_function_and_its_module_path_the_module(self):
        # reidapt binds the function adapt over its submodule's attribute, so
        # both attribute forms give the function; the module path still
        # reaches the module.  Renaming either is an API decision.
        import types

        import reidapt
        import reidapt.adapt as via_as
        from reidapt.adapt import adapt as via_from

        module = importlib.import_module("reidapt.adapt")
        assert isinstance(module, types.ModuleType) and module.__name__ == "reidapt.adapt"
        assert isinstance(reidapt.adapt, types.FunctionType)
        assert reidapt.adapt is via_as is via_from is module.adapt is adapt


class TestTripletLossValues:
    def test_identical_embeddings_hard_margin(self):
        X = np.zeros((4, 3))
        y = np.array([0, 0, 1, 1])
        loss, grad = batch_hard_triplet_loss(X, y, margin=0.2)
        assert loss == pytest.approx(0.2, abs=1e-12)
        assert np.array_equal(grad, np.zeros_like(X))

    def test_identical_embeddings_soft_margin(self):
        X = np.ones((6, 2)) * 4.2
        y = np.array([0, 0, 0, 1, 1, 1])
        loss, _ = batch_hard_triplet_loss(X, y, margin="soft")
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_hand_computed_1d_batch(self):
        # Points 0, 1 (label 0) and 1.5, 2.5 (label 1).
        # Hardest positives are 1 apart for every anchor; hardest negatives:
        # 1.5, 0.5, 0.5, 1.5.  With margin 0.6 the hinges are
        # 0.1, 1.1, 1.1, 0.1 -> mean 0.6.
        X = np.array([[0.0], [1.0], [1.5], [2.5]])
        y = np.array([0, 0, 1, 1])
        loss, _ = batch_hard_triplet_loss(X, y, margin=0.6)
        assert loss == pytest.approx(0.6, abs=1e-12)
        soft, _ = batch_hard_triplet_loss(X, y, margin="soft")
        want = (math.log(1 + math.exp(-0.5)) + math.log(1 + math.exp(0.5))) / 2.0
        assert soft == pytest.approx(want, abs=1e-12)

    def test_well_separated_soft_loss_near_zero(self):
        rng = np.random.default_rng(0)
        X = np.concatenate([rng.normal(0, 0.01, (4, 3)), rng.normal(100, 0.01, (4, 3))])
        y = np.array([0] * 4 + [1] * 4)
        loss, _ = batch_hard_triplet_loss(X, y, margin="soft")
        assert loss < 1e-6

    def test_batch_preconditions(self):
        X = np.zeros((3, 2))
        with pytest.raises(BatchError):
            batch_hard_triplet_loss(X, np.array([0, 0, 0]))  # one label
        with pytest.raises(BatchError):
            batch_hard_triplet_loss(X, np.array([0, 0, 1]))  # singleton label
        with pytest.raises(BatchError):
            batch_hard_triplet_loss(np.zeros((4, 2)), np.array([0, 0, 1, 1]), margin=-1.0)

    @pytest.mark.parametrize("margin,message", [
        pytest.param("hard", "margin must be 'soft' or a non-negative float, got 'hard'", id="hard"),
        pytest.param(-1.0, "hard margin must be >= 0", id="negative"),
        pytest.param(float("nan"), "hard margin must be >= 0", id="nan"),
        pytest.param(math.inf, "hard margin must be finite", id="inf"),
    ])
    def test_margin_refused_as_train_config_refuses_it(self, margin, message):
        with pytest.raises(ValueError) as cfg:
            TrainConfig(margin=margin)
        with pytest.raises(BatchError) as loss:
            batch_hard_triplet_loss(np.zeros((4, 2)), np.array([0, 0, 1, 1]), margin=margin)
        assert type(cfg.value) is ValueError
        assert str(cfg.value) == str(loss.value) == message

    @pytest.mark.parametrize("labels,lonely", [
        pytest.param([0, 0, 1], "1", id="int"),
        pytest.param([5, 3, 3, 7], "5", id="int_smallest"),
        pytest.param(["b", "b", "a"], "'a'", id="str"),
        pytest.param(["z", "y", "y", "x"], "'x'", id="str_smallest"),
    ])
    def test_lonely_label_message(self, labels, lonely):
        X = np.zeros((len(labels), 2))
        with pytest.raises(BatchError) as exc:
            batch_hard_triplet_loss(X, np.array(labels))
        assert str(exc.value) == f"label {lonely} has a single sample; need >= 2 per label"

    def test_zero_width_embeddings(self):
        X, y = np.zeros((4, 0)), np.array([0, 0, 1, 1])
        loss, grad = batch_hard_triplet_loss(X, y)
        want_loss, want_grad = loop_batch_hard_triplet_loss(X, y)
        assert loss == want_loss == math.log(2.0) and grad.shape == want_grad.shape == (4, 0)

    def test_overflowed_negatives(self):
        # Label 0 sits at 1e308, so every distance across labels overflows
        # to +inf: each anchor's hardest negative is +inf and no term pulls.
        X = np.array([[1e308, -1e308], [1e308, -1e308], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([0, 0, 1, 1])
        for margin in ("soft", 0.5):
            with np.errstate(over="ignore"):
                loss, grad = batch_hard_triplet_loss(X, y, margin)
                want_loss, want_grad = loop_batch_hard_triplet_loss(X, y, margin)
            assert loss == want_loss == 0.0
            assert grad.tobytes() == want_grad.tobytes()
            assert not grad.any()


def loss_batches(n_batches, seed=0):
    """Random PK batches that probe ties, tiny and huge scales and overflow."""
    rng = np.random.default_rng(seed)
    for i in range(n_batches):
        P, K, d = int(rng.integers(2, 6)), int(rng.integers(2, 5)), int(rng.integers(1, 6))
        X = rng.normal(size=(P * K, d)) * 10.0 ** float(rng.choice([-150, 0, 150]))
        y = np.repeat(np.arange(P), K)
        kind = i % 4
        if kind == 1:  # duplicated rows: zero distances, in and across labels
            X[rng.integers(P * K, size=P)] = X[rng.integers(P * K, size=P)]
        elif kind == 2:  # rows at +-1e308: their distances to others overflow to inf
            for label in {0, int(rng.integers(P))}:
                rows = y == label
                X[rows] = 1e308 * rng.choice([-1.0, 1.0], size=(int(rows.sum()), d))
        elif kind == 3:  # infinite coordinates: nan self-distances
            X[rng.integers(P * K, size=2), rng.integers(d, size=2)] = rng.choice([-np.inf, np.inf])
        if i % 5 == 0:
            perm = rng.permutation(P * K)
            X, y = X[perm], y[perm]
        if i % 7 == 0:
            y = np.array([f"id{v}" for v in y])
        yield X, y


class TestLoopReference:
    """The library's loss and training loop against their loop forms in oracles.py."""

    @pytest.mark.parametrize("margin", ["soft", 0.0, 0.5])
    def test_loss_matches_loop_form(self, margin):
        for X, y in loss_batches(320, seed=7):
            with np.errstate(all="ignore"):
                loss, grad = batch_hard_triplet_loss(X, y, margin)
                want_loss, want_grad = loop_batch_hard_triplet_loss(X, y, margin)
            assert np.array_equal(loss, want_loss, equal_nan=True)
            assert np.array_equal(grad, want_grad, equal_nan=True)
            if np.isfinite(X).all():
                assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
                assert grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("arch", ["linear", "mlp"])
    @pytest.mark.parametrize("margin", ["soft", 0.3])
    @pytest.mark.parametrize("batch_p,batch_k", [(3, 4), (8, 3)])
    def test_training_matches_loop_form(self, arch, margin, batch_p, batch_k):
        # Five clusters of 1 to 7 frames: some pools are smaller than
        # batch_k (the rng.integers branch), and batch_p 8 exceeds them all.
        rng = np.random.default_rng(11)
        tracklets = []
        for c, n_frames in enumerate([1, 2, 3, 5, 7]):
            for cam in ("A", "B")[: 1 + c % 2]:
                frames = rng.normal(3.0 * c, 1.0, size=(n_frames, 4))
                tracklets.append(Tracklet(f"{cam}{c}", cam, frames, identity=f"p{c}"))
        m = DomainManifest("pools", tuple(tracklets))
        cs = identity_clusters(m)
        emb = (
            LinearEmbedder.random(4, 3, rng)
            if arch == "linear"
            else MlpEmbedder.random(4, 6, 3, rng)
        )
        cfg = TrainConfig(
            iterations=300, batch_p=batch_p, batch_k=batch_k, margin=margin,
            learning_rate=0.05, seed=4,
        )
        got = train_embedder(emb, cs, m, cfg).param_vector()
        want = loop_train_embedder(emb, cs, m, cfg).param_vector()
        assert got.tobytes() == want.tobytes()
        assert not np.array_equal(got, emb.param_vector())

    def test_each_step_calls_the_module_loss(self, monkeypatch):
        # Layer timings wrap reidapt.adapt.batch_hard_triplet_loss by name, so
        # every step must reach the loss through that module attribute.
        m = two_blob_manifest()
        cs = identity_clusters(m)
        cfg = TrainConfig(iterations=37, learning_rate=0.01, seed=2)
        want = train_embedder(LinearEmbedder.identity(2), cs, m, cfg).param_vector()
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return batch_hard_triplet_loss(*args, **kwargs)

        # The package's `adapt` attribute is the function, not the module.
        module = importlib.import_module("reidapt.adapt")
        monkeypatch.setattr(module, "batch_hard_triplet_loss", counting)
        got = train_embedder(LinearEmbedder.identity(2), cs, m, cfg).param_vector()
        assert len(calls) == cfg.iterations
        assert got.tobytes() == want.tobytes()


class TestTripletLossGradient:
    @pytest.mark.parametrize("margin", ["soft", 0.3])
    def test_matches_finite_differences(self, margin):
        rng = np.random.default_rng(42)
        for _ in range(20):
            P, K, d = int(rng.integers(2, 5)), int(rng.integers(2, 4)), int(rng.integers(1, 5))
            X = rng.normal(size=(P * K, d))
            y = np.repeat(np.arange(P), K)
            _, grad = batch_hard_triplet_loss(X, y, margin)

            def f(flat):
                loss, _ = batch_hard_triplet_loss(flat.reshape(X.shape), y, margin)
                return loss

            fd = fd_gradient(f, X.copy().ravel()).reshape(X.shape)
            assert rel_error(grad, fd) <= 1e-4


class TestTripletLossMemo:
    """The loss memoizes its label masks by label value; every call still checks."""

    def assert_matches_loop_form(self, X, y):
        loss, grad = batch_hard_triplet_loss(X, y)
        want_loss, want_grad = loop_batch_hard_triplet_loss(X, y)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert grad.tobytes() == want_grad.tobytes()

    def test_str_labels(self):
        X = np.random.default_rng(3).normal(size=(6, 2))
        for y in (["b", "a", "b", "c", "a", "c"], ["b", "a", "b", "c", "a", "c"], [1, 0, 1, 2, 0, 2],
                  ["bb", "a", "bb", "c", "a", "c"], ["b", "a", "c", "b", "a", "c"]):
            self.assert_matches_loop_form(X, np.array(y))
        self.assert_matches_loop_form(X, np.array(["b", "a", "b", "c", "a", "c"], dtype=object))

    def test_label_array_mutated_in_place(self):
        X = np.random.default_rng(4).normal(size=(6, 2))
        y = np.array([0, 0, 1, 1, 2, 2])
        self.assert_matches_loop_form(X, y)
        y[:] = [0, 1, 1, 0, 2, 2]
        self.assert_matches_loop_form(X, y)
        y[:] = [0, 1, 1, 0, 0, 1]
        self.assert_matches_loop_form(X, y)

    def test_large_label_vector_is_not_kept(self):
        # (B, B) masks of more than 1024 labels would outlive the call.
        module = importlib.import_module("reidapt.adapt")
        X = np.random.default_rng(5).normal(size=(1026, 2))
        batch_hard_triplet_loss(X[:4], np.array([0, 0, 1, 1]))
        kept = module._LABEL_MEMO
        batch_hard_triplet_loss(X, np.repeat(np.arange(513), 2))
        assert module._LABEL_MEMO is kept
        batch_hard_triplet_loss(X[:1024], np.repeat(np.arange(512), 2))
        assert module._LABEL_MEMO is not kept

    @pytest.mark.parametrize("labels,message", [
        pytest.param([0, 0, 0, 0], "triplets require at least two distinct labels in the batch",
                     id="one_label"),
        pytest.param([0, 0, 1, 2], "label 1 has a single sample; need >= 2 per label", id="singleton"),
        pytest.param(["x", "x", "y", "z"], "label 'y' has a single sample; need >= 2 per label",
                     id="str_singleton"),
    ])
    def test_every_call_checks_its_labels(self, labels, message):
        X = np.zeros((4, 2))
        for _ in range(2):  # right after a memoized vector, and again in a row
            batch_hard_triplet_loss(X, np.array([0, 0, 1, 1]))
            for _ in range(2):
                with pytest.raises(BatchError) as exc:
                    batch_hard_triplet_loss(X, np.array(labels))
                assert str(exc.value) == message


def assert_draws_as_numpy(calls, seed=0):
    """_Draws(seed) and a fresh default_rng(seed) agree on a sequence of calls.

    Each call is ("choice", n, k) for rng.choice(n, size=k, replace=False) or
    ("integers", n, k) for rng.integers(0, n, size=k).
    """
    rng, draws = np.random.default_rng(seed), _Draws(seed)
    for kind, n, k in calls:
        if kind == "choice":
            want, got = rng.choice(n, size=k, replace=False), draws.choice(n, k)
        else:
            want, got = rng.integers(0, n, size=k), draws.integers(n, k)
        assert got == want.tolist(), (kind, n, k)


class TestDraws:
    """train_embedder's draws are those of numpy's own choice and integers calls."""

    @pytest.mark.parametrize("n,k", [
        pytest.param(1, 1, id="one_of_one"),
        pytest.param(5, 5, id="n_eq_k"),
        pytest.param(300, 300, id="n_eq_k_large"),
        pytest.param(7, 1, id="k1"),
        pytest.param(4000, 1, id="k1_large"),
        pytest.param(53, 16, id="clusters"),
        pytest.param(10000, 201, id="floyd_at_cutoff_n"),
        pytest.param(10001, 200, id="floyd_at_cutoff_k"),
        pytest.param(10001, 201, id="tail_past_cutoff"),
        pytest.param(20000, 400, id="floyd_below_cutoff_k"),
        pytest.param(20000, 401, id="tail_above_cutoff_k"),
        pytest.param(20000, 20000, id="tail_n_eq_k"),
    ])
    def test_choice(self, n, k):
        for seed in (0, 1, 2):
            assert_draws_as_numpy([("choice", n, k)] * 3, seed)

    def test_one_frame_pools_draw_nothing(self):
        # integers(0, 1) takes no word, so the next call reads the same words.
        assert_draws_as_numpy([("integers", 1, 5), ("choice", 9, 4), ("integers", 1, 3),
                               ("integers", 3, 4), ("choice", 1, 1), ("integers", 7, 2)])

    @pytest.mark.parametrize("n", [2**31 + 1, 3 * 2**30 + 1], ids=["h_2p31", "h_3x2p30"])
    def test_rejection_heavy_ranges(self, n):
        # Lemire's method rejects about half (h = 2**31) or a quarter of all words.
        assert_draws_as_numpy([("integers", n, 400), ("choice", 9, 4), ("integers", n, 400)], seed=5)

    def test_long_mixed_sequence_crosses_refills(self):
        rng = np.random.default_rng(8)
        calls = []
        for _ in range(3000):
            n = int(rng.integers(1, 500))
            calls.append(("choice", n, int(rng.integers(1, n + 1))) if rng.random() < 0.7
                         else ("integers", n, int(rng.integers(1, 20))))
        # A lower bound on the words read: every draw in a range [0, h > 0].
        words = sum(2 * k - 1 - (n == k) if kind == "choice" else k * (n > 1) for kind, n, k in calls)
        assert words > 20 * 2 * _Draws._BLOCK
        assert_draws_as_numpy(calls, seed=9)


def pool_manifest():
    """Five identity clusters; those of 1 and 3 frames, fewer than batch_k 4, draw by integers."""
    rng = np.random.default_rng(11)
    tracklets = []
    for c, n_frames in enumerate([1, 2, 3, 5, 7]):
        for cam in ("A", "B")[: 1 + c % 2]:
            tracklets.append(Tracklet(f"{cam}{c}", cam, rng.normal(3.0 * c, 1.0, size=(n_frames, 4)),
                                      identity=f"p{c}"))
    return DomainManifest("pools", tuple(tracklets))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
class TestBatchSampler:
    """Draws made in a forked sampler process train to the inline bytes, and it is always reaped."""

    STEPS = 3 * _CHUNK + 5  # whole chunks and a part chunk

    @pytest.fixture
    def forks(self, monkeypatch):
        """W = 2, and the pid of each process os.fork starts."""
        monkeypatch.setattr(_tasks, "workers", lambda: 2)
        pids, real = [], os.fork

        def fork():
            pid = real()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        return pids

    def train(self, arch="linear", steps=STEPS, progress=None):
        m = pool_manifest()
        rng = np.random.default_rng(5)
        emb = LinearEmbedder.random(4, 3, rng) if arch == "linear" else MlpEmbedder.random(4, 6, 3, rng)
        cfg = TrainConfig(iterations=steps, batch_p=3, batch_k=4, learning_rate=0.05, seed=4)
        return emb, identity_clusters(m), m, cfg, progress

    @staticmethod
    def assert_reaped(pids):
        assert len(pids) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(pids[0], os.WNOHANG)

    @pytest.mark.parametrize("arch", ["linear", "mlp"])
    def test_forked_draws_train_the_inline_bytes(self, forks, monkeypatch, arch):
        args = self.train(arch)
        forked = train_embedder(*args).param_vector()
        self.assert_reaped(forks)
        monkeypatch.setattr(_tasks, "workers", lambda: 1)
        inline = train_embedder(*args).param_vector()
        assert len(forks) == 1  # none at W = 1
        assert forked.tobytes() == inline.tobytes()
        assert forked.tobytes() == loop_train_embedder(*args[:4]).param_vector().tobytes()

    def test_the_draws_are_made_before_the_fork(self, forks, monkeypatch):
        """The sampler process inherits numpy.random and its _Draws instead of importing it anew."""
        module = importlib.import_module("reidapt.adapt")
        made = []

        class Draws(_Draws):
            def __init__(self, seed):
                made.append(os.getpid())
                super().__init__(seed)

        monkeypatch.setattr(module, "_Draws", Draws)
        args = self.train()
        assert train_embedder(*args).param_vector().tobytes() == \
            loop_train_embedder(*args[:4]).param_vector().tobytes()
        assert made == [os.getpid()] and len(forks) == 1

    def test_every_step_reports_progress(self, forks):
        steps = []
        train_embedder(*self.train(progress=lambda step, loss: steps.append(step)))
        assert steps == list(range(self.STEPS)) and len(forks) == 1

    def test_reaped_when_progress_raises(self, forks):
        def progress(step, loss):
            if step == _CHUNK + 3:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            train_embedder(*self.train(progress=progress))
        self.assert_reaped(forks)

    def test_reaped_when_the_loss_raises(self, forks, monkeypatch):
        module = importlib.import_module("reidapt.adapt")
        calls = itertools.count()

        def failing(*args, **kwargs):
            if next(calls) == 2 * _CHUNK:
                raise BatchError("refused")
            return batch_hard_triplet_loss(*args, **kwargs)

        monkeypatch.setattr(module, "batch_hard_triplet_loss", failing)
        with pytest.raises(BatchError, match="refused"):
            train_embedder(*self.train())
        self.assert_reaped(forks)

    def test_a_sampler_that_ends_early_is_an_error(self, forks, monkeypatch):
        module = importlib.import_module("reidapt.adapt")
        real = module._batch_rows
        monkeypatch.setattr(module, "_batch_rows", lambda *a: itertools.islice(real(*a), 2))
        with pytest.raises(AdaptationError, match=r"^batch sampler process ended early \(exit status 0\)$"):
            train_embedder(*self.train())
        self.assert_reaped(forks)

    def test_a_failing_sampler_exits_1_with_its_traceback(self, forks, monkeypatch, capfd):
        module = importlib.import_module("reidapt.adapt")
        real = module._batch_rows

        def failing(*args):
            yield next(real(*args))
            raise RuntimeError("no more rows")

        monkeypatch.setattr(module, "_batch_rows", failing)
        with pytest.raises(AdaptationError, match=r"^batch sampler process ended early \(exit status 1\)$"):
            train_embedder(*self.train())
        self.assert_reaped(forks)
        err = capfd.readouterr().err
        assert "Traceback" in err and "RuntimeError: no more rows" in err

    def test_an_exception_at_the_fork_stays_in_the_child(self, forks, monkeypatch, capfd):
        """A signal's exception raised as os.fork returns in the child ends the child there."""
        real = os.fork  # the fixture's, which records the pid

        def fork():
            pid = real()
            if pid == 0:
                raise KeyboardInterrupt
            return pid

        monkeypatch.setattr(os, "fork", fork)
        with pytest.raises(AdaptationError, match=r"^batch sampler process ended early \(exit status 1\)$"):
            train_embedder(*self.train())
        self.assert_reaped(forks)
        assert capfd.readouterr() == ("", "")

    def test_a_parent_interrupted_at_the_fork_closes_the_pipe(self, forks, monkeypatch):
        pipes, real_pipe, real_fork = [], os.pipe, os.fork
        monkeypatch.setattr(os, "pipe", lambda: pipes.append(real_pipe()) or pipes[-1])

        def fork():
            pid = real_fork()
            if pid:
                raise KeyboardInterrupt
            return pid

        monkeypatch.setattr(os, "fork", fork)
        with pytest.raises(KeyboardInterrupt):
            train_embedder(*self.train())
        for fd in pipes[0]:  # both ends closed: the child's writes fail once the pipe is full
            with pytest.raises(OSError):
                os.fstat(fd)
        os.waitpid(forks[0], 0)  # the caller's pid was lost; the test's own record reaps it

    def test_no_fork_while_another_thread_runs(self, forks):
        args = self.train()
        stop = threading.Event()
        t = threading.Thread(target=stop.wait)
        t.start()
        try:
            got = train_embedder(*args).param_vector()
        finally:
            stop.set()
            t.join(timeout=10)
        assert not t.is_alive() and forks == []
        assert got.tobytes() == loop_train_embedder(*args[:4]).param_vector().tobytes()

    def test_a_failing_fork_draws_inline(self, forks, monkeypatch):
        args = self.train()
        want = train_embedder(*args).param_vector()
        assert len(forks) == 1

        def refuse():
            raise OSError(11, "Resource temporarily unavailable")

        pipes, real_pipe = [], os.pipe
        monkeypatch.setattr(os, "pipe", lambda: pipes.append(real_pipe()) or pipes[-1])
        monkeypatch.setattr(os, "fork", refuse)
        assert train_embedder(*args).param_vector().tobytes() == want.tobytes()
        assert len(pipes) == 1
        for fd in pipes[0]:  # both ends closed
            with pytest.raises(OSError):
                os.fstat(fd)


class TestEmbedders:
    def test_linear_forward(self):
        e = LinearEmbedder(np.array([[2.0, 0.0], [0.0, 3.0]]), np.array([1.0, -1.0]))
        out = e.embed(np.array([1.0, 1.0]))
        assert np.array_equal(out, [3.0, 2.0])

    @pytest.mark.filterwarnings("error")  # a zero width must fail before 1/sqrt(0) warns
    @pytest.mark.parametrize("make", [
        pytest.param(lambda rng: LinearEmbedder(np.ones((0, 2)), np.ones(2)), id="linear_input"),
        pytest.param(lambda rng: LinearEmbedder(np.ones((3, 0)), np.ones(0)), id="linear_output"),
        pytest.param(lambda rng: LinearEmbedder.random(0, 2, rng), id="linear_random_input"),
        pytest.param(lambda rng: MlpEmbedder(np.ones((3, 0)), np.ones(0), np.ones((0, 2)),
                                             np.ones(2)), id="mlp_hidden"),
        pytest.param(lambda rng: MlpEmbedder.random(3, 0, 2, rng), id="mlp_random_hidden"),
        pytest.param(lambda rng: MlpEmbedder.random(3, 4, 0, rng), id="mlp_random_output"),
        pytest.param(lambda rng: Embedder(np.ones((0, 2)), np.ones(2)), id="base_input"),
        pytest.param(lambda rng: Embedder(np.ones((3, 4)), np.ones(4), np.ones((4, 0)),
                                          np.ones(0)), id="base_output"),
    ])
    def test_zero_dim_rejected(self, make):
        with pytest.raises(ValueError, match="embedder dims must be positive"):
            make(np.random.default_rng(0))

    @pytest.mark.parametrize("n", [0, 1, 3, 6])
    def test_array_count_rejected(self, n):
        with pytest.raises(ValueError, match=rf"takes arrays W1, b1\[, W2, b2\], got {n}"):
            Embedder(*[np.ones((2, 2))] * n)

    @pytest.mark.parametrize("arrays", [
        pytest.param(((3,), (3,)), id="vector_weight"),
        pytest.param(((3, 2), (3,)), id="bias_width"),
        pytest.param(((3, 2), (1, 2)), id="matrix_bias"),
        pytest.param(((3, 4), (4,), (5, 2), (2,)), id="layer_join"),
        pytest.param(((3, 4), (2,), (4, 2), (2,)), id="hidden_bias"),
        pytest.param(((3, 4), (4,), (4, 2), (4,)), id="output_bias"),
        pytest.param(((3, 4), (4,), (4,), (2,)), id="vector_second_weight"),
    ])
    def test_mismatched_shapes_rejected(self, arrays):
        with pytest.raises(ValueError, match="layer"):
            Embedder(*(np.ones(shape) for shape in arrays))

    def test_kind_and_hidden_dim_follow_the_layer_count(self):
        one = Embedder(np.ones((3, 2)), np.ones(2))
        two = Embedder(np.ones((3, 5)), np.ones(5), np.ones((5, 2)), np.ones(2))
        assert (one.kind, one.input_dim, one.hidden_dim, one.output_dim) == ("linear", 3, 0, 2)
        assert (two.kind, two.input_dim, two.hidden_dim, two.output_dim) == ("mlp", 3, 5, 2)

    @pytest.mark.parametrize("arch", ["linear", "mlp"])
    def test_arithmetic_matches_written_out_form(self, arch):
        # The training oracle calls embed and param_grad itself, so their
        # arithmetic is pinned here, bit for bit, against the expressions
        # written out.
        rng = np.random.default_rng(5)
        x = rng.normal(size=(9, 4))
        if arch == "linear":
            W1, b1 = rng.normal(size=(4, 3)), rng.normal(size=3)
            e = LinearEmbedder(W1, b1)
            y = x @ W1 + b1
            g = rng.normal(size=y.shape)
            grads = [x.T @ g, g.sum(axis=0)]
        else:
            W1, b1 = rng.normal(size=(4, 6)), rng.normal(size=6)
            W2, b2 = rng.normal(size=(6, 3)), rng.normal(size=3)
            e = MlpEmbedder(W1, b1, W2, b2)
            y = np.tanh(x @ W1 + b1) @ W2 + b2
            g = rng.normal(size=y.shape)
            h = np.tanh(x @ W1 + b1)
            dW2 = h.T @ g
            db2 = g.sum(axis=0)
            gh = (g @ W2.T) * (1.0 - h * h)
            grads = [x.T @ gh, gh.sum(axis=0), dW2, db2]
        want = np.concatenate([a.ravel() for a in grads])
        reloaded = e.clone()
        reloaded.set_param_vector(e.param_vector())
        for emb in (e, reloaded):
            assert emb.embed(x).tobytes() == y.tobytes()
            assert emb.param_grad(x, g).tobytes() == want.tobytes()

    def test_param_roundtrip(self):
        rng = np.random.default_rng(1)
        for e in (
            LinearEmbedder.random(4, 3, rng),
            MlpEmbedder.random(4, 5, 3, rng),
        ):
            p = e.param_vector()
            e2 = e.clone()
            e2.set_param_vector(np.zeros_like(p))
            assert not np.array_equal(e2.param_vector(), p)
            e2.set_param_vector(p)
            assert np.array_equal(e2.param_vector(), p)
            x = rng.normal(size=(6, 4))
            assert np.array_equal(e.embed(x), e2.embed(x))

    @pytest.mark.parametrize("arch", ["linear", "mlp"])
    def test_param_grad_matches_finite_differences(self, arch):
        rng = np.random.default_rng(7)
        if arch == "linear":
            e = LinearEmbedder.random(4, 3, rng)
        else:
            e = MlpEmbedder.random(4, 6, 3, rng)
        x = rng.normal(size=(8, 4))
        g_out = rng.normal(size=(8, 3))
        analytic = e.param_grad(x, g_out)

        def f(params):
            probe = e.clone()
            probe.set_param_vector(params)
            return float((probe.embed(x) * g_out).sum())

        fd = fd_gradient(f, e.param_vector())
        assert rel_error(analytic, fd) <= 1e-6

    def test_chained_loss_gradient_through_embedder(self):
        # End-to-end check: d loss / d params via chain rule vs FD.
        rng = np.random.default_rng(9)
        e = LinearEmbedder.random(3, 3, rng)
        x = rng.normal(size=(8, 3))
        y = np.repeat([0, 1], 4)

        emb = e.embed(x)
        _, gy = batch_hard_triplet_loss(emb, y, "soft")
        analytic = e.param_grad(x, gy)

        def f(params):
            probe = e.clone()
            probe.set_param_vector(params)
            loss, _ = batch_hard_triplet_loss(probe.embed(x), y, "soft")
            return loss

        fd = fd_gradient(f, e.param_vector())
        assert rel_error(analytic, fd) <= 1e-4


def two_blob_manifest(n_per=4, sep=30.0, seed=0):
    rng = np.random.default_rng(seed)
    tracklets = []
    for b in range(2):
        for i in range(n_per):
            for cam in ("A", "B"):
                frames = rng.normal(b * sep, 1.0, size=(3, 2))
                tracklets.append(
                    Tracklet(f"{cam}_b{b}_{i}", cam, frames, identity=f"blob{b}")
                )
    return DomainManifest("blobs", tuple(tracklets))


class TestTrainEmbedder:
    def test_zero_iterations_leaves_params_unchanged(self):
        m = two_blob_manifest()
        cs = identity_clusters(m)
        e = LinearEmbedder.identity(2)
        out = train_embedder(e, cs, m, TrainConfig(iterations=0))
        assert np.array_equal(out.param_vector(), e.param_vector())
        assert out is not e

    def test_divergence_is_an_adaptation_error(self):
        m = two_blob_manifest()
        cfg = TrainConfig(iterations=20, learning_rate=1e300)
        with np.errstate(all="ignore"), pytest.raises(  # the diverging loss warns
                AdaptationError, match=r"^training diverged: parameters are not finite "
                                       r"after 20 steps at learning rate 1e\+300$"):
            train_embedder(LinearEmbedder.identity(2), identity_clusters(m), m, cfg)

    def test_incoming_embedder_untouched(self):
        m = two_blob_manifest()
        cs = identity_clusters(m)
        e = LinearEmbedder.identity(2)
        before = e.param_vector()
        train_embedder(e, cs, m, TrainConfig(iterations=20, learning_rate=0.01))
        assert np.array_equal(e.param_vector(), before)

    def test_loss_decreases_on_separable_data(self):
        rng = np.random.default_rng(3)
        tracklets = []
        for b in range(2):
            center = np.array([0.0, 0.0]) if b == 0 else np.array([4.0, 4.0])
            for i in range(4):
                for cam in ("A", "B"):
                    frames = rng.normal(center, 1.5, size=(3, 2))
                    tracklets.append(
                        Tracklet(f"{cam}{b}{i}", cam, frames, identity=f"p{b}")
                    )
        m = DomainManifest("m", tuple(tracklets))
        cs = identity_clusters(m)
        losses = []
        train_embedder(
            m=m,
            embedder=LinearEmbedder.identity(2),
            clusters=cs,
            cfg=TrainConfig(iterations=200, learning_rate=0.02, seed=1),
            progress=lambda s, l: losses.append(l),
        )
        assert len(losses) == 200
        assert np.mean(losses[-20:]) < np.mean(losses[:20])

    def test_deterministic_given_seed(self):
        m = two_blob_manifest()
        cs = identity_clusters(m)
        cfg = TrainConfig(iterations=30, learning_rate=0.01, seed=5)
        a = train_embedder(LinearEmbedder.identity(2), cs, m, cfg)
        b = train_embedder(LinearEmbedder.identity(2), cs, m, cfg)
        assert np.array_equal(a.param_vector(), b.param_vector())

    def test_needs_two_clusters(self):
        m = two_blob_manifest()
        one = ClusterSet(
            clusters=(ClusterAssignment(0, frozenset(t.tracklet_id for t in m.tracklets)),),
            unclustered=frozenset(),
        )
        with pytest.raises(AdaptationError):
            train_embedder(LinearEmbedder.identity(2), one, m, TrainConfig(iterations=1))
        with pytest.raises(AdaptationError):
            train_embedder(
                LinearEmbedder.identity(2),
                ClusterSet(clusters=(), unclustered=frozenset()),
                m,
                TrainConfig(iterations=1),
            )

    def test_reverse_listed_set_trains_the_same(self):
        # Four equal-sized clusters: a pool taken in listed order would pair
        # each sampled index with another cluster's frames.
        m = two_blob_manifest()
        groups = [frozenset(t.tracklet_id for t in m.tracklets
                            if t.identity == f"blob{b}" and int(t.tracklet_id[-1]) // 2 == h)
                  for b in range(2) for h in range(2)]
        cs = ClusterSet(tuple(ClusterAssignment(i, g) for i, g in enumerate(groups)), frozenset())
        rev = ClusterSet(cs.clusters[::-1], cs.unclustered)
        cfg = TrainConfig(iterations=20, seed=3)
        want = train_embedder(LinearEmbedder.identity(2), cs, m, cfg).param_vector()
        got = train_embedder(LinearEmbedder.identity(2), rev, m, cfg).param_vector()
        assert got.tobytes() == want.tobytes()

    def test_empty_cluster_rejected(self):
        # An empty cluster cannot be built, so it never reaches training.
        with pytest.raises(ValueError, match="cluster 9 has no members"):
            ClusterAssignment(9, frozenset())

    def test_unclustered_tracklets_not_sampled(self):
        # Poison the unclustered tracklet's frames: training only touches
        # cluster members, so the NaNs must never surface.
        m = two_blob_manifest(n_per=3)
        bad = Tracklet("zz_out", "A", [[np.nan, np.nan]], identity=None)
        m2 = DomainManifest("m", m.tracklets + (bad,))
        cs = identity_clusters(m)  # clusters over the clean subset only
        cs = ClusterSet(clusters=cs.clusters, unclustered=frozenset({"zz_out"}))
        out = train_embedder(
            LinearEmbedder.identity(2), cs, m2, TrainConfig(iterations=25, learning_rate=0.01)
        )
        assert np.isfinite(out.param_vector()).all()

    def test_unclustered_tracklet_of_another_dim_not_read(self):
        m = two_blob_manifest(n_per=2)
        cs = identity_clusters(m)
        m2 = DomainManifest("m", m.tracklets + (Tracklet("zz_out", "A", np.zeros((2, 3))),))
        cs = ClusterSet(clusters=cs.clusters, unclustered=frozenset({"zz_out"}))
        cfg = TrainConfig(iterations=5, learning_rate=0.01)
        out = train_embedder(LinearEmbedder.identity(2), cs, m2, cfg)
        assert out.param_vector().tobytes() == train_embedder(
            LinearEmbedder.identity(2), identity_clusters(m), m, cfg).param_vector().tobytes()

    def test_invalid_member_frames_refused(self):
        # Eight 2-frame tracklets, one NaN frame: training on it would give
        # all-NaN parameters after a RuntimeWarning from logaddexp.
        m = two_blob_manifest(n_per=2)
        poisoned = [t if i else Tracklet(t.tracklet_id, t.camera_id, [[np.nan, 0.0], [1.0, 1.0]],
                                         identity=t.identity)
                    for i, t in enumerate(m.tracklets)]
        m = DomainManifest("poisoned", poisoned)
        with pytest.raises(ManifestError, match=r"^manifest 'poisoned' is invalid \(1 violations; "
                           r"first: non-finite: tracklet 'A_b0_0' contains NaN or Inf\)$"):
            train_embedder(LinearEmbedder.identity(2), identity_clusters(m), m,
                           TrainConfig(iterations=5))

    def test_member_without_frames_refused(self):
        m = two_blob_manifest(n_per=2)
        m = DomainManifest("m", m.tracklets + (Tracklet("zz", "A", [], identity="blob0"),))
        with pytest.raises(ManifestError, match="first: empty-frames: tracklet 'zz' has no frames"):
            train_embedder(LinearEmbedder.identity(2), identity_clusters(m), m,
                           TrainConfig(iterations=1))

    def test_identity_clusters_refuse_an_unlabeled_tracklet(self):
        m = two_blob_manifest()
        m = DomainManifest("m", m.tracklets + (Tracklet("zz", "A", [[0.0, 0.0]]),))
        with pytest.raises(ManifestError, match="^tracklet 'zz' is unlabeled$"):
            identity_clusters(m)

    def test_member_missing_from_manifest_refused(self):
        m = two_blob_manifest()
        cs = identity_clusters(m)
        cs = ClusterSet(clusters=cs.clusters + (ClusterAssignment(9, frozenset({"ghost"})),),
                        unclustered=frozenset())
        with pytest.raises(AdaptationError, match="cluster member 'ghost' not present in manifest 'blobs'"):
            train_embedder(LinearEmbedder.identity(2), cs, m, TrainConfig(iterations=1))


class TestInputWidth:
    """An embedder given frames of another width fails in one line naming both widths."""

    MESSAGE = r"^embedder takes 3-d frames, got 2-d$"

    def test_embed_and_param_grad(self):
        e = LinearEmbedder.identity(3)
        for call in (lambda: e.embed(np.ones(2)), lambda: e.embed(np.ones((4, 2))),
                     lambda: e.param_grad(np.ones((4, 2)), np.ones((4, 3)))):
            with pytest.raises(ValueError, match=self.MESSAGE):
                call()

    def test_manifest_embeddings(self):
        with pytest.raises(ValueError, match=self.MESSAGE):
            manifest_embeddings(two_blob_manifest(), MlpEmbedder.random(3, 4, 3, np.random.default_rng(0)))

    def test_train_embedder(self):
        m = two_blob_manifest()
        with pytest.raises(ValueError, match=self.MESSAGE):
            train_embedder(LinearEmbedder.identity(3), identity_clusters(m), m, TrainConfig(iterations=1))

    def test_adapt(self):
        with pytest.raises(ValueError, match=self.MESSAGE):
            adapt(LinearEmbedder.identity(3), two_blob_manifest(), AdaptConfig(K=1, T=1))


def target_spec(seed=0, **overrides):
    base = dict(
        identities=12,
        cameras=3,
        dim=6,
        frames_per_tracklet=(2, 4),
        tracklets_per_identity_per_camera=(1, 2),
        identity_separation=10.0,
        camera_shift=0.1,
        noise_sigma=0.4,
        seed=seed,
    )
    base.update(overrides)
    return SyntheticSpec(**base)


class TestAdapt:
    def test_zero_rounds_returns_source_unchanged(self):
        target = generate_synthetic_domain(target_spec())
        e = LinearEmbedder.identity(6)
        out, report = adapt(e, target, AdaptConfig(K=2, T=2, I=0))
        assert out is e
        assert report.rounds == ()
        assert report.early_stop is False
        assert report.reason == "completed"

    def test_runs_requested_rounds_and_chains(self):
        target = generate_synthetic_domain(target_spec(seed=1))
        cfg = AdaptConfig(
            K=2, T=2, I=2, train=TrainConfig(iterations=15, learning_rate=0.005, seed=3)
        )
        e = LinearEmbedder.identity(6)
        out, report = adapt(e, target, cfg)
        assert len(report.rounds) == 2
        assert report.reason == "completed"
        assert not report.early_stop
        assert all(len(r.losses) == 15 for r in report.rounds)

        # Warm start: round 2 must begin from round 1's parameters, so
        # running round 1 alone then resuming matches the two-round run.
        one_round = AdaptConfig(
            K=2, T=2, I=1, train=TrainConfig(iterations=15, learning_rate=0.005, seed=3)
        )
        mid, _ = adapt(e, target, one_round)
        resume = AdaptConfig(
            K=2, T=2, I=1, train=TrainConfig(iterations=15, learning_rate=0.005, seed=4)
        )
        final, _ = adapt(mid, target, resume)
        assert np.array_equal(final.param_vector(), out.param_vector())

    def test_cluster_cap_stops_before_training(self):
        # 12 identities -> 12 tight pair-clusters, cap 5 halts round 1.
        target = generate_synthetic_domain(
            target_spec(seed=2, cameras=2, noise_sigma=0.01,
                        tracklets_per_identity_per_camera=(1, 1))
        )
        cfg = AdaptConfig(K=1, T=1, I=3, cluster_cap=5, train=TrainConfig(iterations=5))
        e = LinearEmbedder.identity(6)
        out, report = adapt(e, target, cfg)
        assert report.early_stop is True
        assert report.reason == "cluster-cap"
        assert len(report.rounds) == 1
        assert report.rounds[0].cluster_count > 5
        assert report.rounds[0].losses == ()
        assert np.array_equal(out.param_vector(), e.param_vector())

    def test_no_clusters_terminates_with_report(self):
        # Huge noise and K=1/T=2 on sparse data: nothing survives the
        # threshold, so the loop reports rather than raising.
        pts = []
        rng = np.random.default_rng(5)
        for i in range(6):
            pts.append(Tracklet(f"a{i}", "A", rng.normal(i * 50, 0.1, (2, 2))))
        for i in range(6):
            pts.append(Tracklet(f"b{i}", "B", rng.normal((i + 20) * 50, 0.1, (2, 2))))
        target = DomainManifest("sparse", tuple(pts))
        cfg = AdaptConfig(K=1, T=2, I=2, train=TrainConfig(iterations=5))
        out, report = adapt(LinearEmbedder.identity(2), target, cfg)
        assert report.early_stop is True
        assert report.reason == "no-clusters"
        assert len(report.rounds) == 1

    @pytest.mark.parametrize("reason,spec,cfg", [
        # Round 0 finds 8 clusters and trains; round 1 finds more than the cap.
        pytest.param("cluster-cap", dict(seed=4),
                     AdaptConfig(K=2, T=2, I=3, cluster_cap=8,
                                 train=TrainConfig(iterations=20, learning_rate=0.005)),
                     id="cluster-cap"),
        # Round 0 finds 3 clusters and trains; round 1 finds exactly one.
        pytest.param("no-clusters", dict(seed=0, identities=4),
                     AdaptConfig(K=2, T=3, I=3, train=TrainConfig(iterations=20, learning_rate=0.05)),
                     id="no-clusters"),
    ])
    def test_stop_after_a_trained_round(self, reason, spec, cfg):
        target = generate_synthetic_domain(target_spec(**spec))
        e = LinearEmbedder.random(6, 1, np.random.default_rng(spec["seed"]))
        out, report = adapt(e, target, cfg)
        assert report.early_stop is True and report.reason == reason
        first, second = report.rounds
        assert (first.round_index, second.round_index) == (0, 1)
        assert 2 <= first.cluster_count <= cfg.cluster_cap
        if reason == "cluster-cap":
            assert second.cluster_count > cfg.cluster_cap
        else:
            assert second.cluster_count == 1
        assert len(first.losses) == cfg.train.iterations
        assert second.losses == ()

        one_round, one_report = adapt(e, target, replace(cfg, I=1))
        assert one_report.rounds == (first,) and one_report.reason == "completed"
        assert np.array_equal(out.param_vector(), one_round.param_vector())
        assert report.checkpoint_id == one_report.checkpoint_id

    def test_validates_manifest_once(self, monkeypatch):
        import reidapt.model

        calls = []
        real = reidapt.model.validate_manifest
        monkeypatch.setattr(
            reidapt.model, "validate_manifest", lambda m: calls.append(m) or real(m)
        )
        target = generate_synthetic_domain(target_spec(seed=1))
        cfg = AdaptConfig(K=2, T=2, I=2, train=TrainConfig(iterations=5, learning_rate=0.005))
        _, report = adapt(LinearEmbedder.identity(6), target, cfg)
        assert len(report.rounds) == 2 and report.reason == "completed"
        assert len(calls) == 1 and calls[0] is target

    @pytest.mark.parametrize("rounds", [0, 2])
    def test_raw_features_rejected_before_any_work(self, rounds):
        target = generate_synthetic_domain(target_spec(seed=1))
        with pytest.raises(AdaptationError, match="needs an embedder with parameters"):
            adapt(None, target, AdaptConfig(I=rounds, train=TrainConfig(iterations=5)))
        assert "validation" not in vars(target)  # the manifest was never validated

    def test_deterministic(self):
        target = generate_synthetic_domain(target_spec(seed=3))
        cfg = AdaptConfig(K=2, T=2, I=2, train=TrainConfig(iterations=10, learning_rate=0.01))
        a, ra = adapt(LinearEmbedder.identity(6), target, cfg)
        b, rb = adapt(LinearEmbedder.identity(6), target, cfg)
        assert np.array_equal(a.param_vector(), b.param_vector())
        assert ra == rb


class TestCheckpoints:
    @pytest.mark.parametrize("make", [
        lambda rng: LinearEmbedder.random(4, 3, rng),
        lambda rng: MlpEmbedder.random(4, 6, 3, rng),
    ])
    def test_roundtrip(self, tmp_path, make):
        rng = np.random.default_rng(11)
        e = make(rng)
        path = tmp_path / "e.kte"
        save_checkpoint(path, e, seed=123, round_index=2)
        ckpt = load_checkpoint(path)
        assert ckpt.seed == 123
        assert ckpt.round_index == 2
        assert type(ckpt.embedder) is type(e)
        assert ckpt.embedder.kind == e.kind
        assert ckpt.embedder.hidden_dim == e.hidden_dim
        assert ckpt.embedder.input_dim == e.input_dim
        assert ckpt.embedder.output_dim == e.output_dim
        assert np.array_equal(ckpt.embedder.param_vector(), e.param_vector())
        x = rng.normal(size=(5, e.input_dim))
        assert np.array_equal(ckpt.embedder.embed(x), e.embed(x))

    @pytest.mark.parametrize("n_arrays,cls", [(2, LinearEmbedder), (4, MlpEmbedder)])
    def test_base_class_saves_and_loads_as_its_kind(self, tmp_path, n_arrays, cls):
        rng = np.random.default_rng(13)
        shapes = [(4, 5), (5,), (5, 3), (3,)] if n_arrays == 4 else [(4, 3), (3,)]
        e = Embedder(*(rng.normal(size=s) for s in shapes))
        path = tmp_path / "e.kte"
        save_checkpoint(path, e)
        loaded = load_checkpoint(path).embedder
        assert type(loaded) is cls
        assert loaded.param_vector().tobytes() == e.param_vector().tobytes()

    @pytest.mark.parametrize("field,value", [
        ("seed", -1), ("seed", 1 << 64), ("round_index", -1), ("round_index", 1 << 32),
    ])
    def test_header_field_out_of_range_rejected(self, tmp_path, field, value):
        with pytest.raises(ValueError, match=rf"checkpoint {field} must be in 0\.\.2\*\*"):
            save_checkpoint(tmp_path / "e.kte", LinearEmbedder.identity(2), **{field: value})
        assert list(tmp_path.iterdir()) == []

    def test_largest_header_fields_roundtrip(self, tmp_path):
        path = tmp_path / "e.kte"
        save_checkpoint(path, LinearEmbedder.identity(2), seed=(1 << 64) - 1,
                        round_index=(1 << 32) - 1)
        ckpt = load_checkpoint(path)
        assert (ckpt.seed, ckpt.round_index) == ((1 << 64) - 1, (1 << 32) - 1)

    def test_identity_kind_loads_as_raw_features(self, tmp_path):
        path = tmp_path / "raw.kte"
        path.write_bytes(struct.pack("<4sIIIIQIQ", b"KTE1", 0, 5, 0, 5, 123, 4, 0))
        assert load_checkpoint(path) == Checkpoint(embedder=None, seed=123, round_index=4)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.kte"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_save_is_byte_stable(self, tmp_path):
        rng = np.random.default_rng(12)
        e = LinearEmbedder.random(3, 3, rng)
        p1, p2 = tmp_path / "a.kte", tmp_path / "b.kte"
        save_checkpoint(p1, e, seed=1, round_index=0)
        save_checkpoint(p2, e, seed=1, round_index=0)
        assert p1.read_bytes() == p2.read_bytes()


def write_header(path, code, d_in, d_hid, d_out, n_params):
    """A KTE1 file with the given header fields and n_params zero parameters."""
    header = struct.pack("<4sIIIIQIQ", b"KTE1", code, d_in, d_hid, d_out, 0, 0, n_params)
    path.write_bytes(header + bytes(8 * n_params))
    return path


class TestCheckpointHeaders:
    """Header dims are checked against the kind before anything is allocated."""

    def test_identity_with_output_dim_differing_rejected(self, tmp_path):
        path = write_header(tmp_path / "e.kte", 0, 3, 0, 7, 0)
        with pytest.raises(ValueError, match=r"e\.kte: identity checkpoint maps 3 to 7"):
            load_checkpoint(path)

    def test_identity_with_hidden_dim_rejected(self, tmp_path):
        path = write_header(tmp_path / "e.kte", 0, 3, 2, 3, 0)
        with pytest.raises(ValueError, match=r"e\.kte: identity checkpoint declares hidden_dim 2"):
            load_checkpoint(path)

    def test_linear_with_hidden_dim_rejected(self, tmp_path):
        path = write_header(tmp_path / "e.kte", 1, 2, 5, 3, 9)
        with pytest.raises(ValueError, match=r"e\.kte: linear checkpoint declares hidden_dim 5"):
            load_checkpoint(path)

    @pytest.mark.parametrize("code,dims,n_params", [
        (0, (0, 0, 0), 0), (1, (4, 0, 0), 0), (1, (0, 0, 3), 3), (2, (4, 0, 3), 3), (2, (0, 5, 3), 23),
    ])
    def test_zero_dim_rejected(self, tmp_path, monkeypatch, code, dims, n_params):
        # The parameter count fits the dims, so only the zero dim is wrong.
        path = write_header(tmp_path / "e.kte", code, *dims, n_params)

        def no_alloc(*args, **kwargs):
            raise AssertionError("array allocated before the header was checked")

        monkeypatch.setattr(np, "zeros", no_alloc)
        with pytest.raises(ValueError, match=r"e\.kte: \w+ checkpoint declares a zero dim"):
            load_checkpoint(path)

    @pytest.mark.parametrize("code,dims", [(1, (1 << 20, 0, 1 << 20)), (2, (1 << 20, 1 << 20, 8))])
    def test_param_count_checked_before_allocation(self, tmp_path, monkeypatch, code, dims):
        # Dims implying terabytes of weights, zero declared parameters: the
        # loader must refuse before creating any array.
        path = write_header(tmp_path / "e.kte", code, *dims, 0)

        def no_alloc(*args, **kwargs):
            raise AssertionError("array allocated before the header was checked")

        monkeypatch.setattr(np, "zeros", no_alloc)
        with pytest.raises(ValueError, match=r"e\.kte: \w+ dims imply \d+ parameters, header says 0"):
            load_checkpoint(path)
