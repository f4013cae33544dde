import hashlib
import importlib
import json
import os
import pkgutil
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import reidapt
from reidapt import (
    AdaptConfig,
    DomainManifest,
    LinearEmbedder,
    MergePolicy,
    SOURCE_ITERATIONS,
    SyntheticSpec,
    TrainConfig,
    Tracklet,
    build_neighbor_index,
    cluster,
    default_kt,
    inter_intra_distances,
    load_checkpoint,
    read_manifest,
    save_checkpoint,
    write_assignments,
    write_feature_sidecar,
    write_manifest,
)
from reidapt import cli
from reidapt.cli import run


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_eval_fixture(tmp_path):
    """Four queries whose first matches land at ranks 1, 1, 3, 6."""
    mk = lambda tid, cam, ident, x: Tracklet(tid, cam, [[x]], identity=ident)
    rows = [
        mk("q1", "A", "I1", 0.0),
        mk("q2", "A", "I2", 100.0),
        mk("q3", "A", "I3", 200.0),
        mk("q4", "A", "I4", 300.0),
        mk("b1", "B", "I1", 0.1),
        mk("b2", "B", "I2", 100.1),
        mk("d31", "B", "X1", 200.01),
        mk("d32", "B", "X2", 200.02),
        mk("b3", "B", "I3", 200.1),
        mk("d41", "B", "X3", 300.01),
        mk("d42", "B", "X4", 300.02),
        mk("d43", "B", "X5", 300.03),
        mk("d44", "B", "X6", 300.04),
        mk("d45", "B", "X7", 300.05),
        mk("b4", "B", "I4", 300.1),
    ]
    m = DomainManifest("fixture", tuple(rows))
    manifest = tmp_path / "fixture.jsonl"
    write_manifest(m, manifest)
    queries = tmp_path / "queries.txt"
    queries.write_text("q1\nq2\nq3\nq4\n")
    return manifest, queries


class TestSynthCommand:
    def test_writes_manifest(self, tmp_path):
        out = tmp_path / "d.jsonl"
        code = run(
            [
                "--seed", "3", "synth", "--out", str(out),
                "--identities", "6", "--cameras", "3", "--dim", "4",
            ]
        )
        assert code == 0
        m = read_manifest(out)
        assert len(m.cameras) == 3
        assert len({t.identity for t in m.tracklets}) == 6

    def test_deterministic_given_seed(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        argv = ["--seed", "7", "synth", "--identities", "5", "--cameras", "2", "--dim", "3"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert sha(a) == sha(b)
        c = tmp_path / "c.jsonl"
        assert run(["--seed", "8", *argv[2:], "--out", str(c)]) == 0
        assert sha(c) != sha(a)  # --seed reaches the generator

    def test_sidecar_output(self, tmp_path):
        out = tmp_path / "d.jsonl"
        side = tmp_path / "d.ktf"
        code = run(
            [
                "synth", "--out", str(out), "--sidecar", str(side),
                "--identities", "4", "--cameras", "2", "--dim", "3",
            ]
        )
        assert code == 0
        assert side.read_bytes()[:4] == b"KTF1"
        m = read_manifest(out, sidecar=side)
        assert len(m) > 0


    @pytest.mark.parametrize("flag,value,message", [
        pytest.param("--camera-shift", "nan", "camera_shift must be finite", id="camera_shift_nan"),
        pytest.param("--noise-sigma", "inf", "noise_sigma must be finite", id="noise_sigma_inf"),
        pytest.param("--separation", "inf", "identity_separation must be finite",
                     id="separation_inf"),
        pytest.param("--separation", "1e308",
                     "separation 1e+308 places centroids past the float64 range",
                     id="separation_1e308"),
    ])
    def test_bad_float_flag_is_one_line_error(self, tmp_path, capsys, flag, value, message):
        # NaN and inf once passed the spec and were blamed on the manifest, and
        # an overflowing placement extent ended in numpy's OverflowError.
        code = run(["synth", "--out", str(tmp_path / "d.jsonl"), "--identities", "5",
                    "--cameras", "2", "--dim", "3", flag, value])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert list(tmp_path.iterdir()) == []


class TestClusterCommand:
    def synth(self, tmp_path, **kw):
        out = tmp_path / "d.jsonl"
        args = ["--seed", "1", "synth", "--out", str(out), "--identities", "8",
                "--cameras", "3", "--dim", "4", "--noise-sigma", "0.2"]
        assert run(args) == 0
        return out

    def test_writes_assignments(self, tmp_path):
        manifest = self.synth(tmp_path)
        out = tmp_path / "assign.tsv"
        assert run(["cluster", "--manifest", str(manifest), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        m = read_manifest(manifest)
        assert len(lines) == len(m)
        assert all("\t" in line for line in lines)

    def test_repeat_runs_byte_identical(self, tmp_path):
        manifest = self.synth(tmp_path)
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert run(["cluster", "--manifest", str(manifest), "--out", str(a)]) == 0
        assert run(["cluster", "--manifest", str(manifest), "--out", str(b)]) == 0
        assert sha(a) == sha(b)

    def test_K_past_int64_clusters_as_K_n(self, tmp_path):
        # The "above K" fill K + 1 once overflowed int64 in build_graph.
        manifest = self.synth(tmp_path)
        n = len(read_manifest(manifest))
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        for out, K in ((a, 10**20), (b, n)):
            assert run(["cluster", "--manifest", str(manifest), "--out", str(out), "--K", str(K)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_assignments_independent_of_blas_threads(self, tmp_path):
        # GEMM distances only preselect neighbors; exact re-checks decide, so
        # the BLAS pool size cannot change the output.  It does set the
        # neighbor-block threads, cpus // BLAS threads: on two CPUs, 2 against 1.
        manifest = tmp_path / "d.jsonl"
        assert run(["--seed", "5", "synth", "--out", str(manifest), "--identities", "250",
                    "--cameras", "4", "--dim", "32"]) == 0
        src = str(Path(reidapt.__file__).resolve().parents[1])
        names = ("assignments.tsv", "summary.json", "cmc_curve.csv", "cluster_distances.csv")
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            out.mkdir()
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            for argv in (["cluster", "--manifest", str(manifest), "--out",
                          str(out / "assignments.tsv")],
                         ["eval", "--manifest", str(manifest), "--out-dir", str(out)]):
                subprocess.run([sys.executable, "-m", "reidapt.cli", *argv], env=env, check=True,
                               capture_output=True)
            outs.append([(out / name).read_bytes() for name in names])
        assert len(outs[0][0].splitlines()) == len(read_manifest(manifest))
        assert outs[0] == outs[1]

    def test_missing_manifest_fails_cleanly(self, tmp_path, capsys):
        code = run(["cluster", "--manifest", str(tmp_path / "nope.jsonl"),
                    "--out", str(tmp_path / "x.tsv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [
        pytest.param('5', id="number"),
        pytest.param('["t2", "B", null, [[1.0]]]', id="array"),
        pytest.param('{"tracklet_id": 2, "camera_id": "B", "frames": [[1.0]]}', id="numeric_id"),
        pytest.param('{"tracklet_id": "t2", "camera_id": 7, "frames": [[1.0]]}',
                     id="numeric_camera"),
        pytest.param('{"tracklet_id": "t2", "camera_id": "B", "identity": 3, "frames": [[1.0]]}',
                     id="numeric_identity"),
        pytest.param('{"tracklet_id": "t2", "camera_id": "B", "frames_ref": [0, 1]}',
                     id="ref_array"),
        pytest.param('{"tracklet_id": "t2", "camera_id": "B", "frames_ref": {"offset": 0}}',
                     id="ref_no_count"),
        pytest.param('{"tracklet_id": "t2", "camera_id": "B", '
                     '"frames_ref": {"offset": 0.0, "count": 1}}', id="ref_float"),
        pytest.param('{"tracklet_id": "t2", "camera_id": "B", '
                     '"frames_ref": {"offset": "0", "count": 1}}', id="ref_string"),
        pytest.param('{"tracklet_id": "t2", "camera_id": "B", '
                     '"frames_ref": {"offset": 0, "count": true}}', id="ref_bool"),
        pytest.param('{"tracklet_id": "t2", "camera_id": "B", "frames": [[1' + '0' * 400 + ']]}',
                     id="frame_int_overflows_float"),
        pytest.param('{"tracklet_id": "t2", "camera_id": "B", "frames": [["1.0"]]}',
                     id="frame_string"),
        pytest.param('{"tracklet_id": "t2", "camera_id": "B", "frames": [[true]]}',
                     id="frame_bool"),
        pytest.param('{"tracklet_id": "t2", "camera_id": "B", "frames": [[null]]}',
                     id="frame_null"),
        # Written with surrogateescape: the line starts with bytes FF FE.
        pytest.param('\udcff\udcfe{"tracklet_id": "t2", "camera_id": "B", "frames": [[1.0]]}',
                     id="not_utf8"),
        pytest.param('{"tracklet_id": "t2", "camera_id": "B", "frames": '
                     + "[" * 200_000 + "]" * 200_000 + "}", id="nested_200k_deep"),
    ])
    def test_malformed_record_fails_cleanly(self, tmp_path, capsys, bad):
        manifest, sidecar = tmp_path / "m.jsonl", tmp_path / "m.ktf"
        write_feature_sidecar(sidecar, np.zeros((2, 1)))
        good = '{"tracklet_id": "t1", "camera_id": "A", "frames_ref": {"offset": 0, "count": 1}}'
        manifest.write_bytes((good + "\n" + bad + "\n").encode("utf-8", "surrogateescape"))
        code = run(["cluster", "--manifest", str(manifest), "--sidecar", str(sidecar),
                    "--out", str(tmp_path / "x.tsv")])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith(f"error: {manifest}:2: "), err
        assert not (tmp_path / "x.tsv").exists()

    @pytest.mark.parametrize("ch", ["\t", "\n", "\r"], ids=["tab", "newline", "return"])
    def test_id_assignments_cannot_store_fails_cleanly(self, tmp_path, capsys, ch):
        mk = lambda tid, cam, x: Tracklet(tid, cam, [[x]])
        m = DomainManifest("m", (mk("a", "A", 0.0), mk(f"b{ch}1", "B", 0.1),
                                 mk("c", "A", 5.0), mk("d", "B", 5.1)))
        manifest, out = tmp_path / "m.jsonl", tmp_path / "x.tsv"
        write_manifest(m, manifest)
        assert read_manifest(manifest).by_id[f"b{ch}1"]  # a valid id in JSON
        code = run(["cluster", "--manifest", str(manifest), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: tracklet id {f'b{ch}1'!r}: assignments cannot store a tab or line break"
        ]
        assert list(tmp_path.iterdir()) == [manifest]


class TestTrainAndAdapt:
    def make_domains(self, tmp_path):
        src = tmp_path / "src.jsonl"
        tgt = tmp_path / "tgt.jsonl"
        base = ["synth", "--identities", "8", "--cameras", "3", "--dim", "4",
                "--separation", "8", "--noise-sigma", "0.3"]
        assert run(["--seed", "10"] + base + ["--out", str(src)]) == 0
        assert run(["--seed", "20"] + base + ["--out", str(tgt), "--camera-shift", "0.4"]) == 0
        return src, tgt

    def test_train_source_and_adapt(self, tmp_path):
        src, tgt = self.make_domains(tmp_path)
        ckpt = tmp_path / "src.kte"
        code = run(
            ["--seed", "5", "train-source", "--manifest", str(src), "--out", str(ckpt),
             "--iterations", "40", "--lr", "0.01"]
        )
        assert code == 0
        loaded = load_checkpoint(ckpt)
        assert loaded.embedder.kind == "linear"
        assert loaded.seed == 5

        adapted = tmp_path / "adapted.kte"
        report = tmp_path / "report.json"
        code = run(
            ["--seed", "6", "adapt", "--checkpoint", str(ckpt), "--manifest", str(tgt),
             "--out", str(adapted), "--report", str(report),
             "--rounds", "2", "--iterations", "25", "--lr", "0.005"]
        )
        assert code == 0
        rep = json.loads(report.read_text())
        assert len(rep["rounds"]) == 2
        assert rep["reason"] == "completed"
        final = load_checkpoint(adapted)
        assert final.round_index == 2
        assert not np.array_equal(
            final.embedder.param_vector(), loaded.embedder.param_vector()
        )

    def test_adapt_zero_rounds_checkpoint_identical(self, tmp_path):
        src, tgt = self.make_domains(tmp_path)
        ckpt = tmp_path / "src.kte"
        assert run(["train-source", "--manifest", str(src), "--out", str(ckpt),
                    "--iterations", "10", "--lr", "0.01"]) == 0
        out = tmp_path / "same.kte"
        assert run(["--seed", "99", "adapt", "--checkpoint", str(ckpt),
                    "--manifest", str(tgt), "--out", str(out), "--rounds", "0"]) == 0
        assert sha(out) == sha(ckpt)

    def test_adapt_deterministic(self, tmp_path):
        src, tgt = self.make_domains(tmp_path)
        ckpt = tmp_path / "src.kte"
        assert run(["train-source", "--manifest", str(src), "--out", str(ckpt),
                    "--iterations", "15", "--lr", "0.01"]) == 0
        outs, reports = [], []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.kte"
            rep = tmp_path / f"{tag}.json"
            assert run(["--seed", "4", "adapt", "--checkpoint", str(ckpt),
                        "--manifest", str(tgt), "--out", str(out), "--report", str(rep),
                        "--rounds", "1", "--iterations", "20", "--lr", "0.005"]) == 0
            outs.append(sha(out))
            reports.append(sha(rep))
        assert outs[0] == outs[1]
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("flag,message", [
        pytest.param("--lr", "learning_rate must be positive and finite", id="lr"),
        pytest.param("--margin", "hard margin must be finite", id="margin"),
    ])
    def test_infinite_flag_is_one_line_error(self, tmp_path, capsys, flag, message):
        # An infinite rate once wrote a checkpoint of NaN parameters, and an
        # infinite margin a loss of inf that report.json holds as Infinity.
        src, _ = self.make_domains(tmp_path)
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        code = run(["train-source", "--manifest", str(src), "--out", str(tmp_path / "out.kte"),
                    "--iterations", "5", flag, "inf"])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command", ["train-source", "adapt"])
    def test_seed_beyond_u64_is_one_line_error(self, tmp_path, capsys, command):
        # KTE1 stores the seed as a u64: the checkpoint is refused before
        # anything is written, not after a struct.error traceback.
        src, tgt = self.make_domains(tmp_path)
        ckpt = tmp_path / "src.kte"
        assert run(["train-source", "--manifest", str(src), "--out", str(ckpt),
                    "--iterations", "5", "--lr", "0.01"]) == 0
        before = sorted(tmp_path.iterdir())
        out = tmp_path / "out.kte"
        args = {
            "train-source": ["--manifest", str(src), "--iterations", "5"],
            "adapt": ["--checkpoint", str(ckpt), "--manifest", str(tgt),
                      "--rounds", "1", "--iterations", "5"],
        }[command]
        capsys.readouterr()
        code = run(["--seed", str(1 << 64), command, "--out", str(out), "--lr", "0.01", *args])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: checkpoint seed must be in"), err
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    @pytest.mark.parametrize("command", ["train-source", "adapt"])
    def test_seed_out_of_range_refused_before_training(self, tmp_path, capsys, monkeypatch,
                                                       command, seed):
        src, tgt = self.make_domains(tmp_path)
        ckpt = tmp_path / "src.kte"
        assert run(["train-source", "--manifest", str(src), "--out", str(ckpt),
                    "--iterations", "5", "--lr", "0.01"]) == 0

        def refuse(*args, **kwargs):
            raise AssertionError("training started before the seed was checked")

        for name in ("reidapt.cli", "reidapt.adapt"):  # reidapt.adapt is also a function
            monkeypatch.setattr(importlib.import_module(name), "train_embedder", refuse)
        args = {
            "train-source": ["--manifest", str(src)],
            "adapt": ["--checkpoint", str(ckpt), "--manifest", str(tgt), "--rounds", "1"],
        }[command]
        capsys.readouterr()
        assert run(["--seed", str(seed), command, "--out", str(tmp_path / "out.kte"), *args]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: checkpoint seed must be in 0..2**64-1, got {seed}"]

    @pytest.mark.filterwarnings("default::RuntimeWarning")  # the diverging loss warns
    @pytest.mark.parametrize("command", ["train-source", "adapt"])
    def test_diverged_training_writes_nothing(self, tmp_path, capsys, command):
        # A diverged run once exited 0 with an all-NaN checkpoint and a
        # report.json of bare NaN tokens.
        src, tgt = self.make_domains(tmp_path)
        ckpt = tmp_path / "src.kte"
        assert run(["train-source", "--manifest", str(src), "--out", str(ckpt),
                    "--iterations", "5", "--lr", "0.01"]) == 0
        before = sorted(tmp_path.iterdir())
        args = {
            "train-source": ["--manifest", str(src)],
            "adapt": ["--checkpoint", str(ckpt), "--manifest", str(tgt),
                      "--report", str(tmp_path / "report.json"), "--rounds", "1"],
        }[command]
        capsys.readouterr()
        code = run(["--seed", "1", command, "--out", str(tmp_path / "out.kte"),
                    "--iterations", "50", "--lr", "1e300", *args])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == ("error: training diverged: parameters are not finite "
                           "after 32 steps at learning rate 1e+300"), err
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command", ["train-source", "adapt"])
    def test_batch_k_past_int64_is_one_line_error(self, tmp_path, capsys, command):
        # numpy's OverflowError once ended the run in a traceback.
        src, tgt = self.make_domains(tmp_path)
        ckpt = tmp_path / "src.kte"
        assert run(["train-source", "--manifest", str(src), "--out", str(ckpt),
                    "--iterations", "5", "--lr", "0.01"]) == 0
        before = sorted(tmp_path.iterdir())
        args = {
            "train-source": ["--manifest", str(src)],
            "adapt": ["--checkpoint", str(ckpt), "--manifest", str(tgt),
                      "--report", str(tmp_path / "report.json"), "--rounds", "1"],
        }[command]
        capsys.readouterr()
        code = run([command, "--out", str(tmp_path / "out.kte"), "--iterations", "5",
                    "--batch-k", str(10**20), *args])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert sorted(tmp_path.iterdir()) == before

    def test_mlp_architecture(self, tmp_path):
        src, _ = self.make_domains(tmp_path)
        ckpt = tmp_path / "mlp.kte"
        assert run(["train-source", "--manifest", str(src), "--out", str(ckpt),
                    "--arch", "mlp", "--hidden-dim", "8", "--embed-dim", "3",
                    "--iterations", "10", "--lr", "0.01"]) == 0
        loaded = load_checkpoint(ckpt)
        assert loaded.embedder.kind == "mlp"
        assert loaded.embedder.output_dim == 3


class TestMergeCommand:
    def write_source(self, tmp_path, name, n_ids):
        tracklets = []
        for i in range(n_ids):
            for cam in ("c1", "c2"):
                tracklets.append(
                    Tracklet(f"{cam}_t{i}", cam, [[float(i)]], identity=f"id{i}")
                )
        path = tmp_path / f"{name}.jsonl"
        write_manifest(DomainManifest(name, tuple(tracklets)), path)
        return path

    def test_merge_two_sources(self, tmp_path):
        a = self.write_source(tmp_path, "alpha", 4)
        b = self.write_source(tmp_path, "beta", 5)
        out = tmp_path / "merged.jsonl"
        rep = tmp_path / "merge.json"
        code = run(["merge", "--sources", str(a), str(b), "--out", str(out),
                    "--report", str(rep), "--min-identities", "1"])
        assert code == 0
        merged = read_manifest(out)
        assert len({t.identity for t in merged.tracklets}) == 9
        report = json.loads(rep.read_text())
        assert report["merged"]["identities"] == 9
        assert all(s["included"] for s in report["sources"])

    def test_exclude_flag(self, tmp_path):
        a = self.write_source(tmp_path, "alpha", 4)
        b = self.write_source(tmp_path, "beta", 5)
        out = tmp_path / "merged.jsonl"
        code = run(["merge", "--sources", str(a), str(b), "--out", str(out),
                    "--min-identities", "1", "--exclude", "beta"])
        assert code == 0
        merged = read_manifest(out)
        assert {t.identity.split("/")[0] for t in merged.tracklets} == {"alpha"}

    def test_all_sources_too_small_fails(self, tmp_path, capsys):
        a = self.write_source(tmp_path, "alpha", 4)
        code = run(["merge", "--sources", str(a), "--out", str(tmp_path / "m.jsonl")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestEvalCommand:
    def test_fixture_metrics(self, tmp_path, capsys):
        manifest, queries = write_eval_fixture(tmp_path)
        out_dir = tmp_path / "report"
        code = run(["eval", "--manifest", str(manifest), "--queries", str(queries),
                    "--ranks", "1,5,20", "--out-dir", str(out_dir)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "rank-1" in stdout and "0.5000" in stdout
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["cmc"]["1"] == pytest.approx(0.5)
        assert summary["cmc"]["5"] == pytest.approx(0.75)
        assert summary["cmc"]["20"] == pytest.approx(1.0)
        assert summary["map"] == pytest.approx((1.0 + 1.0 + 1 / 3 + 1 / 6) / 4.0)
        curve = (out_dir / "cmc_curve.csv").read_text().splitlines()
        assert curve[0] == "rank,cmc"
        assert len(curve) == 21

    @pytest.mark.parametrize("content,message", [
        pytest.param(b"q1\nq\xff2\n", "2: not UTF-8: ", id="not_utf8"),
        pytest.param(b"q1\n\nnope\n", "3: unknown query tracklet id 'nope'", id="unknown_id"),
        pytest.param(b"q1\nq2\n\nq1\n", "4: query 'q1' already listed on line 1", id="repeated_id"),
    ])
    def test_bad_queries_file_names_line(self, tmp_path, capsys, content, message):
        manifest, queries = write_eval_fixture(tmp_path)
        queries.write_bytes(content)
        out_dir = tmp_path / "report"
        code = run(["eval", "--manifest", str(manifest), "--queries", str(queries),
                    "--out-dir", str(out_dir)])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith(f"error: {queries}:{message}"), err
        assert not out_dir.exists()

    @pytest.mark.parametrize("ranks,message", [
        ("1,x", "'x' is not a positive integer"),
        ("1,0", "'0' is not a positive integer"),
        ("1,-3", "'-3' is not a positive integer"),
        (",", "no rank given"),
    ])
    def test_bad_ranks_name_the_flag(self, tmp_path, capsys, ranks, message):
        manifest, queries = write_eval_fixture(tmp_path)
        out_dir = tmp_path / "report"
        code = run(["eval", "--manifest", str(manifest), "--ranks", ranks,
                    "--out-dir", str(out_dir)])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert err == [f"error: --ranks: {message}"]
        assert not out_dir.exists()

    def test_fewer_than_two_clusters(self, tmp_path, capsys):
        manifest, queries = write_eval_fixture(tmp_path)
        out_dir = tmp_path / "report"
        assert run(["eval", "--manifest", str(manifest), "--queries", str(queries), "--T", "100",
                    "--out-dir", str(out_dir)]) == 0
        rows = dict(line.split() for line in capsys.readouterr().out.splitlines()[1:])
        assert rows["clusters"] == "0" and "purity" not in rows and "mean-inter-dist" not in rows
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["clusters"] == 0
        for key in ("cluster_counts", "purity", "mean_inter_distance", "mean_intra_distance"):
            assert summary[key] is None, key
        assert (out_dir / "cluster_distances.csv").read_text() == "kind,distance\n"

    def test_repeated_ranks_keep_their_order(self, tmp_path, capsys):
        manifest, queries = write_eval_fixture(tmp_path)
        out_dir = tmp_path / "report"
        assert run(["eval", "--manifest", str(manifest), "--queries", str(queries),
                    "--ranks", "5,1,5", "--out-dir", str(out_dir)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "metric           value",
            "rank-5           0.7500",
            "rank-1           0.5000",
            "rank-5           0.7500",
            "mAP              0.6250",
            "clusters         4",
            "clusters[GC]     2",
            "clusters[MC]     2",
            "clusters[DC]     0",
            "clusters[MC+DC]  0",
            "purity           0.7500",
            "mean-inter-dist  166.6367",
        ]
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["cmc"] == {"5": 0.75, "1": 0.5}
        assert (out_dir / "cmc_curve.csv").read_text().splitlines() == [
            "rank,cmc", "1,0.500000", "2,0.500000", "3,0.750000", "4,0.750000", "5,0.750000",
        ]

    def test_rank_past_the_manifest_computes_nothing_past_it(self, tmp_path, capsys, monkeypatch):
        # No gallery of the 15-tracklet fixture holds 15 items, so no CMC
        # value past rank 15 is computed, however large the rank asked for.
        real_cmc = cli.cmc

        def bounded_cmc(ranking, ranks):
            assert len(ranks) <= 15
            return real_cmc(ranking, ranks)

        monkeypatch.setattr(cli, "cmc", bounded_cmc)
        manifest, queries = write_eval_fixture(tmp_path)
        assert run(["eval", "--manifest", str(manifest), "--queries", str(queries),
                    "--ranks", "1,1000000000"]) == 0
        rows = dict(line.split() for line in capsys.readouterr().out.splitlines()[1:])
        assert (rows["rank-1"], rows["rank-1000000000"]) == ("0.5000", "1.0000")

        out_dir = tmp_path / "report"
        assert run(["eval", "--manifest", str(manifest), "--queries", str(queries),
                    "--ranks", "1,40", "--out-dir", str(out_dir)]) == 0
        assert json.loads((out_dir / "summary.json").read_text())["cmc"] == {"1": 0.5, "40": 1.0}
        assert (out_dir / "cmc_curve.csv").read_text().splitlines() == [
            "rank,cmc", "1,0.500000", "2,0.500000", "3,0.750000", "4,0.750000", "5,0.750000",
            *(f"{k},1.000000" for k in range(6, 41))]

    def test_eval_with_checkpoint(self, tmp_path, capsys):
        src = tmp_path / "d.jsonl"
        assert run(["--seed", "2", "synth", "--out", str(src), "--identities", "6",
                    "--cameras", "3", "--dim", "4"]) == 0
        ckpt = tmp_path / "e.kte"
        assert run(["train-source", "--manifest", str(src), "--out", str(ckpt),
                    "--iterations", "10", "--lr", "0.01"]) == 0
        assert run(["eval", "--manifest", str(src), "--checkpoint", str(ckpt)]) == 0
        assert "mAP" in capsys.readouterr().out


class TestCheckpointInputDim:
    @pytest.mark.parametrize("command", ["adapt", "eval", "cluster"])
    def test_dim_mismatch_is_one_line_error(self, tmp_path, capsys, command):
        manifest = tmp_path / "d.jsonl"
        assert run(["--seed", "2", "synth", "--out", str(manifest), "--identities", "6",
                    "--cameras", "3", "--dim", "3"]) == 0
        ckpt = tmp_path / "wide.kte"
        save_checkpoint(ckpt, LinearEmbedder.random(64, 16, np.random.default_rng(0)))
        out = tmp_path / "out"
        argv = {
            "adapt": ["adapt", "--out", str(out), "--report", str(tmp_path / "r.json"),
                      "--iterations", "5"],
            "eval": ["eval", "--out-dir", str(out)],
            "cluster": ["cluster", "--out", str(out)],
        }[command]
        capsys.readouterr()
        code = run(argv + ["--manifest", str(manifest), "--checkpoint", str(ckpt)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {ckpt}: embedder takes 64-d frames, {manifest} has 3-d frames"
        ]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.jsonl", "wide.kte"]


class TestZeroDimFrames:
    @pytest.mark.filterwarnings("error")  # a numpy warning would be a second stderr line
    @pytest.mark.parametrize("command", ["cluster", "eval"])
    def test_dim0_sidecar_is_empty_frames(self, tmp_path, capsys, command):
        manifest, sidecar = tmp_path / "m.jsonl", tmp_path / "m.ktf"
        write_feature_sidecar(sidecar, np.zeros((6, 0)))
        manifest.write_text("".join(
            json.dumps({"tracklet_id": f"t{i}", "camera_id": "AB"[i % 2], "identity": f"I{i // 2}",
                        "frames_ref": {"offset": i, "count": 1}}) + "\n"
            for i in range(6)
        ))
        out = tmp_path / "out"
        argv = [command, "--manifest", str(manifest), "--sidecar", str(sidecar),
                "--out-dir" if command == "eval" else "--out", str(out)]
        assert run(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "empty-frames" in err[0], err
        assert not out.exists()


class TestZeroDimEmbedder:
    @pytest.mark.filterwarnings("error")  # a numpy warning would be a second stderr line
    @pytest.mark.parametrize("flags", [
        pytest.param(["--embed-dim", "0"], id="linear_embed_dim"),
        pytest.param(["--arch", "mlp", "--embed-dim", "0"], id="mlp_embed_dim"),
        pytest.param(["--arch", "mlp", "--hidden-dim", "0"], id="mlp_hidden_dim"),
    ])
    def test_train_source_rejects_zero_dim(self, tmp_path, capsys, flags):
        manifest = tmp_path / "d.jsonl"
        assert run(["--seed", "2", "synth", "--out", str(manifest), "--identities", "6",
                    "--cameras", "3", "--dim", "4"]) == 0
        out = tmp_path / "e.kte"
        capsys.readouterr()
        code = run(["train-source", "--manifest", str(manifest), "--out", str(out),
                    "--iterations", "5", *flags])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: embedder dims must be positive"), err
        assert not out.exists()


@pytest.fixture
def embedding_calls(monkeypatch):
    """Manifests passed to manifest_embeddings, wrapped under every name a reidapt
    module binds it to (reidapt.adapt is also a function, hence import_module)."""
    real = reidapt.manifest_embeddings
    calls = []

    def counted(m, *args, **kwargs):
        calls.append(m)
        return real(m, *args, **kwargs)

    names = ["reidapt"] + [f"reidapt.{info.name}" for info in pkgutil.iter_modules(reidapt.__path__)]
    for module in map(importlib.import_module, names):
        for key, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, key, counted)
    return calls


def write_embedded_domain(tmp_path):
    """A small synthetic manifest and a random 4->3 linear checkpoint for it."""
    manifest = tmp_path / "d.jsonl"
    assert run(["--seed", "3", "synth", "--out", str(manifest), "--identities", "8",
                "--cameras", "3", "--dim", "4", "--noise-sigma", "0.3"]) == 0
    ckpt = tmp_path / "e.kte"
    save_checkpoint(ckpt, LinearEmbedder.random(4, 3, np.random.default_rng(7)))
    return manifest, ckpt


class TestOneRepresentationPass:
    """A command turns its manifest into representations once (adapt: once per round)."""

    @pytest.mark.parametrize("command", ["eval", "cluster"])
    def test_one_call(self, tmp_path, embedding_calls, command):
        manifest, ckpt = write_embedded_domain(tmp_path)
        out = ["--out-dir", str(tmp_path / "out")] if command == "eval" else ["--out", str(tmp_path / "a.tsv")]
        assert run([command, *out, "--manifest", str(manifest), "--checkpoint", str(ckpt)]) == 0
        assert len(embedding_calls) == 1

    @pytest.mark.parametrize("rounds", [1, 2])
    def test_adapt_one_call_per_round(self, tmp_path, embedding_calls, rounds):
        manifest, ckpt = write_embedded_domain(tmp_path)
        report = tmp_path / "r.json"
        assert run(["adapt", "--checkpoint", str(ckpt), "--manifest", str(manifest),
                    "--out", str(tmp_path / "a.kte"), "--report", str(report),
                    "--rounds", str(rounds), "--iterations", "5", "--lr", "0.005"]) == 0
        assert len(json.loads(report.read_text())["rounds"]) == rounds
        assert len(embedding_calls) == rounds


class TestNormalize:
    """--normalize reaches ranking, clustering and cluster distances alike."""

    def run_both(self, tmp_path, manifest, ckpt, tag, *flags):
        """cluster and eval with the same flags; (assignment TSV, eval out-dir)."""
        tsv, out_dir = tmp_path / f"{tag}.tsv", tmp_path / tag
        common = ["--manifest", str(manifest), "--checkpoint", str(ckpt), *flags]
        assert run(["cluster", "--out", str(tsv), *common]) == 0
        assert run(["eval", "--out-dir", str(out_dir), *common]) == 0
        return tsv, out_dir

    def test_outputs_use_the_normalized_index(self, tmp_path):
        manifest, ckpt = write_embedded_domain(tmp_path)
        tsv, out_dir = self.run_both(tmp_path, manifest, ckpt, "norm", "--normalize")
        raw_tsv, raw_dir = self.run_both(tmp_path, manifest, ckpt, "raw")
        m = read_manifest(manifest)
        idx = build_neighbor_index(m, load_checkpoint(ckpt).embedder, normalize=True)
        K, T = default_kt(len(m.cameras))
        cs = cluster(idx, AdaptConfig(K=K, T=T))
        want_tsv = tmp_path / "want.tsv"
        write_assignments(cs, want_tsv)
        assert tsv.read_bytes() == want_tsv.read_bytes()
        assert tsv.read_bytes() != raw_tsv.read_bytes()

        intra, inter = inter_intra_distances(cs, m, idx)
        want = ["kind,distance"] + [f"intra,{d:.6f}" for d in intra] + [f"inter,{d:.6f}" for d in inter]
        got = (out_dir / "cluster_distances.csv").read_text().splitlines()
        assert got == want and len(inter) > 0
        assert got != (raw_dir / "cluster_distances.csv").read_text().splitlines()
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["clusters"] == len(cs.clusters)


class TestRawFeatureCheckpoint:
    """A kind-0 ("identity") KTE1 file loads as no embedder: raw features."""

    def write(self, tmp_path):
        manifest = tmp_path / "d.jsonl"
        assert run(["--seed", "3", "synth", "--out", str(manifest), "--identities", "8",
                    "--cameras", "3", "--dim", "4", "--noise-sigma", "0.3"]) == 0
        ckpt = tmp_path / "raw.kte"
        ckpt.write_bytes(struct.pack("<4sIIIIQIQ", b"KTE1", 0, 4, 0, 4, 9, 1, 0))
        return manifest, ckpt

    def test_eval_and_cluster_match_no_checkpoint(self, tmp_path, capsys):
        manifest, ckpt = self.write(tmp_path)
        capsys.readouterr()
        printed = []
        for tag, extra in (("plain", []), ("kind0", ["--checkpoint", str(ckpt)])):
            common = ["--manifest", str(manifest), *extra]
            assert run(["eval", "--out-dir", str(tmp_path / tag), *common]) == 0
            assert run(["cluster", "--out", str(tmp_path / f"{tag}.tsv"), *common]) == 0
            printed.append(capsys.readouterr())
        assert printed[0] == printed[1]
        for name in ("summary.json", "cmc_curve.csv", "cluster_distances.csv"):
            assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "kind0" / name).read_bytes()
        assert (tmp_path / "plain.tsv").read_bytes() == (tmp_path / "kind0.tsv").read_bytes()

    def test_adapt_is_one_line_error(self, tmp_path, capsys):
        manifest, ckpt = self.write(tmp_path)
        capsys.readouterr()
        code = run(["adapt", "--checkpoint", str(ckpt), "--manifest", str(manifest),
                    "--out", str(tmp_path / "a.kte"), "--report", str(tmp_path / "r.json"),
                    "--iterations", "5"])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: adaptation needs an embedder with parameters, not raw features"
        ]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.jsonl", "raw.kte"]


class TestOverflowingTracklet:
    """A valid manifest whose mean overflows fails with one line naming the tracklet."""

    def write(self, tmp_path, b_frames):
        mk = lambda tid, cam, ident, frames: Tracklet(tid, cam, frames, identity=ident)
        m = DomainManifest("o", (mk("a", "A", "I1", [[0.0]]), mk("b", "B", "I1", b_frames),
                                 mk("c", "A", "I2", [[1.0]]), mk("d", "B", "I2", [[1.1]])))
        manifest = tmp_path / "o.jsonl"
        write_manifest(m, manifest)
        return manifest

    @pytest.mark.filterwarnings("error")  # a numpy warning would be a second stderr line
    @pytest.mark.parametrize("command", ["eval", "cluster", "eval_checkpoint"])
    def test_one_line_error(self, tmp_path, capsys, command):
        if command == "eval_checkpoint":  # the embedder maps b's frames to +inf and -inf
            manifest = self.write(tmp_path, [[10.0], [-10.0]])
            save_checkpoint(tmp_path / "e.kte", LinearEmbedder(np.array([[1e308]]), np.zeros(1)))
            argv = ["eval", "--checkpoint", str(tmp_path / "e.kte")]
        else:  # b's frame sum passes float64's range
            manifest = self.write(tmp_path, [[1.7e308], [1.7e308]])
            argv = [command]
        out = tmp_path / "out"
        argv += ["--out-dir" if command.startswith("eval") else "--out", str(out)]
        capsys.readouterr()
        assert run(argv + ["--manifest", str(manifest)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: tracklet 'b': representation overflows float64"
        ]
        assert not out.exists()


class TestWarnings:
    ARGV = ["cluster", "--K", "2", "--k1", "1"]

    def test_a_warning_prints_as_one_line(self, tmp_path, capsys):
        manifest, _ = write_eval_fixture(tmp_path)
        filters = list(warnings.filters)
        assert run(self.ARGV + ["--manifest", str(manifest), "--out", str(tmp_path / "c.tsv")]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: k1=1 is smaller than K=2; an edge s->t is kept iff t is within s's first k1 "
            "cross-camera neighbors and s within t's first K, so each tracklet keeps at most k1 "
            "out-edges (weights up to K still survive)",
            "4 clusters covering 66.7% of 15 tracklets (K=2, T=1, k1=1)",
        ]
        assert warnings.filters == filters

    @pytest.mark.filterwarnings("error")
    def test_an_error_filter_still_raises(self, tmp_path):
        manifest, _ = write_eval_fixture(tmp_path)
        with pytest.raises(UserWarning, match="k1=1 is smaller than K=2"):
            run(self.ARGV + ["--manifest", str(manifest), "--out", str(tmp_path / "c.tsv")])
        assert not (tmp_path / "c.tsv").exists()


class TestUsageErrors:
    def test_no_command_is_usage_error(self):
        assert run([]) == 2

    def test_unknown_flag_is_usage_error(self):
        assert run(["synth", "--bogus", "1"]) == 2


class TestConfigFlags:
    """A config flag left unset takes its config class's default; a flag given reaches its field."""

    def parse(self, *argv):
        return cli.build_parser().parse_args(list(argv))

    def test_unset_flags_take_the_class_defaults(self):
        m = DomainManifest("m", [Tracklet(f"t{c}", c, [[0.0]]) for c in "ABC"])
        K, T = default_kt(3)
        args = self.parse("adapt", "--checkpoint", "c", "--manifest", "m", "--out", "o")
        assert cli._adapt_config(args, m, train=cli._train_config(args)) == AdaptConfig(K=K, T=T)
        args = self.parse("--seed", "4", "train-source", "--manifest", "m", "--out", "o")
        assert cli._train_config(args, iterations=SOURCE_ITERATIONS) == TrainConfig(
            iterations=SOURCE_ITERATIONS, seed=4)
        args = self.parse("synth", "--out", "o")
        assert cli._config(SyntheticSpec, args) == SyntheticSpec(identities=50, cameras=4, dim=16)
        assert cli._config(MergePolicy, self.parse("merge", "--sources", "a", "--out", "o")) == MergePolicy()

    def test_given_flags_reach_their_fields(self):
        m = DomainManifest("m", [Tracklet(f"t{c}", c, [[0.0]]) for c in "AB"])
        args = self.parse("--seed", "7", "adapt", "--checkpoint", "c", "--manifest", "m", "--out", "o",
                          "--K", "3", "--k1", "4", "--connectivity", "strong", "--normalize",
                          "-I", "5", "--cluster-cap", "9", "--iterations", "11", "--batch-p", "3",
                          "--batch-k", "5", "--margin", "0.25", "--lr", "0.5", "--lr-decay", "0.75")
        train = TrainConfig(iterations=11, batch_p=3, batch_k=5, margin=0.25, learning_rate=0.5,
                            lr_decay=0.75, seed=7)
        assert cli._adapt_config(args, m, train=cli._train_config(args)) == AdaptConfig(
            K=3, T=default_kt(2)[1], k1=4, I=5, cluster_cap=9, train=train, connectivity="strong",
            normalize=True)
        args = self.parse("synth", "--out", "o", "--frames", "2", "3", "--tracklets", "0", "4",
                          "--separation", "2.5", "--camera-shift", "0.5", "--noise-sigma", "0.0")
        assert cli._config(SyntheticSpec, args) == SyntheticSpec(
            identities=50, cameras=4, dim=16, frames_per_tracklet=(2, 3),
            tracklets_per_identity_per_camera=(0, 4), identity_separation=2.5, camera_shift=0.5,
            noise_sigma=0.0)
        args = self.parse("merge", "--sources", "a", "--out", "o", "--min-identities", "3",
                          "--allow-single-camera", "--exclude", "x", "--exclude", "y", "--no-namespace")
        assert cli._config(MergePolicy, args) == MergePolicy(3, False, frozenset({"x", "y"}), False)
