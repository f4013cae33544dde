"""Tests of the BENCH recorder, at --size tiny.

    python -m pytest bench   # from the repository root
"""

from __future__ import annotations

import json
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(REPO / "src"))  # for the in-process loss batches

import record  # noqa: E402

TINY = ("--size", "tiny")
# Every run names its sides by their git commits.
needs_git = pytest.mark.skipif(shutil.which("git") is None or not (REPO / ".git").exists(),
                               reason="needs a git checkout")


def run_record(*args) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "record.py"), *TINY, *args], cwd=REPO,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_summary_of_equal_passes_is_unresolved_with_no_win():
    passes = [{"loss_call_us": v} for v in (3.0, 1.0, 2.0, 5.0, 4.0)]
    s = record.summarize(passes, passes)["loss_call_us"]
    assert s["base"]["median"] == s["head"]["median"] == 3.0
    assert (s["base"]["q1"], s["base"]["q3"]) == (2.0, 4.0)
    assert s["ratio"] == s["pair_ratio_median"] == 1.0
    assert s["head_wins"] == 0 and s["pairs"] == 5 and s["unresolved"]


def test_faster_head_outside_base_quartiles_is_resolved():
    base = [{"m": v} for v in (9.0, 10.0, 11.0)]
    head = [{"m": v} for v in (4.0, 5.0, 6.0)]
    s = record.summarize(base, head)["m"]
    assert s["ratio"] == 0.5 and s["pair_ratio_median"] == 0.5
    assert s["head_wins"] == 3 and not s["unresolved"]


def test_a_win_needs_ten_pairs_nine_won_and_a_median_past_the_base_quartiles():
    base = [{"m": v} for v in (9.0, 10.0, 11.0, 10.0, 9.5, 10.5, 10.0, 9.0, 11.0, 10.0)]
    assert record.summarize(base, [{"m": 5.0}] * 10)["m"]["win"]
    assert not record.summarize(base[:9], [{"m": 5.0}] * 9)["m"]["win"]
    assert not record.summarize(base, [{"m": 5.0}] * 8 + [{"m": 12.0}] * 2)["m"]["win"]
    assert not record.summarize(base, [{"m": v["m"] - 0.5} for v in base])["m"]["win"]


@needs_git
def test_working_tree_against_itself_trains_equal_parameters():
    r = run_record("--base", ".", "--head", ".")
    assert r["trained_params_equal"]
    assert r["base"] == r["head"] and r["base"].startswith("working tree on ")
    for m in ("train_step_us", "loss_call_us"):
        assert len(r["metrics"][m]["base"]["passes"]) == len(r["metrics"][m]["head"]["passes"]) == 2
        assert r["metrics"][m]["head"]["median"] > 0
    env = r["environment"]
    assert env["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert env["python_c_pass_s"] > 0 and env["site_import_s"] > 0
    assert {"cpus", "affinity", "numpy", "blas", "PYTHONDONTWRITEBYTECODE"} <= set(env)
    assert env["workers"] >= 1


@needs_git
def test_a_commit_reads_from_git():
    r = run_record("--base", "HEAD", "--head", "HEAD")
    assert r["trained_params_equal"] and r["base"] == r["head"] and len(r["base"]) == 40


@needs_git
def test_a_tree_that_trains_differently_is_reported(tmp_path):
    shutil.copytree(REPO / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    adapt = tmp_path / "src" / "reidapt" / "adapt.py"
    text = adapt.read_text(encoding="utf-8")
    assert text.count("lr = cfg.learning_rate * ") == 1
    adapt.write_text(text.replace("lr = cfg.learning_rate * ", "lr = 0.5 * cfg.learning_rate * "),
                     encoding="utf-8")
    r = run_record("--base", ".", "--head", str(tmp_path))
    assert not r["trained_params_equal"]
    assert r["head"] == str(tmp_path.resolve())


# Per mode: its commands' names, and the files it compares, relative to its run directory.
MODES = {
    "adapt-300": (("adapt", "eval"), {"adapted.kte", "report.json", "eval/summary.json"}),
    "eval-3k": (("eval",), {"eval/summary.json"}),
    "cluster-9k": (("cluster",), {"assignments.tsv"}),
    "cluster-9k:setup": (("setup0",), {"domain.jsonl", "domain.ktf", "setup0.stderr"}),
}


def test_every_perfbench_workload_has_a_mode():
    assert set(record.WORKLOADS) == {m for m in MODES if ":" not in m}


@needs_git
@pytest.mark.parametrize("mode", MODES)
def test_a_commit_against_itself_has_equal_outputs_and_no_win(mode):
    r = run_record("--record", mode, "--base", "HEAD", "--head", "HEAD")
    names, outputs = MODES[mode]
    assert r["base"] == r["head"] and len(r["base"]) == 40
    assert r["outputs_equal"] == dict.fromkeys(outputs, True)
    assert r["reference_problems"] == (None if mode.endswith(":setup")
                                       else {"base": [], "head": []})
    assert set(r["metrics"]) == {"wall_s", "peak_rss_mb", *(f"{n}_s" for n in names)}
    for m in r["metrics"].values():
        assert m["pairs"] == 2 and not m["win"]
        assert min(m["base"]["passes"] + m["head"]["passes"]) > 0
    assert len(r["commands"]) == len(names) and "reidapt-bench-" not in json.dumps(r["commands"])


@needs_git
def test_a_tree_whose_timed_output_differs_is_reported(tmp_path):
    shutil.copytree(REPO / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "reidapt" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count('"map": map_val,') == 1
    cli.write_text(text.replace('"map": map_val,', '"map": map_val / 2,'), encoding="utf-8")
    r = run_record("--record", "eval-3k", "--base", ".", "--head", str(tmp_path))
    assert r["outputs_equal"] == {"eval/summary.json": False}
    assert r["reference_problems"]["base"] == [] and r["reference_problems"]["head"]


@needs_git
def test_a_tree_whose_setup_output_differs_is_reported(tmp_path):
    shutil.copytree(REPO / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    synth = tmp_path / "src" / "reidapt" / "synth.py"
    text = synth.read_text(encoding="utf-8")
    assert text.count("spec.noise_sigma") == 1
    synth.write_text(text.replace("spec.noise_sigma", "2.0 * spec.noise_sigma"), encoding="utf-8")
    r = run_record("--record", "cluster-9k:setup", "--base", ".", "--head", str(tmp_path))
    assert r["outputs_equal"] == {"domain.jsonl": True, "domain.ktf": False, "setup0.stderr": True}


def test_a_large_parent_does_not_raise_the_launchers_peak(tmp_path):
    def peak() -> float:
        out = subprocess.run([sys.executable, "-c", record.LAUNCHER, str(tmp_path / "err"),
                              sys.executable, "-c", "pass"], check=True, capture_output=True,
                             text=True).stdout
        return json.loads(out)["peak_rss_mb"]

    bare = peak()
    held = bytearray(b"\x01") * (160 << 20)  # written, so every page is resident
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss >= 150 << 10
    assert abs(peak() - bare) < 4
    del held


def test_loss_batches_hold_no_repeated_frame(tmp_path):
    for argv in record.WORKLOADS["adapt-300"](tiny=False).setup(record.SEED, tmp_path):
        record.run_in(REPO, [sys.executable, "-m", "reidapt.cli", *argv])
    batches, labels = record.loss_batches(*record.round0(tmp_path), 200)
    assert len(batches) == 200 and len(labels) == 64
    for X in batches:
        D = ((X[:, None] - X[None]) ** 2).sum(axis=-1)
        assert np.count_nonzero(D == 0) == len(X)  # the diagonal alone
