"""Tests of the benchmark itself, on tiny workloads.

    python3 -m pytest -q perfbench/test_bench.py   # from the repository root
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(REPO / "src"))

import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def bench(*args, cwd=REPO):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--size", "tiny", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        r = result(bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)))
        assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1
        assert set(r["metrics"]) == {m["name"] for m in SPEC[key]}
        for m in SPEC[key]:
            assert r["metrics"][m["name"]]["unit"] == m["unit"]


def test_second_seed_runs_cleanly_and_changes_inputs():
    a = result(bench("--workload", "adapt-300", "--seed", "0", "--seconds", "1"))
    b = result(bench("--workload", "adapt-300", "--seed", "7", "--seconds", "1"))
    assert a["correct"] and b["correct"]
    assert a["metrics"]["mAP"] != b["metrics"]["mAP"]


def test_counts_repeat_across_traced_runs():
    runs = [result(bench("--workload", "adapt-300", "--seed", "5", "--seconds", "1", "--trace", "1"))
            for _ in range(2)]
    for name in tracer.COUNT_METRICS:
        assert runs[0]["metrics"][name] == runs[1]["metrics"][name], name
        assert isinstance(runs[0]["metrics"][name]["value"], int)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "eval-3k", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _corrupt_json(path: Path, **changes):
    data = json.loads(path.read_text())
    for key, value in changes.items():
        data[key] = value(data[key])
    path.write_text(json.dumps(data))


CORRUPTIONS = {
    # workload: step index -> corruption of the pass's output directory
    "cluster-9k": (0, lambda out: (out / "assignments.tsv").write_text(
        (out / "assignments.tsv").read_text().replace("0\t", "1\t", 1))),
    "eval-3k": (0, lambda out: _corrupt_json(out / "eval" / "summary.json",
                                            map=lambda v: v - 1e-6)),
    "adapt-300": (0, lambda out: _corrupt_json(out / "report.json",
                                              reason=lambda v: "cluster-cap")),
}


@pytest.mark.parametrize("workload", sorted(CORRUPTIONS))
def test_wrong_output_registers_as_failure(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(REPO)
    monkeypatch.setattr(run, "WORK", tmp_path)
    w = run.WORKLOADS[workload](tiny=True)
    deadline = time.monotonic() + 120
    d, out = tmp_path / "setup", tmp_path / "pass"
    run.run_setup(w, 2, d, deadline, traced=False)
    first = run.run_pass(w, d, out, deadline, traced=False, expected=None)
    assert first.failed == 0, first.problems

    index, corrupt = CORRUPTIONS[workload]
    corrupt(out)
    assert w.steps_for(d, out)[index].check(out)

    again = run.run_pass(w, d, out, deadline, traced=False,
                         expected={k: "0" * 64 for k in first.digests})
    assert again.failed == again.attempted


def test_missing_function_is_reported_absent():
    t = tracer.Tracer()
    t.install([("graph.build_graph", "reidapt.graph", "renamed_away", None)])
    assert t.absent == ["reidapt.graph.renamed_away"]
    header = {"startup_s": 0.1, "absent": ["reidapt.graph.build_graph"], "round_labels": []}
    metrics, absent = tracer.layer_metrics([(header, [])])
    assert "graph.edges" in absent and "graph.edges" not in metrics
    assert "neighbors.build_index_s" in metrics

    # A result that lost the attribute a metric reads from.
    header["absent"] = []
    reshaped = t.wrap("graph.threshold_graph", lambda: object(),
                      lambda a, k, r: tracer._edge_count(r))
    reshaped()
    metrics, absent = tracer.layer_metrics([(header, t.spans)])
    assert "graph.edges_kept" in absent and "graph.edges" in metrics


def test_pair_counting_ari():
    a = {"x": 0, "y": 0, "z": 1, "w": 1, "u": -1}
    assert tracer.pair_counting_ari(a, {"x": 5, "y": 5, "z": 2, "w": 2}) == 1.0
    assert tracer.pair_counting_ari(a, {"x": 0, "y": 1, "z": 0, "w": 1}) < 0.0
