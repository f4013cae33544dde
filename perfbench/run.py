"""Benchmark of the reidapt command line, run from the repository root.

    python3 perfbench/run.py --workload adapt-300 --seed 1 --seconds 25 --trace 0

Set-up generates the workload's synthetic domain from --seed (and trains a
source checkpoint where the workload needs one) through the CLI, three
times, and reports the median as setup_s.  The timed part then runs the
workload's CLI commands one after another as a single closed-loop client,
each in a fresh child process with BLAS pools pinned to one thread, and
stops after the pass that ends nearest to --seconds (at least
min_iterations passes).  wall_s is the median pass.  Every output is
checked against perfbench/reference.py, which shares no code with reidapt.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced pass
and then traced passes, each command under perfbench/tracer.py, and prints
the per-layer metrics.  The last stdout line is the JSON result; the line
before it records pass times, layer shares and the environment.  --size tiny shrinks every workload for
the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Pinned here, before numpy loads, and inherited by every child command: the
# CLI's --threads flag needs threadpoolctl, which may not be installed.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import numpy as np  # noqa: E402

import reference  # noqa: E402
import tracer  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACER = Path(__file__).resolve().parent / "tracer.py"
SETUP_REPEATS = 3
DEADLINE_S = 170.0  # a command still running this long after the start is killed
CLI_SEED = "0"  # the program's own seed; the workload seed only shapes the inputs


@dataclass
class Step:
    """One CLI command of a workload's timed pass."""

    name: str
    argv: list[str]
    outputs: list[Path]  # compared across passes; must be byte-identical
    check: Callable[[Path], list[str]]  # check(out_dir) -> problems found


@dataclass
class Pass:
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    spans: list = field(default_factory=list)


def _synth_argv(seed: int, out: Path, identities: int, dim: int, sidecar: Path | None = None,
                extra=()) -> list[str]:
    argv = ["--seed", str(seed), "synth", "--out", str(out), "--identities", str(identities),
            "--cameras", "4", "--dim", str(dim), *extra]
    return argv + (["--sidecar", str(sidecar)] if sidecar is not None else [])


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _eval_quality(out: Path) -> dict:
    summary = _read_json(out / "eval" / "summary.json")
    return {"rank1": summary["cmc"]["1"], "mAP": summary["map"]}


class Adapt300:
    """The acceptance-scale domain; CLI adapt (2 rounds) then eval of its checkpoint."""

    name = "adapt-300"
    min_iterations = 2  # repeats must be byte-identical
    DOMAIN = ("--separation", "3.5", "--camera-shift", "0.1", "--noise-sigma", "0.65")

    def __init__(self, tiny: bool):
        self.identities = 12 if tiny else 50
        self.source_steps = 100 if tiny else 2500
        self.steps = 100 if tiny else 5000

    def setup(self, seed: int, d: Path) -> list[list[str]]:
        return [
            _synth_argv(2 * seed, d / "source.jsonl", self.identities, 16, extra=self.DOMAIN),
            _synth_argv(2 * seed + 1, d / "target.jsonl", self.identities, 16, extra=self.DOMAIN),
            ["--seed", str(seed), "train-source", "--manifest", str(d / "source.jsonl"),
             "--out", str(d / "source.kte"), "--arch", "linear", "--embed-dim", "3",
             "--init", "random", "--iterations", str(self.source_steps), "--lr", "0.1",
             "--batch-p", "16"],
        ]

    def steps_for(self, d: Path, out: Path) -> list[Step]:
        target = d / "target.jsonl"
        adapted, report = out / "adapted.kte", out / "report.json"

        def check_adapt(out: Path) -> list[str]:
            rep = _read_json(report)
            problems = [] if rep["reason"] == "completed" else [f"adapt reason {rep['reason']!r}"]
            if len(rep["rounds"]) != 2:
                problems.append(f"adapt ran {len(rep['rounds'])} rounds, expected 2")
            domain = reference.read_domain(target)
            X = reference.representations(domain, d / "source.kte")
            clusters, unclustered = reference.cluster(X, domain.cameras, 2, 2)
            first = rep["rounds"][0] if rep["rounds"] else {}
            want = (len(clusters), (len(domain.ids) - len(unclustered)) / len(domain.ids))
            got = (first.get("cluster_count"), first.get("clustered_fraction"))
            if got[0] != want[0] or abs(got[1] - want[1]) > 1e-12:
                problems.append(f"round 0 clusters {got}, reference {want}")
            return problems

        def check_eval(out: Path) -> list[str]:
            domain = reference.read_domain(target)
            X = reference.representations(domain, adapted)
            return reference.compare_summary(_read_json(out / "eval" / "summary.json"),
                                             reference.eval_summary(domain, X, 2, 2))

        return [
            Step("adapt", ["--seed", CLI_SEED, "adapt", "--checkpoint", str(d / "source.kte"),
                           "--manifest", str(target), "--out", str(adapted), "--report", str(report),
                           "--rounds", "2", "--iterations", str(self.steps), "--lr", "0.1",
                           "--batch-p", "16"],
                 [adapted, report], check_adapt),
            Step("eval", ["eval", "--manifest", str(target), "--checkpoint", str(adapted),
                          "--out-dir", str(out / "eval")],
                 [out / "eval" / "summary.json"], check_eval),
        ]

    def quality(self, out: Path, d: Path) -> dict:
        return _eval_quality(out)


class Eval3k:
    """CLI eval of a 64->16 linear checkpoint on ~3000 tracklets."""

    name = "eval-3k"
    min_iterations = 1

    def __init__(self, tiny: bool):
        self.identities = 40 if tiny else 500
        self.source_steps = 50 if tiny else 500
        self._want = None

    def setup(self, seed: int, d: Path) -> list[list[str]]:
        return [
            _synth_argv(seed, d / "domain.jsonl", self.identities, 64, d / "domain.ktf"),
            ["--seed", str(seed), "train-source", "--manifest", str(d / "domain.jsonl"),
             "--sidecar", str(d / "domain.ktf"), "--out", str(d / "model.kte"), "--arch", "linear",
             "--embed-dim", "16", "--init", "random", "--iterations", str(self.source_steps)],
        ]

    def steps_for(self, d: Path, out: Path) -> list[Step]:
        def check_eval(out: Path) -> list[str]:
            if self._want is None:  # the inputs are fixed for the whole run
                domain = reference.read_domain(d / "domain.jsonl", d / "domain.ktf")
                X = reference.representations(domain, d / "model.kte")
                self._want = reference.eval_summary(domain, X, 2, 2)
            return reference.compare_summary(_read_json(out / "eval" / "summary.json"), self._want)

        return [Step("eval", ["eval", "--manifest", str(d / "domain.jsonl"), "--sidecar",
                              str(d / "domain.ktf"), "--checkpoint", str(d / "model.kte"),
                              "--out-dir", str(out / "eval")],
                     [out / "eval" / "summary.json"], check_eval)]

    def quality(self, out: Path, d: Path) -> dict:
        return _eval_quality(out)


class Cluster9k:
    """CLI cluster on raw 64-d features of ~9000 tracklets (JSONL + KTF1 sidecar)."""

    name = "cluster-9k"
    min_iterations = 1
    QUERIES = 300

    def __init__(self, tiny: bool):
        self.identities = 60 if tiny else 1500
        self._ref = None

    def setup(self, seed: int, d: Path) -> list[list[str]]:
        return [_synth_argv(seed, d / "domain.jsonl", self.identities, 64, d / "domain.ktf")]

    def _reference(self, d: Path):
        if self._ref is None:  # the inputs are fixed for the whole run
            domain = reference.read_domain(d / "domain.jsonl", d / "domain.ktf")
            X = reference.representations(domain)
            tsv = reference.assignments_tsv(domain.ids, *reference.cluster(X, domain.cameras, 2, 2))
            self._ref = (domain, X, tsv)
        return self._ref

    def steps_for(self, d: Path, out: Path) -> list[Step]:
        tsv = out / "assignments.tsv"

        def check_cluster(out: Path) -> list[str]:
            if tsv.read_text(encoding="utf-8") != self._reference(d)[2]:
                return ["assignments differ from the reference clustering"]
            return []

        return [Step("cluster", ["cluster", "--manifest", str(d / "domain.jsonl"), "--sidecar",
                                 str(d / "domain.ktf"), "--out", str(tsv)],
                     [tsv], check_cluster)]

    def quality(self, out: Path, d: Path) -> dict:
        # No eval command runs here.  rank1 and mAP are what `reidapt eval`
        # reports on raw features for a seeded subset of queries, computed by
        # the reference; they do not depend on the program under test.
        domain, X, _ = self._reference(d)
        rng = np.random.default_rng(len(domain.ids))
        queries = np.sort(rng.choice(len(domain.ids), min(self.QUERIES, len(domain.ids)),
                                     replace=False))
        cmc, mean_ap = reference.retrieval(X, domain, (1,), queries)
        return {"rank1": cmc["1"], "mAP": mean_ap}


WORKLOADS = {w.name: w for w in (Adapt300, Eval3k, Cluster9k)}


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)


def run_child(argv: list[str], log: Path, deadline: float) -> tuple[float, float, int]:
    """(wall seconds, peak RSS in MB, exit code) of one child process.

    os.wait4 returns the rusage of that child alone; RUSAGE_CHILDREN would be
    the high-water mark of every child so far, set-up included.
    """
    with open(log, "ab") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
    killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def cli_argv(argv: list[str], spans: Path | None) -> list[str]:
    if spans is None:
        return [sys.executable, "-m", "reidapt.cli", *argv]
    return [sys.executable, str(TRACER), str(spans), repr(time.perf_counter()), *argv]


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes() if p.is_file() else b"missing")
    return h.hexdigest()


def run_pass(workload, d: Path, out: Path, deadline: float, traced: bool,
             expected: dict | None) -> Pass:
    """Run the timed commands once; `expected` holds the output digests of an earlier pass."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    result = Pass()
    for i, step in enumerate(workload.steps_for(d, out)):
        spans = out / f"{i}-{step.name}.spans.jsonl" if traced else None
        wall, rss, rc = run_child(cli_argv(step.argv, spans), out / "commands.log", deadline)
        result.attempted += 1
        result.wall_s += wall
        result.peak_rss_mb = max(result.peak_rss_mb, rss)
        problems = [f"exited with {rc}, see {out / 'commands.log'}"] if rc != 0 else []
        if not problems:
            try:
                problems = step.check(out)
            except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
                problems = [f"output unreadable: {exc!r}"]
            result.digests[step.name] = _digest(step.outputs)
            if expected is not None and expected.get(step.name) != result.digests[step.name]:
                problems.append("outputs differ from the first pass")
            if traced:
                result.spans.append(tracer.read_spans(spans))
        result.failed += bool(problems)
        result.problems += [f"{step.name}: {p}" for p in problems]
    return result


def run_setup(workload, seed: int, d: Path, deadline: float, traced: bool) -> tuple[float, list]:
    """(wall seconds, span records) of one set-up in a fresh directory."""
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    wall, spans = 0.0, []
    for i, argv in enumerate(workload.setup(seed, d)):
        span_file = d / f"setup{i}.spans.jsonl" if traced else None
        w, _rss, rc = run_child(cli_argv(argv, span_file), d / "setup.log", deadline)
        if rc != 0:
            raise RuntimeError(f"set-up command {argv[2:4]} exited with {rc}, see {d / 'setup.log'}")
        wall += w
        if traced:
            spans.append(tracer.read_spans(span_file))
    return wall, spans


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    src = hashlib.sha256()
    for p in sorted((SRC / "reidapt").rglob("*.py")):
        src.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_ENV,
        "commit": commit,
        "src_sha256": src.hexdigest(),
    }


# Layers whose share of the traced wall time is printed with a traced run.
SHARE_METRICS = ("adapt.train_s", "neighbors.build_index_s", "evaluate.build_ranking_s",
                 "cli.startup_s")

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "ok_frac": "ratio",
                    "rank1": "ratio", "mAP": "ratio"}


def unit(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if "bytes" in metric:
        return "bytes"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("ms_per_step"):
        return "ms"
    if metric in tracer.COUNT_METRICS:
        return "count"
    return "ratio"


def measure(workload, seed: int, seconds: float, trace: bool):
    """(metrics, attempted, failed, problems, info) of one run; info is for the log line."""
    base = WORK / workload.name
    shutil.rmtree(base, ignore_errors=True)
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        _, setup_spans = run_setup(workload, seed, base / "setup", deadline, traced=True)
        setup_times = []
    else:
        setup_times = [run_setup(workload, seed, base / "setup", deadline, traced=False)[0]
                       for _ in range(SETUP_REPEATS)]
    d = base / "setup"

    t0 = time.perf_counter()
    first = run_pass(workload, d, base / "pass0", deadline, traced=False, expected=None)
    passes = [first]
    timed = [] if trace else [first]
    # Stop at the pass that ends nearest to `seconds`, so a workload whose
    # single pass is close to `seconds` is not measured twice.
    while (len(timed) < max(1, workload.min_iterations)
           or (time.perf_counter() - t0) * (1 + 0.5 / len(passes)) < seconds):
        p = run_pass(workload, d, base / f"pass{len(passes)}", deadline, trace, first.digests)
        passes.append(p)
        timed.append(p)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [q for p in passes for q in p.problems]
    info = {"pass_wall_s": [p.wall_s for p in passes], "timed_passes": len(timed),
            "setup_wall_s": setup_times, "absent_metrics": []}
    if not trace:
        metrics = {
            "wall_s": statistics.median(p.wall_s for p in timed),
            "peak_rss_mb": max(p.peak_rss_mb for p in timed),
            "setup_s": statistics.median(setup_times),
            "ok_frac": 1.0 - failed / attempted,
            **(workload.quality(base / "pass0", d) if not failed else {"rank1": 0.0, "mAP": 0.0}),
        }
        return metrics, attempted, failed, problems, info

    per_pass = [tracer.layer_metrics(p.spans) for p in timed if len(p.spans) == p.attempted]
    if not per_pass:
        raise RuntimeError("no traced pass completed; " + "; ".join(problems))
    counts = [{k: m[k] for k in tracer.COUNT_METRICS if k in m} for m, _ in per_pass]
    if any(c != counts[0] for c in counts[1:]):
        problems.append(f"count metrics differ between traced passes: {counts}")
    metrics = {k: statistics.median(m[k] for m, _ in per_pass) for k in per_pass[0][0]}
    metrics.update(counts[0])
    absent = set().union(*(a for _, a in per_pass))
    setup_metrics, setup_absent = tracer.layer_metrics(setup_spans)
    metrics.pop("synth.generate_s", None)
    if "synth.generate_s" in setup_absent:
        absent.add("synth.generate_s")
    else:
        metrics["synth.generate_s"] = setup_metrics["synth.generate_s"]
    traced_wall = statistics.median(p.wall_s for p in timed)
    metrics["trace.overhead_frac"] = traced_wall / first.wall_s - 1.0
    info["absent_metrics"] = sorted(absent)
    info["share_of_traced_wall"] = {k: metrics[k] / traced_wall for k in SHARE_METRICS
                                    if k in metrics}
    return metrics, attempted, failed, problems, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (SRC / "reidapt" / "cli.py").is_file():
        print(f"error: {SRC / 'reidapt'} not found; run from the repository root", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](tiny=args.size == "tiny")
    try:
        metrics, attempted, failed, problems, info = measure(
            workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"workload": workload.name, "seed": args.seed, **info,
                      "env": environment()}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
