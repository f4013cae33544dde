"""Record a training step and a loss call, or one CLI command, of two source trees into a BENCH file.

    python bench/record.py --base HEAD~1 --head . --out BENCH_train_step.json
    python bench/record.py --record synth-9k --base HEAD~1 --head . --out BENCH_synth_9k.json
    python bench/record.py --record adapt-300 --base HEAD~1 --head . --out BENCH_adapt_300.json

Each side is a directory holding src/ ("." from the repository root is the
working tree), or else a git revision; either is copied into a temporary
tree.  With --record train-step (the default), set-up runs once, through
the base tree's CLI: the adapt-300 workload's synthetic source and target
domains and its source checkpoint, made by the set-up commands of
perfbench/run.py at the workload's seed 1.

Each side runs 11 passes (2 at --size tiny), each in a fresh process; the
base side runs first in odd passes and second in even ones.  A pass clusters
the target with the source checkpoint as round 0 of `adapt` does, then
times, by the wall clock (time.perf_counter, so a training step's time
includes any wait on other processes, which process time would leave out):

- train_embedder for 1000 steps (60 at --size tiny) with adapt-300's
  round-0 settings (--lr 0.1, --batch-p 16, CLI seed 0), after a short
  warm-up;
- batch_hard_triplet_loss on as many 64x3 batches: 16 clusters of 4 frames,
  drawn by a fixed numpy rng and embedded by the source checkpoint.

Each is timed BLOCKS times over and the pass keeps the fastest block, so a
block slowed by other load on a shared host drops out.

The file records, per side and metric, every pass, the median and the
quartiles; then the head/base ratio of the medians, the median of the
head/base ratios of the pairs (which a host whose speed drifts between
pairs moves less), the pairs the head won, "unresolved" when the head
median lies inside the base quartiles, and "win" when at least 10 pairs
ran, the head won 9 in 10 of them, and its median is below the base median
by more than the base quartile distance.  It also compares the bytes of the
trained parameters of both sides, and records an environment block with
the W = _tasks.workers() the head side's children see.  BLAS is pinned to
one thread in every child.

--record synth-9k instead times one CLI command: cluster-9k's set-up `synth`
(its argv from perfbench/run.py at seed 1; 60 identities at --size tiny).
Each side runs it 11 times (2 at --size tiny) in alternating pairs, each in a
fresh process started by a thin launcher, a bare interpreter that spawns the
command and reads its wall time and its own ru_maxrss from os.wait4 (a
child's ru_maxrss starts from its parent's size at exec, so a parent that
had imported numpy would raise it).  Both sides write to the same paths, and
the record compares the manifest, the sidecar and the stderr of each side's
last run.

--record adapt-300 times the adapt-300 workload's timed commands, `adapt`
then `eval`, with their argv from perfbench/run.py at seed 1, on inputs made
as for train-step.  Each side runs both 11 times (2 at --size tiny) in
alternating pairs, each command in a fresh process from the thin launcher.
A pass records wall_s, the two commands' sum as perfbench counts it, each
command's own wall time, and peak_rss_mb, the larger of their peaks.  The
record compares adapted.kte, report.json and the eval summary.json of each
side's last run.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
P, K = 16, 4  # adapt-300's --batch-p and the default batch_k: 64 rows of 3-d embeddings
SEED = 1  # adapt-300's workload seed
# --size: (timed training steps, and as many loss calls; passes per side)
SIZES = {"full": (1000, 11), "tiny": (60, 2)}
WARMUP_STEPS = 100
BLOCKS = 5
# Run by a bare interpreter: argv[1] is the command's stderr file, argv[2:] the command.
LAUNCHER = """import json, os, subprocess, sys, time
with open(sys.argv[1], "wb") as err:
    t0 = time.perf_counter()
    proc = subprocess.Popen(sys.argv[2:], stdout=subprocess.DEVNULL, stderr=err)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
print(json.dumps({"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024,
                  "exit": os.waitstatus_to_exitcode(status)}))
"""


def make_tree(rev: str, dest: Path) -> Path:
    """dest holding src/ of directory rev, or of git revision rev."""
    if Path(rev, "src").is_dir():
        shutil.copytree(Path(rev, "src"), dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    else:
        blob = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, check=True,
                              capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
            # The "data" filter exists from Python 3.10.12 and 3.11.4 on.
            tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return dest


def run_in(tree: Path, argv: list[str]) -> str:
    """stdout of argv run with tree's src/ and one BLAS thread; its stderr on failure."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **BLAS_ENV)
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{' '.join(argv)} exited with {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def setup(tree: Path, data: Path, tiny: bool) -> None:
    """adapt-300's inputs, made by its perfbench set-up commands through tree's CLI."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import Adapt300

    for argv in Adapt300(tiny).setup(SEED, data):
        run_in(tree, [sys.executable, "-m", "reidapt.cli", *argv])


def measure(data: Path, calls: int, params_out: Path) -> dict:
    """One pass in this process; reidapt comes from PYTHONPATH."""
    import numpy as np

    from reidapt import AdaptConfig, TrainConfig, batch_hard_triplet_loss, load_checkpoint
    from reidapt.adapt import train_embedder
    from reidapt.graph import cluster
    from reidapt.io import read_manifest
    from reidapt.neighbors import build_neighbor_index

    source = load_checkpoint(data / "source.kte").embedder
    target = read_manifest(data / "target.jsonl")
    # K = T = 2 is what the CLI picks for adapt-300's four cameras.
    cfg = AdaptConfig(train=TrainConfig(iterations=calls, learning_rate=0.1, batch_p=P, seed=0))
    clusters = cluster(build_neighbor_index(target, source, cfg.normalize), cfg)

    train_embedder(source, clusters, target, TrainConfig(iterations=WARMUP_STEPS, batch_p=P))
    step_s = []
    for _ in range(BLOCKS):
        t0 = time.perf_counter()
        trained = train_embedder(source, clusters, target, cfg.train)
        step_s.append((time.perf_counter() - t0) / calls)
    params_out.write_bytes(trained.param_vector().tobytes())

    rng = np.random.default_rng(0)
    pools = [np.concatenate([target.by_id[t].frames for t in sorted(c.members)])
             for c in clusters.clusters]
    p = min(P, len(pools))  # the tiny domain may hold fewer clusters
    labels = np.repeat(np.arange(p), K)
    batches = [source.embed(np.concatenate([pools[c][rng.integers(len(pools[c]), size=K)]
                                            for c in rng.choice(len(pools), p, replace=False)]))
               for _ in range(min(calls, 200))]
    for X in batches:
        batch_hard_triplet_loss(X, labels)
    loss_s = []
    for _ in range(BLOCKS):
        t0 = time.perf_counter()
        for i in range(calls):
            batch_hard_triplet_loss(batches[i % len(batches)], labels)
        loss_s.append((time.perf_counter() - t0) / calls)
    return {"train_step_us": 1e6 * min(step_s), "loss_call_us": 1e6 * min(loss_s)}


def run_command(tree: Path, argv: list[str], stderr: Path) -> dict:
    """{wall_s, peak_rss_mb} of `reidapt argv` run with tree's src/, through the launcher."""
    cmd = [sys.executable, "-m", "reidapt.cli", *argv]
    r = json.loads(run_in(tree, [sys.executable, "-c", LAUNCHER, str(stderr), *cmd]))
    if r.pop("exit"):
        raise SystemExit(f"{' '.join(cmd)} failed:\n{stderr.read_text(errors='replace')}")
    return r


def run_pass(tree: Path, data: Path, args, params_out: Path) -> dict:
    argv = [sys.executable, str(Path(__file__).resolve()), "--child", str(data),
            "--size", args.size, "--out", str(params_out)]
    return json.loads(run_in(tree, argv).strip().splitlines()[-1])


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(base: list[dict], head: list[dict]) -> dict:
    out = {}
    for metric in base[0]:
        b, h = [p[metric] for p in base], [p[metric] for p in head]
        (bq1, bmed, bq3), (hq1, hmed, hq3) = quartiles(b), quartiles(h)
        wins = sum(y < x for x, y in zip(b, h))
        out[metric] = {
            "base": {"passes": b, "median": bmed, "q1": bq1, "q3": bq3},
            "head": {"passes": h, "median": hmed, "q1": hq1, "q3": hq3},
            "ratio": hmed / bmed,
            "pair_ratio_median": statistics.median(y / x for x, y in zip(b, h)),
            "head_wins": wins,
            "pairs": len(b),
            "unresolved": bq1 <= hmed <= bq3,
            "win": len(b) >= 10 and wins >= 0.9 * len(b) and bmed - hmed > bq3 - bq1,
        }
    return out


def environment(tree: Path) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    starts = []
    for _ in range(5):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        starts.append(time.perf_counter() - t0)
    return {
        "cpus": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_ENV,
        "workers": int(run_in(tree, [sys.executable, "-c",
                                     "from reidapt._tasks import workers; print(workers())"])),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "python_c_pass_s": statistics.median(starts),
    }


def rev_name(rev: str) -> str:
    """The commit of rev, "working tree on <HEAD>" for the repository, or the directory."""
    path = Path(rev).resolve()
    if Path(rev, "src").is_dir() and path != ROOT:
        return str(path)
    commit = subprocess.run(["git", "rev-parse", "HEAD" if path == ROOT else rev], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    return f"working tree on {commit}" if path == ROOT else commit


def record_synth(args, trees: dict, tmp: Path) -> dict:
    """The synth-9k record: wall time and peak of cluster-9k's set-up synth, and its outputs."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import Cluster9k

    run_dir = tmp / "run"
    run_dir.mkdir()
    argv = Cluster9k(args.size == "tiny").setup(SEED, run_dir)[0]
    passes = {"base": [], "head": []}
    for i in range(SIZES[args.size][1]):
        for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
            passes[side].append(run_command(trees[side], argv, run_dir / "stderr"))
            (tmp / f"{side}-out").mkdir(exist_ok=True)
            for f in run_dir.iterdir():
                f.replace(tmp / f"{side}-out" / f.name)
    names = sorted(f.name for f in (tmp / "base-out").iterdir())
    return {
        "what": "wall clock and os.wait4 ru_maxrss of one CLI command, each run in a fresh "
                "process from a thin launcher",
        "workload": f"cluster-9k set-up synth at --seed {SEED}, --size {args.size}",
        "command": ["reidapt", *(a.replace(str(run_dir), "<dir>") for a in argv)],
        "base": rev_name(args.base),
        "head": rev_name(args.head),
        "metrics": summarize(passes["base"], passes["head"]),
        "outputs_equal": {n: (tmp / "base-out" / n).read_bytes()
                          == (tmp / "head-out" / n).read_bytes() for n in names},
        "environment": environment(trees["head"]),
    }


def record_adapt(args, trees: dict, tmp: Path) -> dict:
    """The adapt-300 record: wall time and peak of its adapt and eval commands, and their outputs."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import Adapt300

    data, run_dir = tmp / "data", tmp / "run"
    data.mkdir()
    setup(trees["base"], data, args.size == "tiny")
    commands = Adapt300(args.size == "tiny").steps_for(data, run_dir)
    outputs = {"adapted.kte": run_dir / "adapted.kte", "report.json": run_dir / "report.json",
               "summary.json": run_dir / "eval" / "summary.json"}
    passes = {"base": [], "head": []}
    for i in range(SIZES[args.size][1]):
        for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
            shutil.rmtree(run_dir, ignore_errors=True)
            run_dir.mkdir()
            runs = {c.name: run_command(trees[side], c.argv, tmp / "stderr") for c in commands}
            passes[side].append({"wall_s": sum(r["wall_s"] for r in runs.values()),
                                 "peak_rss_mb": max(r["peak_rss_mb"] for r in runs.values()),
                                 **{f"{name}_s": r["wall_s"] for name, r in runs.items()}})
            (tmp / f"{side}-out").mkdir(exist_ok=True)
            for name, path in outputs.items():
                path.replace(tmp / f"{side}-out" / name)
    return {
        "what": "wall clock and os.wait4 ru_maxrss of the workload's timed CLI commands, each run "
                "in a fresh process from a thin launcher",
        "workload": f"adapt-300 at --seed {SEED}, --size {args.size}",
        "commands": [["reidapt", *(a.replace(str(run_dir), "<out>").replace(str(data), "<data>")
                                   for a in c.argv)] for c in commands],
        "base": rev_name(args.base),
        "head": rev_name(args.head),
        "metrics": summarize(passes["base"], passes["head"]),
        "outputs_equal": {n: (tmp / "base-out" / n).read_bytes() == (tmp / "head-out" / n).read_bytes()
                          for n in outputs},
        "environment": environment(trees["head"]),
    }


def record(args) -> dict:
    with tempfile.TemporaryDirectory(prefix="reidapt-bench-") as tmp:
        tmp = Path(tmp)
        trees = {side: make_tree(rev, tmp / side) for side, rev in (("base", args.base),
                                                                     ("head", args.head))}
        if args.record == "synth-9k":
            return record_synth(args, trees, tmp)
        if args.record == "adapt-300":
            return record_adapt(args, trees, tmp)
        data = tmp / "data"
        data.mkdir()
        setup(trees["base"], data, args.size == "tiny")
        passes = {"base": [], "head": []}
        for i in range(SIZES[args.size][1]):
            for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
                passes[side].append(run_pass(trees[side], data, args, tmp / f"{side}.params"))
        same = (tmp / "base.params").read_bytes() == (tmp / "head.params").read_bytes()
        env = environment(trees["head"])
    return {
        "what": "in-process train_embedder step and batch_hard_triplet_loss call, "
                f"wall clock, fastest of {BLOCKS} blocks per pass",
        "workload": f"adapt-300 at --seed {SEED}, --size {args.size}: round-0 clusters",
        "base": rev_name(args.base),
        "head": rev_name(args.head),
        "steps": SIZES[args.size][0],
        "loss_calls": SIZES[args.size][0],
        "batch": f"{P}x{K} frames, 3-d embeddings",
        "metrics": summarize(passes["base"], passes["head"]),
        "trained_params_equal": same,
        "environment": env,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD")
    ap.add_argument("--head", default=".")
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--record", choices=("train-step", "synth-9k", "adapt-300"), default="train-step")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child is not None:
        print(json.dumps(measure(args.child, SIZES[args.size][0], args.out)))
        return 0
    text = json.dumps(record(args), indent=2) + "\n"
    if args.out is None:
        print(text, end="")
    else:
        args.out.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
