"""Record a training step and a loss call, or a perfbench workload's CLI commands, of two source trees into a BENCH file.

    python bench/record.py --base HEAD~1 --head . --out BENCH_train_step.json
    python bench/record.py --record eval-3k --base HEAD~1 --head . --out BENCH_eval_3k.json
    python bench/record.py --record cluster-9k:setup --base HEAD~1 --head . --out BENCH_synth_9k.json

Each side is a directory holding src/ ("." from the repository root is the
working tree), or else a git revision; either is copied into a temporary
tree.  Every mode but a set-up mode first makes its workload's inputs once,
through the base tree's CLI, by the workload's set-up commands in
perfbench/run.py at its seed 1; train-step uses adapt-300's synthetic source
and target domains and its source checkpoint.

Each side runs 11 passes (2 at --size tiny), each in fresh processes; the
base side runs first in odd passes and second in even ones.

--record train-step (the default) times in one process per pass.  A pass
clusters the target with the source checkpoint as round 0 of `adapt` does,
then times, by the wall clock (time.perf_counter, so a training step's time
includes any wait on other processes, which process time would leave out):

- train_embedder for 1000 steps (60 at --size tiny) with adapt-300's
  round-0 settings (--lr 0.1, --batch-p 16, CLI seed 0), after a short
  warm-up;
- batch_hard_triplet_loss on as many 64x3 batches: 16 clusters of 4 frames,
  drawn as training draws them (without replacement where a cluster holds
  4 frames or more) by a fixed numpy rng and embedded by the source
  checkpoint.

Each is timed BLOCKS times over and the pass keeps the fastest block, so a
block slowed by other load on a shared host drops out.  The record compares
the bytes of the trained parameters of both sides.

--record <workload> (any name in perfbench/run.py's WORKLOADS) times the
workload's timed commands with their argv from perfbench/run.py;
--record <workload>:setup times its set-up commands instead, in an empty
directory each pass.  Every command runs in a fresh process started by a
thin launcher, a bare interpreter that spawns the command and reads its wall
time and its own ru_maxrss from os.wait4 (a child's ru_maxrss starts from its
parent's size at exec, so a parent that had imported numpy would raise it).
A pass records each command's wall time as <name>_s, their sum wall_s as
perfbench counts it, and peak_rss_mb, the larger of their peaks.  Both sides
write to the same paths.  The record compares each side's last outputs byte
for byte: the files each command declares in perfbench/run.py, or in a
set-up mode every file written and each command's stderr.  It also lists
the problems perfbench's reference checks find in each side's last pass (a
set-up mode has no checks).

The file records, per side and metric, every pass, the median and the
quartiles; then the head/base ratio of the medians, the median of the
head/base ratios of the pairs (which a host whose speed drifts between
pairs moves less), the pairs the head won, "unresolved" when the head
median lies inside the base quartiles, and "win" when at least 10 pairs
ran, the head won 9 in 10 of them, and its median is below the base median
by more than the base quartile distance.  An environment block holds the
host, python -c pass time, site's import time and the W =
_tasks.workers() the head side's children see.  BLAS is pinned to one
thread in every child.
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
sys.path.insert(0, str(ROOT / "perfbench"))
from run import WORKLOADS, Step  # noqa: E402

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
P, K = 16, 4  # adapt-300's --batch-p and the default batch_k: 64 rows of 3-d embeddings
SEED = 1  # the workload seed of every recorded perfbench workload
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


def round0(data: Path):
    """adapt-300's source embedder, its target and the target's round-0 clusters, from data."""
    from reidapt import AdaptConfig, load_checkpoint
    from reidapt.graph import cluster
    from reidapt.io import read_manifest
    from reidapt.neighbors import build_neighbor_index

    source = load_checkpoint(data / "source.kte").embedder
    target = read_manifest(data / "target.jsonl")
    cfg = AdaptConfig()  # K = T = 2 is what the CLI picks for adapt-300's four cameras.
    return source, target, cluster(build_neighbor_index(target, source, cfg.normalize), cfg)


def loss_batches(source, target, clusters, n: int):
    """(n embedded batches, their labels): P clusters of K frames, drawn as training draws them."""
    import numpy as np

    rng = np.random.default_rng(0)
    pools = [np.concatenate([target.by_id[t].frames for t in sorted(c.members)])
             for c in clusters.clusters]
    p = min(P, len(pools))  # the tiny domain may hold fewer clusters
    batches = [source.embed(np.concatenate([
        pools[c][rng.choice(len(pools[c]), K, replace=len(pools[c]) < K)]
        for c in rng.choice(len(pools), p, replace=False)])) for _ in range(n)]
    return batches, np.repeat(np.arange(p), K)


def measure(data: Path, calls: int, params_out: Path) -> dict:
    """One pass in this process; reidapt comes from PYTHONPATH."""
    from reidapt import TrainConfig, batch_hard_triplet_loss
    from reidapt.adapt import train_embedder

    source, target, clusters = round0(data)
    train = TrainConfig(iterations=calls, learning_rate=0.1, batch_p=P, seed=0)
    train_embedder(source, clusters, target, TrainConfig(iterations=WARMUP_STEPS, batch_p=P))
    step_s = []
    for _ in range(BLOCKS):
        t0 = time.perf_counter()
        trained = train_embedder(source, clusters, target, train)
        step_s.append((time.perf_counter() - t0) / calls)
    params_out.write_bytes(trained.param_vector().tobytes())

    batches, labels = loss_batches(source, target, clusters, min(calls, 200))
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


def turns(size: str):
    """The sides in run order: the base side first in odd passes, second in even ones."""
    for i in range(SIZES[size][1]):
        yield from ("base", "head") if i % 2 == 0 else ("head", "base")


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


def site_import_s() -> float:
    """site's cumulative import time (the .pth hooks run in it) in a bare interpreter."""
    err = subprocess.run([sys.executable, "-X", "importtime", "-c", "pass"], check=True,
                         capture_output=True, text=True).stderr
    return next(int(line.split("|")[1]) for line in err.splitlines()
                if line.split("|")[-1].strip() == "site") / 1e6


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
        "site_import_s": statistics.median(site_import_s() for _ in range(5)),
    }


def rev_name(rev: str) -> str:
    """The commit of rev, "working tree on <HEAD>" for the repository, or the directory."""
    path = Path(rev).resolve()
    if Path(rev, "src").is_dir() and path != ROOT:
        return str(path)
    commit = subprocess.run(["git", "rev-parse", "HEAD" if path == ROOT else rev], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    return f"working tree on {commit}" if path == ROOT else commit


def contents(path: Path) -> bytes | None:
    return path.read_bytes() if path.is_file() else None


def record_commands(args, workload, trees: dict, tmp: Path) -> dict:
    """Wall time and peak of a workload's timed or set-up CLI commands, and their outputs."""
    data, run_dir = tmp / "data", tmp / "run"
    setup = args.record.endswith(":setup")
    steps = ([Step(f"setup{i}", argv, [], lambda out: [])
              for i, argv in enumerate(workload.setup(SEED, run_dir))]
             if setup else workload.steps_for(data, run_dir))
    passes, problems = {"base": [], "head": []}, {}
    for side in turns(args.size):
        run_dir.mkdir()
        runs = {s.name: run_command(trees[side], s.argv, run_dir / f"{s.name}.stderr")
                for s in steps}
        passes[side].append({"wall_s": sum(r["wall_s"] for r in runs.values()),
                             "peak_rss_mb": max(r["peak_rss_mb"] for r in runs.values()),
                             **{f"{name}_s": r["wall_s"] for name, r in runs.items()}})
        problems[side] = [f"{s.name}: {p}" for s in steps for p in s.check(run_dir)]
        shutil.rmtree(tmp / f"{side}-out", ignore_errors=True)
        run_dir.rename(tmp / f"{side}-out")
    if setup:  # every file either side wrote
        names = sorted({p.relative_to(out).as_posix() for out in (tmp / "base-out", tmp / "head-out")
                        for p in out.rglob("*") if p.is_file()})
    else:
        names = [p.relative_to(run_dir).as_posix() for s in steps for p in s.outputs]
    return {
        "what": "wall clock and os.wait4 ru_maxrss of the workload's "
                f"{'set-up' if setup else 'timed'} CLI commands, each run in a fresh process "
                "from a thin launcher",
        "workload": f"{args.record} at --seed {SEED}, --size {args.size}",
        "commands": [["reidapt", *(a.replace(str(run_dir), "<out>").replace(str(data), "<data>")
                                   for a in s.argv)] for s in steps],
        "base": rev_name(args.base),
        "head": rev_name(args.head),
        "metrics": summarize(passes["base"], passes["head"]),
        "outputs_equal": {n: contents(tmp / "base-out" / n) == contents(tmp / "head-out" / n)
                          for n in names},
        "reference_problems": None if setup else problems,
        "environment": environment(trees["head"]),
    }


def record(args) -> dict:
    name, _, part = args.record.partition(":")
    workload = WORKLOADS.get(name, WORKLOADS["adapt-300"])(tiny=args.size == "tiny")
    with tempfile.TemporaryDirectory(prefix="reidapt-bench-") as tmp:
        tmp = Path(tmp)
        trees = {side: make_tree(rev, tmp / side) for side, rev in (("base", args.base),
                                                                     ("head", args.head))}
        data = tmp / "data"
        data.mkdir()
        if not part:
            for argv in workload.setup(SEED, data):
                run_in(trees["base"], [sys.executable, "-m", "reidapt.cli", *argv])
        if name in WORKLOADS:
            return record_commands(args, workload, trees, tmp)
        passes = {"base": [], "head": []}
        for side in turns(args.size):
            child = [sys.executable, str(Path(__file__).resolve()), "--child", str(data),
                     "--size", args.size, "--out", str(tmp / f"{side}.params")]
            passes[side].append(json.loads(run_in(trees[side], child).strip().splitlines()[-1]))
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
    ap.add_argument("--record", default="train-step",
                    choices=("train-step", *WORKLOADS, *(f"{w}:setup" for w in WORKLOADS)))
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
