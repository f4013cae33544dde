"""Command line front end.

Subcommands cover the full pipeline: generate synthetic domains, merge
sources, train a source embedder, cluster a manifest, adapt to a target,
and evaluate a checkpoint.  All randomness flows from --seed, so a repeated
invocation with identical arguments produces byte-identical output files.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import io as io_mod
from .adapt import (
    LinearEmbedder,
    MlpEmbedder,
    adapt as run_adapt,
    check_checkpoint_field,
    identity_clusters,
    load_checkpoint,
    save_checkpoint,
    train_embedder,
)
from .errors import AdaptationError, GenerationError
from .evaluate import build_ranking, classify_clusters, cmc, inter_intra_distances, mean_average_precision
from .graph import cluster
from .model import AdaptConfig, SOURCE_ITERATIONS, TrainConfig, default_kt
from .neighbors import NeighborIndex, build_neighbor_index
from .synth import MergePolicy, SyntheticSpec, generate_synthetic_domain, merge_domains


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--iterations", type=int)
    p.add_argument("--batch-p", type=int, help="clusters per batch")
    p.add_argument("--batch-k", type=int, help="frame samples per cluster")
    p.add_argument("--margin", help="'soft' or a non-negative float")
    p.add_argument("--lr", dest="learning_rate", type=float, metavar="LR")
    p.add_argument("--lr-decay", type=float)


def _add_cluster_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--K", type=int, help="rank threshold (default from camera count)")
    p.add_argument("--T", type=int, help="size threshold (default from camera count)")
    p.add_argument("--k1", type=int, help="graph out-degree (default K)")
    p.add_argument("--connectivity", choices=["weak", "strong"])
    p.add_argument("--normalize", action="store_true", help="L2-normalize representations")


def _config(cls, args, **cli_defaults):
    """cls from the flags given, over the CLI's own defaults; cls owns every other default."""
    given = {f.name: getattr(args, f.name) for f in fields(cls) if f.name in args}
    return cls(**{**cli_defaults, **given})


def _train_config(args, **cli_defaults) -> TrainConfig:
    if "margin" in args and args.margin != "soft":
        args.margin = float(args.margin)  # float() words the error for any other text
    return _config(TrainConfig, args, **cli_defaults)


def _adapt_config(args, m, **cli_defaults) -> AdaptConfig:
    """K and T not given come from the manifest's camera count."""
    if "K" not in args or "T" not in args:
        cli_defaults.update(zip("KT", default_kt(len(m.cameras))))
    return _config(AdaptConfig, args, **cli_defaults)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="reidapt",
        description="Cross-camera tracklet clustering and unsupervised domain adaptation.",
    )
    ap.add_argument("--seed", type=int, default=0)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name: str, help: str) -> argparse.ArgumentParser:
        # A flag without a default is absent from args until given, so the
        # config class that owns its field supplies the default.
        return sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)

    p = command("synth", "generate a synthetic labeled domain")
    p.add_argument("--out", required=True)
    p.add_argument("--sidecar", default=None, help="write frames to a float32 sidecar")
    p.add_argument("--identities", type=int, default=50)
    p.add_argument("--cameras", type=int, default=4)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--frames", dest="frames_per_tracklet", type=int, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--tracklets", dest="tracklets_per_identity_per_camera", type=int, nargs=2,
                   metavar=("LO", "HI"))
    p.add_argument("--separation", dest="identity_separation", type=float, metavar="SEPARATION")
    p.add_argument("--camera-shift", type=float)
    p.add_argument("--noise-sigma", type=float)

    p = command("cluster", "cluster a manifest into person groups")
    p.add_argument("--manifest", required=True)
    p.add_argument("--sidecar", default=None)
    p.add_argument("--out", required=True, help="assignment TSV path")
    p.add_argument("--checkpoint", default=None, help="embedder checkpoint (default: raw features)")
    _add_cluster_flags(p)

    p = command("train-source", "train an embedder on a labeled source domain")
    p.add_argument("--manifest", required=True)
    p.add_argument("--sidecar", default=None)
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--arch", choices=["linear", "mlp"], default="linear")
    p.add_argument("--embed-dim", type=int, default=None, help="output dim (default: input dim)")
    p.add_argument("--hidden-dim", type=int, default=64, help="hidden width for --arch mlp")
    p.add_argument("--init", choices=["identity", "random"], default="identity",
                   help="linear init; mlp is always random")
    _add_train_flags(p)

    p = command("adapt", "adapt a source checkpoint to an unlabeled target")
    p.add_argument("--checkpoint", required=True, help="source embedder checkpoint")
    p.add_argument("--manifest", required=True, help="target manifest")
    p.add_argument("--sidecar", default=None)
    p.add_argument("--out", required=True, help="adapted checkpoint path")
    p.add_argument("--report", default=None, help="write a JSON adaptation report here")
    p.add_argument("--rounds", "-I", dest="I", type=int, metavar="ROUNDS")
    p.add_argument("--cluster-cap", type=int)
    _add_cluster_flags(p)
    _add_train_flags(p)

    p = command("merge", "merge labeled source manifests into one domain")
    p.add_argument("--sources", nargs="+", required=True, help="manifest JSONL paths")
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None, help="write a JSON merge report here")
    p.add_argument("--min-identities", type=int)
    p.add_argument("--allow-single-camera", dest="require_cross_camera", action="store_false",
                   help="keep identities seen by only one camera")
    p.add_argument("--exclude", dest="exclusion_list", action="append", metavar="NAME")
    p.add_argument("--no-namespace", dest="namespace_ids", action="store_false")

    p = command("eval", "evaluate a checkpoint on a labeled manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--sidecar", default=None)
    p.add_argument("--checkpoint", default=None, help="embedder checkpoint (default: raw features)")
    p.add_argument("--queries", default=None, help="file listing query tracklet ids, one per line")
    p.add_argument("--ranks", default="1,5,10,20", help="comma-separated CMC ranks")
    p.add_argument("--out-dir", default=None, help="write summary.json and CSV plot data here")
    _add_cluster_flags(p)

    return ap


def _check_input_dim(embedder, m, args) -> None:
    """Fail before any work when the checkpoint cannot take the manifest's frames."""
    if embedder is not None and m.dim is not None and embedder.input_dim != m.dim:
        raise ValueError(
            f"{args.checkpoint}: embedder takes {embedder.input_dim}-d frames, "
            f"{args.manifest} has {m.dim}-d frames"
        )


def _neighbor_index(args, m, cfg: AdaptConfig) -> NeighborIndex:
    """The command's one representation pass, under --checkpoint and cfg.normalize."""
    embedder = None if args.checkpoint is None else load_checkpoint(args.checkpoint).embedder
    _check_input_dim(embedder, m, args)
    return build_neighbor_index(m, embedder, cfg.normalize)


def _cmd_synth(args) -> int:
    m = generate_synthetic_domain(_config(SyntheticSpec, args))
    io_mod.write_manifest(m, args.out, sidecar=args.sidecar)
    print(f"wrote {len(m)} tracklets ({args.identities} identities, "
          f"{args.cameras} cameras) to {args.out}", file=sys.stderr)
    return 0


def _cmd_cluster(args) -> int:
    m = io_mod.read_manifest(args.manifest, sidecar=args.sidecar)
    cfg = _adapt_config(args, m)
    cs = cluster(_neighbor_index(args, m, cfg), cfg)
    io_mod.write_assignments(cs, args.out)
    print(
        f"{len(cs.clusters)} clusters covering {cs.clustered_fraction:.1%} of "
        f"{cs.n_tracklets} tracklets (K={cfg.K}, T={cfg.T}, k1={cfg.k1})",
        file=sys.stderr,
    )
    return 0


def _cmd_train_source(args) -> int:
    check_checkpoint_field("seed", args.seed)  # the checkpoint records it: refuse before any work
    m = io_mod.read_manifest(args.manifest, sidecar=args.sidecar)
    dim = m.dim
    out_dim = args.embed_dim if args.embed_dim is not None else dim
    rng = np.random.default_rng(args.seed)
    if args.arch == "linear":
        if args.init == "identity" and out_dim == dim:
            emb = LinearEmbedder.identity(dim)
        else:
            emb = LinearEmbedder.random(dim, out_dim, rng)
    else:
        emb = MlpEmbedder.random(dim, args.hidden_dim, out_dim, rng)

    clusters = identity_clusters(m)
    cfg = _train_config(args, iterations=SOURCE_ITERATIONS)
    losses: list[float] = []
    emb = train_embedder(m=m, embedder=emb, clusters=clusters, cfg=cfg,
                                   progress=lambda _s, l: losses.append(l))
    save_checkpoint(args.out, emb, seed=args.seed, round_index=0)
    first = losses[0] if losses else float("nan")
    last = losses[-1] if losses else float("nan")
    print(
        f"trained {args.arch} embedder on {len(clusters.clusters)} identities "
        f"for {cfg.iterations} steps (loss {first:.4f} -> {last:.4f}); wrote {args.out}",
        file=sys.stderr,
    )
    return 0


def _cmd_adapt(args) -> int:
    check_checkpoint_field("seed", args.seed)  # the checkpoint records it: refuse before any work
    ckpt = load_checkpoint(args.checkpoint)
    m = io_mod.read_manifest(args.manifest, sidecar=args.sidecar)
    _check_input_dim(ckpt.embedder, m, args)
    cfg = _adapt_config(args, m, train=_train_config(args))
    emb, report = run_adapt(ckpt.embedder, m, cfg)
    if report.rounds:
        out_seed, out_round = args.seed, ckpt.round_index + len(report.rounds)
    else:
        # nothing ran: keep provenance so the checkpoint is bit-identical
        out_seed, out_round = ckpt.seed, ckpt.round_index
    save_checkpoint(args.out, emb, seed=out_seed, round_index=out_round)
    if args.report is not None:
        io_mod.write_json(report.to_dict(), args.report)
    print(
        f"{len(report.rounds)} rounds, reason={report.reason}; wrote {args.out}",
        file=sys.stderr,
    )
    return 0


def _cmd_merge(args) -> int:
    sources = [io_mod.read_manifest(p) for p in args.sources]
    merged, report = merge_domains(sources, _config(MergePolicy, args))
    io_mod.write_manifest(merged, args.out)
    if args.report is not None:
        io_mod.write_json(report.to_dict(), args.report)
    for s in report.sources:
        status = "included" if s.included else f"excluded ({s.reason})"
        print(
            f"{s.source}: {status}; ids={s.identities} images={s.images} cameras={s.cameras}",
            file=sys.stderr,
        )
    print(
        f"merged {report.tracklets} tracklets, {report.identities} identities, "
        f"{report.cameras} cameras -> {args.out}",
        file=sys.stderr,
    )
    return 0


def _parse_ranks(text: str) -> list[int]:
    """--ranks as a list of positive integers; an error names the first bad value."""
    ranks = []
    for k in filter(None, text.split(",")):
        try:
            ranks.append(int(k))
            if ranks[-1] < 1:
                raise ValueError
        except ValueError:
            raise ValueError(f"--ranks: {k!r} is not a positive integer") from None
    if not ranks:
        raise ValueError("--ranks: no rank given")
    return ranks


def _cmd_eval(args) -> int:
    ranks = _parse_ranks(args.ranks)
    m = io_mod.read_manifest(args.manifest, sidecar=args.sidecar)
    cfg = _adapt_config(args, m)
    idx = _neighbor_index(args, m, cfg)
    queries = None if args.queries is None else io_mod.read_queries(args.queries, m.by_id)

    ranking = build_ranking(idx, m, queries=queries)
    map_val = mean_average_precision(ranking)
    cs = cluster(idx, cfg)
    quality = classify_clusters(cs, m) if cs.clusters else None
    if len(cs.clusters) >= 2:
        intra, inter = inter_intra_distances(cs, m, idx)
    else:
        intra, inter = [], []
    # A metric that does not apply is None here and has no row in the table.
    summary = {
        "cmc": {str(k): float(v) for k, v in zip(ranks, cmc(ranking, ranks))},
        "map": map_val,
        "clusters": len(cs.clusters),
        "cluster_counts": quality.counts if quality else None,
        "purity": quality.purity if quality else None,
        "mean_inter_distance": float(np.mean(inter)) if inter else None,
        "mean_intra_distance": float(np.mean(intra)) if intra else None,
    }

    rows = [(f"rank-{k}", summary["cmc"][str(k)]) for k in ranks]
    rows += [("mAP", summary["map"]), ("clusters", summary["clusters"])]
    rows += [(f"clusters[{kind}]", n) for kind, n in (summary["cluster_counts"] or {}).items()]
    rows += [("purity", summary["purity"]), ("mean-inter-dist", summary["mean_inter_distance"]),
             ("mean-intra-dist", summary["mean_intra_distance"])]
    rows = [(k, f"{v:.4f}" if isinstance(v, float) else str(v)) for k, v in rows if v is not None]
    width = max(len(k) for k, _ in rows)
    print(f"{'metric'.ljust(width)}  value")
    for k, v in rows:
        print(f"{k.ljust(width)}  {v}")

    if args.out_dir is not None:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        io_mod.write_json(summary, out / "summary.json")
        # No gallery holds len(idx) items, so the curve reads 1 from there on
        # and ends there.
        curve = cmc(ranking, range(1, min(max(ranks), len(idx)) + 1))
        with io_mod.atomic_write(out / "cmc_curve.csv") as fh:
            fh.write("rank,cmc\n")
            for k, v in enumerate(curve, 1):
                fh.write(f"{k},{v:.6f}\n")
        with io_mod.atomic_write(out / "cluster_distances.csv") as fh:
            fh.write("kind,distance\n")
            for kind, values in (("intra", intra), ("inter", inter)):
                fh.write((f"{kind},%.6f\n" * len(values)) % tuple(values))
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "cluster": _cmd_cluster,
    "train-source": _cmd_train_source,
    "adapt": _cmd_adapt,
    "merge": _cmd_merge,
    "eval": _cmd_eval,
}

# Every other library error subclasses ValueError.  numpy words a flag value
# past int64 (OverflowError) or past memory (MemoryError) on one line.
_USER_ERRORS = (ValueError, KeyError, OSError, OverflowError, MemoryError, AdaptationError,
                GenerationError)


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # A warning that the filters let through prints as one line; the filters stay as they are.
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return _COMMANDS[args.command](args)
        except _USER_ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
