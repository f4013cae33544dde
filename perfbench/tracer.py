"""Run one reidapt CLI command in-process and record spans around library calls.

Usage: python3 tracer.py SPANS_JSONL SPAWN_TIME ARG...

SPAWN_TIME is the parent's time.perf_counter() just before it started this
process (CLOCK_MONOTONIC, so it compares across processes); the ARGs are
passed to reidapt.cli.run.  Each traced function is wrapped under every name
a reidapt module binds it to, so `from .graph import cluster` callers see the
wrapper too.  A function that no longer exists is listed as absent instead of
failing the run.  Spans stay in memory and are written as JSON lines when the
command ends: first a header record, then one record per span.

The parent-side helpers at the bottom turn those records into per-layer
metrics; they import nothing from reidapt.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path


def _path_size(p) -> int:
    try:
        return Path(p).stat().st_size
    except (OSError, TypeError):
        return 0


def _read_manifest_attrs(args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    sidecar = args[1] if len(args) > 1 else kwargs.get("sidecar")
    return {"bytes": _path_size(path) + (_path_size(sidecar) if sidecar is not None else 0)}


def _array_bytes(obj) -> int:
    """Bytes of the numpy arrays an object holds as fields or items, one level deep."""
    values = vars(obj).values() if hasattr(obj, "__dict__") else obj
    total = 0
    for v in values:
        items = v if isinstance(v, (tuple, list)) else (v,)
        total += sum(int(x.nbytes) for x in items if hasattr(x, "nbytes"))
    return total


def _edge_count(graph):
    # An edge list today; parallel (src, dst, weight) arrays would also do.
    return {"edges": len(graph.edges if hasattr(graph, "edges") else graph.src)}


def _cluster_set_attrs(args, kwargs, cs):
    return {"clusters": len(cs.clusters), "clustered_fraction": float(cs.clustered_fraction)}


# (span name, module, attribute path, attrs(args, kwargs, result) -> dict or None)
SPEC = [
    ("io.read_manifest", "reidapt.io", "read_manifest", _read_manifest_attrs),
    ("io.write_manifest", "reidapt.io", "write_manifest", None),
    ("io.write_feature_sidecar", "reidapt.io", "write_feature_sidecar", None),
    ("io.write_assignments", "reidapt.io", "write_assignments", None),
    ("io.write_json", "reidapt.io", "write_json", None),
    ("model.validate_manifest", "reidapt.model", "validate_manifest", None),
    ("model.manifest_embeddings", "reidapt.model", "manifest_embeddings", None),
    ("neighbors.build_neighbor_index", "reidapt.neighbors", "build_neighbor_index",
     lambda a, k, r: {"bytes": _array_bytes(r)}),
    ("graph.cluster", "reidapt.graph", "cluster", None),
    ("graph.build_graph", "reidapt.graph", "build_graph", lambda a, k, r: _edge_count(r)),
    ("graph.threshold_graph", "reidapt.graph", "threshold_graph", lambda a, k, r: _edge_count(r)),
    ("graph.connected_subgraphs", "reidapt.graph", "connected_subgraphs", None),
    ("graph.cluster_set", "reidapt.graph", "cluster_set", _cluster_set_attrs),
    ("adapt.adapt", "reidapt.adapt", "adapt", None),
    ("adapt.train_embedder", "reidapt.adapt", "train_embedder", None),
    ("adapt.batch_hard_triplet_loss", "reidapt.adapt", "batch_hard_triplet_loss", None),
    ("adapt.embed", "reidapt.adapt", "LinearEmbedder.embed", None),
    ("adapt.embed", "reidapt.adapt", "MlpEmbedder.embed", None),
    ("adapt.param_grad", "reidapt.adapt", "LinearEmbedder.param_grad", None),
    ("adapt.param_grad", "reidapt.adapt", "MlpEmbedder.param_grad", None),
    ("adapt.set_param_vector", "reidapt.adapt", "LinearEmbedder.set_param_vector", None),
    ("adapt.set_param_vector", "reidapt.adapt", "MlpEmbedder.set_param_vector", None),
    ("evaluate.build_ranking", "reidapt.evaluate", "build_ranking",
     lambda a, k, r: {"queries": len(r)}),
    ("evaluate.cmc", "reidapt.evaluate", "cmc", None),
    ("evaluate.mean_average_precision", "reidapt.evaluate", "mean_average_precision", None),
    ("evaluate.classify_clusters", "reidapt.evaluate", "classify_clusters", None),
    ("evaluate.inter_intra_distances", "reidapt.evaluate", "inter_intra_distances", None),
    ("synth.generate_synthetic_domain", "reidapt.synth", "generate_synthetic_domain", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent, name, start, end, attrs]
        self.stack: list[int] = []
        self.absent: list[str] = []
        self.round_labels: list[dict] = []  # pseudo-labels of each clustering inside adapt

    def _under(self, name: str) -> bool:
        return any(self.spans[i][2] == name for i in self.stack)

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            rec = [sid, self.stack[-1] if self.stack else None, name, time.perf_counter(), None, None]
            self.spans.append(rec)
            self.stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                self.stack.pop()
            # A result whose shape changed leaves the span without attributes
            # (its metrics are then reported absent) instead of failing the command.
            try:
                if attrs is not None:
                    rec[5] = attrs(args, kwargs, result)
                if name == "graph.cluster" and self._under("adapt.adapt"):
                    self.round_labels.append(result.labels())
            except (AttributeError, TypeError):
                pass
            return result

        return traced

    def install(self, spec=SPEC):
        import importlib
        import pkgutil

        import reidapt

        modules = [reidapt] + [
            importlib.import_module(f"reidapt.{m.name}") for m in pkgutil.iter_modules(reidapt.__path__)
        ]
        for name, module_name, attr_path, attrs in spec:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = attr_path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr_path}")
                continue
            wrapper = self.wrap(name, original, attrs)
            if outer:  # a method: patch the class, instances look it up there
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def dump(self, path, header: dict):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def main(argv) -> int:
    spans_path, spawn_time, cli_argv = argv[0], float(argv[1]), argv[2:]
    import reidapt.cli

    ready = time.perf_counter()
    tracer = Tracer()
    tracer.install()
    rc = tracer.wrap("cli.run", reidapt.cli.run)(cli_argv)
    tracer.dump(spans_path, {
        "startup_s": ready - spawn_time,
        "absent": tracer.absent,
        "round_labels": tracer.round_labels,
    })
    return rc


# ---------------------------------------------------------------------------
# Parent side: spans -> per-layer metrics.

TIME_METRICS = {
    # metric: (span names, restrict to spans under this ancestor)
    "io.read_manifest_s": (("io.read_manifest",), None),
    "io.write_s": (("io.write_manifest", "io.write_feature_sidecar", "io.write_assignments",
                    "io.write_json"), None),
    "model.manifest_embeddings_s": (("model.manifest_embeddings",), None),
    "model.validate_s": (("model.validate_manifest",), None),
    "neighbors.build_index_s": (("neighbors.build_neighbor_index",), None),
    "graph.build_s": (("graph.build_graph", "graph.threshold_graph"), None),
    "graph.components_s": (("graph.connected_subgraphs", "graph.cluster_set"), None),
    "adapt.train_s": (("adapt.train_embedder",), None),
    "adapt.forward_s": (("adapt.embed",), "adapt.train_embedder"),
    "adapt.loss_s": (("adapt.batch_hard_triplet_loss",), "adapt.train_embedder"),
    "adapt.backward_s": (("adapt.param_grad",), "adapt.train_embedder"),
    "adapt.update_s": (("adapt.set_param_vector",), "adapt.train_embedder"),
    "evaluate.build_ranking_s": (("evaluate.build_ranking",), None),
    "evaluate.metrics_s": (("evaluate.cmc", "evaluate.mean_average_precision"), None),
    "evaluate.cluster_quality_s": (("evaluate.classify_clusters",
                                    "evaluate.inter_intra_distances"), None),
    "synth.generate_s": (("synth.generate_synthetic_domain",), None),
}

CALL_METRICS = {
    "model.manifest_embeddings_calls": "model.manifest_embeddings",
    "model.validate_calls": "model.validate_manifest",
    "neighbors.calls": "neighbors.build_neighbor_index",
}

# Metrics that must repeat exactly when the same command sequence is traced twice.
COUNT_METRICS = (
    "adapt.steps", "neighbors.calls", "neighbors.index_bytes", "model.manifest_embeddings_calls",
    "model.validate_calls", "graph.edges", "graph.edges_kept", "graph.clusters",
    "evaluate.queries", "io.bytes_read",
)

def _mean(values):
    return sum(values) / len(values) if values else 0.0


ATTR_METRICS = {
    # metric: (span name, attribute recorded at that span, reduction)
    "io.bytes_read": ("io.read_manifest", "bytes", sum),
    "neighbors.index_bytes": ("neighbors.build_neighbor_index", "bytes",
                              lambda v: max(v, default=0)),
    "graph.edges": ("graph.build_graph", "edges", sum),
    "graph.edges_kept": ("graph.threshold_graph", "edges", sum),
    "graph.clusters": ("graph.cluster_set", "clusters", sum),
    "graph.clustered_fraction": ("graph.cluster_set", "clustered_fraction", _mean),
    "evaluate.queries": ("evaluate.build_ranking", "queries", sum),
}

# Span names each derived metric needs; when one is absent so is the metric.
_NEEDS = {
    **{m: names for m, (names, _) in TIME_METRICS.items()},
    **{m: (name,) for m, name in CALL_METRICS.items()},
    **{m: (name,) for m, (name, _, _) in ATTR_METRICS.items()},
    "adapt.steps": ("adapt.train_embedder", "adapt.batch_hard_triplet_loss"),
    "adapt.ms_per_step": ("adapt.train_embedder", "adapt.batch_hard_triplet_loss"),
    "adapt.sample_s": ("adapt.train_embedder", "adapt.embed", "adapt.batch_hard_triplet_loss",
                       "adapt.param_grad", "adapt.set_param_vector"),
    "adapt.round_ari": ("adapt.adapt", "graph.cluster"),
}


def read_spans(path):
    """(header, spans) from one command's span file."""
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        spans = [json.loads(line) for line in fh]
    return header, spans


def _ancestors(spans) -> list[frozenset]:
    # A span's id is its position and its parent always comes earlier.
    out: list[frozenset] = []
    for rec in spans:
        parent = rec[1]
        out.append(frozenset() if parent is None else out[parent] | {spans[parent][2]})
    return out


def _outermost_total(spans, ancestors, names, under=None) -> float:
    """Summed duration of spans in `names`, skipping spans nested in another of them."""
    return sum(
        rec[4] - rec[3]
        for rec, anc in zip(spans, ancestors)
        if rec[2] in names and not anc & set(names) and (under is None or under in anc)
    )


def pair_counting_ari(a: dict, b: dict) -> float:
    """Adjusted Rand index over the tracklets clustered (label != -1) in both labelings."""
    common = sorted(t for t in a if a[t] != -1 and b.get(t, -1) != -1)
    n = len(common)
    if n < 2:
        return 1.0
    table: dict = defaultdict(int)
    rows: dict = defaultdict(int)
    cols: dict = defaultdict(int)
    for t in common:
        table[a[t], b[t]] += 1
        rows[a[t]] += 1
        cols[b[t]] += 1
    comb2 = lambda x: x * (x - 1) / 2  # noqa: E731
    index = sum(comb2(v) for v in table.values())
    sum_a = sum(comb2(v) for v in rows.values())
    sum_b = sum(comb2(v) for v in cols.values())
    expected = sum_a * sum_b / comb2(n)
    top = (sum_a + sum_b) / 2
    return 1.0 if top == expected else (index - expected) / (top - expected)


def layer_metrics(commands) -> tuple[dict, set]:
    """Per-layer metrics for one traced pass over a command sequence.

    commands: list of (header, spans), one per CLI command.  Returns
    (metrics, absent metric names).  A layer the commands never reach reports
    0; adapt.round_ari reports 0 unless some command ran two or more rounds.
    """
    spans = []
    absent_fns: set[str] = set()
    ari = []
    for header, cmd_spans in commands:
        offset = len(spans)
        for rec in cmd_spans:
            spans.append([rec[0] + offset, None if rec[1] is None else rec[1] + offset, *rec[2:]])
        absent_fns.update(header["absent"])
        labels = header["round_labels"]
        ari += [pair_counting_ari(x, y) for x, y in zip(labels, labels[1:])]

    ancestors = _ancestors(spans)
    m: dict[str, float] = {}
    for metric, (names, under) in TIME_METRICS.items():
        m[metric] = _outermost_total(spans, ancestors, names, under)
    for metric, name in CALL_METRICS.items():
        m[metric] = sum(1 for rec in spans if rec[2] == name)
    unrecorded = set()
    for metric, (name, key, reduce) in ATTR_METRICS.items():
        values = [(rec[5] or {}).get(key) for rec in spans if rec[2] == name]
        if None in values:
            unrecorded.add(metric)
        else:
            m[metric] = reduce(values)
    steps = sum(
        1 for rec, anc in zip(spans, ancestors)
        if rec[2] == "adapt.batch_hard_triplet_loss" and "adapt.train_embedder" in anc
    )
    m["adapt.steps"] = steps
    m["adapt.ms_per_step"] = 1000.0 * m["adapt.train_s"] / steps if steps else 0.0
    child_time: dict = defaultdict(float)
    for rec in spans:
        if rec[1] is not None:
            child_time[rec[1]] += rec[4] - rec[3]
    m["adapt.sample_s"] = sum(
        rec[4] - rec[3] - child_time[rec[0]] for rec in spans if rec[2] == "adapt.train_embedder"
    )
    m["adapt.round_ari"] = _mean(ari)
    m["cli.startup_s"] = statistics.median(h["startup_s"] for h, _ in commands)

    present_spans = {rec[2] for rec in spans} | {
        name for name, module, attr, _ in SPEC if f"{module}.{attr}" not in absent_fns
    }
    absent = unrecorded | {metric for metric, needs in _NEEDS.items()
                           if any(n not in present_spans for n in needs)}
    return {k: v for k, v in m.items() if k not in absent}, absent


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
