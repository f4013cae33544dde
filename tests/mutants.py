"""Mutation checks: each guard that a proof or a contract rests on has a test that bites.

Usage: python tests/mutants.py [NAME ...]

A mutant is a file under src/reidapt, an exact snippet in it, the snippet's
replacement, and the tests that must fail once the replacement is made.
For each mutant (all of them, or those named), the runner copies src/ to a
temporary directory, applies the mutant to the copy, and runs only its tests
against the copy in a subprocess.  It prints one line per mutant: "killed"
when a test failed, "SURVIVED" when all passed, "ERROR" when pytest could
not run them.  The exit status is 1 unless every mutant was killed.

pytest does not collect this file (its name does not start with test_).
tests/test_mutants.py checks, in tier-1, that each snippet occurs exactly
once in src/ and that each named test exists.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/reidapt
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repo root


MUTANTS = (
    Mutant(
        "line-parse-whole-line", "io.py",
        "if end != len(line):",
        "if end < 0:",
        ("tests/test_io.py::TestLineParse::test_two_records_on_one_line",
         "tests/test_io.py::TestLineParse::test_text_after_a_record_is_extra_data"),
    ),
    Mutant(
        "line-parse-error-wording", "io.py",
        "rec = json.loads(line)",
        "rec = _decode(line)[0]",
        ("tests/test_io.py::TestLineParse::test_a_leading_utf8_bom_is_refused_in_json_loads_words",),
    ),
    Mutant(
        "line-parse-deep-nesting", "io.py",
        "except (ValueError, RecursionError):",
        "except ValueError:",
        ("tests/test_io.py::TestLineParse::test_too_deep_names_its_line",),
    ),
    Mutant(
        "line-parse-long-integer", "io.py",
        "except ValueError as exc:  # JSONDecodeError, or",
        "except json.JSONDecodeError as exc:  # JSONDecodeError, or",
        ("tests/test_io.py::TestLineParse::test_an_integer_past_the_digit_limit_names_its_line",),
    ),
    Mutant(
        "sidecar-matrix-writeable", "io.py",
        "features.setflags(write=False)",
        "pass",
        ("tests/test_io.py::TestSidecarLayout::"
         "test_frames_are_read_only_views_of_one_read_only_matrix",),
    ),
    Mutant(
        "non-finite-span-off-by-one", "model.py",
        "finite = bad_rows[start + n] == bad_rows[start]",
        "finite = bad_rows[start + n - 1] == bad_rows[start]",
        ("tests/test_model.py::TestValidateManifest::test_non_finite_in_a_last_row_only",
         "tests/test_io.py::TestSidecarLayout::test_non_finite_rows_found_in_any_span"),
    ),
    Mutant(
        "means-twosum-proof", "model.py",
        "proven[:a] &= ~((S[:a] - (s - v)) + (x - v)).any(axis=1)",
        "pass",
        ("tests/test_model.py::TestProvenMeans::test_bytes_equal_fsum_on_both_paths",),
    ),
    Mutant(
        "train-member-gate", "adapt.py",
        'pool.validation.check(f"manifest {m.name!r}")',
        "pass",
        ("tests/test_adapt.py::TestTrainEmbedder::test_invalid_member_frames_refused",
         "tests/test_adapt.py::TestTrainEmbedder::test_member_without_frames_refused"),
    ),
    Mutant(
        "embedder-width-check", "adapt.py",
        "if arr.shape[1] != self.input_dim:",
        "if False:",
        ("tests/test_adapt.py::TestInputWidth::test_manifest_embeddings",
         "tests/test_adapt.py::TestInputWidth::test_train_embedder",
         "tests/test_adapt.py::TestInputWidth::test_adapt"),
    ),
    Mutant(
        "round-stop-two-clusters", "adapt.py",
        '"no-clusters" if count < 2 else None',
        '"no-clusters" if count < 1 else None',
        ("tests/test_adapt.py::TestAdapt::test_stop_after_a_trained_round[no-clusters]",),
    ),
    Mutant(
        "sampler-shuffle-draw", "adapt.py",
        "self.below(range(k - 1, 0, -1))",
        # numpy's masked draw in [0, i]: w & mask for the first word w where that is <= i
        "[next(w & m for w in iter(self._word, None) if w & m <= i)"
        " for i in range(k - 1, 0, -1) for m in [(1 << i.bit_length()) - 1]]",
        ("tests/test_adapt.py::TestDraws::test_choice[clusters]",
         "tests/test_adapt.py::TestLoopReference::test_training_matches_loop_form"),
    ),
    Mutant(
        "sampler-floyd-collision", "adapt.py",
        "            if x in taken:\n                x = j\n",
        "",
        ("tests/test_adapt.py::TestDraws::test_choice[n_eq_k]",
         "tests/test_adapt.py::TestDraws::test_long_mixed_sequence_crosses_refills"),
    ),
    Mutant(
        "sampler-tail-cutoff", "adapt.py",
        "if n > 10000 and k > n // 50:",
        "if n > 1000 and k > n // 50:",
        ("tests/test_adapt.py::TestDraws::test_choice[floyd_at_cutoff_n]",),
    ),
    Mutant(
        "sampler-chunk-remainder", "adapt.py",
        "for _ in range(min(_CHUNK, steps - first)):",
        "for _ in range(_CHUNK):",
        ("tests/test_adapt.py::TestBatchSampler::test_forked_draws_train_the_inline_bytes[linear]",),
    ),
    Mutant(
        "sampler-reap", "adapt.py",
        "code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])",
        "code = 0",
        ("tests/test_adapt.py::TestBatchSampler::test_reaped_when_progress_raises",
         "tests/test_adapt.py::TestBatchSampler::test_reaped_when_the_loss_raises"),
    ),
    Mutant(
        "sampler-draws-in-child", "adapt.py",
        "rows, pid = _batch_rows(_Draws(seed), pools, P, K, steps), None",
        "rows, pid = (x for s in [seed] for x in _batch_rows(_Draws(s), pools, P, K, steps)), None",
        ("tests/test_adapt.py::TestBatchSampler::test_the_draws_are_made_before_the_fork",),
    ),
    Mutant(
        "sampler-child-exit", "adapt.py",
        "if not pid and os.getpid() != parent:",
        "if pid == 0:",
        ("tests/test_adapt.py::TestBatchSampler::test_an_exception_at_the_fork_stays_in_the_child",),
    ),
    Mutant(
        "sampler-traceback", "adapt.py",
        "os.write(2, traceback.format_exc().encode())",
        "pass",
        ("tests/test_adapt.py::TestBatchSampler::test_a_failing_sampler_exits_1_with_its_traceback",),
    ),
    Mutant(
        "loss-memo-key", "adapt.py",
        "key = None if y.dtype.hasobject or y.size > 1024 else (y.dtype.str, y.tobytes())",
        "key = id(y)",  # y is labels itself when labels is an array
        ("tests/test_adapt.py::TestTripletLossMemo::test_label_array_mutated_in_place",),
    ),
    Mutant(
        "loss-memo-size", "adapt.py",
        "y.dtype.hasobject or y.size > 1024 else",
        "y.dtype.hasobject else",
        ("tests/test_adapt.py::TestTripletLossMemo::test_large_label_vector_is_not_kept",),
    ),
    Mutant(
        "merge-min-identities", "synth.py",
        "few = len(usable.identities) < policy.min_identities",
        "few = len(usable.identities) <= policy.min_identities",
        ("tests/test_synth.py::TestMergeDomains::test_excluded_source_counted_as_given",),
    ),
    Mutant(
        "margin-nan", "model.py",
        "not (float(margin) >= 0.0)",
        "float(margin) < 0.0",
        ("tests/test_adapt.py::TestTripletLossValues::test_margin_refused_as_train_config_refuses_it[nan]",),
    ),
    Mutant(
        "profile-majority-tie", "evaluate.py",
        "min(counts, key=lambda ident: (-counts[ident], ident))",
        "min(counts, key=lambda ident: -counts[ident])",
        ("tests/test_evaluate.py::TestInterIntraDistances::test_majority_tie_breaks_to_smallest_identity",),
    ),
    Mutant(
        "cluster-set-order", "graph.py",
        'object.__setattr__(self, "clusters", tuple(sorted(self.clusters, key=lambda c: c.cluster_id)))',
        'object.__setattr__(self, "clusters", tuple(self.clusters))',
        ("tests/test_evaluate.py::TestClusterOrder::test_reverse_listed_set_reads_as_the_id_ordered_one",
         "tests/test_graph.py::TestClusterSet::test_clusters_kept_in_id_order",
         "tests/test_io.py::TestAssignments::test_reverse_listed_set_writes_the_same_bytes",
         "tests/test_adapt.py::TestTrainEmbedder::test_reverse_listed_set_trains_the_same"),
    ),
    Mutant(
        "empty-cluster", "model.py",
        '        if not self.members:\n            raise ValueError(f"cluster {self.cluster_id} has no members")\n',
        "",
        ("tests/test_graph.py::TestClusterSet::test_empty_cluster_rejected",
         "tests/test_adapt.py::TestTrainEmbedder::test_empty_cluster_rejected"),
    ),
    Mutant(
        "gemm-scale-exp", "neighbors.py",
        "scale_exp = -int(np.frexp(np.abs(Xc).max())[1])  # 0 when Xc is all zero",
        "scale_exp = 0",
        ("tests/test_neighbors.py::TestDenseReference::test_identical_to_dense_index[scaled_2m140]",),
    ),
    Mutant(
        "gemm-tol", "neighbors.py",
        "tol = 4.0 * (self.X.shape[1] + 4) * (_EPS32 * S + np.ldexp(_SUBNORMAL, 2 * self.scale_exp))",
        "tol = 0.0 * S",
        ("tests/test_neighbors.py::TestDenseReference::test_identical_to_dense_index[below_float32]",
         "tests/test_evaluate.py::TestRankingReference::test_identical_to_naive_ranking[sqrt_ties]"),
    ),
    Mutant(
        "heads-thread-errstate", "neighbors.py",
        '            @np.errstate(over="ignore", invalid="ignore")\n            def block(',
        "            def block(",
        ("tests/test_neighbors.py::TestDenseReference::test_identical_to_dense_index[overflow_1e160]",),
    ),
    Mutant(
        "blocks-stop-after-error", "_tasks.py",
        "None if errors else next(todo, None)",
        "next(todo, None)",
        ("tests/test_neighbors.py::TestWorkerThreads::test_no_block_starts_after_one_raised[1]",
         "tests/test_neighbors.py::TestWorkerThreads::test_no_block_starts_after_one_raised[2]"),
    ),
    Mutant(
        "blocks-size", "_tasks.py",
        "step = max(1, size // w)",
        "step = max(1, size)",
        ("tests/test_neighbors.py::TestWorkerThreads::test_blocks_cover_every_row_once_in_order[2]",),
    ),
    Mutant(
        "eval-order-key", "neighbors.py",
        "* ident, np.sqrt",
        "* ident, None",
        ("tests/test_evaluate.py::TestRankingReference::test_identical_to_naive_ranking[sqrt_ties]",),
    ),
    Mutant(
        "count-tie-term", "neighbors.py",
        "        before[t] += less[loc] + np.searchsorted(tied, loc * n + tgt[t])\n"
        "        before[t] -= np.searchsorted(tied, loc * n)\n",
        "        before[t] += less[loc]\n",
        ("tests/test_neighbors.py::TestDenseReference::test_identical_to_dense_index[integer_ties]",
         "tests/test_evaluate.py::TestRankingReference::test_identical_to_naive_ranking[sqrt_ties]"),
    ),
    Mutant(
        "count-runs-split-on-d2", "neighbors.py",
        "head[1:] = (slot[bt[1:]] != slot[bt[:-1]]) | (d2[bt[1:]] != d2[bt[:-1]])",
        "head[1:] = slot[bt[1:]] != slot[bt[:-1]]",
        ("tests/test_neighbors.py::TestDenseReference::test_identical_to_dense_index[below_float32]",
         "tests/test_evaluate.py::TestRankingReference::test_identical_to_naive_ranking[sqrt_ties]"),
    ),
    Mutant(
        "count-first-run-threshold", "neighbors.py",
        "np.where(slot[lead[1:]] == slot[lead[:-1]], hi[lead[:-1]], -np.inf)",
        "np.where(slot[lead[1:]] == slot[lead[:-1]], lo[lead[:-1]], -np.inf)",
        ("tests/test_evaluate.py::TestRankingReference::"
         "test_exact_work_stays_bounded_on_ties[below_float32]",),
    ),
    Mutant(
        "count-first-run-rule", "neighbors.py",
        "i, first = slot[g[gi]], np.flatnonzero(G[gi, j] > above[c + gi])",
        "i, first = slot[g[gi]], np.arange(len(gi))",
        ("tests/test_evaluate.py::TestRankingReference::"
         "test_exact_work_stays_bounded_on_ties[below_float32]",),
    ),
)


def run_mutant(m: Mutant) -> str:
    """'killed', 'SURVIVED' or 'ERROR' for one mutant, run on a copy of src/."""
    with tempfile.TemporaryDirectory(prefix="reidapt-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / "reidapt" / m.path
        text = target.read_text(encoding="utf-8")
        if text.count(m.snippet) != 1:
            return "ERROR"
        target.write_text(text.replace(m.snippet, m.replacement), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *m.tests],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    # pytest exits 1 when a test failed; any other non-zero code is an error.
    return {0: "SURVIVED", 1: "killed"}.get(proc.returncode, "ERROR")


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    outcomes = []
    for m in chosen:
        outcomes.append(run_mutant(m))
        print(f"{outcomes[-1]:8s} {m.name} ({m.path})", flush=True)
    killed = outcomes.count("killed")
    print(f"{killed}/{len(chosen)} killed in {time.perf_counter() - t0:.1f} s")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
