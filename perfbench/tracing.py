"""Per-layer tracing of one `ffmedian solve`, installed from outside the program.

`Tracer.install` replaces the module-global names that `cli.run_pipeline`
reaches with wrappers that record a span per call (name, start, end,
parent) and a few counters taken from arguments and return values.  The
wrappers return the wrapped call's value unchanged, and the original names
are restored when the `with` block ends.  Spans stay in memory until the
run ends.

Run as a script, it traces one solve through the unchanged CLI entry point
and writes the spans and counters as JSON:

    PYTHONPATH=src python3 perfbench/tracing.py TRACE.json solve -g G.txt ...
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from unittest import mock

@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._open: list[int] = []

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, name: str, fn, observe=None):
        """`fn` recording one span per call; `observe(tracer, args, result)`
        runs after a call that returned."""

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            span = Span(name, self.clock(), 0.0, self._open[-1] if self._open else -1)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._open.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def install(self):
        """Wrap the layer entry points of the `ffmedian` package."""
        from ffmedian.genomes import SimilarityGraph

        read = SimilarityGraph.read.__func__
        with contextlib.ExitStack() as stack:
            for module_name, attr, span, observer in TARGETS:
                module = importlib.import_module(f"ffmedian.{module_name}")
                wrapped = self.wrap(span, getattr(module, attr), observer)
                stack.enter_context(mock.patch.object(module, attr, wrapped))
            traced_read = self.wrap("genomes.load", read, _sigma_pairs)
            stack.enter_context(
                mock.patch.object(SimilarityGraph, "read", classmethod(traced_read))
            )
            yield self

    def as_dict(self) -> dict:
        return {
            "spans": [[s.name, s.start, s.end, s.parent] for s in self.spans],
            "counters": dict(self.counters),
        }


# -- observers: counters read from a wrapped call's arguments and result -----


def _sigma_pairs(tracer, args, result):
    tracer.count("genomes.sigma_pairs", len(result))


def _removed_genes(tracer, args, result):
    tracer.count("candidates.removed_genes", sum(len(v) for v in result[3].values()))


def _candidates(tracer, args, result):
    tracer.count("candidates.candidates", len(result))
    tracer.count(
        "candidates.telomere_triples", sum(c.is_telomere_triple for c in result)
    )


def _rows(tracer, args, result):
    tracer.count("candidates.rows", len(result))


def _triangles(tracer, args, result):
    tracer.count("kernels.input_mb", sum(a.nbytes for a in args[:3]) / 1e6)
    tracer.count("kernels.triangles_out", int(result[0].size))


def _pairs(tracer, args, result):
    tracer.count("kernels.pairs_out", int(result[0].size))


def _icf_seg(tracer, args, result):
    tracer.count("segments.accepted", len(result.accepted))
    tracer.count("segments.rows_total", int(result.row_alive.size))
    tracer.count("segments.rows_fixed", int((~result.row_alive).sum()))


def _solution(tracer, args, result):
    tracer.count("solver.rows_in", args[0].n_b)
    tracer.count("solver.nodes", result.nodes_explored)


# (module, global name, span name, observer): the names `cli.run_pipeline`
# reaches.  Each `<layer>.<x>_s` metric sums the self time of the spans
# named `<layer>.<x>`; the observers below add counters.
TARGETS = [
    ("cli", "_load_genomes", "genomes.load", None),
    ("cli", "preprocess_discard_nonclique", "candidates.preprocess", _removed_genes),
    ("cli", "enumerate_candidates", "candidates.enumerate", _candidates),
    ("cli", "enumerate_conserved_adjacencies", "candidates.adjacencies", _rows),
    ("cli", "icf_seg", "segments.icf_seg", _icf_seg),
    ("cli", "build_ilp", "solver.build_ilp", None),
    ("cli", "solve_branch_and_bound", "solver.bb", _solution),
    ("cli", "verify_solution", "cli.verify", None),
    ("cli", "cars_from_rows", "cli.cars", None),
    ("cli", "run_pipeline", "cli.pipeline", None),
    ("candidates", "enumerate_candidates", "candidates.enumerate", None),
    ("candidates", "InstanceIndex", "candidates.index", None),
    ("kernels", "triangles", "kernels.triangles", _triangles),
    ("kernels", "conserved_pairs", "kernels.pairs", _pairs),
    ("kernels", "merge_genome_pairs", "kernels.merge", None),
    ("segments", "detect_runs", "segments.detect_runs", None),
    ("segments", "build_gamma_prime", "segments.gamma_prime", None),
    ("segments", "mwm", "segments.mwm", None),
    ("solver", "solve_branch_and_bound", "solver.bb", None),
    ("solver", "linprog", "solver.lp", None),
]
SPAN_NAMES = tuple(dict.fromkeys(span for _, _, span, _ in TARGETS))


# -- self time ---------------------------------------------------------------


def self_times(spans) -> tuple[dict[str, float], dict[str, int]]:
    """Per span name: summed self time and number of spans.

    A span's self time is its duration minus the durations of its direct
    children; calls are synchronous, so children nest inside their parent.
    `spans` holds (name, start, end, parent) records.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    for k, (name, start, end, _) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start) - child_time[k]
        calls[name] = calls.get(name, 0) + 1
    return totals, calls


def main(argv: list[str]) -> int:
    from ffmedian import cli

    out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    with tracer.install():
        code = cli.main(cli_args)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(tracer.as_dict(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
