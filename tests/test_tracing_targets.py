"""The names `perfbench/tracing.py` patches must exist in the package.

The tracer replaces module globals by name; a refactor that renames one of
them would only fail at benchmark time, so the list is checked here.
"""
import importlib
import runpy
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
TARGETS = runpy.run_path(str(TRACING), run_name="perfbench_tracing")["TARGETS"]


@pytest.mark.parametrize("module, attr", [(module, attr) for module, attr, _, _ in TARGETS])
def test_traced_name_exists(module, attr):
    assert hasattr(importlib.import_module(f"ffmedian.{module}"), attr)


def test_cli_exports_the_names_the_setup_probe_imports():
    from ffmedian.cli import SimilarityGraph, parse_genome_file  # noqa: F401


def traced(tmp_path, command, *flags):
    """The tracer of one in-process `command` run on evolved_instance(51,
    120, 2, 0.1), and the tracing module."""
    from ffmedian import cli
    from ffmedian.objects import write_genome_file, write_similarity_file

    from conftest import evolved_instance

    tracing = runpy.run_path(str(TRACING), run_name="perfbench_tracing")
    genomes, sigma = evolved_instance(51, 120, 2, 0.1)
    write_genome_file(tmp_path / "genomes.txt", genomes)
    write_similarity_file(tmp_path / "similarity.tsv", sigma)
    argv = [command, "-g", str(tmp_path / "genomes.txt"), "-s", str(tmp_path / "similarity.tsv"),
            *flags]
    tracer = tracing["Tracer"]()
    with tracer.install():
        assert cli.main(argv) == cli.EXIT_OK
    return tracer, tracing


FRONT_END_COUNTERS = {
    "genomes.sigma_pairs",
    "candidates.removed_genes", "candidates.candidates", "candidates.telomere_triples",
    "candidates.rows",
    "kernels.input_mb", "kernels.triangles_out", "kernels.pairs_out",
}


def test_traced_solve_records_every_counter_and_span(tmp_path):
    """A solve under the tracer, in-process, as the benchmark traces it:
    every observer reads the attributes it needs, so a rename breaks this
    test and not only the benchmark's traced runs.  A solve runs no
    ICF-SEG, so no `segments` counter or span appears."""
    tracer, tracing = traced(tmp_path, "solve", "--canonical", "-o", str(tmp_path / "m.json"))
    assert set(tracer.counters) == FRONT_END_COUNTERS | {"solver.rows_in", "solver.nodes"}
    assert tracer.counters["solver.rows_in"] > 0
    spans = {span.name for span in tracer.spans}
    assert spans == {name for name in tracing["SPAN_NAMES"] if not name.startswith("segments.")}


def test_traced_icf_seg_records_its_counters_and_spans(tmp_path):
    """The `icf-seg` subcommand under the tracer: its observer reads the
    result's `accepted` and the `size`, `~` and `sum` of its `row_alive`."""
    tracer, tracing = traced(tmp_path, "icf-seg", "-o", str(tmp_path / "segments.tsv"))
    assert set(tracer.counters) == FRONT_END_COUNTERS | {
        "segments.accepted", "segments.rows_total", "segments.rows_fixed"}
    counters = tracer.counters
    # ICF-SEG reads the paper's table, which adds the rows to telomere triples
    assert counters["segments.rows_total"] > counters["candidates.rows"]
    assert 0 < counters["segments.rows_fixed"] < counters["segments.rows_total"]
    assert counters["segments.accepted"] > 0
    # no solve; `icf_seg` scans through `_RunScanner`, not `detect_runs`
    spans = {span.name for span in tracer.spans}
    assert spans == {name for name in tracing["SPAN_NAMES"]
                     if not name.startswith(("solver.", "cli.")) and name != "segments.detect_runs"}
