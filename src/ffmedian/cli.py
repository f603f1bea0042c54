"""Command-line entry point: graph building, enumeration, solving, evaluation.

Exit codes:
  0  success with a proven optimum, or `-h` and `--version`
  1  input error, such as a usage error on the command line (an unknown
     subcommand or option, a missing or malformed argument), a malformed,
     missing or unreadable file, a malformed median report given to
     `eval`, a malformed reduction directory given to `verify-reduction`,
     a NaN or negative `--time-limit`, an output that cannot be written (a
     full device, a closed pipe), also when only the last flush of stdout,
     as the process ends, fails, or a `verify-reduction` whose optimal
     solve does not give the independence number
  2  only a feasible solution was obtained within the limits, also by the
     solve of `verify-reduction`, which then reports "ok": false
  3  solver error, such as a scipy without its HiGHS extension, an ICF-SEG
     matching graph beyond degree 2, or a median whose rows fail the final
     check against the report's objective

The `solve` report, `median.json`, is one line of JSON with sorted keys
(`python -m json.tool median.json` pretty-prints it).  Schema version 2:
  config       the run's settings: "genome_files" and "similarity_file" by
               base name, "time_limit" (null for no limit), "preprocess"
               and "use_icf_seg"; reports of earlier versions also hold
               "engine"
  genes        each chosen candidate once, as {"g", "h", "i", "triple_score",
               "gene_score"}, in candidate order
  adjacencies  the median adjacencies, as {"m1", "end1", "m2", "end2",
               "conserved_in", "weight"}; `m1` and `m2` index `genes`
  cars         {"shape", "genes": [[index into `genes`, "+" or "-"], ...]}
  counts       sizes of the instance and of the median
  stats        counters that explain the run: "telomere_triples" among the
               candidates, "solve_rows" handed to the solve, "solve_caps",
               the cap and y columns that stand for its telomere triples in
               the program HiGHS solves (`solver`), ICF-SEG's runs
               "examined", "accepted" and "skipped" at the conflict cap, and
               in "mip" HiGHS's "nodes", "simplex_iterations", "dual_bound"
               and "gap" on that solve, "lp_integral", whether the LP's
               vertex was a 0-1 point (then no MIP ran and "nodes" is 0),
               and the "rows" and "fixed_selections" handed to HiGHS (0 and
               null without a HiGHS run; reports without these three keys
               ran one MIP on every solve)
  stages       each stage's name and wall seconds
`--canonical` drops the stage seconds, and nothing else: every other field
is free of timings.  Schema version 1 wrote the same fields, indented, with
each candidate's record in place of an index, and no `stats`; `eval` reads
both versions.

`solve` runs the exact 0-1 program on the whole table unless `--icf-seg`
asks for ICF-SEG (safe segments) first; both reach the same optimum.
Without it, "solve_rows" is the whole table and the ICF-SEG runs are 0.
With it, the solve sees only the rows ICF-SEG left, so "dual_bound" bounds
that reduced program and leaves out the accepted rows' weight, which the
report's "bound" adds back: compare "objective" with "bound", not with
"dual_bound".  Only a run of ICF-SEG imports `segments`.

A solve's stages are `load`, which numbers each genome's genes once
(`genomes`); `preprocess`, one similarity index build and triangle scan,
then the genes in no candidate spliced out of the walks; `enumerate`, the
adjacency scan (`candidates`); `icf-seg` when asked; and `solve`.  One
check of the chosen rows (`verify_solution`) and the CARs follow.  The
stages pass gene-id arrays: a solve builds no `Gene` or `CandidateGene`,
nor does ICF-SEG.

Start-up and shut-down: the package holds its numbers in lists and
`array.array`s, so no subcommand imports numpy.  Nothing in the package
logs above INFO, so only `-v` can show a log line: `main` imports
`logging`, with the `string` and `traceback` modules it loads, and
configures it only under `-v`, and the solver writes its INFO record only
when `logging` is loaded, as without the module no handler can exist.  A
default `solve` never loads it.  The other subcommands log as
`ffmedian.cli` through `commands`.  The process entry point, `run`, ends
the process with `os._exit` once `main` has returned and stdout, stderr
and, when `logging` is loaded, its handlers are flushed: the interpreter's
teardown would only finalize modules, the HiGHS extension's above all, and
every file the package writes is closed by its `with` block before `main`
returns.  A failed flush of stdout there is an output error: one `error:`
line and exit code 1.  argparse's exit on `-h`, `--version` or a usage
error takes the same path with argparse's code.  An exception out of `main`
takes the interpreter's normal exit.  `main` itself returns its exit code,
for callers in the same process.  `main` builds the argument parser of the
invoked subcommand alone, not all eight (`build_parser`), with the same
help, usage errors and exit codes.

A `solve` process compiles and runs only the code a solve needs: of the
package, this module, `genomes`, `kernels`, `candidates` and `solver`, and
`segments` under `--icf-seg`.  Where the package's sources are compiled in
every process, as they are without a writable bytecode cache, each line
left out counts.  So the other seven subcommands live in `commands`, which
`build_parser` imports only to build one of their parsers, and the paper's
literal forms (its extremities, the LP export of its rows and the
brute-force oracle) in `reference`, which `export-lp` and the tests import.
`icf_seg` here imports `segments` at its first call.  No class on the solve
path is a dataclass, as creating one costs about a millisecond at import.
The parsed `solve` command line is the run's one configuration:
`run_pipeline` reads its settings straight off it.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from typing import NoReturn

from . import __version__
from .candidates import (
    ConservedAdjacencyTable,
    enumerate_candidates,
    enumerate_conserved_adjacencies,
    preprocess_discard_nonclique,
)
from .genomes import (
    ENDS,
    Genome,
    GenomeError,
    ParseError,
    SimilarityGraph,
    parse_genome_file,
)
from .solver import (
    STATUS_FEASIBLE,
    SolverError,
    build_ilp,
    cars_from_rows,
    solve_branch_and_bound,
    verify_solution,
)

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FEASIBLE = 2
EXIT_SOLVER = 3


@contextlib.contextmanager
def _stage(stages: list[dict], name: str):
    """Append the block's wall time to `stages` as {"name", "seconds"}."""
    t0 = time.perf_counter()
    yield
    stages.append({"name": name, "seconds": time.perf_counter() - t0})


def _load_genomes(paths) -> list[Genome]:
    genomes: list[Genome] = []
    for path in paths:
        genomes.extend(parse_genome_file(path))
    if len(genomes) != 3:
        raise ParseError(
            f"exactly three genomes required, found {len(genomes)} "
            f"({[g.label for g in genomes]})"
        )
    return genomes


def _read_files(genome_files, similarity_file):
    """Loader of the three genomes and their similarities, for `_front_end`."""
    return lambda: (_load_genomes(genome_files), SimilarityGraph.read(similarity_file))


def _front_end(load, preprocess: bool, stages: list[dict] | None = None):
    """Load, preprocess and enumerate: the instance every subcommand works on.

    `load()` returns the three genomes and their similarities.  One triangle
    scan gives the candidates; with `preprocess`, it runs first and the genes
    outside every 3-clique are spliced out of the walks.  Returns the genomes,
    the conserved adjacency table, which holds the candidates, and the
    removed gene names per genome.  The stages are timed into `stages` as
    `load`, `preprocess` and `enumerate`.  The layer functions are read as
    module globals at each call, so that a tracer can patch them.
    """
    stages = [] if stages is None else stages
    with _stage(stages, "load"):
        genomes, sigma = load()
    candidates, removed = None, {}
    if preprocess:
        with _stage(stages, "preprocess"):
            candidates = enumerate_candidates(*genomes, sigma)
            *genomes, removed = preprocess_discard_nonclique(*genomes, candidates)
    with _stage(stages, "enumerate"):
        if candidates is None:
            candidates = enumerate_candidates(*genomes, sigma)
        table = enumerate_conserved_adjacencies(candidates, *genomes)
    return genomes, table, removed


def _rows(table: ConservedAdjacencyTable, rows=None):
    """(m1, e1, m2, e2, mask, weight) of each row of `rows`, a list of row
    indices, by default every row."""
    arrays = (table.m1, table.e1, table.m2, table.e2, table.mask, table.weight)
    if rows is None:
        return zip(*arrays)
    return zip(*([a[k] for k in rows] for a in arrays))


def _genes_json(candidates, chosen: list[int]) -> list[dict]:
    """The report entries of the chosen candidates, read off the arrays."""
    genes = ([f"{genome.label}:{genome.names[row[m]]}" for m in chosen]
             for genome, row in zip(candidates.genomes, candidates.ids))
    return [{"g": g, "h": h, "i": i, "triple_score": candidates.triple[m],
             "gene_score": candidates.score[m]} for g, h, i, m in zip(*genes, chosen)]


def icf_seg(*args, **kwargs):
    """`segments.icf_seg`, imported at the first call (see the module docstring)."""
    from .segments import icf_seg as run
    return run(*args, **kwargs)


def _config(args, time_limit: float | None) -> dict:
    """The report's `config`: the settings of the `solve` namespace `args`,
    input files by base name, so that the bytes do not depend on how their
    paths were spelled, and the time limit as `_time_limit` read it."""
    return {
        "genome_files": [os.path.basename(path) for path in args.genomes],
        "similarity_file": os.path.basename(args.similarity),
        "time_limit": time_limit,
        "preprocess": args.preprocess,
        "use_icf_seg": args.icf_seg,
    }


def run_pipeline(args) -> tuple[int, dict]:
    """Run enumerate -> icf-seg, when asked -> solve and assemble the report.

    `args` is the parsed `solve` command line.  Its time limit counts from
    this call: the solve gets what the earlier stages left of it.
    """
    time_limit = _time_limit(args.time_limit)
    started = time.monotonic()
    stages: list[dict] = []
    genomes, table, removed = _front_end(
        _read_files(args.genomes, args.similarity), args.preprocess, stages
    )
    candidates = table.candidates
    accepted_rows: list[int] = []
    accepted_weight = 0.0
    accepted_segments = examined = skipped = 0
    solve_table = table
    row_map = range(len(table))
    if args.icf_seg:
        with _stage(stages, "icf-seg"):
            deadline = None if time_limit is None else started + time_limit
            result = icf_seg(genomes[0], table, deadline=deadline)
            accepted_rows = result.accepted_rows
            accepted_weight = result.accepted_weight
            accepted_segments = len(result.accepted)
            examined, skipped = result.examined, result.skipped
            row_map = result.live_rows
            solve_table = table.subset(row_map)
    with _stage(stages, "solve"):
        model = build_ilp(solve_table)
        remaining = None
        if time_limit is not None:
            remaining = time_limit - (time.monotonic() - started)
        solution = solve_branch_and_bound(model, time_limit=remaining)
    combined_rows = sorted(set(accepted_rows) | {row_map[k] for k in solution.row_indices})
    objective = accepted_weight + solution.objective
    bound = accepted_weight + solution.bound
    verify_solution(table, combined_rows, objective)
    cars = cars_from_rows(table, combined_rows)

    chosen = table.genes(combined_rows)
    position = {m: j for j, m in enumerate(chosen)}
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "ffmedian", "version": __version__},
        "config": _config(args, time_limit),
        "genomes": [g.label for g in genomes],
        "status": solution.status,
        "objective": objective,
        "bound": bound,
        "counts": {
            "candidates": len(candidates),
            "conserved_adjacencies": len(table),
            "accepted_segments": accepted_segments,
            "accepted_adjacencies": len(accepted_rows),
            "median_genes": len(chosen),
            "median_adjacencies": len(combined_rows),
            "cars": len(cars),
            "removed_genes": {k: len(v) for k, v in removed.items()},
        },
        "stats": {
            "telomere_triples": sum(candidates.telomeric),
            "solve_rows": len(solve_table),
            "solve_caps": solution.caps,
            "icf_seg": {"examined": examined, "accepted": accepted_segments,
                        "skipped": skipped},
            "mip": {
                "nodes": solution.nodes_explored,
                "simplex_iterations": solution.simplex_iterations,
                "dual_bound": solution.dual_bound,
                "gap": solution.gap,
                "lp_integral": solution.lp_integral,
                "rows": solution.highs_rows,
                "fixed_selections": solution.fixed,
            },
        },
        "genes": _genes_json(candidates, chosen),
        "adjacencies": [
            {
                "m1": position[m1],
                "end1": ENDS[e1],
                "m2": position[m2],
                "end2": ENDS[e2],
                "conserved_in": table.conserved_in[mask],
                "weight": weight,
            }
            for m1, e1, m2, e2, mask, weight in _rows(table, combined_rows)
        ],
        "cars": [
            {
                "shape": car.shape,
                "genes": [
                    [position[m], "+" if orient > 0 else "-"] for m, orient in car.members
                ],
            }
            for car in cars
        ],
        "stages": stages,
    }
    code = EXIT_OK if solution.status != STATUS_FEASIBLE else EXIT_FEASIBLE
    return code, report


def report_bytes(report: dict, canonical: bool = False) -> bytes:
    if canonical:
        # no JSON round trip: every dict key in a report is already a
        # string, so only the stage timings need to go
        stages = [{"name": s["name"]} for s in report.get("stages", [])]
        report = {**report, "stages": stages}
    # no indent: CPython's C encoder runs only without one
    return (json.dumps(report, sort_keys=True) + "\n").encode("utf-8")


def _write_report(report: dict, path: str | None, canonical: bool) -> None:
    payload = report_bytes(report, canonical)
    if path is None or path == "-":
        sys.stdout.buffer.write(payload)
    else:
        with open(path, "wb") as fh:
            fh.write(payload)


# -- solve ---------------------------------------------------------------------


def _time_limit(seconds: float) -> float | None:
    """`--time-limit` in seconds, None for `inf`; NaN or below 0 is an input error."""
    if not seconds >= 0:
        raise ValueError(f"--time-limit must be 0 or more seconds, not {seconds}")
    return None if seconds == float("inf") else seconds


def _cmd_solve(args) -> int:
    code, report = run_pipeline(args)
    _write_report(report, args.output, args.canonical)
    return code


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit with the input-error code;
    `add_subparsers` builds the subcommand parsers with this class too."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _add_instance_args(p) -> None:
    p.add_argument("-g", "--genome", dest="genomes", action="append",
                   required=True, help="genome file (give three)")
    p.add_argument("-s", "--similarity", required=True)
    p.add_argument("--no-preprocess", dest="preprocess", action="store_false",
                   help="keep genes outside every 3-clique")


def _solve_args(p) -> None:
    _add_instance_args(p)
    p.add_argument("--icf-seg", action=argparse.BooleanOptionalAction, default=False,
                   help="fix ICF-SEG's safe segments before the solve (default off)")
    p.add_argument("--time-limit", type=float, default=10800.0)
    p.add_argument("--canonical", action="store_true",
                   help="timing-free byte-reproducible report")
    p.add_argument("-o", "--output", help="median.json (default stdout)")
    p.set_defaults(func=_cmd_solve)


# each subcommand's help line and the function that adds its arguments: a
# function of this module, or the name of one in `commands`
SUBCOMMANDS = {
    "build-graph": ("hits to similarity graph", "_build_graph_args"),
    "enumerate": ("candidate genes and adjacencies", "_enumerate_args"),
    "icf-seg": ("safe local-optimum extraction", "_icf_seg_args"),
    "solve": ("exact median computation", _solve_args),
    "export-lp": ("write the 0-1 program in LP format", "_export_lp_args"),
    "reduce-mis": ("independent-set reduction instance", "_reduce_mis_args"),
    "verify-reduction": ("end-to-end reduction check", "_verify_reduction_args"),
    "eval": ("score predictions", "_eval_args"),
}


def _commands():
    """The `commands` module, handed this module as its `cli`: under
    `python -m ffmedian.cli` this module is `__main__`, and `commands`
    importing `ffmedian.cli` would load it a second time."""
    from . import commands

    commands.cli = sys.modules[__name__]
    return commands


def _invoked(argv) -> str | None:
    """The subcommand that `argv` runs, or None when its first word after
    any `-v` or `--verbose` is not a subcommand's name."""
    for token in argv:
        if token not in ("-v", "--verbose"):
            return token if token in SUBCOMMANDS else None
    return None


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The command-line parser.  Given the `argv` it will parse, only the
    parser of the subcommand `argv` runs is built; with no subcommand, `-h`
    or `--version` first, or an unknown name, and without `argv`, all of
    them are.  Either way the usage line names every subcommand, so help
    and usage errors read the same."""
    parser = _Parser(
        prog="ffmedian",
        description="Family-free median of three genomes",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("-v", "--verbose", action="store_true")
    name = None if argv is None else _invoked(argv)
    # argparse names a missing subcommand by its metavar when there is one
    metavar = None if name is None else "{" + ",".join(SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for key in SUBCOMMANDS if name is None else (name,):
        help_line, add_args = SUBCOMMANDS[key]
        if isinstance(add_args, str):
            add_args = getattr(_commands(), add_args)
        add_args(sub.add_parser(key, help=help_line))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    if args.verbose:  # only `-v` shows log lines (see the module docstring)
        import logging

        logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ParseError, GenomeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def run(argv=None) -> NoReturn:
    """`main` as a whole process, ended without the interpreter's teardown
    (see the module docstring)."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's exit on -h, --version or a usage error
        code = exc.code
    try:
        sys.stdout.flush()
    except OSError as exc:
        # the unwritten bytes stay buffered; _exit drops them unretried
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_INPUT
    sys.stderr.flush()
    if "logging" in sys.modules:
        sys.modules["logging"].shutdown()
    os._exit(code)


if __name__ == "__main__":
    run()
