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
  3  solver error, such as an oracle run over its candidate cap, or a
     median whose rows fail the final check against the report's objective

The `solve` report, `median.json`, is one line of JSON with sorted keys
(`python -m json.tool median.json` pretty-prints it).  Schema version 2:
  genes        each chosen candidate once, as {"g", "h", "i", "triple_score",
               "gene_score"}, in candidate order
  adjacencies  the median adjacencies, as {"m1", "end1", "m2", "end2",
               "conserved_in", "weight"}; `m1` and `m2` index `genes`
  cars         {"shape", "genes": [[index into `genes`, "+" or "-"], ...]}
  counts       sizes of the instance and of the median
  stats        counters that explain the run: "telomere_triples" among the
               candidates, "solve_rows" handed to the solve, ICF-SEG's runs
               "examined", "accepted" and "skipped" at the conflict cap, and
               HiGHS's "nodes", "simplex_iterations", "dual_bound" and "gap"
               on that solve (0 and null without a HiGHS run)
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

Start-up and shut-down: no module of the package calls a BLAS routine, and
HiGHS does its own linear algebra, so the process asks OpenBLAS (bundled with
numpy) for one thread before numpy loads.  Otherwise OpenBLAS starts a worker
thread per extra core at `import numpy`, which spins and slows every
subcommand's start-up while two cores are contended.  An
`OPENBLAS_NUM_THREADS` already set in the environment is kept.  The process
entry point, `run`, ends the process with `os._exit` once `main` has
returned and stdout, stderr and the log handlers are flushed: the
interpreter's teardown would only finalize modules, numpy's and the HiGHS
extension's above all, for about 30 ms per process, and every file the
package writes is closed by its `with` block before `main` returns.  A
failed flush of stdout there is an output error: one `error:` line and exit
code 1.  argparse's exit on `-h`, `--version` or a usage error takes the
same path with argparse's code.  An exception out of `main` takes the
interpreter's normal exit.  `main` itself returns its exit code, for callers
in the same process.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys
import time
from dataclasses import dataclass
from typing import NoReturn

# before numpy loads: the package needs no BLAS worker threads (see above)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .candidates import (
    ConservedAdjacencyTable,
    enumerate_candidates,
    enumerate_conserved_adjacencies,
    preprocess_discard_nonclique,
)
from .genomes import (
    ENDS,
    Gene,
    Genome,
    GenomeError,
    ParseError,
    SimilarityGraph,
    _parse_qualified,
    parse_genome_file,
)
from .solver import (
    STATUS_FEASIBLE,
    STATUS_OPTIMAL,
    SolverError,
    brute_force_median,
    build_ilp,
    cars_from_rows,
    export_lp,
    solve_branch_and_bound,
    verify_solution,
)

log = logging.getLogger(__name__)

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FEASIBLE = 2
EXIT_SOLVER = 3


@dataclass
class RunConfig:
    genome_files: list[str]
    similarity_file: str
    output: str | None = None
    engine: str = "bb"
    time_limit: float | None = 10800.0
    preprocess: bool = True
    use_icf_seg: bool = False
    export_lp_path: str | None = None
    canonical: bool = False

    def as_dict(self) -> dict:
        """The run's settings for the report; input files by base name, so
        that the bytes do not depend on how their paths were spelled."""
        return {
            "genome_files": [os.path.basename(path) for path in self.genome_files],
            "similarity_file": os.path.basename(self.similarity_file),
            "engine": self.engine,
            "time_limit": self.time_limit,
            "preprocess": self.preprocess,
            "use_icf_seg": self.use_icf_seg,
        }


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

    `load()` returns the three genomes and their similarities.  With
    `preprocess`, genes outside every 3-clique are spliced out first.
    Returns the genomes, the conserved adjacency table, which holds the
    candidates, and the removed gene names per genome.  The stages are
    timed into `stages` as `load`, `preprocess` and `enumerate`.  The layer
    functions are read as module globals at each call, so that a tracer can
    patch them.
    """
    stages = [] if stages is None else stages
    with _stage(stages, "load"):
        genomes, sigma = load()
    removed: dict[str, list[str]] = {}
    if preprocess:
        with _stage(stages, "preprocess"):
            *genomes, removed = preprocess_discard_nonclique(*genomes, sigma)
    with _stage(stages, "enumerate"):
        candidates = enumerate_candidates(*genomes, sigma)
        table = enumerate_conserved_adjacencies(candidates, *genomes)
    return genomes, table, removed


def _rows(table: ConservedAdjacencyTable, rows=slice(None)):
    """(m1, e1, m2, e2, mask, weight) of each row of `rows`, a list of row
    indices or a slice, as Python numbers."""
    arrays = (table.m1, table.e1, table.m2, table.e2, table.mask, table.weight)
    return zip(*(a[rows].tolist() for a in arrays))


def _write_tsv(path, table: ConservedAdjacencyTable, alive=None) -> None:
    """Candidate genes (those `alive` marks, default all), then conserved
    adjacencies, one per line."""
    cands = table.candidates
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("#type\tfields\n")
        for m, cand in enumerate(cands):
            if alive is None or alive[m]:
                fh.write(
                    f"gene\t{cand.g}\t{cand.h}\t{cand.i}"
                    f"\t{cand.triple_score:.12g}\t{cand.gene_score:.12g}\n"
                )
        for m1, e1, m2, e2, mask, weight in _rows(table):
            a, b = cands[m1], cands[m2]
            fh.write(
                f"adjacency\t{a.g}\t{a.h}\t{a.i}\t{ENDS[e1]}\t{b.g}\t{b.h}\t{b.i}\t{ENDS[e2]}"
                f"\t{','.join(table.conserved_in[mask])}\t{weight:.12g}\n"
            )


def _candidate_json(cand) -> dict:
    return {
        "g": str(cand.g),
        "h": str(cand.h),
        "i": str(cand.i),
        "triple_score": cand.triple_score,
        "gene_score": cand.gene_score,
    }


def icf_seg(*args, **kwargs):
    """`segments.icf_seg`, imported at the first call (see the module docstring)."""
    from .segments import icf_seg as run
    return run(*args, **kwargs)


def run_pipeline(config: RunConfig) -> tuple[int, dict]:
    """Run enumerate -> icf-seg, when asked -> solve and assemble the report.

    `config.time_limit` counts from this call: the solve gets what the
    earlier stages left of it.
    """
    started = time.monotonic()
    stages: list[dict] = []
    genomes, table, removed = _front_end(
        _read_files(config.genome_files, config.similarity_file), config.preprocess, stages
    )
    candidates = table.candidates
    accepted_rows: list[int] = []
    accepted_weight = 0.0
    accepted_segments = examined = skipped = 0
    solve_table = table
    row_map = np.arange(len(table))
    if config.use_icf_seg:
        with _stage(stages, "icf-seg"):
            deadline = None if config.time_limit is None else started + config.time_limit
            result = icf_seg(genomes[0], table, deadline=deadline)
            accepted_rows = result.accepted_rows
            accepted_weight = result.accepted_weight
            accepted_segments = len(result.accepted)
            examined, skipped = result.examined, result.skipped
            row_map = np.nonzero(result.row_alive)[0]
            solve_table = result.reduced_table()
    with _stage(stages, "solve"):
        model = build_ilp(solve_table)
        if config.export_lp_path:
            export_lp(model, config.export_lp_path)
        if config.engine == "oracle":
            solution = brute_force_median(solve_table)
        else:
            remaining = None
            if config.time_limit is not None:
                remaining = config.time_limit - (time.monotonic() - started)
            solution = solve_branch_and_bound(model, time_limit=remaining)
    combined_rows = sorted(
        set(accepted_rows) | {int(row_map[k]) for k in solution.row_indices}
    )
    objective = accepted_weight + solution.objective
    bound = accepted_weight + solution.bound
    verify_solution(table, combined_rows, objective)
    cars = cars_from_rows(table, combined_rows)

    chosen = table.genes(combined_rows)
    position = {m: j for j, m in enumerate(chosen)}
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "ffmedian", "version": __version__},
        "config": config.as_dict(),
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
            "telomere_triples": sum(c.is_telomere_triple for c in candidates),
            "solve_rows": len(solve_table),
            "icf_seg": {"examined": examined, "accepted": accepted_segments,
                        "skipped": skipped},
            "mip": {
                "nodes": solution.nodes_explored,
                "simplex_iterations": solution.simplex_iterations,
                "dual_bound": solution.dual_bound,
                "gap": solution.gap,
            },
        },
        "genes": [_candidate_json(candidates[m]) for m in chosen],
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


# -- subcommands ---------------------------------------------------------------


def _cmd_build_graph(args) -> int:
    from . import ingestion

    params = ingestion.FilterParams(evalue_max=args.evalue, f=args.f)
    genomes = _load_genomes(args.genomes) if args.genomes else None
    hits = ingestion.read_hit_files(
        list(args.hits) + list(args.self_hits), params=params, genomes=genomes
    )
    graph = ingestion.build_similarity_graph(
        hits, params=params, require_reciprocal=args.require_reciprocal
    )
    graph.write(args.output)
    log.info("wrote %d similarity pairs to %s", len(graph), args.output)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    _, table, _ = _front_end(_read_files(args.genomes, args.similarity), args.preprocess)
    _write_tsv(args.output, table)
    log.info(
        "wrote %d candidates and %d conserved adjacencies",
        len(table.candidates), len(table),
    )
    return EXIT_OK


def _cmd_icf_seg(args) -> int:
    genomes, table, _ = _front_end(_read_files(args.genomes, args.similarity), args.preprocess)
    cands = table.candidates
    result = icf_seg(genomes[0], table)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write("#segment\tgenes\tadjacency\tweight\n")
        for seg_id, run in enumerate(result.accepted):
            genes = ",".join(str(cands[m]) for m in run.members)
            for m1, e1, m2, e2, _, weight in _rows(table, list(run.internal_rows)):
                fh.write(
                    f"{seg_id}\t{genes}\t{cands[m1]}{ENDS[e1]}--{cands[m2]}{ENDS[e2]}"
                    f"\t{weight:.12g}\n"
                )
    if args.emit_reduced:
        os.makedirs(args.emit_reduced, exist_ok=True)
        reduced = result.reduced_table()
        _write_tsv(os.path.join(args.emit_reduced, "candidates.tsv"), reduced, result.cand_alive)
        meta = {
            "accepted_segments": len(result.accepted),
            "accepted_weight": result.accepted_weight,
            "residual_adjacencies": len(reduced),
        }
        with open(
            os.path.join(args.emit_reduced, "meta.json"), "w", encoding="utf-8"
        ) as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
    log.info("accepted %d segments of total weight %.6g",
             len(result.accepted), result.accepted_weight)
    return EXIT_OK


def _time_limit(seconds: float) -> float | None:
    """`--time-limit` in seconds, None for `inf`; NaN or below 0 is an input error."""
    if not seconds >= 0:
        raise ValueError(f"--time-limit must be 0 or more seconds, not {seconds}")
    return None if seconds == float("inf") else seconds


def _cmd_solve(args) -> int:
    config = RunConfig(
        genome_files=args.genomes,
        similarity_file=args.similarity,
        output=args.output,
        engine=args.engine,
        time_limit=_time_limit(args.time_limit),
        preprocess=args.preprocess,
        use_icf_seg=args.icf_seg,
        export_lp_path=args.export_lp,
        canonical=args.canonical,
    )
    code, report = run_pipeline(config)
    _write_report(report, config.output, config.canonical)
    return code


def _cmd_export_lp(args) -> int:
    _, table, _ = _front_end(_read_files(args.genomes, args.similarity), args.preprocess)
    model = build_ilp(table)
    export_lp(model, args.output)
    log.info("wrote model with %d variables and %d constraints",
             model.counted_variables, model.counted_constraints)
    return EXIT_OK


def _cmd_reduce_mis(args) -> int:
    from .mis_reduction import BoundedGraph, reduce_mis, write_instance

    graph = BoundedGraph.from_edge_file(args.graph)
    instance = reduce_mis(graph)
    write_instance(instance, args.output)
    log.info("wrote reduction instance for %d vertices / %d edges to %s",
             len(graph.vertices), len(graph.edges), args.output)
    return EXIT_OK


def _cmd_verify_reduction(args) -> int:
    from .mis_reduction import backmap_solution, mis_bruteforce, read_instance

    time_limit = _time_limit(args.time_limit)
    instance = read_instance(args.instance_dir)
    _, table, _ = _front_end(lambda: (instance.genomes, instance.sigma), preprocess=False)
    solution = solve_branch_and_bound(build_ilp(table), time_limit=time_limit)
    mis = mis_bruteforce(instance.graph)
    s_value = solution.objective / 2.0 - 3.0
    mapped = backmap_solution(solution, instance)
    independent = all(
        (u, v) not in instance.graph.edges and (v, u) not in instance.graph.edges
        for u in mapped
        for v in mapped
        if u < v
    )
    ok = (
        solution.status == STATUS_OPTIMAL
        and abs(s_value - mis) < 1e-9
        and len(mapped) == mis
        and independent
    )
    print(
        json.dumps(
            {
                "status": solution.status,
                "objective": solution.objective,
                "score": s_value,
                "mis": mis,
                "backmapped": sorted(mapped),
                "independent": independent,
                "ok": ok,
            },
            indent=2,
            sort_keys=True,
        )
    )
    if solution.status == STATUS_FEASIBLE:
        return EXIT_FEASIBLE
    return EXIT_OK if ok else EXIT_INPUT


def _load_predictions(path) -> list[tuple[Gene, Gene, Gene]]:
    """Ortholog triples from a median report; telomere triples are not
    ortholog predictions and are skipped."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    entries = data.get("genes", []) if isinstance(data, dict) else None
    if not isinstance(entries, list):
        raise ParseError(f"{path}: not a median report")
    version = data.get("schema_version")
    if version not in (1, 2):
        raise ParseError(f"{path}: median report schema_version {version!r}, not 1 or 2")
    triples = []
    for entry in entries:
        tokens = [entry.get(key) if isinstance(entry, dict) else None for key in "ghi"]
        if not all(isinstance(token, str) for token in tokens):
            raise ParseError(f"{path}: gene entry {entry!r} lacks a g, h or i gene")
        try:
            triple = tuple(_parse_qualified(token) for token in tokens)
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from exc
        if any(gene.is_telomere for gene in triple):
            continue
        triples.append(triple)
    return triples


def _cmd_eval(args) -> int:
    from . import evaluation

    preds = [_load_predictions(path) for path in args.pred]
    payload: dict = {}
    if args.truth:
        truth = evaluation.read_truth_pairs(args.truth)
        report = evaluation.precision_recall(preds[0], truth, strict=args.strict)
        payload.update(report.as_dict())
    if args.groups:
        truth_map = evaluation.TruthMap.read(args.groups)
        _, counts = evaluation.classify_vs_reference(preds[0], truth_map)
        payload["class_counts"] = counts
    if len(preds) > 1:
        if not args.shared or len(args.shared) != 2:
            raise ParseError("--shared GENOME_X GENOME_Y required with several --pred")
        payload["robustness"] = evaluation.robustness(preds, *args.shared)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit with the input-error code;
    `add_subparsers` builds the subcommand parsers with this class too."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ffmedian",
        description="Family-free median of three genomes",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-graph", help="hits to similarity graph")
    p.add_argument("--hits", action="append", default=[], required=True,
                   help="cross-genome 12-column hit file (repeatable)")
    p.add_argument("--self", dest="self_hits", action="append", default=[],
                   help="self-hit file supplying bs(g,g) (repeatable)")
    p.add_argument("-g", "--genome", dest="genomes", action="append",
                   help="genome file for id validation (repeatable)")
    p.add_argument("--evalue", type=float, default=1e-5)
    p.add_argument("-f", type=float, default=0.5, dest="f",
                   help="stringency fraction in [0,1]")
    p.add_argument("--require-reciprocal", action="store_true")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_build_graph)

    def add_instance_args(p):
        p.add_argument("-g", "--genome", dest="genomes", action="append",
                       required=True, help="genome file (give three)")
        p.add_argument("-s", "--similarity", required=True)
        p.add_argument("--no-preprocess", dest="preprocess", action="store_false",
                       help="keep genes outside every 3-clique")

    p = sub.add_parser("enumerate", help="candidate genes and adjacencies")
    add_instance_args(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("icf-seg", help="safe local-optimum extraction")
    add_instance_args(p)
    p.add_argument("-o", "--output", required=True, help="accepted segments TSV")
    p.add_argument("--emit-reduced", help="directory for the reduced instance")
    p.set_defaults(func=_cmd_icf_seg)

    p = sub.add_parser("solve", help="exact median computation")
    add_instance_args(p)
    p.add_argument("--engine", choices=("bb", "oracle"), default="bb")
    p.add_argument("--icf-seg", action=argparse.BooleanOptionalAction, default=False,
                   help="fix ICF-SEG's safe segments before the solve (default off)")
    p.add_argument("--export-lp", dest="export_lp")
    p.add_argument("--time-limit", type=float, default=10800.0)
    p.add_argument("--canonical", action="store_true",
                   help="timing-free byte-reproducible report")
    p.add_argument("-o", "--output", help="median.json (default stdout)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("export-lp", help="write the 0-1 program in LP format")
    add_instance_args(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_export_lp)

    p = sub.add_parser("reduce-mis", help="independent-set reduction instance")
    p.add_argument("--graph", required=True, help="edge list u<TAB>v")
    p.add_argument("-o", "--output", required=True, help="instance directory")
    p.set_defaults(func=_cmd_reduce_mis)

    p = sub.add_parser("verify-reduction", help="end-to-end reduction check")
    p.add_argument("instance_dir")
    p.add_argument("--time-limit", type=float, default=600.0)
    p.set_defaults(func=_cmd_verify_reduction)

    p = sub.add_parser("eval", help="score predictions")
    p.add_argument("--pred", action="append", required=True,
                   help="median.json (repeat for robustness)")
    p.add_argument("--truth", help="true pairs TSV")
    p.add_argument("--groups", help="reference groups TSV")
    p.add_argument("--shared", nargs=2, metavar=("GENOME_X", "GENOME_Y"))
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
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
    logging.shutdown()
    os._exit(code)


if __name__ == "__main__":
    run()
