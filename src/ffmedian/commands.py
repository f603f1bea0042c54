"""The subcommands other than `solve`: their arguments and what they run.

`cli.build_parser` imports this module only to build the parser of one of
these subcommands (or of all eight, for help and usage errors), so a
`solve` process neither compiles nor runs it.  Each `_*_args` function adds
one subcommand's arguments, and the `_cmd_*` function it sets runs it.

`cli` hands itself over as the global `cli` before any of them runs.  The
module does not import `ffmedian.cli`: under `python -m ffmedian.cli` the
running command line is the module `__main__`, and that import would
compile and run `cli` a second time.  The subcommands reach the shared
stages, `cli._front_end` above all, and the exit codes through it, as
`solve` does.  Their log lines name `ffmedian.cli`, as the command line's
own would: `cli` itself loads `logging` only under `-v`.  An output file
`-` is stdout (`_output`), as for `solve -o -`.  `enumerate`, `icf-seg`
and `export-lp` read the paper's table, telomere triples and all
(`objects.paper_table`).
"""
from __future__ import annotations

import contextlib
import json
import logging
import os
import sys

from .genomes import ENDS, ParseError
from .solver import STATUS_FEASIBLE, STATUS_OPTIMAL

cli = None  # the running `cli` module; see the module docstring
log = logging.getLogger("ffmedian.cli")


@contextlib.contextmanager
def _output(path):
    """The text file at `path`, open for writing, or stdout when `path` is
    `-`, as for `solve -o -`."""
    if path == "-":
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        yield fh


def _write_tsv(path, table, alive=None) -> None:
    """Candidate genes (those `alive` marks, default all), then conserved
    adjacencies, one per line; a gene is written `genome:name`."""
    cands = table.candidates
    columns = ([f"{genome.label}:{genome.names[k]}" for k in row]
               for genome, row in zip(cands.genomes, cands.ids))
    genes = ["\t".join(triple) for triple in zip(*columns)]
    with _output(path) as fh:
        fh.write("#type\tfields\n")
        for m, (triple, score) in enumerate(zip(cands.triple, cands.score)):
            if alive is None or alive[m]:
                fh.write(f"gene\t{genes[m]}\t{triple:.12g}\t{score:.12g}\n")
        for m1, e1, m2, e2, mask, weight in cli._rows(table):
            fh.write(
                f"adjacency\t{genes[m1]}\t{ENDS[e1]}\t{genes[m2]}\t{ENDS[e2]}"
                f"\t{','.join(table.conserved_in[mask])}\t{weight:.12g}\n"
            )


def _instance(args):
    """`cli._front_end` on the genome and similarity files of `args`: the
    genomes and the paper's table (`objects.paper_table`)."""
    from .objects import paper_table

    genomes, table, _ = cli._front_end(cli._read_files(args.genomes, args.similarity),
                                       args.preprocess)
    return genomes, paper_table(table)


def _cmd_build_graph(args) -> int:
    from . import ingestion
    from .objects import serialize_similarities

    params = ingestion.FilterParams(evalue_max=args.evalue, f=args.f)
    genomes = cli._load_genomes(args.genomes) if args.genomes else None
    hits = ingestion.read_hit_files(
        list(args.hits) + list(args.self_hits), params=params, genomes=genomes
    )
    graph = ingestion.build_similarity_graph(
        hits, params=params, require_reciprocal=args.require_reciprocal
    )
    with _output(args.output) as fh:
        fh.write(serialize_similarities(graph))
    log.info("wrote %d similarity pairs to %s", len(graph), args.output)
    return cli.EXIT_OK


def _cmd_enumerate(args) -> int:
    _, table = _instance(args)
    _write_tsv(args.output, table)
    log.info(
        "wrote %d candidates and %d conserved adjacencies",
        len(table.candidates), len(table),
    )
    return cli.EXIT_OK


def _cmd_icf_seg(args) -> int:
    from .objects import candidate_names

    genomes, table = _instance(args)
    result = cli.icf_seg(genomes[0], table)

    def triple(m: int) -> str:
        return f"({','.join(candidate_names(table.candidates, m))})"

    with _output(args.output) as fh:
        fh.write("#segment\tgenes\tadjacency\tweight\n")
        for seg_id, run in enumerate(result.accepted):
            genes = ",".join(map(triple, run.members))
            for m1, e1, m2, e2, _, weight in cli._rows(table, list(run.internal_rows)):
                fh.write(
                    f"{seg_id}\t{genes}\t{triple(m1)}{ENDS[e1]}--{triple(m2)}{ENDS[e2]}"
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
    return cli.EXIT_OK


def _cmd_export_lp(args) -> int:
    from .reference import counted_constraints, counted_variables, write_lp

    _, table = _instance(args)
    model = cli.build_ilp(table)
    with _output(args.output) as fh:
        write_lp(model, fh)
    log.info("wrote model with %d variables and %d constraints",
             counted_variables(model), counted_constraints(model))
    return cli.EXIT_OK


def _cmd_reduce_mis(args) -> int:
    from .mis_reduction import BoundedGraph, reduce_mis, write_instance

    graph = BoundedGraph.from_edge_file(args.graph)
    instance = reduce_mis(graph)
    write_instance(instance, args.output)
    log.info("wrote reduction instance for %d vertices / %d edges to %s",
             len(graph.vertices), len(graph.edges), args.output)
    return cli.EXIT_OK


def _cmd_verify_reduction(args) -> int:
    from .mis_reduction import backmap_solution, mis_bruteforce, read_instance

    time_limit = cli._time_limit(args.time_limit)
    instance = read_instance(args.instance_dir)
    _, table, _ = cli._front_end(lambda: (instance.genomes, instance.sigma), preprocess=False)
    solution = cli.solve_branch_and_bound(cli.build_ilp(table), time_limit=time_limit)
    cli.verify_solution(table, solution.row_indices, solution.objective,
                        solution.caps, solution.ys)
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
        return cli.EXIT_FEASIBLE
    return cli.EXIT_OK if ok else cli.EXIT_INPUT


def _load_predictions(path) -> list[tuple]:
    """Ortholog triples of `objects.Gene`s from a median report; telomere
    triples, which reports before schema 3 list, are not ortholog
    predictions and are skipped."""
    from .objects import _parse_qualified

    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    entries = data.get("genes", []) if isinstance(data, dict) else None
    if not isinstance(entries, list):
        raise ParseError(f"{path}: not a median report")
    version = data.get("schema_version")
    if version not in (1, 2, 3):
        raise ParseError(f"{path}: median report schema_version {version!r}, not 1, 2 or 3")
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
    return cli.EXIT_OK


# -- arguments -------------------------------------------------------------------


def _build_graph_args(p) -> None:
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


def _enumerate_args(p) -> None:
    cli._add_instance_args(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_enumerate)


def _icf_seg_args(p) -> None:
    cli._add_instance_args(p)
    p.add_argument("-o", "--output", required=True, help="accepted segments TSV")
    p.add_argument("--emit-reduced", help="directory for the reduced instance")
    p.set_defaults(func=_cmd_icf_seg)


def _export_lp_args(p) -> None:
    cli._add_instance_args(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_export_lp)


def _reduce_mis_args(p) -> None:
    p.add_argument("--graph", required=True, help="edge list u<TAB>v")
    p.add_argument("-o", "--output", required=True, help="instance directory")
    p.set_defaults(func=_cmd_reduce_mis)


def _verify_reduction_args(p) -> None:
    p.add_argument("instance_dir")
    p.add_argument("--time-limit", type=float, default=600.0)
    p.set_defaults(func=_cmd_verify_reduction)


def _eval_args(p) -> None:
    p.add_argument("--pred", action="append", required=True,
                   help="median.json (repeat for robustness)")
    p.add_argument("--truth", help="true pairs TSV")
    p.add_argument("--groups", help="reference groups TSV")
    p.add_argument("--shared", nargs=2, metavar=("GENOME_X", "GENOME_Y"))
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=_cmd_eval)
