"""The `ffmedian` command line, run in-process through `cli.main`."""
import argparse
import dataclasses
import hashlib
import importlib
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ffmedian
from ffmedian import cli, segments, solver
from ffmedian.objects import Gene, paper_table, write_genome_file, write_similarity_file
from ffmedian.reference import Extremity

from conftest import evolved_instance, icf_seg_then_solve, identical_genomes

FIVE_EDGE_GRAPH = "a\tb\na\td\nb\tc\nb\td\nc\td\n"

# SHA-256 of the segments TSV and of the reduced candidates.tsv written by
# `icf-seg` on evolved_instance(51, 120, 2, 0.1)
ICF_SEG_DIGESTS = [
    "cc5b09bb0cb747150e412b01cb6b1e46ce358b973cd9d56d1c0629c2101988cf",
    "82c0742cbea9b599916af64edca82dea8c131b972cde0e69796eec031c5d32ae",
]

# SHA-256 of the default `solve --canonical` report on evolved_instance(51,
# 120, 2, 0.1).  It moved only by `stats.mip` when the LP came first: the
# same rows, three new keys, no MIP node and other simplex iteration counts.
# It moved again, by the last digits of the floats, when the scores and
# weights came to be computed by the C library's `cbrt` and `pow` instead of
# numpy's: the same report once they are rounded to 12 significant digits.
# It moved again when HiGHS came to get only the live columns: `stats.mip`
# gained "columns" (323 of 439) and reads 236 simplex iterations, not 235,
# as HiGHS's cost perturbation depends on the columns it gets.  It moved
# again with schema 3: the telomere triples left `genes`, `adjacencies` and
# `cars` for the `telomeres` list, `stats.telomere_triples` became the
# per-genome `stats.telomeres`, the four ICF-SEG fields were dropped and the
# `verify` and `cars` stages added; HiGHS got the same program, and
# `SOLVE_PARITY_DIGEST` below is unchanged
PLAIN_SOLVE_DIGEST = "40489496e6463f9ad3103dcd8d5433fb1edb49149500a8c1eda792881d6d7d2d"

# SHA-256 of the file each command writes on the same instance; the `solve`
# entry pins `solve --canonical`
OUTPUT_DIGESTS = {
    "enumerate": "4e81ffc9e2b3c4fabef7f098a58a9163d8983d1a1e281d4da3607205e0ee5798",
    "export-lp": "e9f4afd0cb6b2eee5c1d5fdc212b8a5b59e5e9bd851fd0b70e6d11c16265a76b",
    "solve": PLAIN_SOLVE_DIGEST,
}

# SHA-256 of `parity` of the schema-1 layout of the same report, taken from
# the schema-2 report of the parent of schema 3 (whose bytes were
# "25ceb4cf68dd..."), the report whose schema-1 bytes had the SHA-256
# "6d67a1214be7...": the median's objective, bound, genes, adjacencies,
# telomere adjacencies and CARs, each told apart from the tied telomere
# triples that schema 2 chose
SOLVE_PARITY_DIGEST = "f249f72fc4e4af980caa16b57141c64a918627da189ca72468abb0589ff36e31"


def write_files(tmp_path, genomes, sigma):
    genome_file = tmp_path / "genomes.txt"
    similarity_file = tmp_path / "similarity.tsv"
    write_genome_file(genome_file, genomes)
    write_similarity_file(similarity_file, sigma)
    return ["-g", str(genome_file), "-s", str(similarity_file)]


def write_instance(tmp_path, names):
    return write_files(tmp_path, *identical_genomes(names))


def test_pipeline_builds_no_extremity_objects(tmp_path, monkeypatch):
    """The solve path reads the genomes' adjacencies as int arrays."""
    _, genome_file, _, similarity_file = write_files(tmp_path, *evolved_instance(51, 60, 2, 0.1))
    built = []
    monkeypatch.setattr(Extremity, "__post_init__", lambda self: built.append(self))
    Extremity(Gene("G", "a"), "t")
    assert len(built) == 1  # the patch sees every construction
    argv = ["solve", "-g", genome_file, "-s", similarity_file, "--canonical"]
    code, report = cli.run_pipeline(cli.build_parser(argv).parse_args(argv))
    assert code == cli.EXIT_OK and report["status"] == "optimal"
    assert len(built) == 1


def test_icf_seg_writes_recorded_segments_and_reduced_instance(tmp_path):
    genomes, sigma = evolved_instance(51, 120, 2, 0.1)
    genome_file = tmp_path / "genomes.txt"
    similarity_file = tmp_path / "similarity.tsv"
    write_genome_file(genome_file, genomes)
    write_similarity_file(similarity_file, sigma)
    tsv, reduced = tmp_path / "segments.tsv", tmp_path / "reduced"
    code = cli.main([
        "icf-seg", "-g", str(genome_file), "-s", str(similarity_file),
        "-o", str(tsv), "--emit-reduced", str(reduced),
    ])
    assert code == cli.EXIT_OK
    digests = [
        hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (tsv, reduced / "candidates.tsv")
    ]
    assert digests == ICF_SEG_DIGESTS


@pytest.mark.parametrize("command", sorted(OUTPUT_DIGESTS))
def test_command_writes_recorded_bytes(tmp_path, command):
    """The same bytes by absolute paths and, in a child started in the
    instance's directory, by bare file names."""
    instance = write_files(tmp_path, *evolved_instance(51, 120, 2, 0.1))
    extra = ["--canonical"] if command == "solve" else []
    absolute = tmp_path / "absolute.out"
    code = cli.main([command, *instance, *extra, "-o", str(absolute)])
    assert type(code) is int and code == cli.EXIT_OK
    bare = ["-g", "genomes.txt", "-s", "similarity.tsv", *extra, "-o", "bare.out"]
    proc = run_cli(command, *bare, cwd=tmp_path)
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert (tmp_path / "bare.out").read_bytes() == absolute.read_bytes()
    assert hashlib.sha256(absolute.read_bytes()).hexdigest() == OUTPUT_DIGESTS[command]


def test_default_solve_writes_recorded_bytes(tmp_path):
    """A solve runs no ICF-SEG, and its report has no ICF-SEG field."""
    instance = write_files(tmp_path, *evolved_instance(51, 120, 2, 0.1))
    out = tmp_path / "median.json"
    assert cli.main(["solve", *instance, "--canonical", "-o", str(out)]) == cli.EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PLAIN_SOLVE_DIGEST
    report = json.loads(out.read_text())
    assert "use_icf_seg" not in report["config"] and "icf_seg" not in report["stats"]
    assert not {"accepted_segments", "accepted_adjacencies"} & set(report["counts"])
    assert [stage["name"] for stage in report["stages"]] == [
        "load", "preprocess", "enumerate", "solve", "verify", "cars"]


def v1_layout(report: dict) -> dict:
    """A report in the schema-1 layout: every gene index replaced by the
    gene's record, and no `stats`."""
    genes = report["genes"]
    v1 = {key: value for key, value in report.items() if key != "stats"}
    v1["schema_version"] = 1
    # every schema-1 report ran the one engine that `solve` had then
    v1["config"] = {**report["config"], "engine": "bb"}
    v1["adjacencies"] = [
        {**adj, "m1": genes[adj["m1"]], "m2": genes[adj["m2"]]} for adj in report["adjacencies"]
    ]
    if "telomeres" in report:
        v1["telomeres"] = [{**entry, "m": genes[entry["m"]]} if "m" in entry else entry
                           for entry in report["telomeres"]]
    v1["cars"] = [
        {"shape": car["shape"],
         "genes": [{**genes[j], "orientation": orient} for j, orient in car["genes"]]}
        for car in report["cars"]
    ]
    return v1


def v1_bytes(report: dict) -> bytes:
    return (json.dumps(v1_layout(report), indent=2, sort_keys=True) + "\n").encode("utf-8")


def parity(v1: dict) -> bytes:
    """What a report in the schema-1 layout holds of the median whatever
    its schema: the status, objective and bound; the genes, adjacencies and
    CARs without the telomere triples that reports before schema 3 list, a
    linear CAR in the lesser of its two readings; each adjacency of a gene
    to a telomere, by the gene and its end; and the weights of the
    adjacencies between two telomere triples."""
    def telomeric(gene: dict) -> bool:
        return gene["g"].partition(":")[2].startswith("~")

    adjacencies, caps, pairs = [], [], []
    for adj in v1["adjacencies"]:
        t1, t2 = telomeric(adj["m1"]), telomeric(adj["m2"])
        if t1 and t2:
            pairs.append([adj["conserved_in"], adj["weight"]])
        elif t1 or t2:
            gene, end = (adj["m2"], adj["end2"]) if t1 else (adj["m1"], adj["end1"])
            caps.append([gene, end, adj["conserved_in"], adj["weight"]])
        else:
            adjacencies.append(adj)
    for entry in v1.get("telomeres", []):
        if "m" in entry:
            caps.append([entry["m"], entry["end"], entry["conserved_in"], entry["weight"]])
        else:
            pairs.append([entry["conserved_in"], entry["weight"]])
    flip = {"+": "-", "-": "+"}
    cars = []
    for car in v1["cars"]:
        genes = [gene for gene in car["genes"] if not telomeric(gene)]
        readings = [genes]
        if car["shape"] == "linear":  # backwards, each gene flips
            readings.append([{**gene, "orientation": flip[gene["orientation"]]}
                             for gene in genes[::-1]])
        cars.append({"shape": car["shape"], "genes": min(readings, key=json.dumps)})
    median = {
        "status": v1["status"], "objective": v1["objective"], "bound": v1["bound"],
        "genes": [gene for gene in v1["genes"] if not telomeric(gene)],
        "adjacencies": adjacencies,
        "caps": sorted(caps, key=json.dumps),
        "pairs": sorted(pairs, key=json.dumps),
        "cars": sorted(cars, key=json.dumps),
    }
    return json.dumps(median, sort_keys=True).encode("utf-8")


def test_solve_report_expands_to_the_schema_1_bytes(tmp_path):
    """Schema 3 drops nothing that schema 1 said of the median: expanded
    to the schema-1 layout, its canonical report tells the median of the
    schema-2 report of its parent (`SOLVE_PARITY_DIGEST`)."""
    instance = write_files(tmp_path, *evolved_instance(51, 120, 2, 0.1))
    out = tmp_path / "median.json"
    assert cli.main(["solve", *instance, "--canonical", "-o", str(out)]) == cli.EXIT_OK
    payload = out.read_bytes()
    assert payload.count(b"\n") == 1 and payload.endswith(b"\n")
    report = json.loads(payload)
    assert report["schema_version"] == cli.SCHEMA_VERSION == 3
    v1 = json.loads(v1_bytes(report))
    assert v1["schema_version"] == 1 and "stats" not in v1
    assert hashlib.sha256(parity(v1)).hexdigest() == SOLVE_PARITY_DIGEST
    assert report["telomeres"]


def test_eval_reads_schema_1_and_2_alike(tmp_path, capsys):
    """`eval` reads schemas 1 to 3 alike, skipping the telomere triples of
    the earlier ones, and rejects a later schema."""
    instance = write_files(tmp_path, *evolved_instance(51, 120, 2, 0.1))
    v3 = tmp_path / "v3.json"
    assert cli.main(["solve", *instance, "--canonical", "-o", str(v3)]) == cli.EXIT_OK
    report = json.loads(v3.read_text())
    triple = {"g": "G:~c0.L", "h": "H:~c0.L", "i": "I:~c0.L", "triple_score": 1.0,
              "gene_score": 1.0}
    v2 = tmp_path / "v2.json"
    v2.write_text(json.dumps({**report, "schema_version": 2, "genes": [*report["genes"], triple]}))
    v1 = tmp_path / "v1.json"
    v1.write_bytes(v1_bytes(report))
    truth = tmp_path / "truth.tsv"
    truth.write_text("".join(f"{gene['g']}\t{gene['h']}\n" for gene in report["genes"][::2]))
    outputs = []
    for pred in (v1, v2, v3):
        capsys.readouterr()
        assert cli.main(["eval", "--pred", str(pred), "--truth", str(truth)]) == cli.EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2] and json.loads(outputs[0])["recall"] > 0
    v4 = tmp_path / "v4.json"
    v4.write_text(json.dumps({**report, "schema_version": 4}))
    assert cli.main(["eval", "--pred", str(v4)]) == cli.EXIT_INPUT
    assert_one_error_line(capsys)


def test_solve_to_stdout_writes_only_the_report(tmp_path):
    """`-o -` gives the `-o FILE` bytes, one JSON document and nothing else,
    in a child process whose stdout is a pipe, as HiGHS would see it.  With
    an unbuffered stdout, C stdio is unbuffered too, so a stray HiGHS print
    reaches the pipe although the process ends by `os._exit`; with a
    buffered one, the entry point's last flush writes the report."""
    instance = write_files(tmp_path, *evolved_instance(51, 120, 2, 0.1))
    out = tmp_path / "median.json"
    to_file = run_cli("solve", *instance, "--canonical", "-o", str(out))
    to_stdout = run_cli("solve", *instance, "--canonical", "-o", "-")
    buffered = run_cli("solve", *instance, "--canonical", "-o", "-", buffered=True)
    assert to_file.returncode == to_stdout.returncode == cli.EXIT_OK, to_stdout.stderr
    assert buffered.returncode == cli.EXIT_OK, buffered.stderr
    assert to_file.stdout == ""
    assert to_stdout.stdout.encode("utf-8") == out.read_bytes()
    assert buffered.stdout == to_stdout.stdout
    report, end = json.JSONDecoder().raw_decode(to_stdout.stdout)
    assert to_stdout.stdout[end:] == "\n" and report["status"] == "optimal"


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
def test_solve_to_stdout_after_a_mip_run_writes_only_the_report(tmp_path, buffered):
    """HiGHS's MIP, run on the LP's object after a fractional root, prints
    a debug line through C stdio on some instances; none of it reaches the
    stdout of `-o -`, which holds the `-o FILE` bytes alone."""
    instance = write_files(tmp_path, *evolved_instance(2, 40, 2, 0.1))
    out = tmp_path / "median.json"
    to_file = run_cli("solve", *instance, "--canonical", "-o", str(out))
    to_stdout = run_cli("solve", *instance, "--canonical", "-o", "-", buffered=buffered)
    assert to_file.returncode == to_stdout.returncode == cli.EXIT_OK, to_stdout.stderr
    assert to_stdout.stdout.encode("utf-8") == out.read_bytes()
    mip = json.loads(out.read_text())["stats"]["mip"]
    assert mip["lp_integral"] is False and mip["nodes"] >= 1


def write_subcommand_inputs(tmp_path):
    """The instance and hit files of `test_entry_point_writes_every_recorded_output`."""
    write_files(tmp_path, *evolved_instance(51, 120, 2, 0.1))
    genomes, _ = identical_genomes(["a", "b"])
    write_genome_file(tmp_path / "small.txt", genomes)
    hit = "{}\t{}\t90\t100\t1\t0\t1\t100\t1\t100\t1e-30\t{}\n"
    (tmp_path / "hits.tsv").write_text(
        hit.format("G:a", "H:a", 200) + hit.format("G:b", "I:b", 150)
        + hit.format("H:a", "I:a", 120)
    )
    (tmp_path / "self.tsv").write_text(
        "".join(hit.format(f"{x}:{n}", f"{x}:{n}", 220) for x in "GHI" for n in "ab")
    )


@pytest.mark.parametrize("argv", [
    ["build-graph", "--hits", "hits.tsv", "--self", "self.tsv", "-g", "small.txt"],
    ["enumerate", "-g", "genomes.txt", "-s", "similarity.tsv"],
    ["icf-seg", "-g", "genomes.txt", "-s", "similarity.tsv"],
    ["export-lp", "-g", "genomes.txt", "-s", "similarity.tsv"],
], ids=lambda argv: argv[0])
def test_output_dash_writes_to_stdout(tmp_path, argv):
    """`-o -` writes the `-o FILE` bytes to stdout, as `solve -o -` does,
    and no file named `-`."""
    write_subcommand_inputs(tmp_path)
    to_file = run_cli(*argv, "-o", "out", cwd=tmp_path)
    to_stdout = run_cli(*argv, "-o", "-", cwd=tmp_path)
    assert to_file.returncode == to_stdout.returncode == cli.EXIT_OK, to_stdout.stderr
    assert to_file.stdout == ""
    assert to_stdout.stdout.encode("utf-8") == (tmp_path / "out").read_bytes() != b""
    assert not (tmp_path / "-").exists()


@pytest.mark.parametrize("icf_seg", [True, False])
def test_stats_count_the_runs_rows_and_highs_work(tmp_path, caplog, monkeypatch, icf_seg):
    """`stats` carries the rows the solve was given and HiGHS's work on them.
    With `icf_seg`, ICF-SEG then runs in process at a conflict cap of 0,
    where it skips runs, before the solve of the table it leaves: its log
    line counts the runs, and the two reach the report's objective."""
    monkeypatch.setattr(segments, "CONFLICT_CAP", 0)
    caplog.set_level(logging.INFO, logger="ffmedian.segments")
    instance = write_files(tmp_path, *evolved_instance(51, 120, 2, 0.1))
    out = tmp_path / "median.json"
    assert cli.main(["solve", *instance, "--canonical", "-o", str(out)]) == cli.EXIT_OK
    report = json.loads(out.read_text())
    stats, counts, mip = report["stats"], report["counts"], report["stats"]["mip"]
    genomes, table, _ = cli._front_end(cli._read_files([instance[1]], instance[3]), True)
    assert stats["telomeres"] == {"G": 4, "H": 4, "I": 4}
    assert len(paper_table(table).candidates) - len(table.candidates) == 4 ** 3
    assert stats["solve_rows"] == counts["conserved_adjacencies"]
    assert mip["lp_integral"] is True and mip["nodes"] == 0
    assert mip["simplex_iterations"] > 0 and mip["gap"] == 0
    assert mip["dual_bound"] == pytest.approx(report["objective"])
    program = solver._Capped(table)
    assert mip["rows"] == len(program.handed[4]) < len(program.rhs)
    assert mip["columns"] == len(program.live) == len(program.handed[0]) < len(program.cost)
    assert mip["fixed_selections"] == program.fixed > 0
    if not icf_seg:
        assert not [r for r in caplog.records if r.getMessage().startswith("icf-seg:")]
        return
    result, solution, residual = icf_seg_then_solve(genomes[0], table)
    summary = [r.getMessage() for r in caplog.records if r.getMessage().startswith("icf-seg:")]
    assert result.skipped > 0 and summary == [
        f"icf-seg: {result.examined} runs examined, {len(result.accepted)} accepted, "
        f"{result.skipped} skipped at the conflict cap"
    ]
    program = solver._Capped(residual)
    assert solution.highs_rows == len(program.handed[4]) < len(program.rhs)
    assert solution.highs_columns == len(program.live) < len(program.cost)
    assert solution.fixed == program.fixed > 0
    assert solution.lp_integral is True and solution.nodes_explored == 0
    # HiGHS bounds the program left after ICF-SEG, without the accepted rows
    assert 0 < solution.dual_bound <= report["objective"]
    objective = result.accepted_weight + solution.objective
    assert objective == pytest.approx(report["objective"], abs=1e-9)


def test_stats_of_a_fractional_root_count_the_mip_nodes(tmp_path):
    """A fractional root sends the program to HiGHS's MIP, whose nodes count."""
    instance = write_files(tmp_path, *evolved_instance(2, 40, 2, 0.1))
    out = tmp_path / "median.json"
    assert cli.main(["solve", *instance, "--canonical", "-o", str(out)]) == cli.EXIT_OK
    report = json.loads(out.read_text())
    mip = report["stats"]["mip"]
    assert report["status"] == "optimal" and mip["lp_integral"] is False
    assert mip["nodes"] >= 1 and mip["gap"] == 0
    assert mip["dual_bound"] == pytest.approx(report["objective"])


def test_oracle_stats_have_no_highs_counters(tmp_path):
    """A solve that makes no HiGHS run reports 0 and null for HiGHS's
    counters: one single-gene circular chromosome per genome gives one
    candidate and no row."""
    instance = write_files(tmp_path, *identical_genomes(["a"], shape="circular"))
    out = tmp_path / "median.json"
    assert cli.main(["solve", *instance, "-o", str(out)]) == cli.EXIT_OK
    report = json.loads(out.read_text())
    assert report["counts"]["candidates"] == 1 and report["stats"]["solve_rows"] == 0
    assert report["status"] == "optimal"
    mip = report["stats"]["mip"]
    assert mip == {"nodes": 0, "simplex_iterations": 0, "dual_bound": None, "gap": None,
                   "lp_integral": None, "rows": 0, "columns": 0, "fixed_selections": 0}


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "-g", "genomes.txt", "-s", "similarity.tsv", "--time-limit", "abc"],
        ["solve", "-s", "similarity.tsv"],
        ["bogus"],
        ["icf-seg", "-g", "genomes.txt", "-s", "similarity.tsv", "-o", "segments.tsv",
         "--conflict-cap", "5"],
        ["-v", "bogus"],
        ["-v", "solve", "-g", "genomes.txt", "-s", "similarity.tsv", "--time-limit", "abc"],
        ["solve", "--engine", "oracle", "-g", "genomes.txt", "-s", "similarity.tsv"],
        ["solve", "--export-lp", "x", "-g", "genomes.txt", "-s", "similarity.tsv"],
    ],
    ids=["malformed-time-limit", "missing-genome", "unknown-subcommand", "unknown-option",
         "verbose-unknown-subcommand", "verbose-malformed-time-limit", "removed-engine",
         "removed-export-lp"],
)
def test_usage_error_exits_with_input_code(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_INPUT == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: ffmedian")
    assert ": error: " in err.splitlines()[-1] and "Traceback" not in err
    if "--conflict-cap" in argv:
        assert "unrecognized arguments: --conflict-cap 5" in err
    if "--engine" in argv:
        assert "unrecognized arguments: --engine oracle" in err
    if "--export-lp" in argv:
        assert "unrecognized arguments: --export-lp x" in err


def test_solve_takes_six_options():
    """One engine, one path and one output: no `--engine`, `--icf-seg` or
    `--export-lp`.  The hidden no-op `--no-icf-seg` is not an option."""
    parser = cli.build_parser(["solve"])
    sub = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)][0]
    options = [a.option_strings for a in sub.choices["solve"]._actions
               if not isinstance(a, argparse._HelpAction) and a.help != argparse.SUPPRESS]
    assert options == [
        ["-g", "--genome"], ["-s", "--similarity"], ["--no-preprocess"],
        ["--time-limit"], ["--canonical"], ["-o", "--output"],
    ]


@pytest.mark.parametrize("flag", ["-h", "--version"])
def test_help_and_version_exit_with_success(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main([flag])
    assert exc.value.code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out
    if flag == "-h":
        names = ["build-graph", "enumerate", "icf-seg", "solve", "export-lp", "reduce-mis",
                 "verify-reduction", "eval"]
        assert "{" + ",".join(names) + "}" in out
        # one row per subcommand, indented by four spaces
        listed = [line.split()[0] for line in out.splitlines()
                  if line.startswith("    ") and not line[4].isspace()]
        assert listed == names


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "-h"],
        ["-v", "eval", "--help"],
        ["solve", "-g", "genomes.txt", "-s", "similarity.tsv", "--time-limit", "abc"],
        ["solve", "-g", "genomes.txt", "-s", "similarity.tsv", "--conflict-cap", "5"],
        ["verify-reduction"],
        [],
        ["-v"],
    ],
    ids=["solve-help", "verbose-eval-help", "malformed-value", "unknown-option",
         "missing-positional", "no-subcommand", "verbose-only"],
)
def test_one_subcommand_parser_prints_what_all_parsers_print(capsys, argv):
    """Given its argv, `build_parser` builds the invoked subcommand's parser
    alone, and help and usage errors keep every byte and exit code."""
    outcomes = []
    for parser in (cli.build_parser(argv), cli.build_parser()):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        outcomes.append((exc.value.code, capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    built = [a for a in cli.build_parser(argv)._actions
             if isinstance(a, argparse._SubParsersAction)][0].choices
    named = [token for token in argv if token in cli.SUBCOMMANDS]
    assert list(built) == (named or list(cli.SUBCOMMANDS))


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_build_graph_rejects_a_short_hit_line(tmp_path, capsys):
    hits = tmp_path / "hits.tsv"
    hits.write_text("G:a\tH:a\t90.0\n")
    argv = ["build-graph", "--hits", str(hits), "-o", str(tmp_path / "sim.tsv")]
    assert cli.main(argv) == cli.EXIT_INPUT
    assert_one_error_line(capsys)


def test_enumerate_rejects_two_genomes(tmp_path, capsys):
    genomes, sigma = identical_genomes(["a", "b"])
    instance = write_files(tmp_path, genomes[:2], sigma)
    assert cli.main(["enumerate", *instance, "-o", str(tmp_path / "c.tsv")]) == cli.EXIT_INPUT
    assert_one_error_line(capsys)


def test_export_lp_rejects_a_bad_similarity_score(tmp_path, capsys):
    instance = write_instance(tmp_path, ["a", "b"])
    Path(instance[3]).write_text("G:a\tH:a\tstrong\n")
    assert cli.main(["export-lp", *instance, "-o", str(tmp_path / "m.lp")]) == cli.EXIT_INPUT
    assert_one_error_line(capsys)


@pytest.mark.parametrize(
    "report",
    [
        {"genes": [{"g": "a", "h": "H:a", "i": "I:a"}]},
        {"genes": [{"h": "H:a", "i": "I:a"}]},
        [{"g": "G:a", "h": "H:a", "i": "I:a"}],
    ],
    ids=["token-without-colon", "entry-without-g", "top-level-list"],
)
def test_eval_rejects_a_malformed_report(tmp_path, capsys, report):
    pred = tmp_path / "median.json"
    pred.write_text(json.dumps(report))
    assert cli.main(["eval", "--pred", str(pred)]) == cli.EXIT_INPUT
    assert_one_error_line(capsys)


@pytest.mark.parametrize(
    "entry",
    [{"g": "a", "h": "H:a", "i": "I:a"}, {"h": "H:a", "i": "I:a"}],
    ids=["token-without-colon", "entry-without-g"],
)
def test_eval_rejects_a_malformed_gene_entry_of_a_current_report(tmp_path, capsys, entry):
    pred = tmp_path / "median.json"
    pred.write_text(json.dumps({"schema_version": cli.SCHEMA_VERSION, "genes": [entry]}))
    assert cli.main(["eval", "--pred", str(pred)]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "schema_version" not in err


def test_verify_reduction_rejects_meta_without_labels(tmp_path, capsys):
    edges = tmp_path / "edges.tsv"
    edges.write_text(FIVE_EDGE_GRAPH)
    instance_dir = tmp_path / "instance"
    assert cli.main(["reduce-mis", "--graph", str(edges), "-o", str(instance_dir)]) == cli.EXIT_OK
    (instance_dir / "meta.json").write_text("{}\n")
    assert cli.main(["verify-reduction", str(instance_dir)]) == cli.EXIT_INPUT
    assert_one_error_line(capsys)


def test_verify_reduction_rejects_a_malformed_vertex_map(tmp_path, capsys):
    edges = tmp_path / "edges.tsv"
    edges.write_text(FIVE_EDGE_GRAPH)
    instance_dir = tmp_path / "instance"
    assert cli.main(["reduce-mis", "--graph", str(edges), "-o", str(instance_dir)]) == cli.EXIT_OK
    xi = instance_dir / "xi.tsv"
    lines = xi.read_text().splitlines(keepends=True)
    for bad in ("garbage\n", "garbage\ta\n"):
        xi.write_text("".join([bad] + lines[1:]))
        assert cli.main(["verify-reduction", str(instance_dir)]) == cli.EXIT_INPUT
        assert_one_error_line(capsys)


def test_time_limit_zero_exits_feasible(tmp_path, capsys):
    # the budget counts from the pipeline's start, so the solve gets none
    instance = write_files(tmp_path, *evolved_instance(51, 120, 2, 0.1))
    out = tmp_path / "median.json"
    code = cli.main(["solve", *instance, "--time-limit", "0", "-o", str(out)])
    assert code == cli.EXIT_FEASIBLE == 2
    report = json.loads(out.read_text())
    assert report["status"] == "feasible"
    assert report["bound"] >= report["objective"] > 0
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("limit", ["nan", "-1"])
@pytest.mark.parametrize("command", ["solve", "verify-reduction"])
def test_nan_or_negative_time_limit_exits_with_input_code(tmp_path, capsys, command, limit):
    if command == "solve":
        out = tmp_path / "median.json"
        argv = ["solve", *write_instance(tmp_path, ["a", "b"]), "-o", str(out)]
    else:
        edges = tmp_path / "edges.tsv"
        edges.write_text(FIVE_EDGE_GRAPH)
        out = tmp_path / "instance"
        assert cli.main(["reduce-mis", "--graph", str(edges), "-o", str(out)]) == cli.EXIT_OK
        argv = ["verify-reduction", str(out)]
        capsys.readouterr()
    assert cli.main([*argv, f"--time-limit={limit}"]) == cli.EXIT_INPUT == 1
    assert_one_error_line(capsys)
    if command == "solve":
        assert not out.exists()


def test_infinite_time_limit_means_none(tmp_path):
    instance = write_files(tmp_path, *evolved_instance(51, 120, 2, 0.1))
    out = tmp_path / "median.json"
    assert cli.main(["solve", *instance, "--time-limit", "inf", "-o", str(out)]) == cli.EXIT_OK
    report = json.loads(out.read_text(), parse_constant=pytest.fail)  # strict JSON
    assert report["config"]["time_limit"] is None
    assert report["status"] == "optimal"
    assert report["bound"] == report["objective"]


def test_solve_gets_the_budget_left_by_earlier_stages(tmp_path, monkeypatch):
    limits = []
    solve = cli.solve_branch_and_bound

    def recording(model, time_limit):
        limits.append(time_limit)
        return solve(model, time_limit)

    monkeypatch.setattr(cli, "solve_branch_and_bound", recording)
    instance = write_instance(tmp_path, ["a", "b", "c"])
    out = str(tmp_path / "median.json")
    assert cli.main(["solve", *instance, "--time-limit", "60", "-o", out]) == cli.EXIT_OK
    assert len(limits) == 1 and 0 < limits[0] < 60


def test_mis_reduction_round_trip(tmp_path, capsys):
    edges = tmp_path / "edges.tsv"
    edges.write_text(FIVE_EDGE_GRAPH)
    instance_dir = tmp_path / "instance"
    code = cli.main(["reduce-mis", "--graph", str(edges), "-o", str(instance_dir)])
    assert code == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["verify-reduction", str(instance_dir)]) == cli.EXIT_OK
    printed = json.loads(capsys.readouterr().out)
    assert printed["ok"] is True and printed["status"] == "optimal"


def test_time_limited_verify_reduction_exits_feasible(tmp_path, capsys):
    """A solve cut by the time limit is no failed check: exit 2, as `solve`."""
    edges = tmp_path / "edges.tsv"
    edges.write_text("a\tb\nb\tc\nc\td\nd\ta\n")  # the 4-cycle a-b-c-d
    instance_dir = tmp_path / "instance"
    assert cli.main(["reduce-mis", "--graph", str(edges), "-o", str(instance_dir)]) == 0
    capsys.readouterr()
    code = cli.main(["verify-reduction", str(instance_dir), "--time-limit", "0"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_FEASIBLE == 2
    printed = json.loads(captured.out)
    assert printed["status"] == "feasible" and printed["ok"] is False
    assert printed["mis"] == 2 and captured.err == ""
    assert cli.main(["verify-reduction", str(instance_dir)]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_report_objective_is_checked_against_its_rows(tmp_path, monkeypatch, capsys):
    """A report whose objective is not the weight of its adjacencies is a
    solver error, not a result."""
    solve = cli.solve_branch_and_bound

    def off_by_one(*args, **kwargs):
        solution = solve(*args, **kwargs)
        solution.objective += 1.0
        return solution

    monkeypatch.setattr(cli, "solve_branch_and_bound", off_by_one)
    instance = write_files(tmp_path, *evolved_instance(51, 120, 2, 0.1))
    out = tmp_path / "median.json"
    assert cli.main(["solve", *instance, "-o", str(out)]) == cli.EXIT_SOLVER
    assert_one_error_line(capsys)
    assert not out.exists()


def test_verify_reduction_of_missing_directory_exits_with_input_code(tmp_path, capsys):
    code = cli.main(["verify-reduction", str(tmp_path / "absent")])
    assert code == cli.EXIT_INPUT == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["solve", "eval"])
def test_directory_as_input_file_exits_with_input_code(tmp_path, capsys, command):
    if command == "solve":
        instance = write_instance(tmp_path, ["a", "b"])
        argv = ["solve", "-g", str(tmp_path), *instance[2:], "-o", str(tmp_path / "m.json")]
    else:
        argv = ["eval", "--pred", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_solve_does_not_load_networkx(tmp_path):
    """Nor does ICF-SEG, whose matchings `segments` solves itself."""
    instance = write_files(tmp_path, *evolved_instance(51, 120, 2, 0.1))
    code = (
        "import sys\n"
        "import ffmedian.cli\n"
        "assert 'networkx' not in sys.modules, 'networkx loaded by the import'\n"
        "*instance, out = sys.argv[1:]\n"
        "assert ffmedian.cli.main(['solve', *instance, '-o', out + '/median.json']) == 0\n"
        "assert 'networkx' not in sys.modules, 'networkx loaded by the solve'\n"
        "assert ffmedian.cli.main(['icf-seg', *instance, '-o', out + '/segments.tsv']) == 0\n"
        "assert 'networkx' not in sys.modules, 'networkx loaded by ICF-SEG'\n"
    )
    proc = run_child(code, *instance, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "median.json").read_text())["status"] == "optimal"
    assert len((tmp_path / "segments.tsv").read_text().splitlines()) > 1


def run_child(code, *argv, cwd=None):
    """Run `code` in a fresh interpreter that imports this package."""
    env = dict(os.environ, PYTHONPATH=str(Path(ffmedian.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True,
        cwd=cwd,
    )


def run_cli(*argv, cwd=None, buffered=False, stdout=subprocess.PIPE, path=()):
    """Run `python -m ffmedian.cli ARGV`, the process entry point, in a fresh
    interpreter with `PYTHONUNBUFFERED=1`, or, with `buffered`, with no
    `PYTHONUNBUFFERED` in its environment.  The directories `path` lead
    its `PYTHONPATH`."""
    pythonpath = [*map(str, path), str(Path(ffmedian.__file__).parents[1])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    else:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "ffmedian.cli", *argv], env=env, stdout=stdout,
        stderr=subprocess.PIPE, text=True, cwd=cwd,
    )


def entry_point_argv(tmp_path, expected):
    """A `solve` argument list that must end with the exit code `expected`."""
    out = ["-o", str(tmp_path / "median.json")]
    if expected in (cli.EXIT_FEASIBLE, cli.EXIT_SOLVER):  # an instance that needs HiGHS
        instance = write_files(tmp_path, *evolved_instance(51, 120, 2, 0.1))
        limit = ["--time-limit", "0"] if expected == cli.EXIT_FEASIBLE else []
        return ["solve", *instance, *limit, *out]
    instance = write_instance(tmp_path, ["a", "b"])
    if expected == cli.EXIT_INPUT:
        instance[1] = str(tmp_path / "missing.txt")
    return ["solve", *instance, *out]


@pytest.mark.parametrize("expected", [0, 1, 2, 3])
def test_entry_point_keeps_each_exit_code(tmp_path, expected):
    """Exit 3 comes from a scipy without its HiGHS extension: an empty
    `scipy` package ahead of the real one on the child's path."""
    path = ()
    if expected == cli.EXIT_SOLVER:
        path = (tmp_path / "no-highs",)
        (path[0] / "scipy").mkdir(parents=True)
        (path[0] / "scipy" / "__init__.py").write_text("")
    proc = run_cli(*entry_point_argv(tmp_path, expected), path=path)
    assert proc.returncode == expected, proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    if expected == cli.EXIT_SOLVER:
        assert proc.stderr.startswith(f"error: the solve needs scipy>={solver.SCIPY_FLOOR}: ")
    if expected in (cli.EXIT_INPUT, cli.EXIT_SOLVER):
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    else:
        assert proc.stderr == ""
        assert json.loads((tmp_path / "median.json").read_text())["status"] in (
            "optimal", "feasible")


def test_entry_point_logs_info_lines_with_verbose(tmp_path):
    instance = write_files(tmp_path, *evolved_instance(51, 120, 2, 0.1))
    runs = {"solver: HiGHS: ": ["solve", "--canonical", "-o", "m.json"],
            "segments: icf-seg: ": ["icf-seg", "-o", "segments.tsv"]}
    for line_start, (command, *flags) in runs.items():
        proc = run_cli("-v", command, *instance, *flags, cwd=tmp_path)
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        lines = proc.stderr.splitlines()
        assert any(line.startswith(f"INFO ffmedian.{line_start}") for line in lines), command


def test_entry_point_names_the_cli_logger_by_its_module(tmp_path):
    """Under `python -m ffmedian.cli` the module runs as `__main__`, but its
    log lines, and those of the subcommands in `commands`, name
    `ffmedian.cli`, as the installed script's do."""
    instance = write_instance(tmp_path, ["a", "b"])
    proc = run_cli("-v", "enumerate", *instance, "-o", str(tmp_path / "candidates.tsv"))
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert proc.stderr.splitlines() == [
        "INFO ffmedian.cli: wrote 10 candidates and 15 conserved adjacencies"
    ]


def test_entry_point_logs_the_solver_line_of_verify_reduction(tmp_path):
    """`verify-reduction` runs the solver in-process, whose INFO record goes
    out only where `logging` is loaded: under `-v` it is."""
    (tmp_path / "edges.tsv").write_text(FIVE_EDGE_GRAPH)
    assert run_cli("reduce-mis", "--graph", "edges.tsv", "-o", "mis",
                   cwd=tmp_path).returncode == cli.EXIT_OK
    proc = run_cli("-v", "verify-reduction", "mis", cwd=tmp_path)
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["ok"] is True
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("INFO ffmedian.solver: HiGHS: Optimal, ")


def closed_pipe():
    """The write end of a pipe whose read end is already closed."""
    read, write = os.pipe()
    os.close(read)
    return write


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("sink", ["full-device", "closed-pipe"])
def test_failed_stdout_flush_exits_with_input_code(tmp_path, sink):
    """`eval` prints its scores into a buffered stdout, which only the entry
    point's last flush tries to write: one `error:` line and exit 1."""
    instance = write_instance(tmp_path, ["a", "b"])
    out = tmp_path / "median.json"
    assert cli.main(["solve", *instance, "-o", str(out)]) == cli.EXIT_OK
    fd = closed_pipe() if sink == "closed-pipe" else os.open("/dev/full", os.O_WRONLY)
    try:
        proc = run_cli("eval", "--pred", str(out), buffered=True, stdout=fd)
    finally:
        os.close(fd)
    assert proc.returncode == cli.EXIT_INPUT
    assert proc.stderr.startswith("error: [Errno ") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("sink", ["full-device", "closed-pipe"])
@pytest.mark.parametrize("flag", ["-h", "--version"])
def test_help_and_version_into_a_failed_stdout_exit_with_input_code(sink, flag):
    """argparse prints the text into a buffered stdout and exits inside
    `main`; the entry point's last flush still reports the failure."""
    if sink == "full-device" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    fd = closed_pipe() if sink == "closed-pipe" else os.open("/dev/full", os.O_WRONLY)
    try:
        proc = run_cli(flag, buffered=True, stdout=fd)
    finally:
        os.close(fd)
    assert proc.returncode == cli.EXIT_INPUT
    assert proc.stderr.startswith("error: [Errno ") and proc.stderr.count("\n") == 1, proc.stderr


def test_entry_point_keeps_argparse_usage_errors():
    proc = run_cli("solve", "--time-limit", "abc", buffered=True)
    assert proc.returncode == cli.EXIT_INPUT
    assert proc.stderr.startswith("usage: ffmedian") and proc.stdout == ""
    assert "error: argument --time-limit: invalid float value: 'abc'" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("flag", ["-h", "--version"])
def test_entry_point_prints_help_and_version(flag):
    proc = run_cli(flag, buffered=True)
    assert proc.returncode == cli.EXIT_OK and proc.stderr == ""
    expected = "usage: ffmedian" if flag == "-h" else f"{ffmedian.__version__}\n"
    assert proc.stdout.startswith(expected)


def test_installed_script_is_the_entry_point():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(ffmedian.__file__).parents[2] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"ffmedian": "ffmedian.cli:run"}


def blas_settings_after_import(**settings):
    """`OPENBLAS_NUM_THREADS` and the thread count after a fresh `import
    ffmedian.cli`, in an environment with no BLAS thread variable but
    `settings`."""
    blas = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    env = {name: value for name, value in os.environ.items() if name not in blas}
    env.update(settings, PYTHONPATH=str(Path(ffmedian.__file__).parents[1]))
    code = (
        "import json, os\n"
        "import ffmedian.cli\n"
        "tasks = '/proc/self/task'\n"
        "threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else None\n"
        "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), threads]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
def test_cli_import_starts_no_blas_worker_thread():
    # nothing loads numpy, so the BLAS thread setting is left unset
    assert blas_settings_after_import() == [None, 1]


def test_cli_import_keeps_a_user_blas_thread_setting():
    setting, _ = blas_settings_after_import(OPENBLAS_NUM_THREADS="2")
    assert setting == "2"


def test_solve_does_not_load_other_subcommands_modules(tmp_path):
    instance = write_files(tmp_path, *evolved_instance(51, 120, 2, 0.1))
    code = (
        "import sys\n"
        "import ffmedian.cli\n"
        "others = ['ffmedian.mis_reduction', 'ffmedian.evaluation', 'ffmedian.ingestion']\n"
        "assert not set(others) & set(sys.modules), 'loaded by the import'\n"
        "code = ffmedian.cli.main(sys.argv[1:])\n"
        "assert not set(others) & set(sys.modules), 'loaded by the solve'\n"
        "sys.exit(code)\n"
    )
    proc = run_child(
        code, "solve", *instance, "--canonical", "-o", str(tmp_path / "median.json")
    )
    assert proc.returncode == cli.EXIT_OK, proc.stderr


SOLVE_MODULES = {"ffmedian", "ffmedian.genomes", "ffmedian.kernels", "ffmedian.candidates",
                 "ffmedian.solver"}


# the standard-library modules that only a log line needs
LOGGING_MODULES = {"logging", "string", "traceback"}


@pytest.mark.parametrize(
    "argv, extra, logging_loaded, numpy_loaded",
    [
        (["solve", "--canonical"], set(), False, False),
        (["-v", "solve", "--canonical"], set(), True, False),
        (["enumerate"], {"ffmedian.commands", "ffmedian.objects"}, None, False),
    ],
    ids=["solve", "verbose-solve", "enumerate"],
)
def test_entry_point_imports_only_the_modules_it_runs(
    tmp_path, argv, extra, logging_loaded, numpy_loaded
):
    """A `solve` process, where `cli` runs as `__main__`, imports only these
    modules of the package: not `ffmedian.cli` a second time, nor
    `commands`, `reference` or the other subcommands' modules.  Another
    subcommand adds `commands`, which does not import `ffmedian.cli`
    either, and `enumerate` `objects`, whose paper's table it writes.  None imports numpy.  A default solve imports no `logging`,
    nor the `string` and `traceback` modules it loads; `-v` imports it
    (None: not checked)."""
    instance = write_instance(tmp_path, ["a", "b", "c"])
    env = dict(os.environ, PYTHONPATH=str(Path(ffmedian.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "ffmedian.cli", *argv, *instance,
         "-o", str(tmp_path / "out")],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    # "import time: self [us] | cumulative | imported package", one per import
    imported = {line.split("|")[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert {name for name in imported if name.split(".")[0] == "ffmedian"} == SOLVE_MODULES | extra
    assert ("numpy" in imported) is numpy_loaded
    assert numpy_loaded or not [name for name in imported if name.startswith("numpy")]
    if logging_loaded is False:
        assert not LOGGING_MODULES & imported
    elif logging_loaded:
        assert "logging" in imported


# The functions and methods of the solve modules and `cli` that a default
# solve does not call, by module and qualified name: error paths, the
# process entry point and the forwarders to the other subcommands, and
# what `perfbench/tracing.py` reads (it iterates the candidates and reads
# `len` of the similarity graph and `nbytes` of the kernels' arrays).
NOT_CALLED_BY_A_SOLVE = {
    ("ffmedian.genomes", "ParseError.__init__"),
    ("ffmedian.cli", "_Parser.error"),
    ("ffmedian.cli", "run"),
    ("ffmedian.cli", "icf_seg"),
    ("ffmedian.cli", "_commands"),
    ("ffmedian.candidates", "Candidates.__iter__"),
    ("ffmedian.candidates", "Candidates.__getitem__"),
    ("ffmedian.candidates", "Candidates.objects"),
    ("ffmedian.genomes", "SimilarityGraph.__len__"),
    ("ffmedian.kernels", "IntArray.<lambda>"),
}


def test_solve_modules_hold_only_solve_code(tmp_path):
    """Every function and method, lambdas included, of the modules a solve
    compiles is called by one of three default solves, apart from
    `NOT_CALLED_BY_A_SOLVE`: an integral root, a fractional root, which
    runs HiGHS's MIP, and `--time-limit 0`, which takes the greedy
    selection.  The calls are seen by `sys.setprofile` in a child."""
    (tmp_path / "integral").mkdir()
    (tmp_path / "fractional").mkdir()
    integral = write_files(tmp_path / "integral", *evolved_instance(51, 120, 2, 0.1))
    fractional = write_files(tmp_path / "fractional", *evolved_instance(2, 40, 2, 0.1))
    out = ["--canonical", "-o", str(tmp_path / "median.json")]
    solves = [["solve", *integral, *out], ["solve", *fractional, *out],
              ["solve", *integral, "--time-limit", "0", *out]]
    code = (
        "import json, sys, types\n"
        "from ffmedian import cli\n"
        "called = set()\n"
        "def seen(frame, event, arg):\n"
        "    if event == 'call':\n"
        "        called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))\n"
        "sys.setprofile(seen)\n"
        "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "sys.setprofile(None)\n"
        "uncalled = []\n"
        "for name in json.loads(sys.argv[2]):\n"
        "    path = sys.modules[name].__file__\n"
        "    with open(path, encoding='utf-8') as fh:\n"
        "        stack = [compile(fh.read(), path, 'exec')]\n"
        "    while stack:\n"
        "        for const in stack.pop().co_consts:\n"
        "            if isinstance(const, types.CodeType):\n"
        "                stack.append(const)\n"
        "                # a function's own locals: not a class body nor the module\n"
        "                defined = const.co_flags & 2 and (\n"
        "                    const.co_name == '<lambda>' or not const.co_name.startswith('<'))\n"
        "                if defined and (path, const.co_firstlineno) not in called:\n"
        "                    uncalled.append([name, const.co_qualname])\n"
        "print(json.dumps([codes, uncalled]))\n"
    )
    modules = sorted(SOLVE_MODULES | {"ffmedian.cli"})
    proc = run_child(code, json.dumps(solves), json.dumps(modules))
    assert proc.returncode == 0, proc.stderr
    codes, uncalled = json.loads(proc.stdout)
    assert codes == [cli.EXIT_OK, cli.EXIT_OK, cli.EXIT_FEASIBLE]
    assert json.loads((tmp_path / "median.json").read_text())["status"] == "feasible"
    assert {tuple(entry) for entry in uncalled} == NOT_CALLED_BY_A_SOLVE


def test_no_solve_module_defines_a_dataclass():
    """Nor a `typing.NamedTuple` (or `collections.namedtuple`): a tuple
    class with `_fields`.  Creating one costs time at import."""
    for name in sorted(SOLVE_MODULES | {"ffmedian.cli"}):
        module = importlib.import_module(name)
        classes = [value for value in vars(module).values()
                   if isinstance(value, type) and value.__module__ == name]
        assert not [c.__name__ for c in classes if dataclasses.is_dataclass(c)], name
        assert not [c.__name__ for c in classes
                    if issubclass(c, tuple) and hasattr(c, "_fields")], name


# SHA-256 of what the other commands write, through `python -m ffmedian.cli`
# (see test_entry_point_writes_every_recorded_output)
MOVED_COMMAND_DIGESTS = {
    "build-graph": "d30f88c17cb0e1995df55ad4449549dcc6268a82ef2796df397cfb387386540f",
    "reduce-mis": "404e54c206469476e7a7ea198ecaa463c80bceba967b03eb648d563043b9c593",
    "verify-reduction": "8ed197c1556707fe372f243533573baee3945107ae88ff4c4c76e47b6020cdc8",
    "eval": "e7ee881fc4ca412f806d971dfbe49b8503bdb707999a9d008991648defe55d53",
}


def test_entry_point_writes_every_recorded_output(tmp_path):
    """Every subcommand through the process entry point, where `cli` runs
    as `__main__` and hands itself to `commands`, writes its recorded
    bytes."""
    write_subcommand_inputs(tmp_path)
    (tmp_path / "graph.tsv").write_text(FIVE_EDGE_GRAPH)
    (tmp_path / "truth.tsv").write_text(
        "".join(f"G:a{k:03d}\tH:a{k:03d}\n" for k in range(0, 120, 3))
    )
    instance = ["-g", "genomes.txt", "-s", "similarity.tsv"]
    # name: (argv, the file whose bytes are pinned, or None for stdout)
    runs = {
        "build-graph": (["build-graph", "--hits", "hits.tsv", "--self", "self.tsv",
                         "-g", "small.txt", "-o", "built.tsv"], "built.tsv"),
        "enumerate": (["enumerate", *instance, "-o", "candidates.tsv"], "candidates.tsv"),
        "icf-seg": (["icf-seg", *instance, "-o", "segments.tsv", "--emit-reduced", "reduced"],
                    "segments.tsv"),
        "export-lp": (["export-lp", *instance, "-o", "model.lp"], "model.lp"),
        "solve": (["solve", *instance, "--canonical", "-o", "median.json"], "median.json"),
        "solve --no-icf-seg": (["solve", *instance, "--canonical", "--no-icf-seg",
                                "-o", "hidden.json"], "hidden.json"),
        "reduce-mis": (["reduce-mis", "--graph", "graph.tsv", "-o", "mis"], None),
        "verify-reduction": (["verify-reduction", "mis"], None),
        "eval": (["eval", "--pred", "median.json", "--pred", "hidden.json",
                  "--truth", "truth.tsv", "--shared", "G", "H"], None),
    }
    digests = {}
    for name, (argv, path) in runs.items():
        proc = run_cli(*argv, cwd=tmp_path)
        assert proc.returncode == cli.EXIT_OK, (name, proc.stderr)
        if name == "reduce-mis":
            data = b"".join(f.name.encode() + f.read_bytes()
                            for f in sorted((tmp_path / "mis").iterdir()))
        else:
            data = (tmp_path / path).read_bytes() if path else proc.stdout.encode()
        digests[name] = hashlib.sha256(data).hexdigest()
    reduced = (tmp_path / "reduced" / "candidates.tsv").read_bytes()
    assert [digests.pop("icf-seg"), hashlib.sha256(reduced).hexdigest()] == ICF_SEG_DIGESTS
    assert digests == {
        "enumerate": OUTPUT_DIGESTS["enumerate"],
        "export-lp": OUTPUT_DIGESTS["export-lp"],
        "solve": PLAIN_SOLVE_DIGEST,
        "solve --no-icf-seg": PLAIN_SOLVE_DIGEST,
        **MOVED_COMMAND_DIGESTS,
    }


def test_setup_probe_does_not_load_scipy(tmp_path):
    # the code of the benchmark's set-up probe, then the check: nor numpy,
    # nor ctypes
    instance = write_files(tmp_path, *evolved_instance(51, 120, 2, 0.1))
    code = (
        "import sys\n"
        "from ffmedian.cli import SimilarityGraph, parse_genome_file\n"
        "parse_genome_file(sys.argv[1])\n"
        "SimilarityGraph.read(sys.argv[2])\n"
        "assert 'scipy' not in sys.modules, 'scipy loaded'\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'numpy'], 'numpy loaded'\n"
        "assert 'ctypes' not in sys.modules, 'ctypes loaded'\n"
    )
    proc = run_child(code, instance[1], instance[3])
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "command, loaded",
    [("enumerate", False), ("icf-seg", False), ("export-lp", False), ("solve", True)],
)
def test_only_solve_loads_scipy(tmp_path, command, loaded):
    """A solve loads scipy's HiGHS extension and no other scipy module; the
    other subcommands load no scipy module at all.  Neither `import
    ffmedian.cli` nor any of them loads `ctypes`: the solve's LP root is
    integral here, so HiGHS's MIP, the one run that needs it, does not run."""
    instance = write_files(tmp_path, *evolved_instance(51, 120, 2, 0.1))
    code = (
        "import sys\n"
        "import ffmedian.cli\n"
        "assert 'ctypes' not in sys.modules, 'ctypes loaded by the import'\n"
        "code = ffmedian.cli.main(sys.argv[1:])\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'ctypes')))\n"
        "sys.exit(code)\n"
    )
    proc = run_child(code, command, *instance, "-o", str(tmp_path / "out"))
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    modules = proc.stdout.split()
    assert "ctypes" not in modules
    assert (solver.HIGHS_MODULE in modules) == loaded
    assert "scipy.optimize" not in modules and "scipy.sparse" not in modules
    assert all(m.startswith(solver.HIGHS_MODULE) for m in modules), modules


def test_highs_model_read_and_lp_write_nothing_to_stdout(tmp_path):
    """Only HiGHS's MIP runs with fd 1 pointed away (`solver._stdout_away`):
    in a child whose stdout is an unbuffered pipe, as C stdio is then too,
    the read of a model that HiGHS rejects and a solve whose LP root is
    integral write nothing to it, and `ctypes` stays unloaded."""
    instance = write_files(tmp_path, *evolved_instance(51, 120, 2, 0.1))
    code = (
        "import json, sys\n"
        "from ffmedian import cli, solver\n"
        "highs, mps = solver._import_scipy(), solver._mps\n"
        "solver._mps = lambda *args: 'garbage\\n'\n"
        "try:\n"
        "    solver.linprog(highs, [-1.0], [0, 1], [0], [1.0], [1.0])\n"
        "except solver.SolverError as exc:\n"
        "    sys.stderr.write(f'{exc}\\n')\n"
        "solver._mps = mps\n"
        "code = cli.main(sys.argv[1:])\n"
        "mip = json.load(open(sys.argv[-1]))['stats']['mip']\n"
        "loaded = 'ctypes' in sys.modules\n"
        "sys.stderr.write(f\"{code} {mip['lp_integral']} {mip['columns']} {loaded}\\n\")\n"
    )
    proc = subprocess.run(
        [sys.executable, "-u", "-c", code, "solve", *instance, "-o", str(tmp_path / "m.json")],
        env=dict(os.environ, PYTHONPATH=str(Path(ffmedian.__file__).parents[1])),
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == ["HiGHS rejected the model", "0 True 323 False"]
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["enumerate"], False),
        (["export-lp"], False),
        (["solve"], False),
        (["icf-seg"], True),
    ],
    ids=["enumerate", "export-lp", "solve", "icf-seg"],
)
def test_only_icf_seg_loads_segments(tmp_path, argv, loaded):
    """`import ffmedian.cli`, as the benchmark's set-up probe does, and the
    other subcommands leave `segments` unloaded; `icf-seg` loads it."""
    instance = write_files(tmp_path, *evolved_instance(51, 120, 2, 0.1))
    code = (
        "import sys\n"
        "import ffmedian.cli\n"
        "assert 'ffmedian.segments' not in sys.modules, 'loaded by the import'\n"
        "code = ffmedian.cli.main(sys.argv[1:])\n"
        "print('ffmedian.segments' in sys.modules)\n"
        "sys.exit(code)\n"
    )
    proc = run_child(code, *argv, *instance, "-o", str(tmp_path / "out"))
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert proc.stdout == f"{loaded}\n"


def test_solve_rejects_icf_seg_and_ignores_no_icf_seg(tmp_path, capsys):
    """`solve --icf-seg` is a usage error; the hidden `--no-icf-seg`, which
    earlier command lines pass, changes no byte; `solve --help` lists
    neither."""
    instance = write_files(tmp_path, *evolved_instance(51, 120, 2, 0.1))
    out = tmp_path / "median.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", *instance, "--canonical", "--icf-seg", "-o", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert exc.value.code == cli.EXIT_INPUT and not out.exists()
    assert [line for line in err if line.startswith("usage: ")] == [err[0]]
    assert err[-1] == "ffmedian: error: unrecognized arguments: --icf-seg"
    argv = ["solve", *instance, "--canonical", "--no-icf-seg", "-o", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PLAIN_SOLVE_DIGEST
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--help"])
    assert exc.value.code == cli.EXIT_OK and "icf-seg" not in capsys.readouterr().out


def test_missing_highs_extension_exits_with_solver_code(tmp_path, monkeypatch, capsys):
    monkeypatch.delitem(sys.modules, solver.HIGHS_MODULE, raising=False)
    monkeypatch.setattr(solver, "_highs_file", lambda: None)
    instance = write_files(tmp_path, *evolved_instance(51, 60, 2, 0.1))
    code = cli.main(["solve", *instance, "-o", str(tmp_path / "median.json")])
    assert code == cli.EXIT_SOLVER == 3
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"error: the solve needs scipy>={solver.SCIPY_FLOOR}: its HiGHS "
        f"extension {solver.HIGHS_MODULE} was not found"
    ]
    assert "Traceback" not in err


def test_missing_tmpdir_exits_with_solver_code(tmp_path):
    """HiGHS reads the program from a file in `TMPDIR`: where none can be
    written, one `error:` line and exit 3, and no report."""
    instance = write_files(tmp_path, *evolved_instance(51, 120, 2, 0.1))
    env = dict(os.environ, TMPDIR=str(tmp_path / "missing"),
               PYTHONPATH=str(Path(ffmedian.__file__).parents[1]))
    out = tmp_path / "median.json"
    proc = subprocess.run([sys.executable, "-m", "ffmedian.cli", "solve", *instance, "-o", str(out)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == cli.EXIT_SOLVER, proc.stderr
    assert proc.stderr.startswith("error: cannot write the model for HiGHS: ")
    assert proc.stderr.count("\n") == 1 and not out.exists()


# a 0-1 knapsack for scipy's own MILP front end, optimum -9 at x = (0, 1, 1)
MILP_AFTER_SOLVE = (
    "import scipy.optimize\n"
    "res = scipy.optimize.milp([-4, -5, -4], integrality=1, bounds=(0, 1),\n"
    "    constraints=scipy.optimize.LinearConstraint([[3, 2, 2]], ub=4))\n"
    "assert res.status == 0 and round(res.fun) == -9, res\n"
)
SINGLE_CORE = (
    "import scipy.optimize._highspy._core as core\n"
    "from ffmedian import solver\n"
    "assert solver._import_scipy() is core is sys.modules[solver.HIGHS_MODULE]\n"
    "same = [m for m in list(sys.modules.values())\n"
    "        if getattr(m, '__file__', None) == core.__file__\n"
    "        and not m.__name__.startswith(solver.HIGHS_MODULE + '.')]\n"
    "assert same == [core], same\n"
)


@pytest.mark.parametrize(
    "before, after",
    [("", MILP_AFTER_SOLVE + SINGLE_CORE), ("import scipy.optimize\n", SINGLE_CORE)],
    ids=["solve-then-milp", "scipy-optimize-then-solve"],
)
def test_highs_module_is_shared_with_scipy_optimize(tmp_path, before, after):
    instance = write_files(tmp_path, *evolved_instance(51, 120, 2, 0.1))
    code = (
        "import sys\n"
        + before
        + "import ffmedian.cli\n"
        "assert ffmedian.cli.main(sys.argv[1:]) == 0\n"
        + after
    )
    out = tmp_path / "median.json"
    proc = run_child(code, "solve", *instance, "--canonical", "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["status"] == "optimal"


def test_verbose_logs_icf_seg_counts_and_keeps_report_bytes(tmp_path, caplog):
    instance = write_files(tmp_path, *evolved_instance(51, 120, 2, 0.1))
    quiet, verbose = tmp_path / "quiet", tmp_path / "verbose"

    def argv(out):
        return ["icf-seg", *instance, "-o", f"{out}.tsv", "--emit-reduced", str(out)]

    def written(out):
        return [Path(f"{out}.tsv").read_bytes(), *((out / name).read_bytes()
                                                   for name in ("candidates.tsv", "meta.json"))]

    assert cli.main(argv(quiet)) == cli.EXIT_OK
    caplog.set_level(logging.INFO, logger="ffmedian.segments")
    assert cli.main(["-v", *argv(verbose)]) == cli.EXIT_OK
    assert written(verbose) == written(quiet)
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("icf-seg:")]
    accepted = json.loads((quiet / "meta.json").read_text())["accepted_segments"]
    assert len(lines) == 1 and accepted > 0
    assert f"examined, {accepted} accepted, 0 skipped at the conflict cap" in lines[0]


@pytest.mark.parametrize("command", ["icf-seg"])
def test_matching_graph_beyond_degree_two_exits_with_solver_code(
    tmp_path, monkeypatch, capsys, command
):
    """A conflict-extended graph of degree 3 breaks ICF-SEG's invariant:
    exit 3 with one `error:` line, not a fallback."""
    star = segments.MatchGraph(
        nodes=((0, 0), (1, 0), (2, 0), (3, 0)),
        edges=(((0, 0), (1, 0), 1.0), ((0, 0), (2, 0), 1.0), ((0, 0), (3, 0), 1.0)),
    )
    monkeypatch.setattr(segments, "build_gamma_prime", lambda *args, **kwargs: star)
    instance = write_files(tmp_path, *evolved_instance(51, 120, 2, 0.1))
    code = cli.main([command, *instance, "-o", str(tmp_path / "out")])
    assert code == cli.EXIT_SOLVER
    assert_one_error_line(capsys)
