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
import time
from pathlib import Path

import pytest

import ffmedian
from ffmedian import cli, segments, solver
from ffmedian.genomes import Gene, write_genome_file
from ffmedian.reference import Extremity, a_name, b_name

from conftest import evolved_instance, identical_genomes

FIVE_EDGE_GRAPH = "a\tb\na\td\nb\tc\nb\td\nc\td\n"

# SHA-256 of the segments TSV and of the reduced candidates.tsv written by
# `icf-seg` on evolved_instance(51, 120, 2, 0.1)
ICF_SEG_DIGESTS = [
    "cc5b09bb0cb747150e412b01cb6b1e46ce358b973cd9d56d1c0629c2101988cf",
    "82c0742cbea9b599916af64edca82dea8c131b972cde0e69796eec031c5d32ae",
]

# SHA-256 of the file each command writes on evolved_instance(51, 120, 2, 0.1);
# the `solve` entry pins `solve --canonical --icf-seg`
OUTPUT_DIGESTS = {
    "enumerate": "4e81ffc9e2b3c4fabef7f098a58a9163d8983d1a1e281d4da3607205e0ee5798",
    "export-lp": "e9f4afd0cb6b2eee5c1d5fdc212b8a5b59e5e9bd851fd0b70e6d11c16265a76b",
    "solve": "d4f64f162306c36b8abccdbbe128ec8d736bc24f1ab99914c2ddeecd6a2cbd9c",
}

# SHA-256 of the default `solve --canonical` report, without ICF-SEG, on the
# same instance
PLAIN_SOLVE_DIGEST = "c18e403573bb8d653fe11f75a71b6730f7513ae3a03803a26b09f6fd08902b7a"

# SHA-256 of the schema-1 `solve --canonical --icf-seg` report on the same
# instance
SOLVE_V1_DIGEST = "710795c61686759f7c0de40a1f6089e3cbbffb5f7f9ea0d783ff49f50fd42a9d"


def write_files(tmp_path, genomes, sigma):
    genome_file = tmp_path / "genomes.txt"
    similarity_file = tmp_path / "similarity.tsv"
    write_genome_file(genome_file, genomes)
    sigma.write(similarity_file)
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
    config = cli.RunConfig([genome_file], similarity_file, canonical=True)
    code, report = cli.run_pipeline(config)
    assert code == cli.EXIT_OK and report["status"] == "optimal"
    assert len(built) == 1


def test_oracle_over_its_cap_exits_with_solver_code(tmp_path, capsys):
    # 6 gene triples and 8 telomere triples: over the oracle's cap of 12
    instance = write_instance(tmp_path, [f"x{k}" for k in range(6)])
    code = cli.main(["solve", "--engine", "oracle", *instance, "-o", str(tmp_path / "m.json")])
    assert code == cli.EXIT_SOLVER == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "oracle cap" in err
    assert "Traceback" not in err


def test_oracle_and_branch_and_bound_agree(tmp_path):
    # 2 gene triples and 8 telomere triples: within the oracle's cap
    instance = write_instance(tmp_path, ["a", "b"])
    objectives = []
    for engine in ("oracle", "bb"):
        out = tmp_path / f"{engine}.json"
        assert cli.main(["solve", "--engine", engine, *instance, "-o", str(out)]) == cli.EXIT_OK
        objectives.append(json.loads(out.read_text())["objective"])
    assert objectives[0] == objectives[1] > 0


def test_icf_seg_writes_recorded_segments_and_reduced_instance(tmp_path):
    genomes, sigma = evolved_instance(51, 120, 2, 0.1)
    genome_file = tmp_path / "genomes.txt"
    similarity_file = tmp_path / "similarity.tsv"
    write_genome_file(genome_file, genomes)
    sigma.write(similarity_file)
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
    extra = ["--canonical", "--icf-seg"] if command == "solve" else []
    absolute = tmp_path / "absolute.out"
    code = cli.main([command, *instance, *extra, "-o", str(absolute)])
    assert type(code) is int and code == cli.EXIT_OK
    bare = ["-g", "genomes.txt", "-s", "similarity.tsv", *extra, "-o", "bare.out"]
    proc = run_cli(command, *bare, cwd=tmp_path)
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert (tmp_path / "bare.out").read_bytes() == absolute.read_bytes()
    assert hashlib.sha256(absolute.read_bytes()).hexdigest() == OUTPUT_DIGESTS[command]


def test_default_solve_writes_recorded_bytes(tmp_path):
    """The default solve runs no ICF-SEG, as `--no-icf-seg` asks."""
    instance = write_files(tmp_path, *evolved_instance(51, 120, 2, 0.1))
    default, plain = tmp_path / "default.json", tmp_path / "plain.json"
    assert cli.main(["solve", *instance, "--canonical", "-o", str(default)]) == cli.EXIT_OK
    argv = ["solve", *instance, "--canonical", "--no-icf-seg", "-o", str(plain)]
    assert cli.main(argv) == cli.EXIT_OK
    assert default.read_bytes() == plain.read_bytes()
    assert hashlib.sha256(default.read_bytes()).hexdigest() == PLAIN_SOLVE_DIGEST


def v1_layout(report: dict) -> dict:
    """A schema-2 report in the schema-1 layout: every gene index replaced by
    the gene's record, and no `stats`."""
    genes = report["genes"]
    v1 = {key: value for key, value in report.items() if key != "stats"}
    v1["schema_version"] = 1
    v1["adjacencies"] = [
        {**adj, "m1": genes[adj["m1"]], "m2": genes[adj["m2"]]} for adj in report["adjacencies"]
    ]
    v1["cars"] = [
        {"shape": car["shape"],
         "genes": [{**genes[j], "orientation": orient} for j, orient in car["genes"]]}
        for car in report["cars"]
    ]
    return v1


def v1_bytes(report: dict) -> bytes:
    return (json.dumps(v1_layout(report), indent=2, sort_keys=True) + "\n").encode("utf-8")


def test_solve_report_expands_to_the_schema_1_bytes(tmp_path):
    """Schema 2 drops no field of schema 1: expanded, its canonical report
    gives the schema-1 bytes."""
    instance = write_files(tmp_path, *evolved_instance(51, 120, 2, 0.1))
    out = tmp_path / "median.json"
    argv = ["solve", *instance, "--canonical", "--icf-seg", "-o", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    payload = out.read_bytes()
    assert payload.count(b"\n") == 1 and payload.endswith(b"\n")
    report = json.loads(payload)
    assert report["schema_version"] == cli.SCHEMA_VERSION == 2
    assert hashlib.sha256(v1_bytes(report)).hexdigest() == SOLVE_V1_DIGEST


def test_eval_reads_schema_1_and_2_alike(tmp_path, capsys):
    instance = write_files(tmp_path, *evolved_instance(51, 120, 2, 0.1))
    v2 = tmp_path / "v2.json"
    assert cli.main(["solve", *instance, "--canonical", "-o", str(v2)]) == cli.EXIT_OK
    report = json.loads(v2.read_text())
    v1 = tmp_path / "v1.json"
    v1.write_bytes(v1_bytes(report))
    truth = tmp_path / "truth.tsv"
    truth.write_text("".join(f"{gene['g']}\t{gene['h']}\n" for gene in report["genes"][::2]))
    outputs = []
    for pred in (v1, v2):
        capsys.readouterr()
        assert cli.main(["eval", "--pred", str(pred), "--truth", str(truth)]) == cli.EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and json.loads(outputs[0])["recall"] > 0
    v3 = tmp_path / "v3.json"
    v3.write_text(json.dumps({**report, "schema_version": 3}))
    assert cli.main(["eval", "--pred", str(v3)]) == cli.EXIT_INPUT
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


@pytest.mark.parametrize("icf_seg", [True, False])
def test_stats_count_the_runs_rows_and_highs_work(tmp_path, caplog, monkeypatch, icf_seg):
    """With a conflict cap of 0 ICF-SEG skips runs; `stats` carries the
    counts of its log line and the rows the solve was given."""
    monkeypatch.setattr(segments, "CONFLICT_CAP", 0)
    caplog.set_level(logging.INFO, logger="ffmedian.segments")
    instance = write_files(tmp_path, *evolved_instance(51, 120, 2, 0.1))
    out = tmp_path / "median.json"
    flags = ["--icf-seg"] if icf_seg else []
    assert cli.main(["solve", *instance, *flags, "--canonical", "-o", str(out)]) == cli.EXIT_OK
    report = json.loads(out.read_text())
    stats, counts = report["stats"], report["counts"]
    genomes, table, _ = cli._front_end(cli._read_files([instance[1]], instance[3]), True)
    assert stats["telomere_triples"] == sum(c.is_telomere_triple for c in table.candidates) == 64
    runs, mip = stats["icf_seg"], stats["mip"]
    assert runs["accepted"] == counts["accepted_segments"]
    assert mip["nodes"] >= 1 and mip["simplex_iterations"] > 0 and mip["gap"] == 0
    summary = [r.getMessage() for r in caplog.records if r.getMessage().startswith("icf-seg:")]
    if icf_seg:
        result = segments.icf_seg(genomes[0], table)
        assert runs["skipped"] > 0 and stats["solve_rows"] == int(result.row_alive.sum())
        assert summary[0] == (
            f"icf-seg: {runs['examined']} runs examined, {runs['accepted']} accepted, "
            f"{runs['skipped']} skipped at the conflict cap"
        )
        # HiGHS bounds the program left after ICF-SEG, without the accepted rows
        assert 0 < mip["dual_bound"] <= report["objective"]
    else:
        assert runs == {"examined": 0, "accepted": 0, "skipped": 0} and not summary
        assert stats["solve_rows"] == counts["conserved_adjacencies"]
        assert mip["dual_bound"] == pytest.approx(report["objective"])


def test_oracle_stats_have_no_highs_counters(tmp_path):
    instance = write_instance(tmp_path, ["a", "b"])
    out = tmp_path / "median.json"
    assert cli.main(["solve", "--engine", "oracle", *instance, "-o", str(out)]) == cli.EXIT_OK
    mip = json.loads(out.read_text())["stats"]["mip"]
    assert mip == {"nodes": 0, "simplex_iterations": 0, "dual_bound": None, "gap": None}


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
    ],
    ids=["malformed-time-limit", "missing-genome", "unknown-subcommand", "unknown-option",
         "verbose-unknown-subcommand", "verbose-malformed-time-limit"],
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


def test_solve_without_icf_seg_exports_the_export_lp_bytes(tmp_path):
    instance = write_files(tmp_path, *evolved_instance(51, 120, 2, 0.1))
    exported, solved = tmp_path / "export.lp", tmp_path / "solve.lp"
    assert cli.main(["export-lp", *instance, "-o", str(exported)]) == cli.EXIT_OK
    argv = ["solve", *instance, "--no-icf-seg", "--export-lp", str(solved),
            "-o", str(tmp_path / "median.json")]
    assert cli.main(argv) == cli.EXIT_OK
    assert solved.read_bytes() == exported.read_bytes()


def test_solve_exports_the_program_left_by_icf_seg(tmp_path):
    """Every candidate keeps its selection binary; only the rows ICF-SEG
    left live keep an adjacency binary."""
    instance = write_files(tmp_path, *evolved_instance(51, 120, 2, 0.1))
    lp = tmp_path / "model.lp"
    argv = ["solve", *instance, "--icf-seg", "--export-lp", str(lp),
            "-o", str(tmp_path / "median.json")]
    assert cli.main(argv) == cli.EXIT_OK
    binary = lp.read_text().split("Binary\n")[1].split("End\n")[0].split()
    genomes, table, _ = cli._front_end(cli._read_files([instance[1]], instance[3]), True)
    result = segments.icf_seg(genomes[0], table)
    model = solver.build_ilp(result.reduced_table())
    assert 0 < model.n_b < len(table)
    assert binary == [a_name(model, i) for i in range(len(table.candidates))] + [
        b_name(model, k) for k in range(model.n_b)
    ]


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
    monkeypatch.setattr(segments.IcfSegResult, "accepted_weight", property(lambda self: 1.0))
    instance = write_files(tmp_path, *evolved_instance(51, 120, 2, 0.1))
    out = tmp_path / "median.json"
    assert cli.main(["solve", *instance, "--icf-seg", "-o", str(out)]) == cli.EXIT_SOLVER
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
    instance = write_files(tmp_path, *evolved_instance(51, 120, 2, 0.1))
    code = (
        "import sys\n"
        "import ffmedian.cli\n"
        "assert 'networkx' not in sys.modules, 'networkx loaded by the import'\n"
        "code = ffmedian.cli.main(sys.argv[1:])\n"
        "assert 'networkx' not in sys.modules, 'networkx loaded by the solve'\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(ffmedian.__file__).parents[1]))
    argv = ["solve", *instance, "--icf-seg", "--canonical", "-o", str(tmp_path / "median.json")]
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True
    )
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert json.loads((tmp_path / "median.json").read_text())["counts"]["accepted_segments"] > 0


def run_child(code, *argv, cwd=None):
    """Run `code` in a fresh interpreter that imports this package."""
    env = dict(os.environ, PYTHONPATH=str(Path(ffmedian.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True,
        cwd=cwd,
    )


def run_cli(*argv, cwd=None, buffered=False, stdout=subprocess.PIPE):
    """Run `python -m ffmedian.cli ARGV`, the process entry point, in a fresh
    interpreter with `PYTHONUNBUFFERED=1`, or, with `buffered`, with no
    `PYTHONUNBUFFERED` in its environment."""
    env = dict(os.environ, PYTHONPATH=str(Path(ffmedian.__file__).parents[1]))
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
    if expected == cli.EXIT_FEASIBLE:
        instance = write_files(tmp_path, *evolved_instance(51, 120, 2, 0.1))
        return ["solve", *instance, "--time-limit", "0", *out]
    if expected == cli.EXIT_SOLVER:
        # 6 gene triples and 8 telomere triples: over the oracle's cap of 12
        instance = write_instance(tmp_path, [f"x{k}" for k in range(6)])
        return ["solve", "--engine", "oracle", *instance, *out]
    instance = write_instance(tmp_path, ["a", "b"])
    if expected == cli.EXIT_INPUT:
        instance[1] = str(tmp_path / "missing.txt")
    return ["solve", *instance, *out]


@pytest.mark.parametrize("expected", [0, 1, 2, 3])
def test_entry_point_keeps_each_exit_code(tmp_path, expected):
    proc = run_cli(*entry_point_argv(tmp_path, expected))
    assert proc.returncode == expected, proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    if expected in (cli.EXIT_INPUT, cli.EXIT_SOLVER):
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    else:
        assert proc.stderr == ""
        assert json.loads((tmp_path / "median.json").read_text())["status"] in (
            "optimal", "feasible")


def test_entry_point_logs_info_lines_with_verbose(tmp_path):
    instance = write_files(tmp_path, *evolved_instance(51, 120, 2, 0.1))
    proc = run_cli("-v", "solve", *instance, "--icf-seg", "--canonical",
                   "-o", str(tmp_path / "m.json"))
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    lines = proc.stderr.splitlines()
    assert any(line.startswith("INFO ffmedian.segments: icf-seg: ") for line in lines)
    assert any(line.startswith("INFO ffmedian.solver: HiGHS MIP: ") for line in lines)


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
    assert blas_settings_after_import() == ["1", 1]


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


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["solve", "--canonical"], set()),
        (["solve", "--canonical", "--icf-seg"], {"ffmedian.segments"}),
        (["enumerate"], {"ffmedian.commands"}),
    ],
    ids=["solve", "solve-icf-seg", "enumerate"],
)
def test_entry_point_imports_only_the_modules_it_runs(tmp_path, argv, extra):
    """A `solve` process, where `cli` runs as `__main__`, imports only these
    modules of the package: not `ffmedian.cli` a second time, nor
    `commands`, `reference` or the other subcommands' modules.  Another
    subcommand adds `commands`, which does not import `ffmedian.cli`
    either."""
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


def test_no_solve_module_defines_a_dataclass():
    for name in sorted(SOLVE_MODULES | {"ffmedian.cli"}):
        module = importlib.import_module(name)
        classes = [value for value in vars(module).values()
                   if isinstance(value, type) and value.__module__ == name]
        assert not [c.__name__ for c in classes if dataclasses.is_dataclass(c)], name


# SHA-256 of what the other commands write, through `python -m ffmedian.cli`
# (see test_entry_point_writes_every_recorded_output)
MOVED_COMMAND_DIGESTS = {
    "build-graph": "d30f88c17cb0e1995df55ad4449549dcc6268a82ef2796df397cfb387386540f",
    "solve --engine oracle": "5fd031d1cf97d8c34c80ed5b8b15a293d6290df4b8e380c1c2d49466e2ea8cfe",
    "reduce-mis": "404e54c206469476e7a7ea198ecaa463c80bceba967b03eb648d563043b9c593",
    "verify-reduction": "8ed197c1556707fe372f243533573baee3945107ae88ff4c4c76e47b6020cdc8",
    "eval": "e7ee881fc4ca412f806d971dfbe49b8503bdb707999a9d008991648defe55d53",
}


def test_entry_point_writes_every_recorded_output(tmp_path):
    """Every subcommand, `solve --engine oracle` and `solve --export-lp`
    through the process entry point, where `cli` runs as `__main__` and
    hands itself to `commands`, write their recorded bytes."""
    write_files(tmp_path, *evolved_instance(51, 120, 2, 0.1))
    genomes, sigma = identical_genomes(["a", "b"])  # 10 candidates: within the oracle's cap
    write_genome_file(tmp_path / "small.txt", genomes)
    sigma.write(tmp_path / "small.tsv")
    hit = "{}\t{}\t90\t100\t1\t0\t1\t100\t1\t100\t1e-30\t{}\n"
    (tmp_path / "hits.tsv").write_text(
        hit.format("G:a", "H:a", 200) + hit.format("G:b", "I:b", 150)
        + hit.format("H:a", "I:a", 120)
    )
    (tmp_path / "self.tsv").write_text(
        "".join(hit.format(f"{x}:{n}", f"{x}:{n}", 220) for x in "GHI" for n in "ab")
    )
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
        "solve --icf-seg": (["solve", *instance, "--canonical", "--icf-seg", "-o", "icf.json"],
                            "icf.json"),
        "solve --export-lp": (["solve", *instance, "--export-lp", "solve.lp", "-o", "m.json"],
                              "solve.lp"),
        "solve --engine oracle": (["solve", "--engine", "oracle", "-g", "small.txt",
                                   "-s", "small.tsv", "--canonical", "-o", "oracle.json"],
                                  "oracle.json"),
        "reduce-mis": (["reduce-mis", "--graph", "graph.tsv", "-o", "mis"], None),
        "verify-reduction": (["verify-reduction", "mis"], None),
        "eval": (["eval", "--pred", "median.json", "--pred", "icf.json",
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
        "solve --icf-seg": OUTPUT_DIGESTS["solve"],
        "solve --export-lp": OUTPUT_DIGESTS["export-lp"],
        **MOVED_COMMAND_DIGESTS,
    }


def test_setup_probe_does_not_load_scipy(tmp_path):
    # the code of the benchmark's set-up probe, then the check
    instance = write_files(tmp_path, *evolved_instance(51, 120, 2, 0.1))
    code = (
        "import sys\n"
        "from ffmedian.cli import SimilarityGraph, parse_genome_file\n"
        "parse_genome_file(sys.argv[1])\n"
        "SimilarityGraph.read(sys.argv[2])\n"
        "assert 'scipy' not in sys.modules, 'scipy loaded'\n"
    )
    proc = run_child(code, instance[1], instance[3])
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "command, loaded",
    [("enumerate", False), ("icf-seg", False), ("export-lp", False), ("solve", True)],
)
def test_only_solve_loads_scipy(tmp_path, command, loaded):
    """A solve loads scipy's HiGHS extension and no other scipy module; the
    other subcommands load no scipy module at all."""
    instance = write_files(tmp_path, *evolved_instance(51, 120, 2, 0.1))
    code = (
        "import sys\n"
        "import ffmedian.cli\n"
        "code = ffmedian.cli.main(sys.argv[1:])\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "sys.exit(code)\n"
    )
    proc = run_child(code, command, *instance, "-o", str(tmp_path / "out"))
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    modules = proc.stdout.split()
    assert (solver.HIGHS_MODULE in modules) == loaded
    assert "scipy.optimize" not in modules and "scipy.sparse" not in modules
    assert all(m.startswith(solver.HIGHS_MODULE) for m in modules), modules


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["enumerate"], False),
        (["export-lp"], False),
        (["solve"], False),
        (["solve", "--icf-seg"], True),
        (["icf-seg"], True),
    ],
    ids=["enumerate", "export-lp", "solve", "solve-icf-seg", "icf-seg"],
)
def test_only_icf_seg_loads_segments(tmp_path, argv, loaded):
    """`import ffmedian.cli`, as the benchmark's set-up probe does, and the
    default solve leave `segments` unloaded; a run of ICF-SEG loads it."""
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


@pytest.mark.parametrize(
    "flags, icf_seg",
    [([], False), (["--icf-seg", "--no-icf-seg"], False), (["--no-icf-seg", "--icf-seg"], True)],
    ids=["default", "no-icf-seg-last", "icf-seg-last"],
)
def test_last_icf_seg_spelling_wins(flags, icf_seg):
    args = cli.build_parser().parse_args(["solve", "-g", "g.txt", "-s", "s.tsv", *flags])
    assert args.icf_seg is icf_seg


def test_missing_highs_extension_exits_with_solver_code(tmp_path, monkeypatch, capsys):
    monkeypatch.delitem(sys.modules, solver.HIGHS_MODULE, raising=False)
    monkeypatch.setattr(solver, "_highs_file", lambda: None)
    instance = write_instance(tmp_path, ["a", "b", "c"])
    code = cli.main(["solve", *instance, "-o", str(tmp_path / "median.json")])
    assert code == cli.EXIT_SOLVER == 3
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"error: the solve needs scipy>={solver.SCIPY_FLOOR}: its HiGHS "
        f"extension {solver.HIGHS_MODULE} was not found"
    ]
    assert "Traceback" not in err


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
    quiet, verbose = tmp_path / "quiet.json", tmp_path / "verbose.json"
    argv = ["solve", *instance, "--icf-seg", "--canonical", "-o"]
    assert cli.main([*argv, str(quiet)]) == cli.EXIT_OK
    caplog.set_level(logging.INFO, logger="ffmedian.segments")
    assert cli.main(["-v", *argv, str(verbose)]) == cli.EXIT_OK
    assert verbose.read_bytes() == quiet.read_bytes()
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("icf-seg:")]
    accepted = json.loads(quiet.read_text())["counts"]["accepted_segments"]
    assert len(lines) == 1
    assert f"examined, {accepted} accepted, 0 skipped at the conflict cap" in lines[0]


@pytest.mark.parametrize("command", ["icf-seg", "solve"])
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
    flags = ["--icf-seg"] if command == "solve" else []
    code = cli.main([command, *instance, *flags, "-o", str(tmp_path / "out")])
    assert code == cli.EXIT_SOLVER
    assert_one_error_line(capsys)


def test_icf_seg_deadline_still_gives_a_verified_optimum(tmp_path, monkeypatch):
    """ICF-SEG's clock passes the deadline after three readings; the solve
    then takes the rest and `run_pipeline` verifies the combined rows."""
    instance = write_files(tmp_path, *evolved_instance(51, 120, 2, 0.1))
    full, cut = tmp_path / "full.json", tmp_path / "cut.json"
    argv = ["solve", *instance, "--icf-seg", "--canonical", "-o"]
    assert cli.main([*argv, str(full)]) == cli.EXIT_OK

    class LateClock:
        readings = 0

        def monotonic(self):
            self.readings += 1
            return time.monotonic() + (1e9 if self.readings > 3 else 0.0)

    monkeypatch.setattr(segments, "time", LateClock())
    assert cli.main([*argv, str(cut)]) == cli.EXIT_OK
    full_report, cut_report = json.loads(full.read_text()), json.loads(cut.read_text())
    assert 0 < cut_report["counts"]["accepted_segments"] < full_report["counts"]["accepted_segments"]
    assert cut_report["status"] == "optimal"
    assert cut_report["objective"] == pytest.approx(full_report["objective"], abs=1e-9)
