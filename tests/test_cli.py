"""The `ffmedian` command line, run in-process through `cli.main`."""
import hashlib
import json
import logging
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ffmedian
from ffmedian import cli, segments
from ffmedian.genomes import write_genome_file

from conftest import evolved_instance, identical_genomes

FIVE_EDGE_GRAPH = "a\tb\na\td\nb\tc\nb\td\nc\td\n"

# SHA-256 of the segments TSV and of the reduced candidates.tsv written by
# `icf-seg` on evolved_instance(51, 120, 2, 0.1)
ICF_SEG_DIGESTS = [
    "cc5b09bb0cb747150e412b01cb6b1e46ce358b973cd9d56d1c0629c2101988cf",
    "82c0742cbea9b599916af64edca82dea8c131b972cde0e69796eec031c5d32ae",
]

# SHA-256 of the file each command writes on evolved_instance(51, 120, 2, 0.1)
OUTPUT_DIGESTS = {
    "enumerate": "4e81ffc9e2b3c4fabef7f098a58a9163d8983d1a1e281d4da3607205e0ee5798",
    "export-lp": "e9f4afd0cb6b2eee5c1d5fdc212b8a5b59e5e9bd851fd0b70e6d11c16265a76b",
    "solve": "710795c61686759f7c0de40a1f6089e3cbbffb5f7f9ea0d783ff49f50fd42a9d",
}


def write_files(tmp_path, genomes, sigma):
    genome_file = tmp_path / "genomes.txt"
    similarity_file = tmp_path / "similarity.tsv"
    write_genome_file(genome_file, genomes)
    sigma.write(similarity_file)
    return ["-g", str(genome_file), "-s", str(similarity_file)]


def write_instance(tmp_path, names):
    return write_files(tmp_path, *identical_genomes(names))


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
def test_command_writes_recorded_bytes(tmp_path, monkeypatch, command):
    # relative paths: the report quotes the input paths in its config
    write_files(tmp_path, *evolved_instance(51, 120, 2, 0.1))
    monkeypatch.chdir(tmp_path)
    instance = ["-g", "genomes.txt", "-s", "similarity.tsv"]
    extra = ["--canonical"] if command == "solve" else []
    assert cli.main([command, *instance, *extra, "-o", "out"]) == cli.EXIT_OK
    assert hashlib.sha256(Path("out").read_bytes()).hexdigest() == OUTPUT_DIGESTS[command]


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
    assert '"ok": true' in capsys.readouterr().out


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
    argv = ["solve", *instance, "--canonical", "-o", str(tmp_path / "median.json")]
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True
    )
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert json.loads((tmp_path / "median.json").read_text())["counts"]["accepted_segments"] > 0


def run_child(code, *argv):
    """Run `code` in a fresh interpreter that imports this package."""
    env = dict(os.environ, PYTHONPATH=str(Path(ffmedian.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True
    )


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
    instance = write_files(tmp_path, *evolved_instance(51, 120, 2, 0.1))
    code = (
        "import sys\n"
        "import ffmedian.cli\n"
        "code = ffmedian.cli.main(sys.argv[1:])\n"
        "print('scipy' in sys.modules, 'scipy.optimize' in sys.modules)\n"
        "sys.exit(code)\n"
    )
    proc = run_child(code, command, *instance, "-o", str(tmp_path / "out"))
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert proc.stdout.split() == [str(loaded)] * 2


def test_verbose_logs_icf_seg_counts_and_keeps_report_bytes(tmp_path, caplog):
    instance = write_files(tmp_path, *evolved_instance(51, 120, 2, 0.1))
    quiet, verbose = tmp_path / "quiet.json", tmp_path / "verbose.json"
    assert cli.main(["solve", *instance, "--canonical", "-o", str(quiet)]) == cli.EXIT_OK
    caplog.set_level(logging.INFO, logger="ffmedian.segments")
    assert cli.main(["-v", "solve", *instance, "--canonical", "-o", str(verbose)]) == cli.EXIT_OK
    assert verbose.read_bytes() == quiet.read_bytes()
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("icf-seg:")]
    accepted = json.loads(quiet.read_text())["counts"]["accepted_segments"]
    assert len(lines) == 1
    assert f"examined, {accepted} accepted, 0 skipped at the conflict cap" in lines[0]
    assert "by path/cycle walk, 0 by blossom" in lines[0]


def test_icf_seg_deadline_still_gives_a_verified_optimum(tmp_path, monkeypatch):
    """ICF-SEG's clock passes the deadline after three readings; the solve
    then takes the rest and `run_pipeline` verifies the combined rows."""
    instance = write_files(tmp_path, *evolved_instance(51, 120, 2, 0.1))
    full, cut = tmp_path / "full.json", tmp_path / "cut.json"
    assert cli.main(["solve", *instance, "--canonical", "-o", str(full)]) == cli.EXIT_OK

    class LateClock:
        readings = 0

        def monotonic(self):
            self.readings += 1
            return time.monotonic() + (1e9 if self.readings > 3 else 0.0)

    monkeypatch.setattr(segments, "time", LateClock())
    assert cli.main(["solve", *instance, "--canonical", "-o", str(cut)]) == cli.EXIT_OK
    full_report, cut_report = json.loads(full.read_text()), json.loads(cut.read_text())
    assert 0 < cut_report["counts"]["accepted_segments"] < full_report["counts"]["accepted_segments"]
    assert cut_report["status"] == "optimal"
    assert cut_report["objective"] == pytest.approx(full_report["objective"], abs=1e-9)
