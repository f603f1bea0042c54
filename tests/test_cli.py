"""The `ffmedian` command line, run in-process through `cli.main`."""
import hashlib
import json

from ffmedian import cli
from ffmedian.genomes import write_genome_file

from conftest import evolved_instance, identical_genomes

FIVE_EDGE_GRAPH = "a\tb\na\td\nb\tc\nb\td\nc\td\n"

# SHA-256 of the segments TSV and of the reduced candidates.tsv written by
# `icf-seg` on evolved_instance(51, 120, 2, 0.1)
ICF_SEG_DIGESTS = [
    "cc5b09bb0cb747150e412b01cb6b1e46ce358b973cd9d56d1c0629c2101988cf",
    "82c0742cbea9b599916af64edca82dea8c131b972cde0e69796eec031c5d32ae",
]


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
