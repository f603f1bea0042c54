"""The whole pipeline on an instance from the benchmark's generator.

`perfbench/gen.py` is loaded by path and only called: it writes one small
instance with gene families, and the command line solves and scores it.
"""
import json
import runpy
from pathlib import Path

import pytest

from ffmedian import cli, commands
from ffmedian.solver import GRID

GEN = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"), run_name="perfbench_gen"
)


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    out = tmp_path_factory.mktemp("generated")
    return GEN["write_instance"](GEN["Params"](n=60, chromosomes=2, family_rate=0.1), 3, str(out))


def solve(files, out, *extra):
    argv = ["solve", "-g", files["genomes"], "-s", files["similarity"], *extra, "-o", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    return out.read_bytes()


def test_canonical_solve_repeats_its_bytes(generated, tmp_path):
    first = solve(generated, tmp_path / "first.json", "--canonical")
    assert solve(generated, tmp_path / "second.json", "--canonical") == first


def test_icf_seg_keeps_the_objective(generated, tmp_path):
    with_seg = json.loads(solve(generated, tmp_path / "seg.json", "--icf-seg"))
    without = json.loads(solve(generated, tmp_path / "plain.json", "--no-icf-seg"))
    assert with_seg["counts"]["accepted_segments"] > 0
    assert with_seg["status"] == without["status"] == "optimal"
    assert abs(with_seg["objective"] - without["objective"]) <= GRID


# the two benchmark workload shapes at a small size: no gene families
# (colinear) and 10% of genes copied per genome (paralog)
SHAPES = {
    "colinear": GEN["Params"](n=60, chromosomes=2),
    "paralog": GEN["Params"](n=60, chromosomes=2, family_rate=0.1),
}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_plain_solve_and_icf_seg_reach_the_same_median(tmp_path, shape, seed):
    """ICF-SEG then the solve gives the plain solve's optimum and genes."""
    files = GEN["write_instance"](SHAPES[shape], seed, str(tmp_path))
    reports, genes = [], []
    for flags in ([], ["--icf-seg"]):
        out = tmp_path / f"median{len(flags)}.json"
        reports.append(json.loads(solve(files, out, "--canonical", *flags)))
        genes.append(sorted(commands._load_predictions(out)))
    plain, seg = reports
    assert plain["status"] == seg["status"] == "optimal"
    assert seg["config"]["use_icf_seg"] and not plain["config"]["use_icf_seg"]
    assert seg["counts"]["accepted_segments"] > 0
    assert abs(plain["objective"] - seg["objective"]) <= 1e-9
    assert genes[0] == genes[1] and genes[0]


def test_eval_scores_against_the_generated_truth(generated, tmp_path, capsys):
    median = tmp_path / "median.json"
    solve(generated, median)
    capsys.readouterr()
    assert cli.main(["eval", "--pred", str(median), "--truth", generated["truth"]]) == cli.EXIT_OK
    scores = json.loads(capsys.readouterr().out)
    assert 0 <= scores["precision"] <= 1 and 0 <= scores["recall"] <= 1
    assert scores["tp"] > 0
