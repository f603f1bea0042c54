"""The whole pipeline on an instance from the benchmark's generator.

`perfbench/gen.py` is loaded by path and only called: it writes one small
instance with gene families, and the command line solves and scores it.
"""
import json
import runpy
from pathlib import Path

import pytest

from ffmedian import cli
from ffmedian.solver import GRID, SolverError, build_ilp, solve_branch_and_bound, verify_solution

from conftest import combined_rows, icf_seg_then_solve, real_index

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GEN = runpy.run_path(str(PERFBENCH / "gen.py"), run_name="perfbench_gen")


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


def front_end(files):
    """The genomes and table of the instance `files`, as a solve builds them."""
    genomes, table, _ = cli._front_end(cli._read_files([files["genomes"]], files["similarity"]),
                                       True)
    return genomes, table


def test_icf_seg_keeps_the_objective(generated, tmp_path):
    """ICF-SEG, then the solve of the table it leaves, reaches the optimum of
    the command line's solve."""
    without = json.loads(solve(generated, tmp_path / "plain.json"))
    genomes, table = front_end(generated)
    result, solution, _ = icf_seg_then_solve(genomes[0], table)
    assert result.accepted
    assert solution.status == without["status"] == "optimal"
    assert abs(result.accepted_weight + solution.objective - without["objective"]) <= GRID


def test_the_combined_check_rejects_a_row_that_meets_an_accepted_run(generated):
    """The check of `icf_seg_then_solve` reads the accepted runs and the
    solve's choice together: it fails once it is also given a row of the
    table at an extremity of an accepted run's row, or one that joins a
    candidate that ICF-SEG removed for a conflict with a run."""
    genomes, table = front_end(generated)
    result, solution, residual = icf_seg_then_solve(genomes[0], table)
    rows = combined_rows(table, result, residual, solution)
    index = real_index(result.table)
    codes = set()
    for run in result.accepted:
        for r in run.internal_rows:
            m1, e1, m2, e2 = result.table.key(r)
            codes |= {3 * index[m1] + e1, 3 * index[m2] + e2}
    removed = {index[m] for m, alive in enumerate(result.cand_alive) if not alive}
    at_run = next(k for k in range(len(table)) if k not in rows
                  and {3 * table.m1[k] + table.e1[k], 3 * table.m2[k] + table.e2[k]} & codes)
    at_removed = next(k for k in range(len(table)) if k not in rows
                      and {table.m1[k], table.m2[k]} & removed)
    objective = result.accepted_weight + solution.objective
    verify_solution(table, rows, objective, solution.caps, solution.ys)
    for extra, error in ((at_run, "used twice|conflict"), (at_removed, "conflict")):
        with pytest.raises(SolverError, match=error):
            verify_solution(table, sorted([*rows, extra]), objective + table.weight[extra],
                            solution.caps, solution.ys)


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
    plain = json.loads(solve(files, tmp_path / "median.json", "--canonical"))
    genomes, table = front_end(files)
    result, solution, residual = icf_seg_then_solve(genomes[0], table)
    assert plain["status"] == solution.status == "optimal"
    assert result.accepted
    assert abs(plain["objective"] - (result.accepted_weight + solution.objective)) <= 1e-9
    index = real_index(result.table)
    members = {index[m] for run in result.accepted for m in run.members}
    chosen = sorted(members.union(residual.genes(solution.row_indices, solution.caps)))
    assert cli._genes_json(table.candidates, chosen) == plain["genes"] != []


def test_eval_scores_against_the_generated_truth(generated, tmp_path, capsys):
    median = tmp_path / "median.json"
    solve(generated, median)
    capsys.readouterr()
    assert cli.main(["eval", "--pred", str(median), "--truth", generated["truth"]]) == cli.EXIT_OK
    scores = json.loads(capsys.readouterr().out)
    assert 0 <= scores["precision"] <= 1 and 0 <= scores["recall"] <= 1
    assert scores["tp"] > 0


# the benchmark's two workloads (`perfbench/run.py`), whose pools of 40
# instances each have their optimum recorded in `perfbench/references.json`
WORKLOADS = {
    "colinear": GEN["Params"](n=300, chromosomes=2),
    "paralog": GEN["Params"](n=150, chromosomes=2, family_rate=0.1),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_pool_solves_reach_the_recorded_optima(tmp_path, workload):
    """Every pool instance of the benchmark solves to its recorded optimum.
    HiGHS gets only the live columns, so on an integral root the LP's bound
    plus the cost of the other columns is the objective."""
    references = json.loads((PERFBENCH / "references.json").read_text())[workload]
    integral = 0
    for seed in range(40):
        files = GEN["write_instance"](WORKLOADS[workload], seed, str(tmp_path / str(seed)))
        _, table = front_end(files)
        solution = solve_branch_and_bound(build_ilp(table))
        assert solution.status == "optimal" and solution.highs_columns > 0, seed
        assert abs(solution.objective - references[str(seed)]) <= GRID, seed
        if solution.lp_integral:
            integral += 1
            tolerance = 1e-9 * max(1.0, abs(solution.objective))
            assert abs(solution.dual_bound - solution.objective) <= tolerance, seed
    assert integral >= 30
