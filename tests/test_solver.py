"""Model construction, LP export, the exact search, and CAR assembly."""
import itertools
import logging
import math
import os
import random
import time
import types

import numpy as np
import pytest
import scipy.sparse as sp

from ffmedian import solver
from ffmedian.candidates import (
    enumerate_candidates,
    enumerate_conserved_adjacencies,
    preprocess_discard_nonclique,
)
from ffmedian.genomes import Gene, SimilarityGraph
from ffmedian.reference import (
    OracleCapExceeded,
    _coeff,
    brute_force_median,
    counted_constraints,
    counted_variables,
    export_lp,
)
from ffmedian.segments import build_gamma, icf_seg, matching_weight
from ffmedian.solver import (
    GRID,
    STATUS_EMPTY,
    STATUS_FEASIBLE,
    STATUS_OPTIMAL,
    Car,
    MedianSolution,
    SolverError,
    build_ilp,
    cars_from_rows,
    solve_branch_and_bound,
    verify_solution,
)

from conftest import (
    build_tables,
    conflicts,
    diagonal_sigma,
    disjoint_clique_instance,
    evolved_instance,
    identical_genomes,
    linear,
    milp_objective,
    random_blockish_instance,
    random_small_instance,
)
from test_matching import blossom

# optimum of evolved_instance(6, 400, 2, 0.6), proven by an untimed solve
OPTIMUM_6_400_2 = 433.9741946474661


def empty_table():
    """An instance without candidates: circular genomes, no similarities."""
    genomes, _ = identical_genomes(shape="circular")
    cands, table = build_tables(genomes, SimilarityGraph())
    assert len(cands) == 0 and len(table) == 0
    return table


class TestBuildIlp:
    def test_empty_model(self):
        table = empty_table()
        model = build_ilp(table)
        assert counted_variables(model) == 0
        assert counted_constraints(model) == 0

    def test_single_fully_conserved_adjacency_coefficient(self):
        genomes, sigma = identical_genomes(("a", "b"), shape="circular")
        cands, table = build_tables(genomes, sigma)
        model = build_ilp(table)
        assert model.n_a == 2
        assert model.n_b == 2
        assert sorted(model.table.weight.tolist()) == [3.0, 3.0]

    def test_counts(self, four_candidate_instance):
        genomes, sigma = four_candidate_instance
        cands, table = build_tables(genomes, sigma)
        model = build_ilp(table)
        genes = {g for c in cands for g in c.genes}
        ext = sum(len(c.ends) for c in cands)
        assert counted_variables(model) == len(cands) + len(table)
        assert counted_constraints(model) == len(genes) + len(table) + ext


class TestExportLp:
    def test_empty_model_golden_bytes(self, tmp_path):
        table = empty_table()
        model = build_ilp(table)
        path = tmp_path / "empty.lp"
        export_lp(model, path)
        assert path.read_bytes() == b"Maximize\n obj:\nSubject To\nBinary\nEnd\n"

    def test_coefficient_format(self, tmp_path):
        genomes, sigma = identical_genomes(("a", "b"), shape="circular")
        cands, table = build_tables(genomes, sigma)
        model = build_ilp(table)
        path = tmp_path / "model.lp"
        export_lp(model, path)
        text = path.read_text()
        assert "3.00000000000 b_" in text
        assert text.startswith("Maximize\n obj:")
        assert text.endswith("End\n")

    def test_rebuild_reproduces_bytes(self, tmp_path):
        genomes, sigma = identical_genomes(("a", "b", "c"))
        cands, table = build_tables(genomes, sigma)
        p1, p2 = tmp_path / "m1.lp", tmp_path / "m2.lp"
        export_lp(build_ilp(table), p1)
        cands2, table2 = build_tables(genomes, sigma)
        export_lp(build_ilp(table2), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_coefficient_matches_numpy_positional_format(self):
        """`_coeff` writes what numpy's 12-digit positional format writes:
        zero, exact binary fractions, round-ups that carry into a new
        digit, integers of 12 digits and more, subnormals and random
        weights."""
        rng = random.Random(7)
        values = [
            0.0, 0.5, 0.125, 3.0, 6.0, 1 / 3, 2 / 3, 0.1, 0.3,
            0.999999999999999, 9.9999999999995, 99999999999.95, 123456789012.5,
            1e12, 1e13, 123456789012345.0, 1e-300, 5e-324, 2.2250738585072014e-308,
        ]
        values += [rng.uniform(0.0, 3.0) for _ in range(2000)]
        values += [rng.uniform(0.0, 1.0) ** rng.choice((1, 2, 6)) * 10 ** rng.randint(-8, 14)
                   for _ in range(2000)]
        for value in values:
            expected = np.format_float_positional(
                value, precision=12, unique=False, fractional=False, trim="k"
            )
            assert _coeff(value) == expected, value


class TestSolve:
    def test_no_candidates_is_empty_status(self):
        table = empty_table()
        solution = solve_branch_and_bound(build_ilp(table))
        assert solution.status == STATUS_EMPTY
        assert solution.objective == 0.0

    def test_matches_matching_on_conflict_free_instances(self):
        # the whole of Γ has degree 3 here, beyond what `mwm` accepts
        for seed in range(6):
            genomes, sigma = disjoint_clique_instance(seed, n=5 + seed % 3)
            cands, table = build_tables(genomes, sigma)
            gamma = build_gamma(table)
            matched = matching_weight(gamma, blossom(gamma))
            solved = solve_branch_and_bound(build_ilp(table)).objective
            assert round(matched / GRID) == round(solved / GRID)

    def test_oracle_equivalence_sample(self):
        for seed in range(40):
            genomes, sigma, cands = random_small_instance(seed, max_candidates=10)
            table = enumerate_conserved_adjacencies(cands, *genomes)
            bb = solve_branch_and_bound(build_ilp(table))
            oracle = brute_force_median(table)
            assert round(bb.objective / GRID) == round(oracle.objective / GRID)
            verify_solution(table, bb.row_indices, bb.objective)

    def test_time_limit_zero_returns_feasible_with_bound(self):
        genomes, sigma = identical_genomes(("a", "b", "c"))
        cands, table = build_tables(genomes, sigma)
        solution = solve_branch_and_bound(build_ilp(table), time_limit=0)
        assert solution.status == STATUS_FEASIBLE
        assert solution.bound >= solution.objective - GRID
        assert solution.bound >= 12.0  # true optimum below the bound

    def test_scipy_import_counts_against_the_time_limit(self, monkeypatch):
        limits = []
        import_scipy, lp = solver._import_scipy, solver.linprog

        def slow_import():
            time.sleep(0.3)
            return import_scipy()

        def recording(*args):
            limits.append(args[-1])  # the time_limit HiGHS receives
            return lp(*args)

        monkeypatch.setattr(solver, "_import_scipy", slow_import)
        monkeypatch.setattr(solver, "linprog", recording)
        genomes, sigma = identical_genomes(("a", "b", "c"))
        cands, table = build_tables(genomes, sigma)
        solution = solve_branch_and_bound(build_ilp(table), time_limit=60)
        assert solution.status == STATUS_OPTIMAL
        assert len(limits) == 1 and limits[0] <= 60 - 0.3

    @pytest.mark.parametrize("lacks", [(), ("mip_heuristic_run_feasibility_jump",)],
                             ids=["this-highs", "highs-without-feasibility-jump"])
    def test_highs_runs_without_the_features_before_the_root_lp(self, monkeypatch, lacks):
        """Feasibility jump and symmetry detection are off in the HiGHS run;
        a HiGHS that lacks one of the options solves with the others."""
        highs = solver._import_scipy()
        seen = []

        class Highs(highs._Highs):
            def setOptionValue(self, name, value):
                if name in lacks:
                    return highs.HighsStatus.kError  # as for an unknown option
                return super().setOptionValue(name, value)

            def run(self):
                seen.append({name: self.getOptionValue(name)[1]
                             for name in solver.OFF_BEFORE_ROOT_LP})
                return super().run()

        module = types.SimpleNamespace(
            **{name: getattr(highs, name) for name in dir(highs) if not name.startswith("__")}
        )
        module._Highs = Highs
        monkeypatch.setattr(solver, "_import_scipy", lambda: module)
        cands, table = build_tables(*identical_genomes(("a", "b", "c")))
        solution = solve_branch_and_bound(build_ilp(table))
        assert solution.status == STATUS_OPTIMAL
        assert round(solution.objective / GRID) == round(brute_force_median(table).objective / GRID)
        assert seen == [{name: name in lacks for name in solver.OFF_BEFORE_ROOT_LP}]

    def test_deterministic_across_repeated_solves(self):
        # 135 candidates and 363 rows: both solves run HiGHS
        genomes, sigma = evolved_instance(51, 60, 2, 0.1)
        cands, table = build_tables(genomes, sigma)
        a = solve_branch_and_bound(build_ilp(table))
        b = solve_branch_and_bound(build_ilp(table))
        assert a.simplex_iterations > 0
        assert a.row_indices == b.row_indices
        assert a.objective == b.objective
        counters = ("nodes_explored", "simplex_iterations", "dual_bound", "gap")
        assert [getattr(a, c) for c in counters] == [getattr(b, c) for c in counters]

    @pytest.mark.parametrize(
        "time_limit",
        [1.5, 0.3],
        ids=["between-cut-rounds", "at-the-first-node"],
    )
    def test_deadline_holds_at_the_root(self, time_limit):
        # 8237 rows, with gene families on 60% of the genes: HiGHS solves
        # this at its root node in about 20 s.  After 0.3 s it holds no root
        # LP bound and no good point; after 1.5 s it is still at the root.
        genomes, sigma = evolved_instance(6, 400, 2, 0.6)
        cands, table = build_tables(genomes, sigma)
        model = build_ilp(table)
        greedy_value, _ = solver._greedy_incumbent(model)
        start = time.monotonic()
        limited = solve_branch_and_bound(model, time_limit=time_limit)
        assert time.monotonic() - start < time_limit + 1.0
        assert limited.status == STATUS_FEASIBLE
        assert limited.nodes_explored == 0
        assert limited.objective >= greedy_value
        assert limited.objective <= limited.bound
        assert limited.bound >= OPTIMUM_6_400_2 - GRID


def _scipy_mip_rows(model):
    """Reference for `solver._Capped`: the capped program's entries, built
    by plain loops over the table into a scipy.sparse CSR matrix and
    converted to CSC, with its right-hand sides and costs."""
    table = model.table
    cands = table.candidates
    real = [m for m, c in enumerate(cands) if not c.is_telomere_triple]
    column = {m: j for j, m in enumerate(real)}
    entries = []  # (row, column, value)
    gene_row = {}
    for m in real:
        for gene in cands[m].genes:
            entries.append((gene_row.setdefault(gene, len(gene_row)), column[m], 1.0))
    inner, cap_mask, cap_weight, y_masks = [], {}, {}, set()
    facing = [set(), set(), set()]  # per genome, the telomeres of emptied chromosomes
    for k in range(len(table)):
        m1, e1, m2, e2 = table.key(k)
        mask = int(table.mask[k])
        tel1, tel2 = cands[m1].is_telomere_triple, cands[m2].is_telomere_triple
        if not tel1 and not tel2:
            inner.append(k)
        elif tel1 and tel2:
            y_masks.add(mask)
            for x in range(3):
                if mask >> x & 1:
                    facing[x] |= {cands[m1].genes[x], cands[m2].genes[x]}
        else:
            ext = (m2, e2) if tel1 else (m1, e1)
            cap_mask[ext] = cap_mask.get(ext, 0) | mask
            factor = cands[ext[0]].triple_score ** (1 / 6)
            cap_weight[ext] = factor * bin(cap_mask[ext]).count("1")
    telomeres = [len({c.genes[x] for c in cands if c.is_telomere_triple}) for x in range(3)]
    emptied = [len(f) // 2 for f in facing]
    room = min(telomeres)
    caps = sorted(cap_mask)
    y = []
    for mask in sorted(y_masks):
        copies = min([room // 2] + [emptied[x] for x in range(3) if mask >> x & 1])
        y += [(mask, j) for j in range(copies)]
    n_r, n_in = len(real), len(inner)
    ext_rows = sorted({(m, e) for k in inner for m, e in (table.key(k)[:2], table.key(k)[2:])}
                      | set(caps))
    ext_row = {ext: len(gene_row) + j for j, ext in enumerate(ext_rows)}
    for j, k in enumerate(inner):
        m1, e1, m2, e2 = table.key(k)
        entries += [(ext_row[(m1, e1)], n_r + j, 1.0), (ext_row[(m2, e2)], n_r + j, 1.0)]
    for (m, e), row in ext_row.items():
        entries.append((row, column[m], -1.0))
    for j, ext in enumerate(caps):
        entries.append((ext_row[ext], n_r + n_in + j, 1.0))
    rhs = [1.0] * len(gene_row) + [0.0] * len(ext_rows)
    # the count rows: per genome, then the capacity row
    for x in range(3):
        entries += [(len(rhs), n_r + n_in + len(caps) + j, 1.0)
                    for j, (mask, _) in enumerate(y) if mask >> x & 1]
        rhs.append(emptied[x])
    entries += [(len(rhs), n_r + n_in + j, 1.0) for j in range(len(caps))]
    entries += [(len(rhs), n_r + n_in + len(caps) + j, 2.0) for j in range(len(y))]
    rhs.append(room)
    rows, cols, vals = zip(*entries)
    shape = (len(rhs), n_r + n_in + len(caps) + len(y))
    matrix = sp.csr_matrix((vals, (rows, cols)), shape=shape)
    cost = [0.0] * n_r + [-float(table.weight[k]) for k in inner]
    cost += [-cap_weight[ext] for ext in caps] + [-bin(mask).count("1") for mask, _ in y]
    return sp.csc_array(matrix), np.array(rhs), np.array(cost)


def _reduced_by_loops(matrix, rhs, n_genes, n_r):
    """Reference for `_Capped.handed`: rules (a) and (b) by plain loops over
    the unreduced program, `matrix` (CSC) and `rhs`, whose first `n_genes`
    rows are the gene rows and first `n_r` columns the selections."""
    entries = {}  # row -> {column: value}
    for j in range(matrix.shape[1]):
        for k in range(matrix.indptr[j], matrix.indptr[j + 1]):
            entries.setdefault(int(matrix.indices[k]), {})[j] = float(matrix.data[k])
    # (a) a selection whose gene rows hold it alone is fixed at 1
    fixed = {j for j in range(n_r)
             if all(len(entries[i]) == 1 for i in range(n_genes) if j in entries[i])}
    kept, rows, cols, vals, right = 0, [], [], [], []
    for i in range(len(rhs)):
        row = entries.get(i, {})
        limit = rhs[i] - sum(v for j, v in row.items() if j in fixed)
        # (b) a row is kept only when its free columns can exceed its limit
        if sum(max(v, 0.0) for j, v in row.items() if j not in fixed) > limit:
            for j, v in sorted(row.items()):
                if j not in fixed:
                    rows.append(kept)
                    cols.append(j)
                    vals.append(v)
            right.append(limit)
            kept += 1
    reduced = sp.csc_array((vals, (rows, cols)), shape=(kept, matrix.shape[1]))
    reduced.sort_indices()
    return reduced, np.array(right), len(fixed)


def _check_mip_rows(genomes, sigma):
    cands, table = build_tables(genomes, sigma)
    program = solver._Capped(table)
    matrix, rhs, cost = _scipy_mip_rows(build_ilp(table))
    np.testing.assert_array_equal(program.start, matrix.indptr)
    np.testing.assert_array_equal(program.index, matrix.indices)
    np.testing.assert_array_equal(program.value, matrix.data)
    np.testing.assert_array_equal(program.rhs, rhs)
    np.testing.assert_allclose(program.cost, cost, rtol=1e-12)
    n_r = program.split[0]
    n_genes = len({g for c in cands if not c.is_telomere_triple for g in c.genes})
    reduced, right, fixed = _reduced_by_loops(matrix, rhs, n_genes, n_r)
    for handed, expected in zip(program.handed, (reduced.indptr, reduced.indices,
                                                  reduced.data, right)):
        np.testing.assert_array_equal(handed, expected)
    assert program.fixed == fixed
    return program


@pytest.mark.parametrize(
    "seed, n, chromosomes, family_rate", [(21, 40, 2, 0.0), (26, 70, 1, 0.2), (51, 120, 2, 0.1)]
)
def test_mip_rows_equal_the_scipy_sparse_build(seed, n, chromosomes, family_rate):
    program = _check_mip_rows(*evolved_instance(seed, n, chromosomes, family_rate))
    assert len(program.y_mask) == 0


@pytest.mark.parametrize("seed, n, emptied", [(25, 8, (2, 1, 1)), (34, 12, (0, 1, 2))])
def test_mip_rows_with_emptied_chromosomes_equal_the_scipy_sparse_build(seed, n, emptied):
    genomes, sigma = evolved_instance(seed, n, 1, 0.0, emptied=emptied)
    *genomes, _ = preprocess_discard_nonclique(*genomes, enumerate_candidates(*genomes, sigma))
    assert len(_check_mip_rows(genomes, sigma).y_mask)


def _check_optimum(genomes, sigma):
    g, h, i, _ = preprocess_discard_nonclique(*genomes, enumerate_candidates(*genomes, sigma))
    genomes = [g, h, i]
    cands, table = build_tables(genomes, sigma)
    reference = milp_objective(table)

    plain = solve_branch_and_bound(build_ilp(table))
    assert plain.status == STATUS_OPTIMAL
    assert abs(plain.objective - reference) <= GRID

    segs = icf_seg(genomes[0], table)
    reduced = solve_branch_and_bound(build_ilp(segs.reduced_table()))
    assert reduced.status == STATUS_OPTIMAL
    assert abs(segs.accepted_weight + reduced.objective - reference) <= GRID
    return cands, table


def test_solve_logs_the_highs_run_to_a_configured_caller(caplog):
    """The solver imports no `logging`, but a caller that has configured it
    gets the INFO record on the HiGHS run."""
    caplog.set_level(logging.INFO, logger="ffmedian.solver")
    _, table = build_tables(*evolved_instance(21, 40, 2, 0.0))
    solution = solve_branch_and_bound(build_ilp(table))
    assert solution.status == STATUS_OPTIMAL
    records = [r for r in caplog.records if r.name == "ffmedian.solver"]
    assert len(records) == 1 and records[0].levelno == logging.INFO
    assert records[0].getMessage().startswith("HiGHS: Optimal, LP integral ")


@pytest.mark.parametrize(
    "seed, n, family_rate",
    [(21, 40, 0.0), (22, 60, 0.1), (24, 100, 0.1), (26, 70, 0.2), (28, 90, 0.0)],
)
def test_optimum_matches_milp(seed, n, family_rate):
    """Two linear chromosomes per genome give 64 telomere triples, beyond
    the oracle's cap, so the reference optimum comes from a MILP solver."""
    cands, _ = _check_optimum(*evolved_instance(seed, n, 2, family_rate))
    assert sum(c.is_telomere_triple for c in cands) == 64


@pytest.mark.parametrize(
    "seed, n, family_rate, emptied",
    [(33, 10, 0.0, (2, 1, 0)), (34, 12, 0.1, (0, 1, 2)), (31, 6, 0.0, (1, 1, 1))],
)
def test_optimum_with_emptied_chromosomes_matches_milp(seed, n, family_rate, emptied):
    """Chromosomes of one gene that resembles nothing, emptied by
    preprocessing, give rows between two telomere triples: with one in
    every genome, rows conserved in all three."""
    _, table = _check_optimum(*evolved_instance(seed, n, 1, family_rate, emptied=emptied))
    masks = {int(table.mask[k]) for k in range(len(table))
             if table.candidates[table.m1[k]].is_telomere_triple
             and table.candidates[table.m2[k]].is_telomere_triple}
    assert masks == {s for s in range(1, 8) if all(emptied[x] for x in range(3) if s >> x & 1)}


def test_capacity_row_binds():
    """Each genome has two telomeres, and the best median without that
    limit would end more than two CARs on telomere triples: the capacity
    row cuts it back to the optimum of the paper's rows."""
    genomes, sigma = evolved_instance(20, 20, 1, 0.0)
    *genomes, _ = preprocess_discard_nonclique(*genomes, enumerate_candidates(*genomes, sigma))
    cands, table = build_tables(genomes, sigma)
    program = solver._Capped(table)
    room_row = len(program.rhs) - 1
    assert len(program.y_mask) == 0 and program.rhs[room_row] == 2
    highs = solver._import_scipy()
    loose = program.rhs.copy()
    loose[room_row] = 1000
    res = solver.linprog(highs, program.cost, program.start, program.index, program.value, loose)
    reference = milp_objective(table)
    assert -sum(x * c for x, c in zip(res.x, program.cost)) > reference + 0.1
    solution = solve_branch_and_bound(build_ilp(table))
    assert abs(solution.objective - reference) <= GRID


def test_the_model_file_is_removed_on_every_path(tmp_path, monkeypatch):
    """`linprog` hands HiGHS the program as an MPS file in `TMPDIR`; none is
    left after an optimal run, a run cut by the time limit, an infeasible
    program or a file that HiGHS rejects."""
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    written = []
    mkstemp = solver.tempfile.mkstemp

    def recording_mkstemp(*args, **kwargs):
        fd, path = mkstemp(*args, **kwargs)
        written.append(path)
        return fd, path

    monkeypatch.setattr(solver.tempfile, "mkstemp", recording_mkstemp)
    highs = solver._import_scipy()
    program = solver._Capped(build_tables(*evolved_instance(51, 120, 2, 0.1))[1])
    status = highs.HighsModelStatus
    runs = [
        (status.kOptimal, (program.cost, *program.handed)),
        (status.kTimeLimit, (program.cost, *program.handed, 1e-9)),
        (status.kInfeasible, ([-1.0], [0, 1], [0], [1.0], [-1.0])),
    ]
    for expected, args in runs:
        assert solver.linprog(highs, *args).status == expected
        assert os.path.dirname(written[-1]) == str(tmp_path)
        assert list(tmp_path.iterdir()) == []
    monkeypatch.setattr(solver, "_mps", lambda *args: "garbage\n")
    with pytest.raises(SolverError, match="HiGHS rejected the model"):
        solver.linprog(highs, program.cost, *program.handed)
    assert len(written) == 4 and list(tmp_path.iterdir()) == []


def test_rule_a_fixes_the_candidates_that_alone_hold_their_genes():
    """Identical genomes: a, b and c each hold their genes alone, so their
    selections are fixed and their columns handed empty.  Candidates that
    share a gene stay free: (a, a, a) and (a, b, b) share G's a, and (a, b,
    b) and (b, b, b) share H's and I's b."""
    cands, table = build_tables(*identical_genomes(("a", "b", "c")))
    program = solver._Capped(table)
    assert program.fixed == 3 and not np.diff(program.handed[0])[:3].any()
    G, H, I = (linear(label, [("a", 1), ("b", 1)]) for label in "GHI")
    sigma = diagonal_sigma(["a"])
    for x, y in (("G", "H"), ("G", "I"), ("H", "I")):
        sigma.set(Gene(x, "b"), Gene(y, "b"), 0.25)
    for y in "HI":
        sigma.set(Gene("G", "a"), Gene(y, "b"), 0.9)
    cands, table = build_tables([G, H, I], sigma)
    assert sum(not c.is_telomere_triple for c in cands) == 3
    assert solver._Capped(table).fixed == 0
    solution = solve_branch_and_bound(build_ilp(table))
    assert round(solution.objective / GRID) == round(brute_force_median(table).objective / GRID)


def test_rule_b_hands_only_the_rows_that_can_bind():
    """Identical genomes: with a, b and c fixed, each gene row is empty and
    each extremity row holds one adjacency or one cap, so HiGHS gets no
    row, and its LP vertex is the optimum.  Where the capacity row binds
    (see `test_capacity_row_binds`) it is handed, with every cap."""
    cands, table = build_tables(*identical_genomes(("a", "b", "c")))
    program = solver._Capped(table)
    assert len(program.handed[3]) == 0 < len(program.rhs)
    solution = solve_branch_and_bound(build_ilp(table))
    assert solution.lp_integral and solution.status == STATUS_OPTIMAL
    assert round(solution.objective / GRID) == round(brute_force_median(table).objective / GRID)
    genomes, sigma = evolved_instance(20, 20, 1, 0.0)
    *genomes, _ = preprocess_discard_nonclique(*genomes, enumerate_candidates(*genomes, sigma))
    program = solver._Capped(build_tables(genomes, sigma)[1])
    start, index, value, rhs = program.handed
    caps = program.split[2] - program.split[1]
    assert caps > 2 and rhs[-1] == 2
    assert index.count(len(rhs) - 1) == caps


class TestBruteForce:
    def test_cap_enforced(self):
        genomes, sigma = identical_genomes(("a", "b", "c"))
        cands, table = build_tables(genomes, sigma)
        with pytest.raises(OracleCapExceeded):
            brute_force_median(table, cap=3)

    def test_single_candidate_no_adjacency(self):
        genomes, sigma = identical_genomes(("a",), shape="circular")
        cands, table = build_tables(genomes, sigma)
        # candidate adjacencies pair two distinct candidates, so the lone
        # triple cannot circularize with itself and the objective is zero
        assert len(cands) == 1
        assert len(table) == 0
        solution = brute_force_median(table)
        assert solution.objective == 0.0

    def test_two_conflicting_candidates_pick_heavier(self):
        # same extant genes support two candidates; scores differ
        G = linear("G", [("a", 1), ("b", 1)])
        H = linear("H", [("a", 1), ("b", 1)])
        I = linear("I", [("a", 1), ("b", 1)])
        sigma = SimilarityGraph()
        for x, y in (("G", "H"), ("G", "I"), ("H", "I")):
            sigma.set(Gene(x, "a"), Gene(y, "a"), 1.0)
            sigma.set(Gene(x, "b"), Gene(y, "b"), 0.25)
        # crossing edges make (a,a,a) and the crossed triple conflict
        sigma.set(Gene("G", "a"), Gene("H", "b"), 0.9)
        sigma.set(Gene("G", "a"), Gene("I", "b"), 0.9)
        cands, table = build_tables([G, H, I], sigma)
        solution = brute_force_median(table)
        verify_solution(table, solution.row_indices, solution.objective)

    def test_collect_optima_contains_best(self):
        genomes, sigma, cands = random_small_instance(9)
        table = enumerate_conserved_adjacencies(cands, *genomes)
        solution, optima = brute_force_median(table, collect_optima=True)
        assert tuple(sorted(solution.row_indices)) in [tuple(o) for o in optima]
        for rows in optima:
            total = sum(float(table.weight[k]) for k in rows)
            assert total == pytest.approx(solution.objective, abs=1e-9)

    def test_matches_exhaustive_row_subsets(self):
        """The optimum, every optimum and the smallest one equal those of an
        enumeration of all row subsets in which each candidate extremity
        carries at most one row and each extant gene at most one chosen
        candidate."""
        instances = [
            gen(seed)
            for gen in (random_small_instance, random_blockish_instance)
            for seed in range(60)
        ]
        instances += [random_small_instance(seed, rng_genes=(3, 5)) for seed in range(60)]
        checked = 0
        for genomes, _, cands in instances:
            table = enumerate_conserved_adjacencies(cands, *genomes)
            if len(table) > 16:
                continue
            ends = [((table.key(k)[0], table.key(k)[1]), (table.key(k)[2], table.key(k)[3]))
                    for k in range(len(table))]
            valid = []
            for size in range(len(table) + 1):
                for rows in itertools.combinations(range(len(table)), size):
                    exts = [e for k in rows for e in ends[k]]
                    genes = [g for m in {m for m, _ in exts} for g in cands[m].genes]
                    if len(set(exts)) == len(exts) and len(set(genes)) == len(genes):
                        valid.append((sum(float(table.weight[k]) for k in rows), rows))
            best = max(value for value, _ in valid)
            expected = sorted(rows for value, rows in valid if value >= best - GRID)
            solution, optima = brute_force_median(table, collect_optima=True)
            assert solution.objective == pytest.approx(best, abs=GRID)
            assert optima == expected
            assert solution.row_indices == brute_force_median(table).row_indices
            assert solution.row_indices == expected[0]
            checked += 1
        assert checked >= 150


class TestVerify:
    def test_conflict_detected(self):
        genomes, sigma = identical_genomes(("a", "b"))
        cands, table = build_tables(genomes, sigma)
        conflicting = conflicts(cands)
        # two rows on four distinct extremities whose candidates clash: two
        # telomere triples that share a telomere, say
        clashing = next(
            (k, j)
            for k, j in itertools.combinations(range(len(table)), 2)
            if not {table.key(k)[:2], table.key(k)[2:]} & {table.key(j)[:2], table.key(j)[2:]}
            and any(conflicting(a, b)
                    for a in table.key(k)[::2] for b in table.key(j)[::2])
        )
        value = sum(table.weight[k] for k in clashing)
        with pytest.raises(SolverError, match="conflict"):
            verify_solution(table, clashing, value)

    def test_extremity_reuse_detected(self):
        genomes, sigma = identical_genomes(("a", "b", "c"))
        cands, table = build_tables(genomes, sigma)
        incident = {}
        for k in range(len(table)):
            m1, e1, m2, e2 = table.key(k)
            incident.setdefault((m1, e1), []).append(k)
        (ext, rows) = next((x, r) for x, r in incident.items() if len(r) >= 2)
        with pytest.raises(SolverError):
            verify_solution(table, rows[:2], sum(table.weight[k] for k in rows[:2]))
        # a's head meets b's tail in G and I, and c's tail in H: two rows at
        # one extremity whose candidates share no gene
        genomes = [linear(label, [(nm, 1) for nm in order]) for label, order in
                   zip("GHI", ("abc", "acb", "abc"))]
        cands, table = build_tables(genomes, diagonal_sigma(["a", "b", "c"]))
        rows = [k for k in range(len(table))
                if table.key(k)[:2] == (0, 1) and table.key(k)[2] in (1, 2)]
        assert len(rows) == 2
        with pytest.raises(SolverError, match="used twice"):
            verify_solution(table, rows, sum(table.weight[k] for k in rows))

    def test_objective_mismatch_detected(self):
        genomes, sigma = identical_genomes(("a", "b", "c"))
        cands, table = build_tables(genomes, sigma)
        solution = solve_branch_and_bound(build_ilp(table))
        verify_solution(table, solution.row_indices, solution.objective)
        with pytest.raises(SolverError, match="objective mismatch"):
            verify_solution(table, solution.row_indices, solution.objective + 1.0)


class TestCars:
    def test_chain_of_three(self):
        genomes, sigma = identical_genomes(("a", "b", "c"))
        cands, table = build_tables(genomes, sigma)
        names = {i: c.g.name for i, c in enumerate(cands)}
        rows = [
            k for k in range(len(table))
            if int(table.mask[k]) == 0b111
            and not cands[table.key(k)[0]].is_telomere_triple
            and not cands[table.key(k)[2]].is_telomere_triple
        ]
        cars = cars_from_rows(table, rows)
        assert len(cars) == 1
        car = cars[0]
        assert car.shape == "linear"
        assert [names[m] for m, _ in car.members] == ["a", "b", "c"]

    def test_two_gene_cycle_flagged_circular(self):
        genomes, sigma = identical_genomes(("a", "b"), shape="circular")
        cands, table = build_tables(genomes, sigma)
        rows = list(range(len(table)))
        cars = cars_from_rows(table, rows)
        assert len(cars) == 1
        assert cars[0].shape == "circular"
        assert len(cars[0].members) == 2

    def test_orientation_follows_entry_side(self):
        # a reversed middle gene flips orientation in the walk
        G = linear("G", [("a", 1), ("b", -1), ("c", 1)])
        H = linear("H", [("a", 1), ("b", -1), ("c", 1)])
        I = linear("I", [("a", 1), ("b", -1), ("c", 1)])
        sigma = diagonal_sigma(["a", "b", "c"])
        cands, table = build_tables([G, H, I], sigma)
        rows = [
            k for k in range(len(table))
            if int(table.mask[k]) == 0b111
            and not cands[table.key(k)[0]].is_telomere_triple
            and not cands[table.key(k)[2]].is_telomere_triple
        ]
        cars = cars_from_rows(table, rows)
        assert len(cars) == 1
        orientations = {
            cands[m].g.name: o for m, o in cars[0].members
        }
        assert orientations["b"] == -orientations["a"]
        assert orientations["a"] == orientations["c"]


class TestModelSizeGrowth:
    def test_variables_and_constraints_bounded(self):
        # complete similarity: the fifth-power envelope must hold
        counts = {}
        for n in (4, 6, 8):
            names = [f"x{k}" for k in range(n)]
            genomes = [linear(lab, [(nm, 1) for nm in names]) for lab in "GHI"]
            sigma = SimilarityGraph()
            for a, b in (("G", "H"), ("G", "I"), ("H", "I")):
                for x in names:
                    for y in names:
                        sigma.set(Gene(a, x), Gene(b, y), 1.0)
            cands, table = build_tables(genomes, sigma)
            model = build_ilp(table)
            counts[n] = counted_variables(model) + counted_constraints(model)
        for n, total in counts.items():
            assert total <= 6.0 * n ** 5
