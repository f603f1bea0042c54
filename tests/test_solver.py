"""Model construction, LP export, the exact search, and CAR assembly."""
import itertools
import math
import random
import time
import types

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, milp

from ffmedian import solver
from ffmedian.candidates import (
    ConflictIndex,
    enumerate_conserved_adjacencies,
    preprocess_discard_nonclique,
)
from ffmedian.genomes import Gene, SimilarityGraph
from ffmedian.segments import build_gamma, icf_seg, matching_weight
from ffmedian.solver import (
    GRID,
    STATUS_EMPTY,
    STATUS_FEASIBLE,
    STATUS_OPTIMAL,
    Car,
    MedianSolution,
    OracleCapExceeded,
    SolverError,
    brute_force_median,
    build_ilp,
    cars_from_rows,
    export_lp,
    solve_branch_and_bound,
    verify_solution,
)

from conftest import (
    build_tables,
    diagonal_sigma,
    disjoint_clique_instance,
    evolved_instance,
    identical_genomes,
    linear,
    random_blockish_instance,
    random_small_instance,
)
from test_matching import blossom

# optimum of evolved_instance(5, 120, 6, 0.0), proven by an untimed solve
OPTIMUM_5_120_6 = 148.24905413225594


def empty_table():
    """An instance without candidates: circular genomes, no similarities."""
    genomes, _ = identical_genomes(shape="circular")
    cands, table = build_tables(genomes, SimilarityGraph())
    assert cands == [] and len(table) == 0
    return table


class TestBuildIlp:
    def test_empty_model(self):
        table = empty_table()
        model = build_ilp(table)
        assert model.counted_variables == 0
        assert model.counted_constraints == 0

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
        assert model.counted_variables == len(cands) + len(table)
        assert model.counted_constraints == len(genes) + len(table) + ext


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
        genomes, sigma, cands = random_small_instance(5)
        table = enumerate_conserved_adjacencies(cands, *genomes)
        a = solve_branch_and_bound(build_ilp(table))
        b = solve_branch_and_bound(build_ilp(table))
        assert a.row_indices == b.row_indices
        assert a.objective == b.objective

    @pytest.mark.parametrize(
        "time_limit",
        [1.5, 0.3],
        ids=["between-cut-rounds", "at-the-first-node"],
    )
    def test_deadline_holds_at_the_root(self, time_limit):
        # 1833 candidates, 1728 of them telomere triples: HiGHS solves this
        # at its root node in a few seconds.  After 0.3 s it holds no root LP
        # bound and no good point; after 1.5 s it is separating cuts.
        genomes, sigma = evolved_instance(5, 120, 6, 0.0)
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
        assert limited.bound >= OPTIMUM_5_120_6 - GRID


def _scipy_mip_rows(model):
    """Reference for `solver._mip_rows`: the same (row, column, value)
    entries as a scipy.sparse CSR matrix, converted to CSC."""
    table = model.table
    n_a, n_b = model.n_a, model.n_b
    gene_num = {}
    cand_gene = [gene_num.setdefault(g, len(gene_num)) for c in table.candidates for g in c.genes]
    ext_keys = np.concatenate([table.m1 * 3 + table.e1, table.m2 * 3 + table.e2])
    ext, ext_row = np.unique(ext_keys.astype(np.int64), return_inverse=True)
    n_genes = len(gene_num)
    rows = np.concatenate([cand_gene, n_genes + ext_row, n_genes + np.arange(ext.size)])
    cols = np.concatenate(
        [np.repeat(np.arange(n_a), 3), n_a + np.tile(np.arange(n_b), 2), ext // 3]
    )
    vals = np.concatenate([np.ones(3 * n_a + 2 * n_b), -np.ones(ext.size)])
    matrix = sp.csr_matrix((vals, (rows, cols)), shape=(n_genes + ext.size, n_a + n_b))
    rhs = np.concatenate([np.ones(n_genes), np.zeros(ext.size)])
    return sp.csc_array(matrix), rhs


@pytest.mark.parametrize(
    "seed, n, chromosomes, family_rate", [(21, 40, 2, 0.0), (26, 70, 1, 0.2), (51, 120, 2, 0.1)]
)
def test_mip_rows_equal_the_scipy_sparse_build(seed, n, chromosomes, family_rate):
    cands, table = build_tables(*evolved_instance(seed, n, chromosomes, family_rate))
    model = build_ilp(table)
    start, index, value, rhs = solver._mip_rows(model)
    matrix, reference_rhs = _scipy_mip_rows(model)
    np.testing.assert_array_equal(start, matrix.indptr)
    np.testing.assert_array_equal(index, matrix.indices)
    np.testing.assert_array_equal(value, matrix.data)
    np.testing.assert_array_equal(rhs, reference_rhs)


def _milp_objective(table) -> float:
    """Optimum of the full 0-1 program by HiGHS's MILP solver.

    The rows are those `export_lp` writes: one conflict row per extant gene,
    one coupling row per adjacency, one saturation row per candidate
    extremity.
    """
    cands = table.candidates
    n_a, n_b = len(cands), len(table)
    rows, cols, vals, rhs = [], [], [], []

    def row(entries, limit):
        for col, val in entries:
            rows.append(len(rhs))
            cols.append(col)
            vals.append(val)
        rhs.append(limit)

    by_gene, by_ext = {}, {}
    for i, cand in enumerate(cands):
        for gene in cand.genes:
            by_gene.setdefault(gene, []).append(i)
    for members in by_gene.values():
        row([(i, 1.0) for i in members], 1.0)
    for k in range(n_b):
        m1, e1, m2, e2 = table.key(k)
        row([(n_a + k, 2.0), (m1, -1.0), (m2, -1.0)], 0.0)
        by_ext.setdefault((m1, e1), []).append(k)
        by_ext.setdefault((m2, e2), []).append(k)
    for incident in by_ext.values():
        row([(n_a + k, 1.0) for k in incident], 1.0)
    matrix = sp.csr_matrix((vals, (rows, cols)), shape=(len(rhs), n_a + n_b))
    res = milp(
        np.concatenate([np.zeros(n_a), -np.asarray(table.weight)]),
        constraints=LinearConstraint(matrix, -np.inf, rhs),
        integrality=np.ones(n_a + n_b),
        bounds=Bounds(0, 1),
        options={"mip_rel_gap": 0},
    )
    assert res.status == 0
    chosen = np.nonzero(res.x[n_a:] > 0.5)[0]
    assert set(table.genes(chosen)) <= set(np.nonzero(res.x[:n_a] > 0.5)[0].tolist())
    value = float(np.sum(table.weight[chosen]))
    verify_solution(table, chosen, value)
    return value


@pytest.mark.parametrize(
    "seed, n, family_rate",
    [(21, 40, 0.0), (22, 60, 0.1), (24, 100, 0.1), (26, 70, 0.2), (28, 90, 0.0)],
)
def test_optimum_matches_milp(seed, n, family_rate):
    """Two linear chromosomes per genome give 64 telomere triples, beyond
    the oracle's cap, so the reference optimum comes from a MILP solver."""
    genomes, sigma = evolved_instance(seed, n, 2, family_rate)
    g, h, i, _ = preprocess_discard_nonclique(*genomes, sigma)
    genomes = [g, h, i]
    cands, table = build_tables(genomes, sigma)
    assert sum(c.is_telomere_triple for c in cands) == 64
    reference = _milp_objective(table)

    plain = solve_branch_and_bound(build_ilp(table))
    assert plain.status == STATUS_OPTIMAL
    assert abs(plain.objective - reference) <= GRID

    segs = icf_seg(genomes[0], table)
    reduced = solve_branch_and_bound(build_ilp(segs.reduced_table()))
    assert reduced.status == STATUS_OPTIMAL
    assert abs(segs.accepted_weight + reduced.objective - reference) <= GRID


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
        conflict = ConflictIndex(cands)
        # two rows on four distinct extremities whose candidates clash: two
        # telomere triples that share a telomere, say
        clashing = next(
            (k, j)
            for k, j in itertools.combinations(range(len(table)), 2)
            if not {table.key(k)[:2], table.key(k)[2:]} & {table.key(j)[:2], table.key(j)[2:]}
            and any(conflict.conflicting(a, b)
                    for a in table.key(k)[::2] for b in table.key(j)[::2])
        )
        value = float(table.weight[list(clashing)].sum())
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
            verify_solution(table, rows[:2], float(table.weight[rows[:2]].sum()))

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
            counts[n] = model.counted_variables + model.counted_constraints
        for n, total in counts.items():
            assert total <= 6.0 * n ** 5
