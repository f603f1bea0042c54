"""Model construction, LP export, the exact search, and CAR assembly."""
import math
import random
import time

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, milp

from ffmedian import solver
from ffmedian.candidates import (
    enumerate_conserved_adjacencies,
    preprocess_discard_nonclique,
)
from ffmedian.genomes import Gene, SimilarityGraph
from ffmedian.segments import build_gamma, icf_seg, matching_weight, mwm
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
    brute_force_relaxed,
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
    random_small_instance,
)

# optimum of evolved_instance(5, 120, 6, 0.0), proven by an untimed solve
OPTIMUM_5_120_6 = 148.24905413225594


class TestBuildIlp:
    def test_empty_model(self):
        genomes, _ = identical_genomes()
        cands, table = build_tables(genomes, SimilarityGraph())
        table = table.subset(np.empty(0, dtype=np.int64))
        model = build_ilp([], table)
        assert model.counted_variables == 0
        assert model.counted_constraints == 0

    def test_single_fully_conserved_adjacency_coefficient(self):
        genomes, sigma = identical_genomes(("a", "b"), shape="circular")
        cands, table = build_tables(genomes, sigma)
        model = build_ilp(cands, table)
        assert model.n_a == 2
        assert model.n_b == 2
        assert sorted(model.table.weight.tolist()) == [3.0, 3.0]

    def test_counts(self, four_candidate_instance):
        genomes, sigma = four_candidate_instance
        cands, table = build_tables(genomes, sigma)
        model = build_ilp(cands, table)
        genes = {g for c in cands for g in c.genes}
        ext = sum(len(c.ends) for c in cands)
        assert model.counted_variables == len(cands) + len(table)
        assert model.counted_constraints == len(genes) + len(table) + ext


class TestExportLp:
    def test_empty_model_golden_bytes(self, tmp_path):
        genomes, _ = identical_genomes()
        cands, table = build_tables(genomes, SimilarityGraph())
        table = table.subset(np.empty(0, dtype=np.int64))
        model = build_ilp([], table)
        path = tmp_path / "empty.lp"
        export_lp(model, path)
        assert path.read_bytes() == b"Maximize\n obj:\nSubject To\nBinary\nEnd\n"

    def test_coefficient_format(self, tmp_path):
        genomes, sigma = identical_genomes(("a", "b"), shape="circular")
        cands, table = build_tables(genomes, sigma)
        model = build_ilp(cands, table)
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
        export_lp(build_ilp(cands, table), p1)
        cands2, table2 = build_tables(genomes, sigma)
        export_lp(build_ilp(cands2, table2), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestSolve:
    def test_no_candidates_is_empty_status(self):
        genomes, _ = identical_genomes()
        cands, table = build_tables(genomes, SimilarityGraph())
        table = table.subset(np.empty(0, dtype=np.int64))
        solution = solve_branch_and_bound(build_ilp([], table))
        assert solution.status == STATUS_EMPTY
        assert solution.objective == 0.0

    def test_matches_matching_on_conflict_free_instances(self):
        for seed in range(6):
            genomes, sigma = disjoint_clique_instance(seed, n=5 + seed % 3)
            cands, table = build_tables(genomes, sigma)
            gamma = build_gamma(cands, table)
            matched = matching_weight(gamma, mwm(gamma))
            solved = solve_branch_and_bound(build_ilp(cands, table)).objective
            assert round(matched / GRID) == round(solved / GRID)

    def test_oracle_equivalence_sample(self):
        for seed in range(40):
            genomes, sigma, cands = random_small_instance(seed, max_candidates=10)
            table = enumerate_conserved_adjacencies(cands, *genomes)
            bb = solve_branch_and_bound(build_ilp(cands, table))
            oracle = brute_force_median(cands, table)
            assert round(bb.objective / GRID) == round(oracle.objective / GRID)
            verify_solution(cands, table, bb.gene_indices, bb.row_indices, bb.objective)

    def test_time_limit_zero_returns_feasible_with_bound(self):
        genomes, sigma = identical_genomes(("a", "b", "c"))
        cands, table = build_tables(genomes, sigma)
        solution = solve_branch_and_bound(build_ilp(cands, table), time_limit=0)
        assert solution.status == STATUS_FEASIBLE
        assert solution.bound >= solution.objective - GRID
        assert solution.bound >= 12.0  # true optimum below the bound

    def test_scipy_import_counts_against_the_time_limit(self, monkeypatch):
        limits = []
        import_scipy, lp = solver._import_scipy, solver.linprog

        def slow_import():
            time.sleep(0.3)
            import_scipy()

        def recording(*args, options, **kwargs):
            limits.append(options["time_limit"])
            return lp(*args, options=options, **kwargs)

        monkeypatch.setattr(solver, "_import_scipy", slow_import)
        monkeypatch.setattr(solver, "linprog", recording)
        genomes, sigma = identical_genomes(("a", "b", "c"))
        cands, table = build_tables(genomes, sigma)
        solution = solve_branch_and_bound(build_ilp(cands, table), time_limit=60)
        assert solution.status == STATUS_OPTIMAL
        assert len(limits) == 1 and limits[0] <= 60 - 0.3

    def test_relaxing_extremity_rule_only_gains(self):
        for seed in range(12):
            genomes, sigma, cands = random_small_instance(seed, max_candidates=10)
            table = enumerate_conserved_adjacencies(cands, *genomes)
            strict = brute_force_median(cands, table).objective
            relaxed = brute_force_relaxed(cands, table)
            assert relaxed >= strict - GRID

    def test_deterministic_across_repeated_solves(self):
        genomes, sigma, cands = random_small_instance(5)
        table = enumerate_conserved_adjacencies(cands, *genomes)
        a = solve_branch_and_bound(build_ilp(cands, table))
        b = solve_branch_and_bound(build_ilp(cands, table))
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
        model = build_ilp(cands, table)
        greedy_value, _ = solver._greedy_incumbent(model)
        start = time.monotonic()
        limited = solve_branch_and_bound(model, time_limit=time_limit)
        assert time.monotonic() - start < time_limit + 1.0
        assert limited.status == STATUS_FEASIBLE
        assert limited.nodes_explored == 0
        assert limited.objective >= greedy_value
        assert limited.objective <= limited.bound
        assert limited.bound >= OPTIMUM_5_120_6 - GRID


def _milp_objective(cands, table) -> float:
    """Optimum of the full 0-1 program by HiGHS's MILP solver.

    The rows are those `export_lp` writes: one conflict row per extant gene,
    one coupling row per adjacency, one saturation row per candidate
    extremity.
    """
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
    genes = np.nonzero(res.x[:n_a] > 0.5)[0]
    chosen = np.nonzero(res.x[n_a:] > 0.5)[0]
    verify_solution(cands, table, genes, chosen)
    return float(np.sum(table.weight[chosen]))


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
    reference = _milp_objective(cands, table)

    plain = solve_branch_and_bound(build_ilp(cands, table))
    assert plain.status == STATUS_OPTIMAL
    assert abs(plain.objective - reference) <= GRID

    segs = icf_seg(genomes[0], cands, table)
    reduced = solve_branch_and_bound(build_ilp(cands, segs.reduced_table()))
    assert reduced.status == STATUS_OPTIMAL
    assert abs(segs.accepted_weight + reduced.objective - reference) <= GRID


class TestBruteForce:
    def test_cap_enforced(self):
        genomes, sigma = identical_genomes(("a", "b", "c"))
        cands, table = build_tables(genomes, sigma)
        with pytest.raises(OracleCapExceeded):
            brute_force_median(cands, table, cap=3)

    def test_single_candidate_no_adjacency(self):
        genomes, sigma = identical_genomes(("a",), shape="circular")
        cands, table = build_tables(genomes, sigma)
        # candidate adjacencies pair two distinct candidates, so the lone
        # triple cannot circularize with itself and the objective is zero
        assert len(cands) == 1
        assert len(table) == 0
        solution = brute_force_median(cands, table)
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
        solution = brute_force_median(cands, table)
        verify_solution(cands, table, solution.gene_indices, solution.row_indices)

    def test_collect_optima_contains_best(self):
        genomes, sigma, cands = random_small_instance(9)
        table = enumerate_conserved_adjacencies(cands, *genomes)
        solution, optima = brute_force_median(cands, table, collect_optima=True)
        assert tuple(sorted(solution.row_indices)) in [tuple(o) for o in optima]
        for rows in optima:
            total = sum(float(table.weight[k]) for k in rows)
            assert total == pytest.approx(solution.objective, abs=1e-9)


class TestVerify:
    def test_conflict_detected(self):
        genomes, sigma = identical_genomes(("a", "b"))
        cands, table = build_tables(genomes, sigma)
        clashing = [
            i for i, c in enumerate(cands) if c.is_telomere_triple
        ][:2]  # telomere triples share telomeres
        with pytest.raises(SolverError, match="conflict"):
            verify_solution(cands, table, clashing, [])

    def test_extremity_reuse_detected(self):
        genomes, sigma = identical_genomes(("a", "b", "c"))
        cands, table = build_tables(genomes, sigma)
        incident = {}
        for k in range(len(table)):
            m1, e1, m2, e2 = table.key(k)
            incident.setdefault((m1, e1), []).append(k)
        (ext, rows) = next((x, r) for x, r in incident.items() if len(r) >= 2)
        genes = set()
        for k in rows[:2]:
            m1, _, m2, _ = table.key(k)
            genes.update((m1, m2))
        with pytest.raises(SolverError):
            verify_solution(cands, table, genes, rows[:2])


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
        genes = set()
        for k in rows:
            genes.update((table.key(k)[0], table.key(k)[2]))
        cars = cars_from_rows(cands, table, genes, rows)
        assert len(cars) == 1
        car = cars[0]
        assert car.shape == "linear"
        assert [names[m] for m, _ in car.members] == ["a", "b", "c"]

    def test_two_gene_cycle_flagged_circular(self):
        genomes, sigma = identical_genomes(("a", "b"), shape="circular")
        cands, table = build_tables(genomes, sigma)
        rows = list(range(len(table)))
        genes = {table.key(k)[0] for k in rows} | {table.key(k)[2] for k in rows}
        cars = cars_from_rows(cands, table, genes, rows)
        assert len(cars) == 1
        assert cars[0].shape == "circular"
        assert len(cars[0].members) == 2

    def test_adjacency_free_genes_become_singletons(self):
        genomes, sigma = identical_genomes(("a", "b", "c"))
        cands, table = build_tables(genomes, sigma)
        gene_triples = [i for i, c in enumerate(cands) if not c.is_telomere_triple]
        cars = cars_from_rows(cands, table, gene_triples, [])
        assert len(cars) == len(gene_triples)
        assert all(car.shape == "linear" and len(car.members) == 1 for car in cars)

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
        genes = set()
        for k in rows:
            genes.update((table.key(k)[0], table.key(k)[2]))
        cars = cars_from_rows(cands, table, genes, rows)
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
            model = build_ilp(cands, table)
            counts[n] = model.counted_variables + model.counted_constraints
        for n, total in counts.items():
            assert total <= 6.0 * n ** 5
