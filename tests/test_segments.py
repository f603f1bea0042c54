"""Matching graph, potentials, run detection, and safe extraction."""
import itertools
import logging
import math
import random

import numpy as np
import pytest

from ffmedian import segments
from ffmedian.genomes import Gene, SimilarityGraph, build_genome
from ffmedian.segments import (
    Flags,
    Incidence,
    MatchGraph,
    SegmentConflictCapError,
    build_gamma,
    build_gamma_prime,
    detect_runs,
    icf_seg,
    matching_weight,
    mwm,
    potential,
)
from ffmedian.reference import brute_force_median
from ffmedian.solver import build_ilp, solve_branch_and_bound

from conftest import (
    build_tables,
    diagonal_sigma,
    evolved_instance,
    identical_genomes,
    linear,
    random_blockish_instance,
)


def gene_rows(cands, table):
    return [
        k
        for k in range(len(table))
        if not cands[table.key(k)[0]].is_telomere_triple
        and not cands[table.key(k)[2]].is_telomere_triple
    ]


class TestGamma:
    def test_fully_conserved_unit_cliques_weight_three(self):
        genomes, sigma = identical_genomes(("a", "b"), shape="circular")
        cands, table = build_tables(genomes, sigma)
        gamma = build_gamma(table)
        weights = sorted(w for _, _, w in gamma.edges)
        assert weights == [3.0, 3.0]  # both adjacencies of the 2-cycle

    def test_non_conserved_pairs_missing(self):
        G = linear("G", [("a", 1), ("z", 1), ("b", 1)])
        H = linear("H", [("a", 1), ("x", 1), ("b", 1)])
        I = linear("I", [("b", 1), ("y", 1), ("a", 1)])
        cands, table = build_tables([G, H, I], diagonal_sigma(["a", "b"]))
        gamma = build_gamma(table)
        keys = {frozenset((u // 3, v // 3)) for u, v, _ in gamma.edges}
        a = next(i for i, c in enumerate(cands) if c.g.name == "a")
        b = next(i for i, c in enumerate(cands) if c.g.name == "b")
        assert frozenset((a, b)) not in keys

    def test_two_genome_conservation_weight(self):
        # triple scores 1 and 2^-6 with two conserving genomes -> 0.5 * 2
        G = linear("G", [("a", 1), ("b", 1)])
        H = linear("H", [("a", 1), ("b", 1)])
        I = linear("I", [("b", 1), ("a", 1)])
        sigma = SimilarityGraph()
        for x, y in (("G", "H"), ("G", "I"), ("H", "I")):
            sigma.set(Gene(x, "a"), Gene(y, "a"), 1.0)
            sigma.set(Gene(x, "b"), Gene(y, "b"), 0.25)
        cands, table = build_tables([G, H, I], sigma)
        a = next(i for i, c in enumerate(cands) if c.g.name == "a")
        b = next(i for i, c in enumerate(cands) if c.g.name == "b")
        assert cands[b].triple_score == pytest.approx(2.0 ** -6)
        gamma = build_gamma(table)
        weights = sorted(
            round(w, 9) for u, v, w in gamma.edges if {u // 3, v // 3} == {a, b}
        )
        # head-tail conserved in G and H (0.5 * 2), the wrap pair only in I
        assert weights == [0.5, 1.0]


def brute_force_matching(graph: MatchGraph) -> float:
    edges = list(graph.edges)
    best = 0.0
    for r in range(len(edges) + 1):
        for combo in itertools.combinations(edges, r):
            used = set()
            ok = True
            for u, v, _ in combo:
                if u in used or v in used:
                    ok = False
                    break
                used.add(u)
                used.add(v)
            if ok:
                best = max(best, sum(w for _, _, w in combo))
    return best


class TestMwm:
    def test_triangle(self):
        graph = MatchGraph(
            nodes=((0, 0), (1, 0), (2, 0)),
            edges=(
                ((0, 0), (1, 0), 1.0),
                ((1, 0), (2, 0), 1.0),
                ((0, 0), (2, 0), 1.0),
            ),
        )
        matching = mwm(graph)
        assert len(matching) == 1
        assert matching_weight(graph, matching) == pytest.approx(1.0)

    def test_path_prefers_heavy_edge(self):
        graph = MatchGraph(
            nodes=((0, 0), (1, 0), (2, 0)),
            edges=(((0, 0), (1, 0), 2.0), ((1, 0), (2, 0), 1.0)),
        )
        matching = mwm(graph)
        assert matching == frozenset({((0, 0), (1, 0))})

    def test_matches_exhaustive_enumeration(self):
        # random graphs of degree <= 2, the only graphs `mwm` accepts
        for seed in range(20):
            rng = random.Random(seed)
            n = rng.randint(4, 9)
            nodes = tuple((k, 0) for k in range(n))
            pairs = list(itertools.combinations(range(n), 2))
            rng.shuffle(pairs)
            degree = [0] * n
            edges = []
            for a, b in pairs:
                if rng.random() < 0.5 and degree[a] < 2 and degree[b] < 2:
                    degree[a] += 1
                    degree[b] += 1
                    edges.append(((a, 0), (b, 0), round(rng.uniform(0.1, 3.0), 3)))
            graph = MatchGraph(nodes, tuple(edges))
            value = matching_weight(graph, mwm(graph))
            assert value == pytest.approx(brute_force_matching(graph), abs=1e-9)


class TestPotential:
    def setup_instance(self):
        genomes, sigma = identical_genomes(("a", "b", "c"))
        cands, table = build_tables(genomes, sigma)
        return cands, table

    def test_isolated_candidate(self):
        G = linear("G", [("a", 1), ("z", 1), ("b", 1)])
        H = linear("H", [("a", 1), ("x", 1), ("b", 1)])
        I = linear("I", [("b", 1), ("y", 1), ("a", 1)])
        cands, table = build_tables([G, H, I], diagonal_sigma(["a", "b"]))
        rows = [k for k in gene_rows(cands, table)]
        a = next(i for i, c in enumerate(cands) if c.g.name == "a")
        incidence = Incidence(table, row_alive=Flags(len(table)))  # no row live
        assert potential(a, incidence) == 0.0

    def test_head_and_tail_maxima_sum(self):
        cands, table = self.setup_instance()
        b = next(i for i, c in enumerate(cands) if c.g.name == "b")
        # b sits between a and c with unit scores: both sides carry 3
        assert potential(b, Incidence(table)) == pytest.approx(6.0)

    def test_single_sided(self):
        genomes, sigma = identical_genomes(("a", "b"), shape="circular")
        cands, table = build_tables(genomes, sigma)
        incidence = Incidence(table)
        a = next(i for i, c in enumerate(cands) if c.g.name == "a")
        assert potential(a, incidence) == pytest.approx(6.0)

    def test_constructed_maxima(self):
        # one incident pair of 2.0 on the head and 1.5 on the tail
        cands, _ = self.setup_instance()

        class FakeIncidence:
            ends = [c.ends for c in cands]

            def best_weight(self, code):
                return {1: 2.0, 0: 1.5}.get(code % 3, 0.0)

        b = next(i for i, c in enumerate(cands) if c.g.name == "b")
        assert potential(b, FakeIncidence()) == pytest.approx(3.5)


class TestRuns:
    def test_identical_genomes_single_spanning_run(self):
        genomes, sigma = identical_genomes(("a", "b", "c"))
        cands, table = build_tables(genomes, sigma)
        runs = detect_runs(genomes[0], table)
        assert len(runs) == 1
        run = runs[0]
        assert [cands[m].g.name for m in run.members] == ["a", "b", "c"]
        assert len(run.internal_rows) == 2

    def test_single_shared_adjacency_two_gene_run(self):
        G = linear("G", [("a", 1), ("b", 1), ("c", 1), ("d", 1)])
        H = linear("H", [("c", 1), ("a", 1), ("b", 1), ("d", 1)])
        I = linear("I", [("d", 1), ("a", 1), ("b", 1), ("c", 1)])
        sigma = diagonal_sigma(["a", "b", "c", "d"])
        cands, table = build_tables([G, H, I], sigma)
        runs = detect_runs(G, table)
        named = [[cands[m].g.name for m in run.members] for run in runs]
        assert ["a", "b"] in named
        assert all(len(r) == 2 for r in named)

    def test_conflicting_candidates_split_runs(self, four_candidate_instance):
        genomes, sigma = four_candidate_instance
        cands, table = build_tables(genomes, sigma)
        runs = detect_runs(genomes[0], table)
        m3 = next(i for i, c in enumerate(cands) if c.g.name == "g3")
        m4 = next(i for i, c in enumerate(cands) if c.g.name == "g4")
        for run in runs:
            assert not ({m3, m4} <= set(run.members))

    def test_full_reversal_recognized(self):
        G = linear("G", [("a", 1), ("b", 1), ("c", 1)])
        H = linear("H", [("c", -1), ("b", -1), ("a", -1)])
        I = linear("I", [("a", 1), ("b", 1), ("c", 1)])
        sigma = diagonal_sigma(["a", "b", "c"])
        cands, table = build_tables([G, H, I], sigma)
        runs = detect_runs(G, table)
        assert len(runs) == 1 and len(runs[0].members) == 3

    def test_circular_whole_chromosome_run(self):
        genomes, sigma = identical_genomes(("a", "b", "c"), shape="circular")
        cands, table = build_tables(genomes, sigma)
        runs = detect_runs(genomes[0], table)
        assert len(runs) == 1
        assert runs[0].circular
        assert len(runs[0].internal_rows) == 3


def gamma_prime(run, table):
    """Γ′ of a run on the whole instance: every candidate and row live."""
    return build_gamma_prime(run, Incidence(table))


class TestGammaPrime:
    def test_no_external_conflicts_no_conflict_edges(self):
        genomes, sigma = identical_genomes(("a", "b", "c"))
        cands, table = build_tables(genomes, sigma)
        runs = detect_runs(genomes[0], table)
        gp = gamma_prime(runs[0], table)
        ends = {frozenset((u, v)) for u, v, _ in gp.edges}
        for m in runs[0].members:
            assert frozenset(((m, 0), (m, 1))) not in ends

    def test_conflict_edge_weights(self):
        # two genomes agree on the a-b block; x conflicts with b via H
        G = linear("G", [("a", 1), ("b", 1)])
        H = linear("H", [("a", 1), ("b", 1)])
        I = linear("I", [("a", 1), ("b", 1)])
        sigma = diagonal_sigma(["a", "b"])
        sigma.set(Gene("G", "a"), Gene("H", "b"), 0.9)  # crossing candidate
        sigma.set(Gene("G", "a"), Gene("I", "a"), 1.0)
        cands, table = build_tables([G, H, I], sigma)
        runs = detect_runs(G, table)
        if runs:
            gp = gamma_prime(runs[0], table)
            # every conflict edge weight equals the best conflict-free
            # potential sum, which is bounded by the sum of potentials
            incidence = Incidence(table)
            for u, v, w in gp.edges:
                if u // 3 == v // 3:
                    external = [
                        c for c in incidence.conflicts_of(u // 3)
                        if c not in runs[0].members
                    ]
                    assert w <= sum(potential(c, incidence) for c in external) + 1e-9

    def test_cap_exceeded_raises(self, monkeypatch):
        genomes, sigma = identical_genomes(("a", "b"))
        cands, table = build_tables(genomes, sigma)
        runs = detect_runs(genomes[0], table)
        monkeypatch.setattr(segments, "CONFLICT_CAP", -1)
        with pytest.raises(SegmentConflictCapError):
            gamma_prime(runs[0], table)

    def test_subset_maximization_examples(self):
        from ffmedian.segments import _max_conflict_free_potential

        class FakeConflict:
            def __init__(self, pairs):
                self.pairs = pairs

            def conflicts_of(self, a):
                return sorted({b for pair in self.pairs if a in pair for b in pair} - {a})

        # singleton
        assert _max_conflict_free_potential([7], {7: 4.0}, FakeConflict(set())) == 4.0
        # two mutually conflicting candidates keep the heavier one
        assert _max_conflict_free_potential(
            [1, 2], {1: 3.0, 2: 5.0}, FakeConflict({(1, 2)})
        ) == 5.0
        # independent pair sums
        assert _max_conflict_free_potential(
            [1, 2], {1: 3.0, 2: 5.0}, FakeConflict(set())
        ) == 8.0


class TestIcfSeg:
    def test_identical_genomes_accept_gene_run(self):
        genomes, sigma = identical_genomes(("a", "b", "c"))
        cands, table = build_tables(genomes, sigma)
        result = icf_seg(genomes[0], table)
        assert len(result.accepted) == 1
        assert result.accepted_weight == pytest.approx(6.0)
        full = solve_branch_and_bound(build_ilp(table))
        reduced = solve_branch_and_bound(build_ilp(result.reduced_table()))
        assert result.accepted_weight + reduced.objective == pytest.approx(
            full.objective
        )

    def test_rejection_keeps_instance_unchanged(self):
        # a heavy external conflict makes the matching prefer the conflict
        # edge, so the segment is rejected and nothing is masked
        G = linear("G", [("a", 1), ("b", 1), ("p", 1), ("q", 1)])
        H = linear("H", [("a", 1), ("b", 1), ("p", 1), ("q", 1)])
        I = linear("I", [("p", 1), ("q", 1), ("a", 1), ("b", 1)])
        sigma = diagonal_sigma(["a", "b"], value=0.4)
        for nm in ("p", "q"):
            sigma.set(Gene("G", nm), Gene("H", nm), 1.0)
            sigma.set(Gene("G", nm), Gene("I", nm), 1.0)
            sigma.set(Gene("H", nm), Gene("I", nm), 1.0)
        # crossing similarities create conflicts between the two blocks
        sigma.set(Gene("G", "a"), Gene("H", "p"), 1.0)
        sigma.set(Gene("G", "a"), Gene("I", "p"), 1.0)
        sigma.set(Gene("H", "p"), Gene("I", "p"), 1.0)
        genomes = [G, H, I]
        cands, table = build_tables(genomes, sigma)
        result = icf_seg(genomes[0], table)
        for run in result.accepted:
            for m in run.members:
                assert cands[m].triple_score == 1.0

    def test_safety_and_preservation_on_random_instances(self):
        hits = 0
        for seed in range(30):
            genomes, sigma, cands = random_blockish_instance(seed)
            from ffmedian.candidates import enumerate_conserved_adjacencies

            table = enumerate_conserved_adjacencies(cands, *genomes)
            result = icf_seg(genomes[0], table)
            oracle, optima = brute_force_median(table, collect_optima=True)
            reduced = brute_force_median(result.reduced_table())
            assert result.accepted_weight + reduced.objective == pytest.approx(
                oracle.objective, rel=1e-6
            )
            accepted = frozenset(result.accepted_rows)
            if accepted:
                hits += 1
                assert any(accepted <= set(opt) for opt in optima)
        assert hits > 5  # the check must not be vacuous

    def test_deadline_keeps_a_prefix_of_the_accepted_runs(self, monkeypatch):
        genomes, sigma = evolved_instance(31, 200, 2, 0.0)
        cands, table = build_tables(genomes, sigma)
        full = icf_seg(genomes[0], table)
        runs = full.accepted
        assert len(runs) > 20
        far = icf_seg(genomes[0], table, deadline=math.inf)
        assert far.accepted == runs
        assert np.array_equal(far.row_alive, full.row_alive)

        class FakeClock:
            """One second per reading, from 1 on."""
            now = 0

            def monotonic(self):
                self.now += 1
                return self.now

        for deadline in (0, 5, 20):
            monkeypatch.setattr(segments, "time", FakeClock())
            cut = icf_seg(genomes[0], table, deadline=deadline)
            got = cut.accepted
            assert len(got) < len(runs) and got == runs[: len(got)]
            assert int((~cut.row_alive).sum()) < int((~full.row_alive).sum())
        assert cut.accepted

    def test_info_line_counts_runs_skipped_at_the_conflict_cap(self, caplog, monkeypatch):
        genomes, sigma = evolved_instance(33, 200, 2, 0.1)
        caplog.set_level(logging.INFO, logger="ffmedian.segments")
        monkeypatch.setattr(segments, "CONFLICT_CAP", 0)
        result = icf_seg(genomes[0], build_tables(genomes, sigma)[1])
        messages = [record.getMessage() for record in caplog.records]
        skips = sum(m.startswith("skipping segment") for m in messages)
        summary = [m for m in messages if m.startswith("icf-seg:")]
        assert skips > 0 and len(summary) == 1
        assert f"{len(result.accepted)} accepted, {skips} skipped at the conflict cap" in summary[0]
