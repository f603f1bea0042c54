"""Candidate enumeration, scoring, conflicts, conserved adjacencies."""
import itertools
import math
import random

import pytest

from ffmedian.candidates import (
    CandidateGene,
    ConflictIndex,
    adjacency_score,
    enumerate_candidates,
    enumerate_conserved_adjacencies,
    median_adjacency_weight,
    preprocess_discard_nonclique,
)
from ffmedian.genomes import Extremity, Gene, SimilarityGraph, build_genome, indicator

from conftest import build_tables, diagonal_sigma, identical_genomes, linear


def gene_triples(cands):
    return [c for c in cands if not c.is_telomere_triple]


def find(cands, g, h, i):
    for idx, c in enumerate(cands):
        if (c.g.name, c.h.name, c.i.name) == (g, h, i):
            return idx
    raise KeyError((g, h, i))


class TestEnumeration:
    def test_four_candidate_instance(self, four_candidate_instance):
        genomes, sigma = four_candidate_instance
        cands = enumerate_candidates(*genomes, sigma)
        triples = {
            (c.g.name, c.h.name, c.i.name) for c in gene_triples(cands)
        }
        assert triples == {
            ("g1", "h1", "i2"),
            ("g2", "h2", "i1"),
            ("g3", "h3", "i2"),
            ("g4", "h3", "i3"),
        }
        for c in gene_triples(cands):
            assert c.triple_score == pytest.approx(0.125)
            assert abs(c.gene_score ** 3 - c.triple_score) <= 1e-12 * c.triple_score

    def test_empty_similarity_leaves_telomere_triples(self):
        genomes, _ = identical_genomes()
        cands = enumerate_candidates(*genomes, SimilarityGraph())
        assert gene_triples(cands) == []
        assert len(cands) == 8  # 2 telomeres per genome, all combinations
        assert all(c.triple_score == 1.0 for c in cands)

    def test_complete_tripartite_cubed(self):
        names = [f"x{k}" for k in range(4)]
        genomes = [linear(label, [(nm, 1) for nm in names]) for label in "GHI"]
        sigma = SimilarityGraph()
        for a, b in (("G", "H"), ("G", "I"), ("H", "I")):
            for x in names:
                for y in names:
                    sigma.set(Gene(a, x), Gene(b, y), 0.5)
        cands = enumerate_candidates(*genomes, sigma)
        assert len(gene_triples(cands)) == 4 ** 3

    def test_matches_bruteforce_triangle_scan(self):
        for seed in range(8):
            rng = random.Random(seed)
            n = rng.randint(4, 9)
            names = [f"x{k}" for k in range(n)]
            genomes = [linear(label, [(nm, 1) for nm in names]) for label in "GHI"]
            sigma = SimilarityGraph()
            values = {}
            for a, b in (("G", "H"), ("G", "I"), ("H", "I")):
                for x in names:
                    for y in names:
                        if rng.random() < 0.3:
                            v = round(rng.uniform(0.1, 1.0), 3)
                            sigma.set(Gene(a, x), Gene(b, y), v)
                            values[(a, x, b, y)] = v
            cands = gene_triples(enumerate_candidates(*genomes, sigma))
            brute = set()
            for x, y, z in itertools.product(names, repeat=3):
                p = (
                    values.get(("G", x, "H", y), 0.0)
                    * values.get(("G", x, "I", z), 0.0)
                    * values.get(("H", y, "I", z), 0.0)
                )
                if p > 0:
                    brute.add((x, y, z))
            assert {(c.g.name, c.h.name, c.i.name) for c in cands} == brute

    def test_sorted_lexicographically(self):
        genomes, sigma = identical_genomes(("b", "a", "c"))
        cands = enumerate_candidates(*genomes, sigma)
        keys = [(c.g.name, c.h.name, c.i.name) for c in cands]
        assert keys == sorted(keys)


class TestScores:
    def test_adjacency_score_examples(self):
        sigma = SimilarityGraph()
        pairs = [("a1", "b1", 1.0), ("a2", "b2", 1.0)]
        for x, y, v in pairs:
            sigma.set(Gene("G", x), Gene("H", y), v)
        e = lambda lab, nm: Extremity(Gene(lab, nm), "h")
        assert adjacency_score(
            sigma, e("G", "a1"), e("H", "b1"), e("G", "a2"), e("H", "b2")
        ) == pytest.approx(1.0)
        sigma.set(Gene("G", "a1"), Gene("H", "b1"), 0.25)
        sigma.set(Gene("G", "a2"), Gene("H", "b2"), 0.25)
        assert adjacency_score(
            sigma, e("G", "a1"), e("H", "b1"), e("G", "a2"), e("H", "b2")
        ) == pytest.approx(0.25)
        sigma.set(Gene("G", "a1"), Gene("H", "b1"), 0.8)
        sigma.set(Gene("G", "a2"), Gene("H", "b2"), 0.2)
        assert adjacency_score(
            sigma, e("G", "a1"), e("H", "b1"), e("G", "a2"), e("H", "b2")
        ) == pytest.approx(0.4)

    def mk(self, triple_score):
        return CandidateGene(
            Gene("G", "a"), Gene("H", "a"), Gene("I", "a"),
            triple_score, triple_score ** (1.0 / 3.0),
        )

    def test_median_adjacency_weight_examples(self):
        assert median_adjacency_weight(self.mk(1.0), self.mk(1.0)) == pytest.approx(1.0)
        assert median_adjacency_weight(self.mk(1.0), self.mk(2.0 ** -6)) == pytest.approx(0.5)

    def test_weight_equals_geometric_mean_of_gene_scores(self):
        rng = random.Random(3)
        for _ in range(200):
            m1 = self.mk(rng.uniform(1e-6, 1.0))
            m2 = self.mk(rng.uniform(1e-6, 1.0))
            expected = math.sqrt(m1.gene_score) * math.sqrt(m2.gene_score)
            assert median_adjacency_weight(m1, m2) == pytest.approx(expected, rel=1e-12)


class TestConflicts:
    def test_shared_gene_conflicts(self, four_candidate_instance):
        genomes, sigma = four_candidate_instance
        cands = enumerate_candidates(*genomes, sigma)
        conflict = ConflictIndex(cands)
        m1 = find(cands, "g1", "h1", "i2")
        m2 = find(cands, "g2", "h2", "i1")
        m3 = find(cands, "g3", "h3", "i2")
        m4 = find(cands, "g4", "h3", "i3")
        assert conflict.conflicting(m1, m3)  # share i2
        assert conflict.conflicting(m3, m4)  # share h3
        assert not conflict.conflicting(m1, m2)
        assert not conflict.conflicting(m1, m4)

    def test_symmetric_irreflexive_and_index_agreement(self):
        for seed in range(6):
            rng = random.Random(seed)
            names = [f"x{k}" for k in range(4)]
            cands = []
            for _ in range(8):
                cands.append(
                    CandidateGene(
                        Gene("G", rng.choice(names)),
                        Gene("H", rng.choice(names)),
                        Gene("I", rng.choice(names)),
                        0.5, 0.5 ** (1 / 3),
                    )
                )
            conflict = ConflictIndex(cands)
            for i in range(len(cands)):
                assert not conflict.conflicting(i, i)
                for j in range(len(cands)):
                    direct = i != j and any(
                        a == b for a, b in zip(cands[i].genes, cands[j].genes)
                    )
                    assert conflict.conflicting(i, j) == direct
                    assert conflict.conflicting(j, i) == direct
                assert set(conflict.conflicts_of(i)) == {
                    j for j in range(len(cands)) if conflict.conflicting(i, j)
                }
            subset = rng.sample(range(len(cands)), 3)
            pairwise_free = all(
                not conflict.conflicting(a, b)
                for a, b in itertools.combinations(subset, 2)
            )
            assert conflict.is_conflict_free(subset) == pairwise_free


class TestConservedAdjacencies:
    def test_conservation_labels_from_gene_order_walk(self, four_candidate_instance):
        genomes, sigma = four_candidate_instance
        cands, table = build_tables(genomes, sigma)
        m2 = find(cands, "g2", "h2", "i1")
        m3 = find(cands, "g3", "h3", "i2")
        # g2-g3, h2-h3 and i1-i2 are all neighbors reading each genome
        # left to right, so the head-tail pair is conserved in all three
        rows = [
            k for k in range(len(table))
            if {table.key(k)[0], table.key(k)[2]} == {m2, m3}
        ]
        assert len(rows) == 1
        record = table[rows[0]]
        assert set(record.conserved_in) == {"G", "H", "I"}
        assert record.weight == pytest.approx(3 * 0.125 ** (1 / 3.0))

    def test_conflicting_pairs_never_emitted(self, four_candidate_instance):
        genomes, sigma = four_candidate_instance
        cands, table = build_tables(genomes, sigma)
        conflict = ConflictIndex(cands)
        for k in range(len(table)):
            m1, _, m2, _ = table.key(k)
            assert m1 != m2
            assert not conflict.conflicting(m1, m2)

    def test_no_shared_adjacency_means_empty(self):
        # gene triples exist but no projected pair is ever adjacent
        G = linear("G", [("a", 1), ("z", 1), ("b", 1)])
        H = linear("H", [("a", 1), ("x", 1), ("b", 1)])
        I = linear("I", [("b", 1), ("y", 1), ("a", 1)])
        sigma = diagonal_sigma(["a", "b"])
        cands = enumerate_candidates(G, H, I, sigma)
        table = enumerate_conserved_adjacencies(cands, G, H, I)
        gene_rows = [
            k for k in range(len(table))
            if not table.candidates[table.key(k)[0]].is_telomere_triple
            and not table.candidates[table.key(k)[2]].is_telomere_triple
        ]
        assert gene_rows == []

    def test_weights_bounded(self):
        for seed in range(5):
            rng = random.Random(seed)
            names = [f"x{k}" for k in range(4)]
            genomes = []
            for label in "GHI":
                order = names[:]
                rng.shuffle(order)
                genomes.append(linear(label, [(nm, rng.choice([1, -1])) for nm in order]))
            sigma = SimilarityGraph()
            for nm in names:
                for a, b in (("G", "H"), ("G", "I"), ("H", "I")):
                    sigma.set(Gene(a, nm), Gene(b, nm), rng.uniform(0.1, 1.0))
            cands, table = build_tables(genomes, sigma)
            for k in range(len(table)):
                assert 0.0 < table.weight[k] <= 3.0 + 1e-12

    def test_objective_consistency_first_principles(self):
        # summed record weights equal the double sum over adjacencies and
        # genomes of the square root of the two gene-score products
        for seed in range(5):
            genomes, sigma, cands = _random_dense_instance(seed)
            table = enumerate_conserved_adjacencies(cands, *genomes)
            for k in range(len(table)):
                rec = table[k]
                total = 0.0
                for genome in genomes:
                    e1 = _project(rec.m1, rec.end1, genome.label)
                    e2 = _project(rec.m2, rec.end2, genome.label)
                    if indicator(genome, e1, e2):
                        total += math.sqrt(
                            _gene_score(rec.m1, sigma) * _gene_score(rec.m2, sigma)
                        )
                assert total == pytest.approx(rec.weight, rel=1e-9)
                assert set(rec.conserved_in) == {
                    g.label
                    for g in genomes
                    if indicator(
                        g,
                        _project(rec.m1, rec.end1, g.label),
                        _project(rec.m2, rec.end2, g.label),
                    )
                }


def _random_dense_instance(seed):
    rng = random.Random(seed)
    names = [f"x{k}" for k in range(4)]
    genomes = []
    for label in "GHI":
        order = names[:]
        rng.shuffle(order)
        genomes.append(linear(label, [(nm, rng.choice([1, -1])) for nm in order]))
    sigma = SimilarityGraph()
    for nm in names:
        for a, b in (("G", "H"), ("G", "I"), ("H", "I")):
            sigma.set(Gene(a, nm), Gene(b, nm), round(rng.uniform(0.1, 1.0), 3))
    cands = enumerate_candidates(*genomes, sigma)
    return genomes, sigma, cands


def _project(cand, end, label):
    gene = {g.genome: g for g in cand.genes}[label]
    return Extremity(gene, "o" if gene.is_telomere else end)


def _gene_score(cand, sigma):
    if cand.is_telomere_triple:
        return 1.0
    product = (
        sigma.get(cand.g, cand.h) * sigma.get(cand.g, cand.i) * sigma.get(cand.h, cand.i)
    )
    return product ** (1.0 / 3.0)


class TestPreprocess:
    def test_no_triangles_collapses_everything(self):
        G = linear("G", [("a", 1), ("b", 1)])
        H = linear("H", [("a", 1), ("b", 1)])
        I = linear("I", [("a", 1), ("b", 1)])
        g, h, i, report = preprocess_discard_nonclique(G, H, I, SimilarityGraph())
        assert report == {"G": ["a", "b"], "H": ["a", "b"], "I": ["a", "b"]}
        for genome in (g, h, i):
            assert genome.proper_genes == []
            assert len(genome.adjacencies) == 1  # the two telomeres joined

    def test_interior_splice_recovers_adjacency(self):
        # an insertion splits a conserved pair; discarding it restores the pair
        G = linear("G", [("a", 1), ("ins", 1), ("b", 1)])
        H = linear("H", [("a", 1), ("b", 1)])
        I = linear("I", [("a", 1), ("b", 1)])
        sigma = diagonal_sigma(["a", "b"])
        cands_before = enumerate_candidates(G, H, I, sigma)
        table_before = enumerate_conserved_adjacencies(cands_before, G, H, I)
        g2, h2, i2, report = preprocess_discard_nonclique(G, H, I, sigma)
        assert report["G"] == ["ins"]
        cands_after = enumerate_candidates(g2, h2, i2, sigma)
        table_after = enumerate_conserved_adjacencies(cands_after, g2, h2, i2)

        def all3_gene_rows(cands, table):
            return [
                k for k in range(len(table))
                if int(table.mask[k]) == 0b111
                and not cands[table.key(k)[0]].is_telomere_triple
                and not cands[table.key(k)[2]].is_telomere_triple
            ]

        assert len(all3_gene_rows(cands_before, table_before)) == 0
        assert len(all3_gene_rows(cands_after, table_after)) == 1
