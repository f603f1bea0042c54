"""Candidate enumeration, scoring, conflicts, conserved adjacencies."""
import itertools
import math
import random

import numpy as np
import pytest

from ffmedian.candidates import (
    CandidateGene,
    ConflictIndex,
    ConservedAdjacencyTable,
    InstanceIndex,
    enumerate_candidates,
    enumerate_conserved_adjacencies,
    preprocess_discard_nonclique,
)
from ffmedian.genomes import ENDS, Gene, SimilarityGraph, build_genome, splice_genes
from ffmedian.reference import Extremity, adjacencies, adjacency, indicator

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
    @staticmethod
    def factors(triple_scores):
        """`table.factor` of one adjacency row per consecutive pair of
        candidates with the given triple scores."""
        cands = [
            CandidateGene(Gene("G", "a"), Gene("H", "a"), Gene("I", "a"), t, t ** (1.0 / 3.0))
            for t in triple_scores
        ]
        first = np.arange(0, len(cands), 2)
        zeros = np.zeros(first.size, dtype=np.int64)
        table = ConservedAdjacencyTable(
            cands, "GHI", first, zeros, first + 1, zeros + 1, zeros + 0b111
        )
        return cands, table.factor

    def test_median_adjacency_weight_examples(self):
        _, factor = self.factors([1.0, 1.0, 1.0, 2.0 ** -6])
        assert factor == pytest.approx([1.0, 0.5])

    def test_weight_equals_geometric_mean_of_gene_scores(self):
        rng = random.Random(3)
        cands, factor = self.factors([rng.uniform(1e-6, 1.0) for _ in range(400)])
        for k in range(200):
            m1, m2 = cands[2 * k], cands[2 * k + 1]
            expected = math.sqrt(m1.gene_score) * math.sqrt(m2.gene_score)
            assert factor[k] == pytest.approx(expected, rel=1e-12)


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
        assert table.conserved_in[table.mask[rows[0]]] == ("G", "H", "I")
        assert table.weight[rows[0]] == pytest.approx(3 * 0.125 ** (1 / 3.0))

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
                m1, e1, m2, e2 = table.key(k)
                c1, c2 = cands[m1], cands[m2]
                total = 0.0
                conserved = set()
                for genome in genomes:
                    x1 = _project(c1, ENDS[e1], genome.label)
                    x2 = _project(c2, ENDS[e2], genome.label)
                    if indicator(genome, x1, x2):
                        total += math.sqrt(_gene_score(c1, sigma) * _gene_score(c2, sigma))
                        conserved.add(genome.label)
                assert total == pytest.approx(table.weight[k], rel=1e-9)
                assert set(table.conserved_in[table.mask[k]]) == conserved


def _random_genome(rng, label, shapes):
    """A genome with one chromosome of 1..6 random genes per entry of `shapes`."""
    chromosomes = []
    for c, shape in enumerate(shapes):
        names = [f"{label}{c}x{k}" for k in range(rng.randint(1, 6))]
        rng.shuffle(names)
        chromosomes.append((f"c{c}", shape, [(nm, rng.choice([1, -1])) for nm in names]))
    return build_genome(label, chromosomes)


def _array_adjacencies(index, x):
    """Genome x's adjacency arrays read back as (gene, end) extremity pairs."""
    genes = index.genes[x]
    return sorted(
        adjacency(Extremity(genes[g1], ENDS[c1]), Extremity(genes[g2], ENDS[c2]))
        for g1, c1, g2, c2 in zip(*(a.tolist() for a in index.adjacency_arrays(x)))
    )


class TestAdjacencyArrays:
    """`InstanceIndex.adjacency_arrays` against the genomes' adjacency sets."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_linear_circular_and_mixed_genomes(self, seed):
        rng = random.Random(seed)
        shapes = (["linear"], ["circular"], ["linear", "circular"])[seed % 3]
        genomes = [
            _random_genome(rng, label, [rng.choice(shapes) for _ in range(rng.randint(1, 3))])
            for label in "GHI"
        ]
        index = InstanceIndex(genomes)
        for x, genome in enumerate(genomes):
            assert _array_adjacencies(index, x) == sorted(adjacencies(genome))

    def test_single_gene_circle_and_emptied_chromosomes(self):
        G = build_genome("G", [("c1", "circular", [("a", 1)])])
        H = build_genome("H", [("c1", "circular", [("a", -1)]), ("c2", "linear", [("b", 1)])])
        mixed = build_genome("I", [
            ("c1", "linear", [("a", 1), ("b", -1)]),
            ("c2", "circular", [("c", 1), ("d", -1)]),
            ("c3", "linear", [("e", -1)]),
        ])
        I = splice_genes(mixed, {Gene("I", nm) for nm in "abcd"})
        index = InstanceIndex([G, H, I])
        for x, genome in enumerate((G, H, I)):
            assert _array_adjacencies(index, x) == sorted(adjacencies(genome))
        # the emptied linear chromosome leaves a telomere-telomere adjacency
        assert adjacency(
            Extremity(Gene("I", "~c1.L"), "o"), Extremity(Gene("I", "~c1.R"), "o")
        ) in adjacencies(I)
        assert len(adjacencies(I)) == 3


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
            assert len(adjacencies(genome)) == 1  # the two telomeres joined

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
