"""Candidate enumeration, scoring, conflicts, conserved adjacencies."""
import itertools
import math
import random

import pytest

from ffmedian.candidates import (
    Candidates,
    ConservedAdjacencyTable,
    candidates_on_genes,
    enumerate_candidates,
    enumerate_conserved_adjacencies,
    preprocess_discard_nonclique,
)
from ffmedian.genomes import ENDS, Gene, SimilarityGraph, build_genome, splice_genes
from ffmedian.kernels import IntArray
from ffmedian.reference import Extremity, adjacencies, adjacency, indicator
from ffmedian.segments import Incidence

from conftest import build_tables, conflicts, diagonal_sigma, identical_genomes, linear


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
        genomes = [linear(label, [("a", 1)]) for label in "GHI"]
        ids = [[0] * len(triple_scores)] * 3  # gene a of each genome
        cands = Candidates(genomes, ids, triple_scores)
        first = list(range(0, len(cands), 2))
        zeros = [0] * len(first)
        table = ConservedAdjacencyTable(cands, first, zeros, [m + 1 for m in first],
                                        [1] * len(first), [0b111] * len(first))
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
        conflicting = conflicts(cands)
        m1 = find(cands, "g1", "h1", "i2")
        m2 = find(cands, "g2", "h2", "i1")
        m3 = find(cands, "g3", "h3", "i2")
        m4 = find(cands, "g4", "h3", "i3")
        assert conflicting(m1, m3)  # share i2
        assert conflicting(m3, m4)  # share h3
        assert not conflicting(m1, m2)
        assert not conflicting(m1, m4)

    def test_symmetric_irreflexive_and_index_agreement(self):
        names = [f"x{k}" for k in range(4)]
        genomes = [linear(label, [(nm, 1) for nm in names]) for label in "GHI"]
        genes = [[k for k, t in enumerate(g.telomeric) if not t] for g in genomes]
        for seed in range(6):
            rng = random.Random(seed)
            ids = [[rng.choice(genes[x]) for _ in range(8)] for x in range(3)]
            cands = Candidates(genomes, ids, [0.5] * 8)
            on_genes = candidates_on_genes(cands)
            # each candidate is listed once per genome, on its own gene, in order
            for on_gene, column in zip(on_genes, ids):
                assert [(m, k) for k, members in enumerate(on_gene) for m in members] == sorted(
                    zip(range(8), column), key=lambda pair: (pair[1], pair[0])
                )
            conflicting = conflicts(cands)
            incidence = Incidence(ConservedAdjacencyTable(cands, *[IntArray()] * 5))
            for i in range(8):
                assert not conflicting(i, i)
                for j in range(8):
                    direct = i != j and any(column[i] == column[j] for column in ids)
                    assert conflicting(i, j) == direct
                    assert conflicting(j, i) == direct
                assert incidence.conflicts_of(i) == [j for j in range(8) if conflicting(i, j)]


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
        conflicting = conflicts(cands)
        for k in range(len(table)):
            m1, _, m2, _ = table.key(k)
            assert m1 != m2
            assert not conflicting(m1, m2)

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


def _array_adjacencies(genome):
    """The genome's adjacency arrays read back as (gene, end) extremity pairs."""
    genes = [Gene(genome.label, name) for name in genome.names]
    return sorted(
        adjacency(Extremity(genes[g1], ENDS[c1]), Extremity(genes[g2], ENDS[c2]))
        for g1, c1, g2, c2 in zip(*genome.adjacency_arrays())
    )


class TestAdjacencyArrays:
    """`Genome.adjacency_arrays` against the genomes' adjacency sets."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_linear_circular_and_mixed_genomes(self, seed):
        rng = random.Random(seed)
        shapes = (["linear"], ["circular"], ["linear", "circular"])[seed % 3]
        genomes = [
            _random_genome(rng, label, [rng.choice(shapes) for _ in range(rng.randint(1, 3))])
            for label in "GHI"
        ]
        for genome in genomes:
            assert _array_adjacencies(genome) == sorted(adjacencies(genome))

    def test_single_gene_circle_and_emptied_chromosomes(self):
        G = build_genome("G", [("c1", "circular", [("a", 1)])])
        H = build_genome("H", [("c1", "circular", [("a", -1)]), ("c2", "linear", [("b", 1)])])
        mixed = build_genome("I", [
            ("c1", "linear", [("a", 1), ("b", -1)]),
            ("c2", "circular", [("c", 1), ("d", -1)]),
            ("c3", "linear", [("e", -1)]),
        ])
        I = splice_genes(mixed, {Gene("I", nm) for nm in "abcd"})
        for genome in (G, H, I):
            assert _array_adjacencies(genome) == sorted(adjacencies(genome))
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


class TestSplicedGenomes:
    def test_spliced_genes_have_no_candidates(self):
        """A gene spliced out of its genome keeps its number but loses its
        similarity edges, so no candidate holds it."""
        genomes, sigma = identical_genomes(("a", "b", "c"))
        spliced = [splice_genes(genomes[0], {Gene("G", "b")}), *genomes[1:]]
        names = {c.g.name for c in gene_triples(enumerate_candidates(*spliced, sigma))}
        assert names == {"a", "c"}
        assert spliced[0].names == genomes[0].names


class TestPreprocess:
    def test_no_triangles_collapses_everything(self):
        G = linear("G", [("a", 1), ("b", 1)])
        H = linear("H", [("a", 1), ("b", 1)])
        I = linear("I", [("a", 1), ("b", 1)])
        g, h, i, report = preprocess_discard_nonclique(
            G, H, I, enumerate_candidates(G, H, I, SimilarityGraph())
        )
        assert report == {"G": ["a", "b"], "H": ["a", "b"], "I": ["a", "b"]}
        for genome in (g, h, i):
            assert [g for g in genome.genes if not g.is_telomere] == []
            assert len(adjacencies(genome)) == 1  # the two telomeres joined

    def test_interior_splice_recovers_adjacency(self):
        # an insertion splits a conserved pair; discarding it restores the pair
        G = linear("G", [("a", 1), ("ins", 1), ("b", 1)])
        H = linear("H", [("a", 1), ("b", 1)])
        I = linear("I", [("a", 1), ("b", 1)])
        sigma = diagonal_sigma(["a", "b"])
        cands_before = enumerate_candidates(G, H, I, sigma)
        table_before = enumerate_conserved_adjacencies(cands_before, G, H, I)
        g2, h2, i2, report = preprocess_discard_nonclique(G, H, I, cands_before)
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
