"""Genome model: construction, adjacencies, file round-trips."""
import random

import pytest

from ffmedian import objects
from ffmedian.genomes import GenomeError, ParseError, SimilarityGraph, build_genome, parse_genomes
from ffmedian.objects import (
    Gene,
    serialize_genome,
    serialize_similarities,
    set_similarity,
    similarity,
    splice_genes,
)
from ffmedian.reference import Extremity, adjacencies, adjacency, indicator


def ext(label, name, end):
    return Extremity(Gene(label, name), end)


class TestGene:
    """What callers rely on: `str`, the order, immutability, use as a key."""

    def test_str_is_the_qualified_name(self):
        assert str(Gene("G", "a")) == "G:a"
        assert f"{Gene('H', '~c1.L')}" == "H:~c1.L"

    def test_sorted_by_genome_then_name(self):
        genes = [Gene("H", "a"), Gene("G", "b"), Gene("G", "a"), Gene("G", "~c1.L")]
        assert sorted(genes) == [Gene("G", "a"), Gene("G", "b"), Gene("G", "~c1.L"),
                                 Gene("H", "a")]
        assert Gene("G", "z") < Gene("H", "a")
        assert ext("G", "a", "t") < ext("G", "b", "h")

    def test_immutable(self):
        gene = Gene("G", "a")
        with pytest.raises(AttributeError):
            gene.name = "b"
        with pytest.raises(AttributeError):
            gene.extra = 1
        assert gene == Gene("G", "a")

    def test_dict_and_set_key(self):
        scores = {Gene("G", "a"): 1.0, Gene("G", "b"): 2.0}
        assert scores[Gene("G", "a")] == 1.0
        assert Gene("H", "a") not in scores
        assert len({Gene("G", "a"), Gene("G", "a"), Gene("H", "a")}) == 2
        assert hash(Gene("G", "a")) == hash(Gene("G", "a"))

    def test_telomere_flag(self):
        assert Gene("G", "~c1.R").is_telomere and not Gene("G", "a").is_telomere


class TestBuildGenome:
    def test_linear_two_genes(self):
        genome = build_genome("G", [("c1", "linear", [("a", 1), ("b", 1)])])
        expected = {
            adjacency(ext("G", "~c1.L", "o"), ext("G", "a", "t")),
            adjacency(ext("G", "a", "h"), ext("G", "b", "t")),
            adjacency(ext("G", "b", "h"), ext("G", "~c1.R", "o")),
        }
        assert adjacencies(genome) == expected

    def test_circular_singleton_self_loop(self):
        genome = build_genome("G", [("c1", "circular", [("a", 1)])])
        assert adjacencies(genome) == {
            adjacency(ext("G", "a", "h"), ext("G", "a", "t"))
        }

    def test_circular_with_reversed_gene(self):
        # walking +a -b: a tail, a head, b head, b tail, wrap to a tail
        genome = build_genome("G", [("c1", "circular", [("a", 1), ("b", -1)])])
        expected = {
            adjacency(ext("G", "a", "h"), ext("G", "b", "h")),
            adjacency(ext("G", "b", "t"), ext("G", "a", "t")),
        }
        assert adjacencies(genome) == expected

    def test_duplicate_gene_rejected(self):
        with pytest.raises(GenomeError, match="duplicate"):
            build_genome("G", [("c1", "linear", [("a", 1), ("a", 1)])])
        with pytest.raises(GenomeError, match="duplicate"):
            build_genome(
                "G",
                [("c1", "linear", [("a", 1)]), ("c2", "linear", [("a", 1)])],
            )

    def test_reserved_telomere_prefix_rejected(self):
        with pytest.raises(GenomeError, match="reserved"):
            build_genome("G", [("c1", "linear", [("~a", 1)])])

    def test_empty_chromosome_rejected(self):
        with pytest.raises(GenomeError, match="no genes"):
            build_genome("G", [("c1", "linear", [])])


class TestIndicator:
    def test_adjacent_pair(self):
        genome = build_genome("G", [("c1", "linear", [("a", 1), ("b", 1)])])
        assert indicator(genome, ext("G", "a", "h"), ext("G", "b", "t")) == 1

    def test_own_extremities_not_adjacent(self):
        genome = build_genome("G", [("c1", "linear", [("a", 1), ("b", 1)])])
        assert indicator(genome, ext("G", "a", "h"), ext("G", "a", "t")) == 0

    def test_circular_two_gene_cycle(self):
        genome = build_genome("G", [("c1", "circular", [("a", 1), ("b", 1)])])
        assert indicator(genome, ext("G", "a", "h"), ext("G", "b", "t")) == 1
        assert indicator(genome, ext("G", "b", "h"), ext("G", "a", "t")) == 1

    def test_foreign_gene_rejected(self):
        genome = build_genome("G", [("c1", "linear", [("a", 1)])])
        with pytest.raises(GenomeError, match="absent"):
            indicator(genome, ext("G", "zz", "h"), ext("G", "a", "t"))


class TestStructuralProperties:
    def random_genome(self, seed):
        rng = random.Random(seed)
        chroms = []
        counter = 0
        for ci in range(rng.randint(1, 3)):
            size = rng.randint(1, 6)
            entries = []
            for _ in range(size):
                entries.append((f"x{counter}", rng.choice([1, -1])))
                counter += 1
            chroms.append((f"c{ci}", rng.choice(["linear", "circular"]), entries))
        return build_genome("G", chroms), chroms

    def test_extremity_degrees(self):
        for seed in range(25):
            genome, _ = self.random_genome(seed)
            degree = {}
            for e1, e2 in adjacencies(genome):
                degree[e1] = degree.get(e1, 0) + 1
                degree[e2] = degree.get(e2, 0) + 1
            for gene in objects.genes(genome):
                if gene.is_telomere:
                    assert degree.get(Extremity(gene, "o"), 0) == 1
                else:
                    for end in "ht":
                        assert degree.get(Extremity(gene, end), 0) == 1

    def test_adjacency_counts(self):
        for seed in range(25):
            genome, chroms = self.random_genome(seed)
            expected = 0
            for _, shape, entries in chroms:
                expected += len(entries) + 1 if shape == "linear" else len(entries)
            assert len(adjacencies(genome)) == expected


class TestGenomeFiles:
    TEXT = (
        "G\tc1\tlinear\t+a -b +c\n"
        "G\tc2\tcircular\t+d\n"
        "H\tc1\tlinear\t+a +b\n"
    )

    def test_round_trip_byte_identical(self):
        genomes = parse_genomes(self.TEXT)
        text = "".join(serialize_genome(g) for g in genomes)
        assert text == self.TEXT
        again = parse_genomes(text)
        assert "".join(serialize_genome(g) for g in again) == text

    def test_comments_and_whitespace_canonicalized(self):
        noisy = "# header\n\n" + self.TEXT.replace("+a -b", "  +a -b ")
        genomes = parse_genomes(noisy)
        assert "".join(serialize_genome(g) for g in genomes) == self.TEXT

    def test_unsigned_token_rejected_with_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_genomes("G\tc1\tlinear\t+a\nG\tc2\tlinear\tb\n")

    def test_bad_shape_rejected(self):
        with pytest.raises(ParseError, match="shape"):
            parse_genomes("G\tc1\tring\t+a\n")

    def test_field_count_checked(self):
        with pytest.raises(ParseError, match="4 tab-separated"):
            parse_genomes("G\tc1\tlinear\n")


class TestSplice:
    def test_interior_splice_joins_neighbors(self):
        genome = build_genome(
            "G", [("c1", "linear", [("a", 1), ("x", 1), ("b", 1)])]
        )
        reduced = splice_genes(genome, {Gene("G", "x")})
        assert adjacency(ext("G", "a", "h"), ext("G", "b", "t")) in adjacencies(reduced)
        assert Gene("G", "x") not in objects.genes(reduced)

    def test_telomeres_survive_total_splice(self):
        genome = build_genome("G", [("c1", "linear", [("a", 1)])])
        reduced = splice_genes(genome, {Gene("G", "a")})
        assert adjacencies(reduced) == {
            adjacency(ext("G", "~c1.L", "o"), ext("G", "~c1.R", "o"))
        }

    def test_telomere_splice_rejected(self):
        genome = build_genome("G", [("c1", "linear", [("a", 1)])])
        with pytest.raises(GenomeError):
            splice_genes(genome, {Gene("G", "~c1.L")})


class TestSimilarityGraph:
    def test_symmetry_and_default(self):
        sigma = SimilarityGraph()
        set_similarity(sigma, Gene("G", "a"), Gene("H", "b"), 0.25)
        assert similarity(sigma, Gene("H", "b"), Gene("G", "a")) == 0.25
        assert similarity(sigma, Gene("G", "a"), Gene("H", "zz")) == 0.0

    def test_telomere_convention(self):
        sigma = SimilarityGraph()
        t1, t2 = Gene("G", "~c1.L"), Gene("H", "~c1.L")
        assert similarity(sigma, t1, t2) == 1.0
        assert similarity(sigma, t1, Gene("H", "a")) == 0.0
        assert similarity(sigma, t1, Gene("G", "~c2.L")) == 0.0  # same genome

    def test_intra_genome_rejected(self):
        sigma = SimilarityGraph()
        with pytest.raises(GenomeError, match="intra-genome"):
            set_similarity(sigma, Gene("G", "a"), Gene("G", "b"), 0.5)

    def test_range_checked(self):
        sigma = SimilarityGraph()
        with pytest.raises(GenomeError, match="outside"):
            set_similarity(sigma, Gene("G", "a"), Gene("H", "b"), 1.5)

    def test_explicit_telomere_entry_rejected(self):
        sigma = SimilarityGraph()
        with pytest.raises(GenomeError, match="telomere"):
            set_similarity(sigma, Gene("G", "~c1.L"), Gene("H", "b"), 0.5)

    def test_serialize_round_trip(self):
        sigma = SimilarityGraph()
        set_similarity(sigma, Gene("G", "a"), Gene("H", "b"), 0.25)
        set_similarity(sigma, Gene("G", "a"), Gene("I", "c"), 0.5)
        text = serialize_similarities(sigma)
        again = SimilarityGraph.parse(text)
        assert serialize_similarities(again) == text
        assert similarity(again, Gene("G", "a"), Gene("H", "b")) == 0.25
