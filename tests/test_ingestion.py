"""Hit parsing, stringency filtering, and RRBS weighting."""
import random

import pytest

from ffmedian.genomes import ParseError, build_genome
from ffmedian.ingestion import (
    AlignmentHit,
    FilterParams,
    build_similarity_graph,
    parse_hits,
    rrbs_weights,
    stringency_filter,
)
from ffmedian.objects import Gene, serialize_similarities, similarity, similarity_pairs


def row(query, subject, evalue, bitscore):
    filler = "\t".join(["90", "100", "1", "0", "1", "100", "1", "100"])
    return f"{query}\t{subject}\t{filler}\t{evalue}\t{bitscore}"


def hit(q, s, bs, ev=1e-30):
    qg, qn = q.split(":")
    sg, sn = s.split(":")
    return AlignmentHit(Gene(qg, qn), Gene(sg, sn), bs, ev)


class TestParseHits:
    def test_evalue_threshold_drops(self):
        lines = [row("G:a", "H:a", "1e-3", "50")]
        assert parse_hits(lines, FilterParams(evalue_max=1e-5)) == []

    def test_zero_evalue_kept(self):
        lines = [row("G:a", "H:a", "0", "50")]
        hits = parse_hits(lines, FilterParams(evalue_max=1e-5))
        assert len(hits) == 1 and hits[0].evalue == 0.0

    def test_reciprocal_rows_not_merged(self):
        lines = [row("G:a", "H:a", "1e-30", "50"), row("H:a", "G:a", "1e-30", "60")]
        assert len(parse_hits(lines)) == 2

    def test_malformed_row_carries_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_hits([row("G:a", "H:a", "1e-30", "50"), "broken row"])

    def test_unknown_gene_named(self):
        genome = build_genome("G", [("c1", "linear", [("a", 1)])])
        other = build_genome("H", [("c1", "linear", [("a", 1)])])
        with pytest.raises(ParseError, match="G:zz"):
            parse_hits([row("G:zz", "H:a", "1e-30", "50")], genomes=[genome, other])

    def test_comment_and_blank_skipped(self):
        lines = ["# comment", "", row("G:a", "H:a", "1e-30", "50")]
        assert len(parse_hits(lines)) == 1


class TestStringencyFilter:
    def toy(self):
        # h's best hit into genome G scores 100
        return [
            hit("G:g", "H:h", 40.0),
            hit("H:h", "G:other", 100.0),
            hit("H:h", "G:g", 30.0),
        ]

    def test_zero_keeps_everything(self):
        hits = self.toy()
        assert stringency_filter(hits, 0.0) == hits

    def test_equality_case_retained(self):
        hits = [hit("G:g", "H:h", 100.0), hit("H:h", "G:g", 100.0)]
        assert stringency_filter(hits, 1.0) == hits

    def test_weak_hit_dropped(self):
        retained = stringency_filter(self.toy(), 0.5)
        assert hit("G:g", "H:h", 40.0) not in retained  # 40 < 0.5 * 100
        assert hit("H:h", "G:other", 100.0) in retained

    def test_monotone_in_f(self):
        rng = random.Random(7)
        hits = []
        for _ in range(120):
            a, b = rng.sample(["G", "H", "I"], 2)
            hits.append(
                hit(f"{a}:x{rng.randint(0, 5)}", f"{b}:y{rng.randint(0, 5)}",
                    round(rng.uniform(10, 200), 1))
            )
        previous = None
        for f in (0.0, 0.25, 0.5, 0.75, 1.0):
            retained = set(stringency_filter(hits, f))
            if previous is not None:
                assert retained <= previous
            previous = retained


class TestRrbsWeights:
    def test_identity_case(self):
        hits = [
            hit("G:g", "H:h", 100.0), hit("H:h", "G:g", 100.0),
            hit("G:g", "G:g", 100.0), hit("H:h", "H:h", 100.0),
        ]
        sigma = rrbs_weights(hits)
        assert similarity(sigma, Gene("G", "g"), Gene("H", "h")) == 1.0

    def test_symmetric_half(self):
        hits = [
            hit("G:g", "H:h", 50.0), hit("H:h", "G:g", 50.0),
            hit("G:g", "G:g", 100.0), hit("H:h", "H:h", 100.0),
        ]
        sigma = rrbs_weights(hits)
        assert similarity(sigma, Gene("G", "g"), Gene("H", "h")) == pytest.approx(0.5)

    def test_one_directional_doubled(self):
        hits = [
            hit("G:g", "H:h", 60.0),
            hit("G:g", "G:g", 100.0), hit("H:h", "H:h", 140.0),
        ]
        sigma = rrbs_weights(hits)
        assert similarity(sigma, Gene("G", "g"), Gene("H", "h")) == pytest.approx(120.0 / 240.0)

    def test_require_reciprocal_drops_one_directional(self):
        hits = [
            hit("G:g", "H:h", 60.0),
            hit("G:g", "G:g", 100.0), hit("H:h", "H:h", 140.0),
        ]
        sigma = rrbs_weights(hits, require_reciprocal=True)
        assert similarity(sigma, Gene("G", "g"), Gene("H", "h")) == 0.0

    def test_missing_self_hit_lists_gene(self):
        hits = [hit("G:g", "H:h", 60.0), hit("G:g", "G:g", 100.0)]
        with pytest.raises(ValueError, match="H:h"):
            rrbs_weights(hits)

    def test_clamped_to_one(self):
        hits = [
            hit("G:g", "H:h", 150.0), hit("H:h", "G:g", 150.0),
            hit("G:g", "G:g", 100.0), hit("H:h", "H:h", 100.0),
        ]
        sigma = rrbs_weights(hits)
        assert similarity(sigma, Gene("G", "g"), Gene("H", "h")) == 1.0


class TestPipelineDeterminism:
    def test_identical_bytes(self):
        rng = random.Random(11)
        hits = []
        genes = [f"{g}:x{k}" for g in "GHI" for k in range(4)]
        for gene in genes:
            hits.append(hit(gene, gene, 100.0))
        for _ in range(60):
            a, b = rng.sample(genes, 2)
            if a.split(":")[0] != b.split(":")[0]:
                hits.append(hit(a, b, round(rng.uniform(20, 99), 1)))
        first = serialize_similarities(build_similarity_graph(hits, FilterParams()))
        second = serialize_similarities(build_similarity_graph(list(hits), FilterParams()))
        assert first == second
        for x, y, value in similarity_pairs(build_similarity_graph(hits, FilterParams())):
            assert 0.0 < value <= 1.0
            assert x.genome != y.genome


class TestFilterParams:
    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            FilterParams(f=1.5)
        with pytest.raises(ValueError):
            FilterParams(evalue_max=-1.0)
