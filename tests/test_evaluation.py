"""Scoring of predicted triples, on hand-built triples with hand-counted values."""
import pytest

from ffmedian.evaluation import (
    induced_pairs,
    parse_truth_pairs,
    precision_recall,
    robustness,
)
from ffmedian.genomes import ParseError
from ffmedian.objects import Gene


def genes(*tokens):
    return tuple(Gene(*token.split(":")) for token in tokens)


T1 = genes("G:a", "H:a", "I:a")
T2 = genes("G:b", "H:b", "I:c")  # I:c lies outside the truth universe below
T3 = genes("G:b", "H:a", "I:b")
TRUTH = [
    genes("G:a", "H:a"), genes("I:a", "G:a"), genes("H:a", "I:a"),
    genes("G:b", "H:b"), genes("G:b", "I:b"), genes("H:b", "I:b"),
]


class TestInducedPairs:
    def test_three_pairs_per_triple_in_gene_order(self):
        assert induced_pairs([T1]) == {
            genes("G:a", "H:a"), genes("G:a", "I:a"), genes("H:a", "I:a"),
        }

    def test_triple_order_does_not_matter(self):
        h, g, i = genes("H:a", "G:a", "I:a")
        assert induced_pairs([(h, g, i)]) == induced_pairs([T1])

    def test_shared_pairs_counted_once(self):
        assert len(induced_pairs([T1, T1, T2])) == 6


class TestPrecisionRecall:
    def test_outside_pairs_ignored_when_not_strict(self):
        report = precision_recall([T1, T2, T3], TRUTH)
        # T1: 3 true; T2: (G:b,H:b) true, 2 pairs with I:c ignored;
        # T3: (G:b,I:b) true, (G:b,H:a) and (H:a,I:b) false; (H:b,I:b) missed
        assert (report.tp, report.fp, report.fn, report.ignored) == (5, 2, 1, 2)
        assert report.precision == pytest.approx(5 / 7)
        assert report.recall == pytest.approx(5 / 6)
        assert not report.precision_vacuous and not report.recall_vacuous
        assert report.as_dict()["ignored_pairs"] == 2

    def test_strict_rejects_outside_pairs(self):
        with pytest.raises(ValueError, match="outside the truth universe"):
            precision_recall([T1, T2], TRUTH, strict=True)

    def test_strict_accepts_pairs_inside_the_universe(self):
        report = precision_recall([T1, T3], TRUTH, strict=True)
        assert (report.tp, report.fp, report.fn, report.ignored) == (4, 2, 2, 0)

    def test_empty_sets_are_vacuous(self):
        report = precision_recall([], [])
        assert (report.precision, report.recall) == (1.0, 1.0)
        assert report.precision_vacuous and report.recall_vacuous


class TestParseTruthPairs:
    def test_comments_blank_lines_and_order(self):
        text = "# truth\nG:a\tH:a\n\nI:b\tG:b\n"
        assert parse_truth_pairs(text) == {genes("G:a", "H:a"), genes("G:b", "I:b")}

    @pytest.mark.parametrize(
        "text, line",
        [("G:a H:a\n", 1), ("G:a\tH:a\nG:b\tHb\n", 2), ("# c\nG:a\tH:a\tI:a\n", 2)],
        ids=["no-tab", "unqualified-gene", "three-fields"],
    )
    def test_malformed_line_raises_with_its_number(self, text, line):
        with pytest.raises(ParseError) as exc:
            parse_truth_pairs(text)
        assert exc.value.line == line
        assert str(exc.value).startswith(f"line {line}: ")


class TestRobustness:
    RUN1 = [genes("G:a", "H:a", "I:a"), genes("G:b", "H:b", "I:b")]

    def test_stable_pairs_share(self):
        run2 = [
            genes("G:a", "H:a", "I:a"),
            genes("G:b", "H:d", "I:b"),
            genes("G:c", "H:b", "I:c"),
        ]
        # (G:a,H:a) is in both runs; (G:b,H:d) and (G:c,H:b) have a gene
        # absent from the first run; (G:b,H:b) is missed by the second run
        # although both genes appear there
        assert robustness([self.RUN1, run2], "G", "H") == pytest.approx(75.0)

    def test_swapped_partners_are_never_robust(self):
        run2 = [genes("G:a", "H:b", "I:a"), genes("G:b", "H:a", "I:b")]
        assert robustness([self.RUN1, run2], "G", "H") == 0.0

    def test_no_pairs_is_fully_robust(self):
        assert robustness([[], []], "G", "H") == 100.0

    def test_needs_two_runs(self):
        with pytest.raises(ValueError, match="at least two"):
            robustness([self.RUN1], "G", "H")

