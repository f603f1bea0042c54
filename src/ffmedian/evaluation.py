"""Scoring of predicted ortholog triples against truth or reference groups.

Precision/recall counts induced gene pairs against a set of true pairs.
Classification against a reference grouping follows a three-way rule per
triple: agree when all three genes share one group; disagree when some
gene pair sits in different groups and one side's group contains another
gene from the other side's genome; compatible otherwise.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .genomes import ParseError
from .objects import Gene, _parse_qualified

log = logging.getLogger(__name__)

AGREE = "agree"
DISAGREE = "disagree"
COMPATIBLE = "compatible"

Triple = tuple[Gene, Gene, Gene]
Pair = tuple[Gene, Gene]


def _pair(x: Gene, y: Gene) -> Pair:
    return (x, y) if x <= y else (y, x)


def induced_pairs(triples: Iterable[Triple]) -> set[Pair]:
    """The three genome-pairwise gene pairs of every triple."""
    pairs: set[Pair] = set()
    for g, h, i in triples:
        pairs.add(_pair(g, h))
        pairs.add(_pair(g, i))
        pairs.add(_pair(h, i))
    return pairs


@dataclass
class EvalReport:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    precision: float = 1.0
    recall: float = 1.0
    precision_vacuous: bool = False
    recall_vacuous: bool = False
    ignored: int = 0

    def as_dict(self) -> dict:
        out = {
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "precision": self.precision,
            "recall": self.recall,
            "precision_vacuous": self.precision_vacuous,
            "recall_vacuous": self.recall_vacuous,
        }
        if self.ignored:
            out["ignored_pairs"] = self.ignored
        return out


def precision_recall(
    predicted: Iterable[Triple],
    truth_pairs: Iterable[Pair],
    strict: bool = False,
) -> EvalReport:
    """Pairwise precision and recall of the induced ortholog pairs.

    Genes absent from the truth universe are errors under `strict`,
    otherwise their pairs are ignored (and counted in the report).
    0/0 ratios are reported as 1.0 with a vacuous flag.
    """
    truth = {_pair(x, y) for x, y in truth_pairs}
    universe = {gene for pair in truth for gene in pair}
    predicted_pairs = induced_pairs(predicted)
    report = EvalReport()
    usable: set[Pair] = set()
    for pair in predicted_pairs:
        if pair[0] in universe and pair[1] in universe:
            usable.add(pair)
        elif strict:
            raise ValueError(f"pair {pair} outside the truth universe")
        else:
            report.ignored += 1
            log.debug("ignoring pair outside truth universe: %s", pair)
    report.tp = len(usable & truth)
    report.fp = len(usable - truth)
    report.fn = len(truth - usable)
    if report.tp + report.fp:
        report.precision = report.tp / (report.tp + report.fp)
    else:
        report.precision, report.precision_vacuous = 1.0, True
    if report.tp + report.fn:
        report.recall = report.tp / (report.tp + report.fn)
    else:
        report.recall, report.recall_vacuous = 1.0, True
    return report


class TruthMap:
    """Ortholog-group labels per gene; genes may be unlabeled."""

    def __init__(self, groups: Mapping[Gene, str] | None = None):
        self.group_of: dict[Gene, str] = dict(groups or {})
        self.members: dict[str, set[Gene]] = {}
        for gene, label in self.group_of.items():
            self.members.setdefault(label, set()).add(gene)

    @classmethod
    def parse(cls, text: str) -> "TruthMap":
        groups: dict[Gene, str] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise ParseError("expected 'genome:gene<TAB>group'", lineno)
            try:
                gene = _parse_qualified(fields[0])
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from exc
            groups[gene] = fields[1]
        return cls(groups)

    @classmethod
    def read(cls, path) -> "TruthMap":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.parse(fh.read())


def classify_triple(triple: Triple, truth: TruthMap) -> str:
    """Three-way agreement class of one predicted triple."""
    genes = list(triple)
    labels = [truth.group_of.get(gene) for gene in genes]
    if labels[0] is not None and labels.count(labels[0]) == 3:
        return AGREE
    for a in range(3):
        for b in range(3):
            if a == b:
                continue
            x, y = genes[a], genes[b]
            lx, ly = labels[a], labels[b]
            if lx is None or ly is None or lx == ly:
                continue
            # x's group contains another gene from y's genome
            others = truth.members.get(lx, set())
            if any(o.genome == y.genome and o != y for o in others):
                return DISAGREE
    return COMPATIBLE


def classify_vs_reference(
    predicted: Sequence[Triple], truth: TruthMap
) -> tuple[list[str], dict[str, int]]:
    classes = [classify_triple(t, truth) for t in predicted]
    counts = {AGREE: 0, DISAGREE: 0, COMPATIBLE: 0}
    for c in classes:
        counts[c] += 1
    return classes, counts


def robustness(
    runs: Sequence[Iterable[Triple]],
    genome_x: str,
    genome_y: str,
) -> float:
    """Share of co-predicted pairs stable across runs.

    A pair (x, y) over the two shared genomes is robust if it is predicted
    in every run in which both genes appear at all; the denominator is all
    pairs predicted in at least one run.  Needs at least two runs.
    """
    if len(runs) < 2:
        raise ValueError("robustness needs at least two prediction sets")
    run_pairs: list[set[Pair]] = []
    run_genes: list[set[Gene]] = []
    for run in runs:
        pairs: set[Pair] = set()
        genes: set[Gene] = set()
        for triple in run:
            genes.update(triple)
            by_genome = {gene.genome: gene for gene in triple}
            if genome_x in by_genome and genome_y in by_genome:
                pairs.add(_pair(by_genome[genome_x], by_genome[genome_y]))
        run_pairs.append(pairs)
        run_genes.append(genes)
    universe = set().union(*run_pairs)
    if not universe:
        return 100.0
    robust = 0
    for pair in universe:
        ok = True
        for pairs, genes in zip(run_pairs, run_genes):
            if pair[0] in genes and pair[1] in genes and pair not in pairs:
                ok = False
                break
        if ok:
            robust += 1
    return 100.0 * robust / len(universe)


def parse_truth_pairs(text: str) -> set[Pair]:
    pairs: set[Pair] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise ParseError("expected 'genome:gene<TAB>genome:gene'", lineno)
        try:
            pairs.add(_pair(_parse_qualified(fields[0]), _parse_qualified(fields[1])))
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc
    return pairs


def read_truth_pairs(path) -> set[Pair]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_truth_pairs(fh.read())

