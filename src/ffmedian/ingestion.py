"""Build a similarity graph from tabular local-alignment hits.

Hits arrive in 12-column tabular format (query, subject, ..., e-value,
bitscore) with genes written as `genome:gene`.  Processing follows three
stages: an e-value threshold at parse time, a stringency filter that keeps
a hit from g to h only if its bitscore reaches a fraction f of the best hit
leaving h into g's genome, and relative reciprocal bitscore weights
sigma(g,h) = (bs(g,h) + bs(h,g)) / (bs(g,g) + bs(h,h)) clamped to [0,1].
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .genomes import Genome, ParseError, SimilarityGraph
from .objects import Gene, _parse_qualified, genes, set_similarity

log = logging.getLogger(__name__)


class AlignmentHit(NamedTuple):
    query: Gene
    subject: Gene
    bitscore: float
    evalue: float

    @property
    def is_self(self) -> bool:
        return self.query == self.subject


@dataclass(frozen=True)
class FilterParams:
    evalue_max: float = 1e-5
    f: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.f <= 1.0:
            raise ValueError(f"stringency fraction f={self.f} outside [0, 1]")
        if self.evalue_max < 0:
            raise ValueError(f"negative e-value threshold {self.evalue_max}")


def parse_hits(
    lines: Iterable[str],
    params: FilterParams | None = None,
    genomes: Sequence[Genome] | None = None,
) -> list[AlignmentHit]:
    """Parse 12-column rows; drop rows above the e-value threshold.

    With `genomes` given, gene ids are validated against them and unknown
    ids are rejected by name.
    """
    known = None
    if genomes is not None:
        known = {gene for genome in genomes for gene in genes(genome)}
    hits = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) < 12:
            raise ParseError(
                f"expected 12 tab-separated columns, got {len(fields)}", lineno
            )
        try:
            query = _parse_qualified(fields[0].strip())
            subject = _parse_qualified(fields[1].strip())
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc
        try:
            evalue = float(fields[10])
            bitscore = float(fields[11])
        except ValueError:
            raise ParseError(
                f"bad e-value/bitscore pair {fields[10]!r}/{fields[11]!r}", lineno
            ) from None
        if evalue < 0 or bitscore <= 0:
            raise ParseError(
                f"out-of-range e-value {evalue} or bitscore {bitscore}", lineno
            )
        if known is not None:
            for gene in (query, subject):
                if gene not in known:
                    raise ParseError(f"unknown gene id {gene}", lineno)
        if params is not None and evalue > params.evalue_max:
            continue
        hits.append(AlignmentHit(query, subject, bitscore, evalue))
    return hits


def read_hit_files(paths, params: FilterParams | None = None, genomes=None):
    hits: list[AlignmentHit] = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                hits.extend(parse_hits(fh, params=params, genomes=genomes))
            except ParseError as exc:
                raise ParseError(f"{path}: {exc}") from exc
    return hits


def stringency_filter(hits: Sequence[AlignmentHit], f: float) -> list[AlignmentHit]:
    """Keep a cross-genome hit g->h only if bs(g->h) >= f * best bs(h->g').

    The reference maximum ranges over hits leaving h into any gene g' of
    g's genome; hits without competition pass.  Self hits and intra-genome
    hits are not subject to the filter.
    """
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"stringency fraction f={f} outside [0, 1]")
    # best[(gene, genome)]: strongest bitscore from `gene` into `genome`
    best: dict[tuple[Gene, str], float] = {}
    for hit in hits:
        if hit.query.genome == hit.subject.genome:
            continue
        key = (hit.query, hit.subject.genome)
        if hit.bitscore > best.get(key, 0.0):
            best[key] = hit.bitscore
    retained = []
    for hit in hits:
        if hit.query.genome == hit.subject.genome:
            retained.append(hit)
            continue
        threshold = f * best.get((hit.subject, hit.query.genome), 0.0)
        if hit.bitscore >= threshold:
            retained.append(hit)
    return retained


def rrbs_weights(
    hits: Sequence[AlignmentHit], require_reciprocal: bool = False
) -> SimilarityGraph:
    """Relative reciprocal bitscore similarity graph.

    One-directional pairs double the present direction unless
    `require_reciprocal` drops them.  Every gene participating in a cross
    hit must come with a self hit.
    """
    self_score: dict[Gene, float] = {}
    cross: dict[tuple[Gene, Gene], float] = {}
    for hit in hits:
        if hit.is_self:
            self_score[hit.query] = max(self_score.get(hit.query, 0.0), hit.bitscore)
        elif hit.query.genome == hit.subject.genome:
            log.debug("ignoring intra-genome non-self hit %s -> %s",
                      hit.query, hit.subject)
        else:
            key = (hit.query, hit.subject)
            cross[key] = max(cross.get(key, 0.0), hit.bitscore)
    missing = sorted(
        {
            str(gene)
            for pair in cross
            for gene in pair
            if gene not in self_score
        }
    )
    if missing:
        raise ValueError(
            "missing self-hit bitscores for: " + ", ".join(missing)
        )
    graph = SimilarityGraph()
    seen: set[tuple[Gene, Gene]] = set()
    for g, h in sorted(cross):
        key = (g, h) if g <= h else (h, g)
        if key in seen:
            continue
        seen.add(key)
        forward = cross.get((key[0], key[1]), 0.0)
        backward = cross.get((key[1], key[0]), 0.0)
        if forward == 0.0 or backward == 0.0:
            if require_reciprocal:
                continue
            numerator = 2.0 * max(forward, backward)
        else:
            numerator = forward + backward
        value = numerator / (self_score[key[0]] + self_score[key[1]])
        set_similarity(graph, key[0], key[1], min(1.0, max(0.0, value)))
    return graph


def build_similarity_graph(
    hits: Sequence[AlignmentHit],
    params: FilterParams | None = None,
    require_reciprocal: bool = False,
) -> SimilarityGraph:
    """Stringency filter followed by RRBS weighting."""
    params = params or FilterParams()
    retained = stringency_filter(hits, params.f)
    return rrbs_weights(retained, require_reciprocal=require_reciprocal)
