"""Genome representation: oriented genes, explicit telomeres, adjacencies.

A genome is a set of chromosomes, each an ordered list of signed genes.
Linear chromosomes are capped by two telomeres that are created
automatically and never shared between chromosomes.  A genome's
adjacencies come from one walk, `Genome.neighbours`, over consecutive
entries of each chromosome (and the wrap of a circular one), and one rule,
`facing_end`, names the extremity each entry turns to its neighbour: a
gene read in forward orientation contributes its tail extremity first and
its head extremity second, so two consecutive forward genes a, b yield the
adjacency {a_head, b_tail}.  Every stage that reads adjacencies, as
int codes here or as the paper's extremity pairs (`reference.Extremity`,
`reference.adjacencies`), goes through these two.

Gene similarities across genomes live in a `SimilarityGraph`.  Telomere
similarities are fixed by convention: 1 between any two telomeres of
different genomes, 0 between a telomere and a regular gene.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

TAIL = "t"
HEAD = "h"
TELOMERIC = "o"
ENDS = (TAIL, HEAD, TELOMERIC)  # an end's int code is its index here

# Telomere gene names carry this prefix; user gene names must not.
TELOMERE_PREFIX = "~"

LINEAR = "linear"
CIRCULAR = "circular"


class GenomeError(ValueError):
    """Malformed genome structure or lookup of a foreign gene."""


class ParseError(GenomeError):
    """Input file rejected; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class Gene(NamedTuple):
    """A gene (or telomere) identified by its genome label and name.

    A named tuple: immutable, and hashed, compared and sorted as the tuple
    (genome, name).  Every stage keys dicts and sets by genes, and a tuple
    hashes about three times as fast as a frozen dataclass.  A gene also
    equals the plain tuple (genome, name), so no dict or set mixes the two.
    `str` gives `genome:name`, the form of the similarity and report files.
    """

    genome: str
    name: str

    @property
    def is_telomere(self) -> bool:
        return self.name.startswith(TELOMERE_PREFIX)

    def __str__(self) -> str:
        return f"{self.genome}:{self.name}"


class Chromosome(NamedTuple):
    name: str
    shape: str
    order: tuple[tuple[Gene, int], ...]  # (gene, orientation in {+1,-1})


def facing_end(gene: Gene, orientation: int, forward: bool) -> int:
    """Code (index into `ENDS`) of the extremity of an oriented gene that
    faces the next entry of its chromosome (`forward`) or the previous one.

    A gene read forward shows its tail first and its head last; a telomere
    has its single telomeric end.
    """
    if gene.is_telomere:
        return 2
    return int((orientation > 0) == forward)


class Genome:
    """Immutable genome; `neighbours` walks its adjacencies.

    Construct via `build_genome`; direct construction expects chromosomes
    that already satisfy the telomere invariants.
    """

    def __init__(self, label: str, chromosomes: Sequence[Chromosome]):
        if ":" in label or not label:
            raise GenomeError(f"bad genome label {label!r}")
        self.label = label
        self.chromosomes = tuple(chromosomes)
        genes: dict[Gene, tuple[int, int, int]] = {}
        for ci, chrom in enumerate(self.chromosomes):
            if chrom.shape not in (LINEAR, CIRCULAR):
                raise GenomeError(f"bad chromosome shape {chrom.shape!r}")
            for pos, (gene, orientation) in enumerate(chrom.order):
                if gene.genome != label:
                    raise GenomeError(f"gene {gene} does not belong to genome {label}")
                if gene in genes:
                    raise GenomeError(f"duplicate gene {gene.name!r} in genome {label}")
                genes[gene] = (ci, pos, orientation)
            if chrom.shape == LINEAR:
                if (
                    len(chrom.order) < 2
                    or not chrom.order[0][0].is_telomere
                    or not chrom.order[-1][0].is_telomere
                ):
                    raise GenomeError(
                        f"linear chromosome {chrom.name!r} must be capped by telomeres"
                    )
                if any(g.is_telomere for g, _ in chrom.order[1:-1]):
                    raise GenomeError(f"interior telomere in chromosome {chrom.name!r}")
            else:
                if any(g.is_telomere for g, _ in chrom.order):
                    raise GenomeError(
                        f"telomere inside circular chromosome {chrom.name!r}"
                    )
        self._occurrence = genes
        self.genes = frozenset(genes)

    def neighbours(self) -> Iterator[tuple[tuple[Gene, int], tuple[Gene, int]]]:
        """Each adjacency as the two (gene, orientation) entries it joins, in
        chromosome order: consecutive entries, then the last and first
        entries of a circular chromosome.  The first entry's forward
        `facing_end` meets the second's backward one."""
        for chrom in self.chromosomes:
            entries = chrom.order
            yield from zip(entries, entries[1:])
            if chrom.shape == CIRCULAR and entries:
                yield entries[-1], entries[0]

    # -- queries ---------------------------------------------------------

    def locate(self, gene: Gene) -> tuple[int, int, int]:
        """(chromosome index, position, orientation) of a gene."""
        try:
            return self._occurrence[gene]
        except KeyError:
            raise GenomeError(f"gene {gene} not in genome {self.label}") from None

    def __contains__(self, gene: Gene) -> bool:
        return gene in self._occurrence

    @property
    def proper_genes(self) -> list[Gene]:
        return sorted(g for g in self.genes if not g.is_telomere)

    def __repr__(self) -> str:
        return f"Genome({self.label!r}, {len(self.chromosomes)} chromosomes)"


def build_genome(
    label: str,
    chromosomes: Iterable[tuple[str, str, Sequence[tuple[str, int]]]],
) -> Genome:
    """Build a genome from (chromosome name, shape, [(gene name, +1/-1)]) entries.

    Telomeres for linear chromosomes are created here and named after the
    chromosome, e.g. ``~chr1.L``.
    """
    built = []
    seen_chroms: set[str] = set()
    for chrom_name, shape, entries in chromosomes:
        if chrom_name in seen_chroms:
            raise GenomeError(f"duplicate chromosome name {chrom_name!r}")
        seen_chroms.add(chrom_name)
        if shape not in (LINEAR, CIRCULAR):
            raise GenomeError(f"chromosome {chrom_name!r}: bad shape {shape!r}")
        if not entries:
            raise GenomeError(f"chromosome {chrom_name!r} declares no genes")
        order: list[tuple[Gene, int]] = []
        for name, orientation in entries:
            if name.startswith(TELOMERE_PREFIX):
                raise GenomeError(
                    f"gene name {name!r} uses the reserved telomere prefix"
                )
            if orientation not in (1, -1):
                raise GenomeError(f"gene {name!r}: bad orientation {orientation!r}")
            order.append((Gene(label, name), orientation))
        if shape == LINEAR:
            left = Gene(label, f"{TELOMERE_PREFIX}{chrom_name}.L")
            right = Gene(label, f"{TELOMERE_PREFIX}{chrom_name}.R")
            order = [(left, 1)] + order + [(right, 1)]
        built.append(Chromosome(chrom_name, shape, tuple(order)))
    return Genome(label, built)


def splice_genes(genome: Genome, remove: set[Gene]) -> Genome:
    """Return a copy with the given (non-telomere) genes spliced out.

    Neighbours of a removed gene become adjacent; telomere structure is
    preserved.  Chromosomes that lose all their genes stay in place,
    either telomere-only (linear) or empty (circular).
    """
    if any(g.is_telomere for g in remove):
        raise GenomeError("cannot splice telomeres")
    chromosomes = []
    for chrom in genome.chromosomes:
        order = tuple(entry for entry in chrom.order if entry[0] not in remove)
        chromosomes.append(Chromosome(chrom.name, chrom.shape, order))
    return Genome(genome.label, chromosomes)


# -- genome file format ----------------------------------------------------
#
# One line per chromosome, tab-separated:
#   genome_label <TAB> chromosome_id <TAB> linear|circular <TAB> +geneA -geneB
# Lines starting with '#' are comments.  Comments and surplus whitespace are
# not preserved by serialization (declared canonicalization).


def parse_genomes(text: str) -> list[Genome]:
    """Parse a genome file; returns genomes in order of first appearance."""
    per_label: dict[str, list[tuple[str, str, list[tuple[str, int]]]]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise ParseError(
                f"expected 4 tab-separated fields, got {len(fields)}", lineno
            )
        label, chrom_name, shape, tokens = (f.strip() for f in fields)
        if shape not in (LINEAR, CIRCULAR):
            raise ParseError(f"bad chromosome shape {shape!r}", lineno)
        entries: list[tuple[str, int]] = []
        for token in tokens.split():
            if token[0] == "+":
                entries.append((token[1:], 1))
            elif token[0] == "-":
                entries.append((token[1:], -1))
            else:
                raise ParseError(f"gene token {token!r} lacks an orientation sign", lineno)
            if not token[1:]:
                raise ParseError(f"empty gene name in token {token!r}", lineno)
        if not entries:
            raise ParseError(f"chromosome {chrom_name!r} declares no genes", lineno)
        per_label.setdefault(label, []).append((chrom_name, shape, entries))
    genomes = []
    for label, chroms in per_label.items():
        try:
            genomes.append(build_genome(label, chroms))
        except GenomeError as exc:
            raise ParseError(str(exc)) from exc
    return genomes


def parse_genome_file(path) -> list[Genome]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_genomes(fh.read())


def serialize_genome(genome: Genome) -> str:
    lines = []
    for chrom in genome.chromosomes:
        tokens = " ".join(
            ("+" if orientation > 0 else "-") + gene.name
            for gene, orientation in chrom.order
            if not gene.is_telomere
        )
        lines.append(f"{genome.label}\t{chrom.name}\t{chrom.shape}\t{tokens}")
    return "\n".join(lines) + "\n"


def write_genome_file(path, genomes: Iterable[Genome]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for genome in genomes:
            fh.write(serialize_genome(genome))


# -- similarity graph ------------------------------------------------------


class SimilarityGraph:
    """Symmetric cross-genome gene similarity with values in [0, 1].

    Only regular genes are stored.  Telomere pairs across genomes score 1,
    telomere-gene pairs 0, and intra-genome queries 0 by convention.
    """

    def __init__(self, scores: Mapping[tuple[Gene, Gene], float] | None = None):
        self._scores: dict[tuple[Gene, Gene], float] = {}
        if scores:
            for (x, y), value in scores.items():
                self.set(x, y, value)

    def set(self, x: Gene, y: Gene, value: float) -> None:
        if x.genome == y.genome:
            raise GenomeError(f"intra-genome similarity {x} / {y} not allowed")
        if x.is_telomere or y.is_telomere:
            raise GenomeError("telomere similarities are fixed by convention")
        if not (0.0 <= value <= 1.0):
            raise GenomeError(f"similarity {value!r} outside [0, 1]")
        key = (x, y) if x <= y else (y, x)
        if value == 0.0:
            self._scores.pop(key, None)
        else:
            self._scores[key] = value

    def get(self, x: Gene, y: Gene) -> float:
        if x.genome == y.genome:
            return 0.0
        if x.is_telomere or y.is_telomere:
            return 1.0 if (x.is_telomere and y.is_telomere) else 0.0
        key = (x, y) if x <= y else (y, x)
        return self._scores.get(key, 0.0)

    def pairs(self) -> list[tuple[Gene, Gene, float]]:
        """Stored pairs (x, y, value) with x <= y, in the order they were
        stored, not sorted; `serialize` sorts them."""
        return [(x, y, value) for (x, y), value in self._scores.items()]

    def __len__(self) -> int:
        return len(self._scores)

    def serialize(self) -> str:
        lines = [f"{x}\t{y}\t{value:.12g}" for x, y, value in sorted(self.pairs())]
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def parse(cls, text: str) -> "SimilarityGraph":
        graph = cls()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ParseError(
                    f"expected 3 tab-separated fields, got {len(fields)}", lineno
                )
            try:
                x = _parse_qualified(fields[0])
                y = _parse_qualified(fields[1])
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from exc
            try:
                value = float(fields[2])
            except ValueError:
                raise ParseError(f"bad score {fields[2]!r}", lineno) from None
            try:
                graph.set(x, y, value)
            except GenomeError as exc:
                raise ParseError(str(exc), lineno) from exc
        return graph

    @classmethod
    def read(cls, path) -> "SimilarityGraph":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.parse(fh.read())

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.serialize())


def _parse_qualified(token: str) -> Gene:
    genome, sep, name = token.partition(":")
    if not sep or not genome or not name:
        raise ValueError(f"gene token {token!r} is not of the form genome:gene")
    return Gene(genome, name)
