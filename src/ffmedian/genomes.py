"""Genome representation: numbered genes, explicit telomeres, adjacencies.

A genome is a set of chromosomes, each an ordered list of signed genes.
Linear chromosomes are capped by two telomeres that are created
automatically and never shared between chromosomes.  A genome is numbered
once, at load: `Genome.names` lists its genes and telomeres in name order
(gene k is `names[k]`), and each chromosome is a walk of gene ids and
orientations.  Its adjacencies join consecutive entries of a walk (and the
ends of a circular one); one rule, `facing_end`, names the extremity each
entry turns to its neighbour: a gene read forward contributes its tail
first and its head second, so consecutive forward genes a, b yield
{a_head, b_tail}.  `Genome.adjacency_arrays` applies it to the walks as int
codes, ICF-SEG's run scan to the G walk (`segments`) and
`reference.adjacencies` to `Gene` objects.  The module holds its numbers
in plain lists.  Every stage of the program reads only the numbering and
the walks; `Genome.chromosomes` and `genes`, the genome as `Gene` objects,
are built on first use.

Gene similarities across genomes live in a `SimilarityGraph`, keyed by
labels and names, with no `Gene` built per line.  Telomere similarities are
fixed by convention: 1 between any two telomeres of different genomes, 0
between a telomere and a regular gene.
"""
from __future__ import annotations

from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

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


def facing_end(telomere: bool, orientation: int, forward: bool) -> int:
    """Code (index into `ENDS`) of the extremity that an oriented gene, or a
    telomere, turns to the next entry of its chromosome (`forward`) or to
    the previous one.

    A gene read forward shows its tail first and its head last; a telomere
    has its single telomeric end.
    """
    if telomere:
        return 2
    return int((orientation > 0) == forward)


class Genome:
    """An immutable genome, numbered once (see the module docstring).

    `walks` holds each chromosome as (name, shape, walk), the walk a pair
    of lists: its entries' gene ids and their orientations.  `telomeric`
    and `present` flag, per gene id, the telomeres and the genes on some
    walk: a spliced genome keeps the numbering of its genes.  Build one
    with `build_genome`.
    """

    def __init__(self, label: str, names: Sequence[str], walks):
        self.label = label
        self.names = names
        self.walks = tuple(walks)
        self.telomeric = [False] * len(names)
        self.present = [False] * len(names)
        for _, shape, (ids, _) in self.walks:
            for k in ids:
                self.present[k] = True
            if shape == LINEAR:
                self.telomeric[ids[0]] = self.telomeric[ids[-1]] = True

    def adjacency_arrays(self):
        """The adjacencies as (gene, end, gene, end) int lists: consecutive
        entries of each walk, then the last and first entries of a circular
        one, with the `facing_end` code of each entry's end."""
        g1, e1, g2, e2 = [], [], [], []
        telomeric = self.telomeric
        for _, shape, (ids, signs) in self.walks:
            if shape == CIRCULAR:
                ids, signs = ids + ids[:1], signs + signs[:1]
            g1 += ids[:-1]
            g2 += ids[1:]
            e1 += [2 if telomeric[k] else int(o > 0) for k, o in zip(ids[:-1], signs)]
            e2 += [2 if telomeric[k] else int(o < 0) for k, o in zip(ids[1:], signs[1:])]
        return g1, e1, g2, e2

    def splice(self, keep: Sequence[bool]) -> "Genome":
        """The genome with only the genes that `keep` marks, numbered as
        before.  Neighbours of a removed gene become adjacent; a chromosome
        that loses all its genes stays, telomere-only (linear) or empty
        (circular).  `keep` must mark every telomere."""
        walks = []
        for name, shape, (ids, signs) in self.walks:
            kept = [j for j, k in enumerate(ids) if keep[k]]
            walks.append((name, shape, ([ids[j] for j in kept], [signs[j] for j in kept])))
        return Genome(self.label, self.names, walks)

    @cached_property
    def id_of(self) -> dict[str, int]:
        return dict(zip(self.names, range(len(self.names))))

    # -- the genome as `Gene` objects, built on first use ----------------

    @cached_property
    def chromosomes(self) -> tuple[Chromosome, ...]:
        genes = [Gene(self.label, name) for name in self.names]
        return tuple(
            Chromosome(name, shape, tuple(zip(map(genes.__getitem__, ids), signs)))
            for name, shape, (ids, signs) in self.walks
        )

    @cached_property
    def genes(self) -> frozenset[Gene]:
        """The genes and telomeres on the walks."""
        names = (name for name, on in zip(self.names, self.present) if on)
        return frozenset(Gene(self.label, name) for name in names)

    def __contains__(self, gene: Gene) -> bool:
        return gene in self.genes

    def __repr__(self) -> str:
        return f"Genome({self.label!r}, {len(self.walks)} chromosomes)"


def build_genome(
    label: str,
    chromosomes: Iterable[tuple[str, str, Sequence[tuple[str, int]]]],
) -> Genome:
    """Build a genome from (chromosome name, shape, [(gene name, +1/-1)]) entries.

    Telomeres for linear chromosomes are created here and named after the
    chromosome, e.g. ``~chr1.L``.  The genes and telomeres are numbered in
    name order.
    """
    layout, names, signs = [], [], []
    seen_chroms: set[str] = set()
    for chrom_name, shape, entries in chromosomes:
        if chrom_name in seen_chroms:
            raise GenomeError(f"duplicate chromosome name {chrom_name!r}")
        seen_chroms.add(chrom_name)
        if shape not in (LINEAR, CIRCULAR):
            raise GenomeError(f"chromosome {chrom_name!r}: bad shape {shape!r}")
        if not entries:
            raise GenomeError(f"chromosome {chrom_name!r} declares no genes")
        chrom_names, chrom_signs = zip(*entries)
        if {*chrom_signs} - {1, -1} or f"\n{TELOMERE_PREFIX}" in "\n" + "\n".join(chrom_names):
            for name, orientation in entries:  # the first bad entry
                if name.startswith(TELOMERE_PREFIX):
                    raise GenomeError(f"gene name {name!r} uses the reserved telomere prefix")
                if orientation not in (1, -1):
                    raise GenomeError(f"gene {name!r}: bad orientation {orientation!r}")
        if shape == LINEAR:
            chrom_names = (f"{TELOMERE_PREFIX}{chrom_name}.L", *chrom_names,
                           f"{TELOMERE_PREFIX}{chrom_name}.R")
            chrom_signs = (1, *chrom_signs, 1)
        layout.append((chrom_name, shape, len(names), len(names) + len(chrom_names)))
        names += chrom_names
        signs += chrom_signs
    if ":" in label or not label:
        raise GenomeError(f"bad genome label {label!r}")
    if len(set(names)) < len(names):
        seen: set[str] = set()
        duplicate = next(name for name in names if name in seen or seen.add(name))
        raise GenomeError(f"duplicate gene {duplicate!r} in genome {label}")
    order = sorted(range(len(names)), key=names.__getitem__)
    number = [0] * len(names)
    for k, j in enumerate(order):
        number[j] = k
    return Genome(label, [names[k] for k in order],
                  [(name, shape, (number[a:b], signs[a:b])) for name, shape, a, b in layout])


def splice_genes(genome: Genome, remove: set[Gene]) -> Genome:
    """`Genome.splice` without the given (non-telomere) genes."""
    if any(g.is_telomere for g in remove):
        raise GenomeError("cannot splice telomeres")
    keep = [True] * len(genome.names)
    for gene in remove:
        if gene in genome:
            keep[genome.id_of[gene.name]] = False
    return genome.splice(keep)


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
            raise ParseError(f"expected 4 tab-separated fields, got {len(fields)}", lineno)
        label, chrom_name, shape, tokens = (f.strip() for f in fields)
        if shape not in (LINEAR, CIRCULAR):
            raise ParseError(f"bad chromosome shape {shape!r}", lineno)
        tokens = tokens.split()
        signs = "".join(token[0] for token in tokens)
        names = [token[1:] for token in tokens]
        if signs.count("+") + signs.count("-") < len(signs) or "" in names:
            for token in tokens:  # the first bad token
                if token[0] not in "+-":
                    raise ParseError(f"gene token {token!r} lacks an orientation sign", lineno)
                if not token[1:]:
                    raise ParseError(f"empty gene name in token {token!r}", lineno)
        entries = list(zip(names, [1 if sign == "+" else -1 for sign in signs]))
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

    Only regular genes are stored, in `scores`, keyed by (genome x, name x,
    genome y, name y) with genome x < genome y.  Telomere pairs across
    genomes score 1, telomere-gene pairs 0, and intra-genome queries 0 by
    convention.
    """

    def __init__(self):
        self.scores: dict[tuple[str, str, str, str], float] = {}

    def set(self, x: Gene, y: Gene, value: float) -> None:
        self._set(x.genome, x.name, y.genome, y.name, value)

    def _set(self, gx: str, nx: str, gy: str, ny: str, value: float) -> None:
        if gx == gy:
            raise GenomeError(f"intra-genome similarity {gx}:{nx} / {gy}:{ny} not allowed")
        if nx.startswith(TELOMERE_PREFIX) or ny.startswith(TELOMERE_PREFIX):
            raise GenomeError("telomere similarities are fixed by convention")
        if not (0.0 <= value <= 1.0):
            raise GenomeError(f"similarity {value!r} outside [0, 1]")
        key = (gx, nx, gy, ny) if gx < gy else (gy, ny, gx, nx)
        if value == 0.0:
            self.scores.pop(key, None)
        else:
            self.scores[key] = value

    def get(self, x: Gene, y: Gene) -> float:
        if x.genome == y.genome:
            return 0.0
        if x.is_telomere or y.is_telomere:
            return 1.0 if (x.is_telomere and y.is_telomere) else 0.0
        return self.scores.get((*x, *y) if x < y else (*y, *x), 0.0)

    def pairs(self) -> list[tuple[Gene, Gene, float]]:
        """Stored pairs (x, y, value) with x <= y, in the order they were
        stored, not sorted; `serialize` sorts them."""
        return [(Gene(gx, nx), Gene(gy, ny), value)
                for (gx, nx, gy, ny), value in self.scores.items()]

    def __len__(self) -> int:
        return len(self.scores)

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
                raise ParseError(f"expected 3 tab-separated fields, got {len(fields)}", lineno)
            gx, sx, nx = fields[0].partition(":")
            gy, sy, ny = fields[1].partition(":")
            if not (sx and gx and nx and sy and gy and ny):
                try:
                    _parse_qualified(fields[0]), _parse_qualified(fields[1])
                except ValueError as exc:
                    raise ParseError(str(exc), lineno) from exc
            try:
                value = float(fields[2])
            except ValueError:
                raise ParseError(f"bad score {fields[2]!r}", lineno) from None
            try:
                graph._set(gx, nx, gy, ny, value)
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
