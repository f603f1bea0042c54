"""The instance as named objects: genes, chromosomes and candidate genes.

Every stage of a solve reads numbers: a genome's gene ids and walks
(`genomes.Genome`), the similarities as `SimilarityGraph.scores`, keyed by
labels and names, and the candidates as id arrays (`candidates.Candidates`).
This module holds the forms that name them, for the code that builds,
writes or checks an instance: the subcommands other than `solve`, the MIS
reduction, ICF-SEG, `reference` and the tests.  A `solve` never imports
it, so that its process compiles none of it (see `cli`).

- `Gene`, a genome label and a gene name, and `Chromosome`, a name, a
  shape and its (gene, orientation) entries.  `chromosomes`, `genes` and
  `has_gene` read a genome as these objects; `splice_genes` removes genes
  by object; `serialize_genome` and `write_genome_file` write the genome
  file format that `genomes.parse_genomes` reads.
- `facing_end`, the one rule that names the extremity an oriented gene
  turns to its neighbour (see `genomes`).
- `set_similarity`, `similarity`, `similarity_pairs`,
  `serialize_similarities` and `write_similarity_file`: a
  `SimilarityGraph` read and written by `Gene`.
- `CandidateGene`, the object form of a candidate, which
  `Candidates.objects` builds; `candidate_names` and `extremity_rows`
  read the candidates and a table's rows by name and by extremity.
- `paper_table`, the paper's literal table, telomere triples and all, which
  the `enumerate` TSV, ICF-SEG, the LP export and the oracle read, and
  `telomere_triples`, which marks them.
"""
from __future__ import annotations

import itertools
from array import array
from typing import Iterable, NamedTuple

from .candidates import Candidates, ConservedAdjacencyTable, enumerate_conserved_adjacencies
from .genomes import TELOMERE_PREFIX, Genome, GenomeError, SimilarityGraph
from .kernels import IntArray


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


def _parse_qualified(token: str) -> Gene:
    genome, sep, name = token.partition(":")
    if not sep or not genome or not name:
        raise ValueError(f"gene token {token!r} is not of the form genome:gene")
    return Gene(genome, name)


def facing_end(telomere: bool, orientation: int, forward: bool) -> int:
    """Code (index into `genomes.ENDS`) of the extremity that an oriented
    gene, or a telomere, turns to the next entry of its chromosome
    (`forward`) or to the previous one.

    A gene read forward shows its tail first and its head last; a telomere
    has its single telomeric end.
    """
    if telomere:
        return 2
    return int((orientation > 0) == forward)


# -- a genome as `Gene` objects ----------------------------------------------


def chromosomes(genome: Genome) -> tuple[Chromosome, ...]:
    """The genome's walks as `Chromosome`s, in order."""
    named = [Gene(genome.label, name) for name in genome.names]
    return tuple(
        Chromosome(name, shape, tuple(zip(map(named.__getitem__, ids), signs)))
        for name, shape, (ids, signs) in genome.walks
    )


def genes(genome: Genome) -> frozenset[Gene]:
    """The genes and telomeres on the walks."""
    names = (name for name, on in zip(genome.names, genome.present) if on)
    return frozenset(Gene(genome.label, name) for name in names)


def has_gene(genome: Genome, gene: Gene) -> bool:
    """Whether `gene` is on one of the genome's walks."""
    label, name = gene
    k = genome.id_of.get(name)
    return label == genome.label and k is not None and genome.present[k]


def splice_genes(genome: Genome, remove: set[Gene]) -> Genome:
    """`Genome.splice` without the given (non-telomere) genes."""
    if any(g.is_telomere for g in remove):
        raise GenomeError("cannot splice telomeres")
    keep = [True] * len(genome.names)
    for gene in remove:
        if has_gene(genome, gene):
            keep[genome.id_of[gene.name]] = False
    return genome.splice(keep)


def serialize_genome(genome: Genome) -> str:
    """The genome in the genome file format (see `genomes`), one line per
    chromosome, without its telomeres."""
    lines = []
    for chrom in chromosomes(genome):
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


# -- similarities by `Gene` --------------------------------------------------


def set_similarity(sigma: SimilarityGraph, x: Gene, y: Gene, value: float) -> None:
    """Store sim(x, y) = sim(y, x) = `value`; 0 removes the pair."""
    sigma._set(x.genome, x.name, y.genome, y.name, value)


def similarity(sigma: SimilarityGraph, x: Gene, y: Gene) -> float:
    """sim(x, y), with the telomere and same-genome conventions."""
    if x.genome == y.genome:
        return 0.0
    if x.is_telomere or y.is_telomere:
        return 1.0 if (x.is_telomere and y.is_telomere) else 0.0
    return sigma.scores.get((*x, *y) if x < y else (*y, *x), 0.0)


def similarity_pairs(sigma: SimilarityGraph) -> list[tuple[Gene, Gene, float]]:
    """Stored pairs (x, y, value) with x <= y, in the order they were
    stored, not sorted; `serialize_similarities` sorts them."""
    return [(Gene(gx, nx), Gene(gy, ny), value)
            for (gx, nx, gy, ny), value in sigma.scores.items()]


def serialize_similarities(sigma: SimilarityGraph) -> str:
    """The similarity file that `SimilarityGraph.parse` reads: one sorted
    pair per line, each score to 12 significant digits."""
    lines = [f"{x}\t{y}\t{value:.12g}" for x, y, value in sorted(similarity_pairs(sigma))]
    return "\n".join(lines) + ("\n" if lines else "")


def write_similarity_file(path, sigma: SimilarityGraph) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_similarities(sigma))


# -- candidates ----------------------------------------------------------------


class CandidateGene(NamedTuple):
    """A 3-clique (g, h, i) of the similarity graph, or a telomere triple."""

    g: Gene
    h: Gene
    i: Gene
    triple_score: float
    gene_score: float

    @property
    def genes(self) -> tuple[Gene, Gene, Gene]:
        return (self.g, self.h, self.i)

    @property
    def is_telomere_triple(self) -> bool:
        return self.g.is_telomere

    @property
    def ends(self) -> tuple[int, ...]:
        """Extremity end codes this candidate exposes."""
        return (2,) if self.is_telomere_triple else (0, 1)

    def __str__(self) -> str:
        return f"({self.g.name},{self.h.name},{self.i.name})"


def candidate_names(candidates, m: int) -> tuple[str, str, str]:
    """The names of candidate m's genes, one per genome."""
    return tuple(genome.names[row[m]] for genome, row in zip(candidates.genomes, candidates.ids))


def extremity_rows(table) -> list[list[int]]:
    """Per extremity code 3 m + e, the rows of `table` at it, in row order:
    one saturation row of the 0-1 program each."""
    rows: list[list[int]] = [[] for _ in range(3 * len(table.candidates))]
    for k, (m1, e1, m2, e2) in enumerate(zip(table.m1, table.e1, table.m2, table.e2)):
        rows[3 * m1 + e1].append(k)
        rows[3 * m2 + e2].append(k)
    return rows


# -- the paper's table -------------------------------------------------------


def telomere_triples(candidates) -> list[bool]:
    """Per candidate, whether it is a telomere triple, as only the
    candidates of a `paper_table` can be."""
    telomeric = candidates.genomes[0].telomeric
    return [telomeric[g] for g in candidates.ids[0]]


def paper_table(table: ConservedAdjacencyTable) -> ConservedAdjacencyTable:
    """The paper's table of `table`: each combination of one telomere per
    genome joins the candidates as a telomere triple of triple score 1, and
    the walks that `table` was scanned from are scanned again.  The
    candidates sort by their genes and the rows by their keys, as
    enumerating them gives.  The triples' telomeres are candidates now, so
    the paper's table holds no telomere facts, and it is its own paper's
    table; so is a table of a genome without telomeres.
    """
    triples = list(itertools.product(*table.telomeres))
    if not triples:
        return table
    cands = table.candidates
    entries = sorted([*zip(*cands.ids, cands.triple), *((*t, 1.0) for t in triples)])
    paper = Candidates(cands.genomes, [IntArray(e[x] for e in entries) for x in range(3)],
                       array("d", [e[3] for e in entries]))
    rows = enumerate_conserved_adjacencies(paper, *table.genomes)
    return ConservedAdjacencyTable(paper, rows.m1, rows.e1, rows.m2, rows.e2, rows.mask,
                                   table.genomes)
