"""Candidate median genes and conserved candidate adjacencies.

A candidate median gene is a triple (g, h, i), one gene per extant genome,
whose three pairwise similarities are all positive (a tripartite triangle).
A candidate adjacency pairs two extremities of two non-conflicting
candidates; it is conserved if its projection is an extant adjacency in at
least one genome.  Of the paper's telomere triples the table holds only
what a solve reads: the telomeres, those facing each candidate extremity
and those of emptied chromosomes.  `objects.paper_table` rebuilds them.

Every stage here reads the gene numbering the genomes got at load
(`genomes.Genome`).  `enumerate_candidates` builds the similarity edges
between those ids once (`InstanceIndex`) and scans them once for triangles;
its `Candidates` are id arrays (`kernels.IntArray`).  Preprocessing
(`preprocess_discard_nonclique`) splices the genes in no candidate out of
the walks and keeps the numbering, so the candidates stay theirs.
`candidates_on_genes` lists the candidates on each gene (the conflict
rows); `enumerate_conserved_adjacencies` reads those lists to scan the
walks for the `ConservedAdjacencyTable`, the instance every later stage
reads as arrays.  ICF-SEG and the LP export read them too, with
`objects.extremity_rows` (the saturation rows).  Scores and weights come
from the C library's `cbrt` and `pow`, so they do not depend on the CPU's
vector units.

A solve compiles this module, so it holds only what a solve runs.  The
candidates as named objects, `objects.CandidateGene`, are built only for
code that indexes or iterates a `Candidates`, and `objects` is imported
then; `objects.candidate_names` names one candidate's genes, and
`segments.subset` cuts a table down to some of its rows.
"""
from __future__ import annotations

import math
from array import array
from typing import Sequence

from . import kernels
from .genomes import LINEAR, Genome, GenomeError, SimilarityGraph
from .kernels import LOW, SHIFT, IntArray


GENOME_PAIRS = ((0, 1), (0, 2), (1, 2))


class InstanceIndex:
    """The sparse similarity edges of three genomes, between their gene ids.

    For each genome pair (a, b) in `GENOME_PAIRS`, positions in the given
    genome order, `edges[(a, b)]` is an `IntArray` of the sorted keys
    `gene of a << SHIFT | gene of b` of every positive similarity between
    genes on the genomes' walks, and `values[(a, b)]` holds their
    similarities.  Telomeres have no edges.
    """

    def __init__(self, genomes: Sequence[Genome], sigma: SimilarityGraph):
        if len(genomes) != 3:
            raise GenomeError("an instance needs exactly three genomes")
        labels = [g.label for g in genomes]
        if len(set(labels)) != 3:
            raise GenomeError(f"genome labels must be distinct, got {labels}")
        self.genomes = tuple(genomes)
        slot = {label: x for x, label in enumerate(labels)}
        ids = [genome.id_of for genome in genomes]
        found: dict[tuple[int, int], dict[int, float]] = {pair: {} for pair in GENOME_PAIRS}
        for (gx, nx, gy, ny), value in sigma.scores.items():
            a, b = slot.get(gx), slot.get(gy)
            if a is None or b is None:
                continue
            ka, kb = ids[a].get(nx), ids[b].get(ny)
            if ka is None or kb is None:
                continue
            if a > b:
                a, b, ka, kb = b, a, kb, ka
            found[(a, b)][ka << SHIFT | kb] = value
        self.edges: dict[tuple[int, int], IntArray] = {}
        self.values: dict[tuple[int, int], array] = {}
        for a, b in GENOME_PAIRS:
            edges = found[(a, b)]
            # a gene spliced out of its genome has no edges
            present_a, present_b = genomes[a].present, genomes[b].present
            keys = sorted(key for key in edges
                          if present_a[key >> SHIFT] and present_b[key & LOW])
            self.edges[(a, b)] = IntArray(keys)
            self.values[(a, b)] = array("d", map(edges.__getitem__, keys))


class Candidates:
    """The candidate genes as arrays over the gene ids of `genomes`.

    Candidate m is the genes `ids[x][m]`, one per genome x, with triple
    score `triple[m]` and gene score `score[m]`, its cube root.  Indexed or
    iterated, it is the list that `objects()` builds.
    """

    def __init__(self, genomes: Sequence[Genome], ids: Sequence[Sequence[int]],
                 triple: Sequence[float]):
        self.genomes = tuple(genomes)
        self.ids = tuple(ids)
        self.triple = triple
        self.score = array("d", map(math.cbrt, triple))
        self._objects = None

    def __len__(self) -> int:
        return len(self.triple)

    def __getitem__(self, m):
        return self.objects()[m]

    def __iter__(self):
        return iter(self.objects())

    def objects(self) -> list:
        """The candidates as `objects.CandidateGene`s, built on the first
        call: a solve never asks for them."""
        if self._objects is None:
            from .objects import CandidateGene, Gene

            genes = zip(*([Gene(genome.label, genome.names[k]) for k in row]
                          for genome, row in zip(self.genomes, self.ids)))
            self._objects = [CandidateGene(*c, t, s) for c, t, s in
                             zip(genes, self.triple, self.score)]
        return self._objects


def enumerate_candidates(
    G: Genome, H: Genome, I: Genome, sigma: SimilarityGraph
) -> Candidates:
    """All candidate median genes, sorted lexicographically by (g, h, i):
    one `kernels.triangles` scan of the `InstanceIndex` edges."""
    index = InstanceIndex((G, H, I), sigma)
    gh, gi, hi = (index.edges[pair] for pair in GENOME_PAIRS)
    p, q, r = kernels.triangles(gh, gi, hi)
    gh_val, gi_val, hi_val = (index.values[pair] for pair in GENOME_PAIRS)
    ids = (IntArray(gh[k] >> SHIFT for k in p), IntArray(gh[k] & LOW for k in p),
           IntArray(gi[k] & LOW for k in q))
    return Candidates(index.genomes, ids, array("d", [
        gh_val[a] * gi_val[b] * hi_val[c] for a, b, c in zip(p, q, r)]))


class ConservedAdjacencyTable:
    """The instance: the candidate genes and their conserved candidate
    adjacencies, one table row each, held as arrays, and telomere facts.

    Rows are sorted by (m1, e1, m2, e2) with canonical endpoint order; m1 and
    m2 index `candidates`, e1 and e2 are `genomes.ENDS` codes.  `mask` holds
    one conservation bit per genome (bit k = genome k), and `conserved_in`
    maps a mask to the labels of its genomes.  A row's `factor` is
    (triple(m1) triple(m2))^(1/6), and its `weight` the factor times the
    genomes in its mask.  A solution is a set of row indices, with caps and
    y masks (`solver`): its median genes are the candidates they join.

    The rows are scanned from the walks of `genomes`.  Per genome k,
    `telomeres[k]` lists its telomere ids and `emptied[k]` the telomere
    pairs that end a chromosome left without genes; `facing` maps the code
    3 m + e of each extremity that a telomere faces, in order, to the
    telomere facing it in each genome (-1: none).  The paper's table
    (`objects.paper_table`) has none of them; its solve is the paper's."""

    def __init__(self, candidates: Candidates, m1, e1, m2, e2, mask, genomes,
                 telomeres=((), (), ()), emptied=((), (), ()), facing=None):
        self.candidates = candidates
        self.genomes = tuple(genomes)
        self.labels = tuple(genome.label for genome in candidates.genomes)
        self.conserved_in = [
            tuple(self.labels[x] for x in range(3) if bits >> x & 1) for bits in range(8)
        ]
        self.m1, self.e1, self.m2, self.e2, self.mask = m1, e1, m2, e2, mask
        self.telomeres, self.emptied = telomeres, emptied
        self.facing: dict[int, list[int]] = {} if facing is None else facing
        triple = candidates.triple
        self.factor = array("d", [(triple[a] * triple[b]) ** (1.0 / 6.0) for a, b in zip(m1, m2)])
        self.weight = array("d", [f * bits.bit_count() for f, bits in zip(self.factor, mask)])

    def __len__(self) -> int:
        return len(self.m1)

    def key(self, k: int) -> tuple[int, int, int, int]:
        return (self.m1[k], self.e1[k], self.m2[k], self.e2[k])

    def cap(self, code: int) -> tuple[int, float]:
        """The mask and weight of the cap at extremity `code` of `facing`:
        its row to a telomere triple that holds each telomere facing it."""
        bits = sum(1 << x for x, t in enumerate(self.facing[code]) if t >= 0)
        return bits, self.candidates.triple[code // 3] ** (1.0 / 6.0) * bits.bit_count()

    def genes(self, rows, caps=()) -> list[int]:
        """The candidates that the given rows and caps join, sorted."""
        m1, m2 = self.m1, self.m2
        return sorted({*(m for k in rows for m in (m1[k], m2[k])), *(code // 3 for code in caps)})


def candidates_on_genes(candidates: Candidates) -> list[list[list[int]]]:
    """Per genome x and gene id k, the candidates whose genome-x gene is k,
    in candidate order: one conflict row of the 0-1 program each.  Two
    candidates conflict when they share a list."""
    per_genome = []
    for genome, slot in zip(candidates.genomes, candidates.ids):
        on_gene: list[list[int]] = [[] for _ in genome.names]
        for m, gene in enumerate(slot):
            on_gene[gene].append(m)
        per_genome.append(on_gene)
    return per_genome


def enumerate_conserved_adjacencies(
    candidates: Candidates, G: Genome, H: Genome, I: Genome
) -> ConservedAdjacencyTable:
    """All conserved candidate adjacencies induced by the extant genomes,
    which are those the candidates were enumerated on or those genomes
    after preprocessing, and their telomere facts.  Only their walks are
    read: a telomere faces the gene next to it on a linear walk, and a
    linear walk of two entries is an emptied chromosome."""
    ids = [list(column) for column in candidates.ids]
    genomes, on_genes = (G, H, I), candidates_on_genes(candidates)
    per_genome = [
        kernels.conserved_pairs(*genome.adjacency_arrays(), on_gene, *ids)
        for genome, on_gene in zip(genomes, on_genes)
    ]
    emptied: tuple[list, list, list] = ([], [], [])
    facing: dict[int, list[int]] = {}
    for x, (genome, on_gene) in enumerate(zip(genomes, on_genes)):
        for _, shape, (walk, signs) in genome.walks:
            if shape != LINEAR:
                continue
            if len(walk) == 2:
                emptied[x].append((walk[0], walk[1]))
                continue
            # the end each telomere's neighbour turns to it (`objects.facing_end`)
            for t, k, e in ((walk[0], walk[1], int(signs[1] < 0)),
                            (walk[-1], walk[-2], int(signs[-2] > 0))):
                for m in on_gene[k]:
                    facing.setdefault(3 * m + e, [-1, -1, -1])[x] = t
    telomeres = tuple([k for k, t in enumerate(genome.telomeric) if t] for genome in genomes)
    return ConservedAdjacencyTable(candidates, *kernels.merge_genome_pairs(per_genome), genomes,
                                   telomeres, emptied, dict(sorted(facing.items())))


def preprocess_discard_nonclique(
    G: Genome, H: Genome, I: Genome, candidates: Candidates
) -> tuple[Genome, Genome, Genome, dict[str, list[str]]]:
    """Splice out extant genes that belong to no tripartite 3-clique, that
    is to none of `candidates`, the candidates of G, H and I.

    Such genes can never be part of a median; removing them can recover
    adjacencies disrupted by insertions.  Returns the reduced genomes,
    numbered as before, so that `candidates` are theirs too, and a
    per-genome report of removed gene names, sorted.
    """
    reduced = []
    report: dict[str, list[str]] = {}
    for genome, ids in zip((G, H, I), candidates.ids):
        keep = genome.telomeric.copy()
        for k in ids:
            keep[k] = True
        doomed = [k for k, (on, kept) in enumerate(zip(genome.present, keep)) if on and not kept]
        report[genome.label] = [genome.names[k] for k in doomed]
        reduced.append(genome.splice(keep) if doomed else genome)
    return reduced[0], reduced[1], reduced[2], report
