"""Candidate median genes and conserved candidate adjacencies.

A candidate median gene is a triple (g, h, i), one gene per extant genome,
whose three pairwise similarities are all positive (a tripartite triangle).
Telomere triples arise automatically from the fixed telomere similarity
convention.  A candidate adjacency pairs two extremities of two
non-conflicting candidates; it is conserved if its projection is an extant
adjacency in at least one genome.

Every stage here reads the gene numbering the genomes got at load
(`genomes.Genome`).  `enumerate_candidates` builds the similarity edges
between those ids once (`InstanceIndex`) and scans them once for
triangles; its `Candidates` are id arrays.  Preprocessing
(`preprocess_discard_nonclique`) splices the genes in no candidate out of
the walks and keeps the numbering, so the candidates stay theirs.
`enumerate_conserved_adjacencies` scans the walks for the
`ConservedAdjacencyTable`, the instance every later stage reads.
`CandidateGene` objects are built only for code that indexes the
candidates; a solve reads the arrays.  The indexes over the table that
ICF-SEG and the LP export read are in `indexes`.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from . import kernels
from .genomes import Gene, Genome, GenomeError, SimilarityGraph


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


GENOME_PAIRS = ((0, 1), (0, 2), (1, 2))


class InstanceIndex:
    """The sparse similarity edges of three genomes, between their gene ids.

    For each genome pair (a, b) in `GENOME_PAIRS`, positions in the given
    genome order, `edges[(a, b)]` is an int64 array of shape (2, m) with the
    (gene of a, gene of b) endpoints of every positive similarity between
    genes on the genomes' walks, sorted, and `values[(a, b)]` holds the m
    similarities.  Every telomere pair is an edge of value 1.0.
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
        found = {pair: ([], [], []) for pair in GENOME_PAIRS}
        for (gx, nx, gy, ny), value in sigma.scores.items():
            a, b = slot.get(gx), slot.get(gy)
            if a is None or b is None:
                continue
            ka, kb = ids[a].get(nx), ids[b].get(ny)
            if ka is None or kb is None:
                continue
            if a > b:
                a, b, ka, kb = b, a, kb, ka
            rows, cols, vals = found[(a, b)]
            rows.append(ka)
            cols.append(kb)
            vals.append(value)
        self.edges: dict[tuple[int, int], np.ndarray] = {}
        self.values: dict[tuple[int, int], np.ndarray] = {}
        for a, b in GENOME_PAIRS:
            rows, cols, vals = found[(a, b)]
            ta, tb = (np.nonzero(genomes[x].telomeric)[0] for x in (a, b))
            row = np.concatenate([np.array(rows, dtype=np.int64), np.repeat(ta, tb.size)])
            col = np.concatenate([np.array(cols, dtype=np.int64), np.tile(tb, ta.size)])
            val = np.concatenate(
                [np.array(vals, dtype=np.float64), np.ones(ta.size * tb.size)]
            )
            order = np.lexsort((col, row))
            # a gene spliced out of its genome has no edges
            order = order[genomes[a].present[row[order]] & genomes[b].present[col[order]]]
            self.edges[(a, b)] = np.stack([row[order], col[order]])
            self.values[(a, b)] = val[order]


class Candidates:
    """The candidate genes as arrays over the gene ids of `genomes`.

    Candidate m is the genes `ids[:, m]`, one per genome, with triple score
    `triple[m]` and gene score `score[m]`, its cube root; `telomeric[m]`
    marks a telomere triple.  Indexed or iterated, it is a list of
    `CandidateGene`s, all built on first use.
    """

    def __init__(self, genomes: Sequence[Genome], ids: np.ndarray, triple: np.ndarray):
        self.genomes = tuple(genomes)
        self.ids = ids
        self.triple = triple
        self.score = np.cbrt(triple)
        self.telomeric = self.genomes[0].telomeric[ids[0]]
        self._objects: list[CandidateGene] | None = None

    def __len__(self) -> int:
        return int(self.triple.size)

    def __getitem__(self, m):
        return self.objects()[m]

    def __iter__(self):
        return iter(self.objects())

    def objects(self) -> list[CandidateGene]:
        if self._objects is None:
            genes = zip(*([Gene(genome.label, genome.names[k]) for k in row]
                          for genome, row in zip(self.genomes, self.ids.tolist())))
            self._objects = [CandidateGene(*c, t, s) for c, t, s in
                             zip(genes, self.triple.tolist(), self.score.tolist())]
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
    return Candidates(index.genomes, np.stack([gh[0, p], gh[1, p], gi[1, q]]),
                      gh_val[p] * gi_val[q] * hi_val[r])


class ConservedAdjacencyTable:
    """The instance: the candidate genes and their conserved candidate
    adjacencies, one table row each, held as arrays.

    Rows are sorted by (m1, e1, m2, e2) with canonical endpoint order; m1 and
    m2 index `candidates`, e1 and e2 are `genomes.ENDS` codes.  `mask` holds
    one conservation bit per genome (bit k = genome k), and `conserved_in`
    maps a mask to the labels of its genomes.  A solution is a set of row
    indices: its median genes are the candidates its rows join.
    """

    def __init__(self, candidates: Candidates, m1, e1, m2, e2, mask):
        self.candidates = candidates
        self.labels = tuple(genome.label for genome in candidates.genomes)
        self.conserved_in = [
            tuple(self.labels[x] for x in range(3) if bits >> x & 1) for bits in range(8)
        ]
        self.m1, self.e1, self.m2, self.e2, self.mask = m1, e1, m2, e2, mask
        triple = candidates.triple
        self.factor = (triple[m1] * triple[m2]) ** (1.0 / 6.0)
        self.weight = self.factor * np.bitwise_count(mask.astype(np.uint8))

    def __len__(self) -> int:
        return int(self.m1.size)

    def key(self, k: int) -> tuple[int, int, int, int]:
        return (int(self.m1[k]), int(self.e1[k]), int(self.m2[k]), int(self.e2[k]))

    def genes(self, rows) -> list[int]:
        """The candidates that the given rows join, sorted."""
        rows = np.asarray(rows, dtype=np.int64)
        # a set, not np.unique, which loads numpy.ma on its first call
        return sorted({*self.m1[rows].tolist(), *self.m2[rows].tolist()})

    def subset(self, keep: np.ndarray) -> "ConservedAdjacencyTable":
        """New table restricted to the given row indices (candidate indexing kept)."""
        keep = np.asarray(keep, dtype=np.int64)
        return ConservedAdjacencyTable(
            self.candidates, self.m1[keep], self.e1[keep], self.m2[keep], self.e2[keep],
            self.mask[keep],
        )


def enumerate_conserved_adjacencies(
    candidates: Candidates, G: Genome, H: Genome, I: Genome
) -> ConservedAdjacencyTable:
    """All conserved candidate adjacencies induced by the extant genomes,
    which are those the candidates were enumerated on or those genomes
    after preprocessing.  Only their walks are read."""
    ids = candidates.ids
    per_genome = []
    for genome, slot in zip((G, H, I), ids):
        indptr, cand_ids = _gene_csr(slot, len(genome.names))
        per_genome.append(
            kernels.conserved_pairs(*genome.adjacency_arrays(), indptr, cand_ids, *ids)
        )
    return ConservedAdjacencyTable(candidates, *kernels.merge_genome_pairs(per_genome))


def _gene_csr(slot: np.ndarray, n_genes: int):
    order = np.argsort(slot, kind="stable")
    counts = np.bincount(slot, minlength=n_genes)
    indptr = np.zeros(n_genes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, order.astype(np.int64)


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
        keep[ids] = True
        doomed = np.nonzero(genome.present & ~keep)[0].tolist()
        report[genome.label] = [genome.names[k] for k in doomed]
        reduced.append(genome.splice(keep) if doomed else genome)
    return reduced[0], reduced[1], reduced[2], report
