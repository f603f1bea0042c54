"""Candidate median genes and conserved candidate adjacencies.

A candidate median gene is a triple (g, h, i), one gene per extant genome,
whose three pairwise similarities are all positive (a tripartite triangle).
Telomere triples arise automatically from the fixed telomere similarity
convention.  A candidate adjacency pairs two extremities of two
non-conflicting candidates; it is conserved if its projection is an extant
adjacency in at least one genome.

`ConservedAdjacencyTable`, the candidate list with one row per conserved
candidate adjacency, is the instance that every later stage reads.

The two indexes of an instance are built here and nowhere else:
`ConflictIndex` lists the candidates on each extant gene (one conflict row
of the 0-1 program each) and `ExtremityIncidence` the table rows at each
candidate extremity (one saturation row each).  ICF-SEG and the LP export
both read them.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from . import kernels
from .genomes import (
    Gene,
    Genome,
    GenomeError,
    SimilarityGraph,
    facing_end,
    splice_genes,
)


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


class ConflictIndex:
    """Per extant gene, the candidates using it; answers conflict queries.

    Two distinct candidates conflict iff they share at least one extant
    gene or telomere.
    """

    def __init__(self, candidates: Sequence[CandidateGene]):
        self.candidates = candidates
        self.by_gene: dict[Gene, list[int]] = {}
        for idx, cand in enumerate(candidates):
            for gene in cand.genes:
                self.by_gene.setdefault(gene, []).append(idx)

    def conflicting(self, i: int, j: int) -> bool:
        if i == j:
            return False
        a, b = self.candidates[i], self.candidates[j]
        return a.g == b.g or a.h == b.h or a.i == b.i

    def conflicts_of(self, i: int) -> list[int]:
        seen: set[int] = set()
        for gene in self.candidates[i].genes:
            seen.update(self.by_gene[gene])
        seen.discard(i)
        return sorted(seen)


class ExtremityIncidence:
    """Table rows incident to each candidate extremity.

    The row lists cover every row of the table and are built once; `row_alive`
    is held by reference, so the queries always see the rows live right now.
    """

    def __init__(self, table: ConservedAdjacencyTable, row_alive=None):
        self.row_alive = row_alive
        self.candidates = table.candidates
        self.weight = table.weight.tolist()
        self.by_ext: dict[tuple[int, int], list[int]] = {}
        ends = zip(table.m1.tolist(), table.e1.tolist(), table.m2.tolist(), table.e2.tolist())
        for k, (m1, e1, m2, e2) in enumerate(ends):
            self.by_ext.setdefault((m1, e1), []).append(k)
            self.by_ext.setdefault((m2, e2), []).append(k)

    def rows_at(self, ext: tuple[int, int]) -> list[int]:
        """Live rows incident to one extremity."""
        rows, alive = self.by_ext.get(ext, []), self.row_alive
        return rows if alive is None else [k for k in rows if alive[k]]

    def rows_of(self, m: int) -> list[int]:
        """Live rows incident to either extremity of candidate m, in no
        particular order (a row never joins a candidate to itself)."""
        return [k for e in self.candidates[m].ends for k in self.rows_at((m, e))]

    def best_weight(self, ext: tuple[int, int]) -> float:
        return max((self.weight[k] for k in self.rows_at(ext)), default=0.0)


GENOME_PAIRS = ((0, 1), (0, 2), (1, 2))


class InstanceIndex:
    """Integer indexing of a three-genome instance with sparse similarity edges.

    The genes of genome x are numbered 0.. in name order (`genes[x]`,
    `index[x]`).  For each genome pair (a, b) in `GENOME_PAIRS`, positions
    in the given genome order, `edges[(a, b)]` is an int64 array of shape
    (2, m) with the (gene of a, gene of b) endpoints of every positive
    similarity, sorted, and `values[(a, b)]` holds the m similarities.
    Every telomere pair is an edge of value 1.0.  Without `sigma` the index
    holds no edges; the adjacency scan needs only the gene numbering.
    """

    def __init__(self, genomes: Sequence[Genome], sigma: SimilarityGraph | None = None):
        if len(genomes) != 3:
            raise GenomeError("an instance needs exactly three genomes")
        labels = [g.label for g in genomes]
        if len(set(labels)) != 3:
            raise GenomeError(f"genome labels must be distinct, got {labels}")
        self.genomes = tuple(genomes)
        self.labels = tuple(labels)
        self.genes: list[list[Gene]] = [
            sorted(g.genes, key=lambda x: x.name) for g in genomes
        ]
        self.index: list[dict[Gene, int]] = [
            {gene: k for k, gene in enumerate(genes)} for genes in self.genes
        ]
        self.edges: dict[tuple[int, int], np.ndarray] = {}
        self.values: dict[tuple[int, int], np.ndarray] = {}
        if sigma is not None:
            self._build_edges(sigma)

    def _build_edges(self, sigma: SimilarityGraph) -> None:
        slot = {label: x for x, label in enumerate(self.labels)}
        found = {pair: ([], [], []) for pair in GENOME_PAIRS}
        for x, y, value in sigma.pairs():
            a, b = slot.get(x.genome), slot.get(y.genome)
            if a is None or b is None:
                continue
            ka, kb = self.index[a].get(x), self.index[b].get(y)
            if ka is None or kb is None:
                continue  # a gene absent from the genome, e.g. spliced out by preprocessing
            if a > b:
                a, b, ka, kb = b, a, kb, ka
            rows, cols, vals = found[(a, b)]
            rows.append(ka)
            cols.append(kb)
            vals.append(value)
        telomeres = [
            np.array([k for k, gene in enumerate(genes) if gene.is_telomere], dtype=np.int64)
            for genes in self.genes
        ]
        for a, b in GENOME_PAIRS:
            rows, cols, vals = found[(a, b)]
            ta, tb = telomeres[a], telomeres[b]
            row = np.concatenate([np.array(rows, dtype=np.int64), np.repeat(ta, tb.size)])
            col = np.concatenate([np.array(cols, dtype=np.int64), np.tile(tb, ta.size)])
            val = np.concatenate(
                [np.array(vals, dtype=np.float64), np.ones(ta.size * tb.size)]
            )
            order = np.lexsort((col, row))
            self.edges[(a, b)] = np.stack([row[order], col[order]])
            self.values[(a, b)] = val[order]

    def adjacency_arrays(self, x: int):
        """Genome x's extant adjacencies as (gene, end, gene, end) int arrays.

        One row per pair of `Genome.neighbours`, in walk order; ends are
        `facing_end` codes.  `kernels.merge_genome_pairs` sorts what the scan
        emits, so neither the row order nor the order of a row's two
        extremities matters.
        """
        idx = self.index[x]
        rows = [
            (idx[g1], facing_end(g1, o1, True), idx[g2], facing_end(g2, o2, False))
            for (g1, o1), (g2, o2) in self.genomes[x].neighbours()
        ]
        arr = np.array(rows, dtype=np.int64).reshape(-1, 4)
        return arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]


def enumerate_candidates(
    G: Genome, H: Genome, I: Genome, sigma: SimilarityGraph
) -> list[CandidateGene]:
    """All candidate median genes, sorted lexicographically by (g, h, i)."""
    index = InstanceIndex((G, H, I), sigma)
    return _candidates_from_index(index)


def _candidates_from_index(index: InstanceIndex) -> list[CandidateGene]:
    gh, gi, hi = (index.edges[pair] for pair in GENOME_PAIRS)
    p, q, r = kernels.triangles(gh, gi, hi)
    gh_val, gi_val, hi_val = (index.values[pair] for pair in GENOME_PAIRS)
    triple = gh_val[p] * gi_val[q] * hi_val[r]
    gene_score = np.cbrt(triple)
    out = []
    genes_g, genes_h, genes_i = index.genes
    for g, h, i, t, s in zip(
        gh[0, p].tolist(), gh[1, p].tolist(), gi[1, q].tolist(),
        triple.tolist(), gene_score.tolist(),
    ):
        out.append(CandidateGene(genes_g[g], genes_h[h], genes_i[i], t, s))
    return out


class ConservedAdjacencyTable:
    """The instance: the candidate genes and their conserved candidate
    adjacencies, one table row each, held as arrays.

    Rows are sorted by (m1, e1, m2, e2) with canonical endpoint order; m1 and
    m2 index `candidates`, e1 and e2 are `genomes.ENDS` codes.  `mask` holds
    one conservation bit per genome (bit k = genome k), and `conserved_in`
    maps a mask to the labels of its genomes.  A solution is a set of row
    indices: its median genes are the candidates its rows join.
    """

    def __init__(self, candidates, labels, m1, e1, m2, e2, mask):
        self.candidates = candidates
        self.labels = tuple(labels)
        self.conserved_in = [
            tuple(self.labels[x] for x in range(3) if bits >> x & 1) for bits in range(8)
        ]
        self.m1 = m1
        self.e1 = e1
        self.m2 = m2
        self.e2 = e2
        self.mask = mask
        triple = np.array([c.triple_score for c in candidates], dtype=np.float64)
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
            self.candidates,
            self.labels,
            self.m1[keep],
            self.e1[keep],
            self.m2[keep],
            self.e2[keep],
            self.mask[keep],
        )


def enumerate_conserved_adjacencies(
    candidates: Sequence[CandidateGene],
    G: Genome,
    H: Genome,
    I: Genome,
) -> ConservedAdjacencyTable:
    """All conserved candidate adjacencies induced by the extant genomes.

    Only the gene positions and the genomes' adjacencies are read.
    """
    index = InstanceIndex((G, H, I))
    labels = index.labels
    n_cands = len(candidates)
    slot_idx = np.zeros((3, n_cands), dtype=np.int64)
    for ci, cand in enumerate(candidates):
        for s in range(3):
            slot_idx[s, ci] = index.index[s][cand.genes[s]]
    per_genome = []
    for x in range(3):
        indptr, cand_ids = _gene_csr(slot_idx[x], len(index.genes[x]))
        ax1, ae1, ax2, ae2 = index.adjacency_arrays(x)
        per_genome.append(
            kernels.conserved_pairs(
                ax1, ae1, ax2, ae2, indptr, cand_ids,
                slot_idx[0], slot_idx[1], slot_idx[2],
            )
        )
    m1, e1, m2, e2, mask = kernels.merge_genome_pairs(per_genome)
    return ConservedAdjacencyTable(list(candidates), labels, m1, e1, m2, e2, mask)


def _gene_csr(slot: np.ndarray, n_genes: int):
    order = np.argsort(slot, kind="stable")
    counts = np.bincount(slot, minlength=n_genes)
    indptr = np.zeros(n_genes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, order.astype(np.int64)


def preprocess_discard_nonclique(
    G: Genome, H: Genome, I: Genome, sigma: SimilarityGraph
) -> tuple[Genome, Genome, Genome, dict[str, list[str]]]:
    """Splice out extant genes that belong to no tripartite 3-clique.

    Such genes can never be part of a median; removing them can recover
    adjacencies disrupted by insertions.  Returns the reduced genomes and a
    per-genome report of removed gene names.
    """
    candidates = enumerate_candidates(G, H, I, sigma)
    used: set[Gene] = set()
    for cand in candidates:
        used.update(cand.genes)
    reduced = []
    report: dict[str, list[str]] = {}
    for genome in (G, H, I):
        doomed = {
            gene
            for gene in genome.genes
            if not gene.is_telomere and gene not in used
        }
        report[genome.label] = sorted(g.name for g in doomed)
        reduced.append(splice_genes(genome, doomed) if doomed else genome)
    return reduced[0], reduced[1], reduced[2], report
