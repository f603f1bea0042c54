"""The two indexes of an instance.

`ConflictIndex` lists the candidates on each extant gene (one conflict row
of the 0-1 program each) and `ExtremityIncidence` the table rows at each
candidate extremity (one saturation row each).  ICF-SEG and the LP export
read them; a default solve reads neither, and does not import this module.
"""
from __future__ import annotations

from typing import Sequence

from .candidates import CandidateGene, ConservedAdjacencyTable
from .genomes import Gene


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
