"""The paper's own definitions and rows, and the brute-force oracle.

Nothing here runs in a `solve`: the tests hold the fast paths of the
other modules against these forms, and of the subcommands only `export-lp`
imports this module.

- Extremities and adjacencies as the paper states them: `Extremity`, one
  validated end of a gene, `adjacency`, the canonical unordered pair, and
  `adjacencies`, a genome's set of them, with the 0-1 `indicator` on it,
  read off the genome's `Gene` objects.  `Genome.adjacency_arrays` reads
  the same walks as int codes.
- `export_lp` writes the 0-1 program with the paper's rows in LP text
  format: a conflict row per extant gene off `ConflictIndex`, a coupling
  row per conserved adjacency, and a saturation row per candidate
  extremity off `ExtremityIncidence`.  `solver.solve_branch_and_bound`
  solves a tighter form with the same integer points.  `counted_variables`
  and `counted_constraints` give that program's sizes, and `a_name` and
  `b_name` its variable names.
- `brute_force_median` is the independent oracle: an exhaustive
  depth-first search over the adjacency rows in plain Python, with no LP
  and no graph library.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .candidates import ConservedAdjacencyTable
from .genomes import (
    CIRCULAR, ENDS, HEAD, TAIL, TELOMERIC, Gene, Genome, GenomeError, facing_end,
)
from .indexes import ConflictIndex, ExtremityIncidence
from .solver import (
    GRID,
    STATUS_EMPTY,
    STATUS_OPTIMAL,
    IlpModel,
    MedianSolution,
    SolverError,
    _finish,
    build_ilp,
)


class OracleCapExceeded(SolverError):
    pass


# -- extremities and adjacencies ------------------------------------------------


@dataclass(frozen=True, order=True, slots=True)
class Extremity:
    """One end of a gene: head, tail, or the single telomeric end."""

    gene: Gene
    end: str

    def __post_init__(self):
        if self.end not in (TAIL, HEAD, TELOMERIC):
            raise GenomeError(f"bad extremity end {self.end!r}")
        if (self.end == TELOMERIC) != self.gene.is_telomere:
            raise GenomeError(
                f"extremity end {self.end!r} inconsistent with gene {self.gene}"
            )

    def __str__(self) -> str:
        return f"{self.gene}^{self.end}"


Adjacency = tuple[Extremity, Extremity]


def adjacency(e1: Extremity, e2: Extremity) -> Adjacency:
    """Canonical (sorted) form of an unordered extremity pair."""
    return (e1, e2) if e1 <= e2 else (e2, e1)


def neighbours(genome: Genome):
    """Each adjacency as the two (gene, orientation) entries it joins, in
    chromosome order: consecutive entries, then the last and first entries
    of a circular chromosome.  The first entry's forward `facing_end` meets
    the second's backward one."""
    for chrom in genome.chromosomes:
        entries = chrom.order
        yield from zip(entries, entries[1:])
        if chrom.shape == CIRCULAR and entries:
            yield entries[-1], entries[0]


def adjacencies(genome: Genome) -> frozenset[Adjacency]:
    """The genome's adjacencies as canonical extremity pairs."""
    return frozenset(
        adjacency(
            Extremity(g1, ENDS[facing_end(g1, o1, True)]),
            Extremity(g2, ENDS[facing_end(g2, o2, False)]),
        )
        for (g1, o1), (g2, o2) in neighbours(genome)
    )


def indicator(genome: Genome, e1: Extremity, e2: Extremity) -> int:
    """1 if the unordered extremity pair is an adjacency of the genome."""
    for e in (e1, e2):
        if e.gene not in genome:
            raise GenomeError(f"extremity {e} references a gene absent from {genome.label}")
    return 1 if adjacency(e1, e2) in adjacencies(genome) else 0


# -- the paper's program -----------------------------------------------------------


_NAME_BAD = re.compile(r"[^A-Za-z0-9._~]")


def _token(name: str) -> str:
    return _NAME_BAD.sub(".", name)


def counted_variables(model: IlpModel) -> int:
    """One selection variable per candidate, one per conserved adjacency."""
    return model.n_a + model.n_b


def counted_constraints(model: IlpModel) -> int:
    """One conflict constraint per extant gene occurring in a candidate, one
    coupling constraint per conserved adjacency, one saturation constraint
    per candidate extremity."""
    candidates = model.table.candidates
    genes = {gene for cand in candidates for gene in cand.genes}
    extremities = sum(len(cand.ends) for cand in candidates)
    return len(genes) + model.n_b + extremities


def a_name(model: IlpModel, i: int) -> str:
    c = model.table.candidates[i]
    return f"a_{_token(c.g.name)}_{_token(c.h.name)}_{_token(c.i.name)}"


def b_name(model: IlpModel, k: int) -> str:
    m1, e1, m2, e2 = model.table.key(k)
    c1, c2 = model.table.candidates[m1], model.table.candidates[m2]
    s1, s2 = ENDS[e1], ENDS[e2]
    parts = []
    for x1, x2 in zip(c1.genes, c2.genes):
        parts.append(f"{_token(x1.name)}{s1}_{_token(x2.name)}{s2}")
    return "b_" + "_".join(parts)


def _coeff(value: float) -> str:
    return np.format_float_positional(
        value, precision=12, unique=False, fractional=False, trim="k"
    )


def _wrap(fh, head: str, chunks: list[str], limit: int = 220) -> None:
    line = head
    for chunk in chunks:
        if len(line) + len(chunk) + 1 > limit:
            fh.write(line + "\n")
            line = " " + chunk
        else:
            line = f"{line} {chunk}"
    fh.write(line + "\n")


def export_lp(model: IlpModel, path) -> None:
    """Write the program in LP text format, byte-deterministically."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("Maximize\n")
        terms = []
        for k in range(model.n_b):
            op = "+ " if terms else ""
            terms.append(f"{op}{_coeff(float(model.table.weight[k]))} {b_name(model, k)}")
        if terms:
            _wrap(fh, " obj:", terms)
        else:
            fh.write(" obj:\n")
        fh.write("Subject To\n")
        counter = 0

        def emit(terms: list[str], rhs: str) -> None:
            nonlocal counter
            counter += 1
            _wrap(fh, f" c{counter}:", terms + [rhs])

        by_gene = ConflictIndex(model.table.candidates).by_gene
        for gene in sorted(by_gene):
            members = by_gene[gene]
            emit(
                [("+ " if j else "") + a_name(model, i) for j, i in enumerate(members)],
                "<= 1",
            )
        for k in range(model.n_b):
            m1, _, m2, _ = model.table.key(k)
            emit(
                [f"2 {b_name(model, k)}", f"- {a_name(model, m1)}", f"- {a_name(model, m2)}"],
                "<= 0",
            )
        by_ext = ExtremityIncidence(model.table).by_ext
        for ext in sorted(by_ext):
            emit(
                [("+ " if j else "") + b_name(model, k) for j, k in enumerate(by_ext[ext])],
                "<= 1",
            )
        fh.write("Binary\n")
        for i in range(model.n_a):
            fh.write(f" {a_name(model, i)}\n")
        for k in range(model.n_b):
            fh.write(f" {b_name(model, k)}\n")
        fh.write("End\n")


# -- brute-force oracle ----------------------------------------------------------


def brute_force_median(
    table: ConservedAdjacencyTable, cap: int = 12, collect_optima: bool = False
):
    """Oracle: a depth-first search over the adjacency rows.

    The rows are tried in decreasing weight order, ties by row index.  A row
    is taken only when both of its extremities are unused and no extant gene
    of its two candidates belongs to another chosen candidate (the two
    candidates of a row never conflict with each other).  A branch is cut
    when its weight plus that of every row left falls below the best found.
    The solution holds the lexicographically smallest optimal row tuple.
    With `collect_optima` returns (solution, optima) where optima lists all
    optimal adjacency sets as sorted row-index tuples.
    """
    candidates = table.candidates
    if len(candidates) > cap:
        raise OracleCapExceeded(
            f"{len(candidates)} candidates exceed the oracle cap of {cap}"
        )
    if not candidates:
        empty = MedianSolution(STATUS_EMPTY, 0.0, 0.0, (), table)
        return (empty, [()]) if collect_optima else empty
    rows = sorted(range(len(table)), key=lambda k: (-float(table.weight[k]), k))
    weights = [float(table.weight[k]) for k in rows]
    left = np.concatenate([np.cumsum(weights[::-1])[::-1], [0.0]])
    ends = [((int(table.m1[k]), int(table.e1[k])), (int(table.m2[k]), int(table.e2[k])))
            for k in rows]
    best = 0.0
    optima: set[tuple[int, ...]] = set()
    used: set[tuple[int, int]] = set()
    owner: dict[Gene, int] = {}
    picked: list[int] = []

    def dfs(pos: int, value: float) -> None:
        nonlocal best
        if value + left[pos] < best - GRID:
            return
        if pos == len(rows):
            if value > best + GRID:
                best = value
                optima.clear()
            optima.add(tuple(sorted(picked)))
            return
        u, v = ends[pos]
        genes = [(g, m) for m in (u[0], v[0]) for g in candidates[m].genes]
        if u not in used and v not in used and all(owner.get(g, m) == m for g, m in genes):
            claimed = [g for g, _ in genes if g not in owner]
            owner.update(genes)
            used.update((u, v))
            picked.append(rows[pos])
            dfs(pos + 1, value + weights[pos])
            picked.pop()
            used.difference_update((u, v))
            for g in claimed:
                del owner[g]
        dfs(pos + 1, value)

    dfs(0, 0.0)
    solution = _finish(build_ilp(table), STATUS_OPTIMAL, best, best, min(optima))
    if collect_optima:
        return solution, sorted(optima)
    return solution
