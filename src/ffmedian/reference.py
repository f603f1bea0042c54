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
  format, off the table's arrays: a conflict row per extant gene
  (`candidates.candidates_on_genes`), a coupling row per conserved
  adjacency, and a saturation row per candidate extremity
  (`candidates.extremity_rows`).  `solver.solve_branch_and_bound` solves a
  tighter form with the same integer points.  `counted_variables` and
  `counted_constraints` give that program's sizes.
- `brute_force_median` is the independent oracle: an exhaustive
  depth-first search over the adjacency rows in plain Python, with no LP
  and no graph library.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Context, Decimal

from .candidates import ConservedAdjacencyTable, candidates_on_genes, extremity_rows
from .genomes import CIRCULAR, ENDS, HEAD, TAIL, TELOMERIC, Gene, Genome, GenomeError, facing_end
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
            Extremity(g1, ENDS[facing_end(g1.is_telomere, o1, True)]),
            Extremity(g2, ENDS[facing_end(g2.is_telomere, o2, False)]),
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
    genes = sum(len(set(column)) for column in candidates.ids)
    extremities = sum(1 if telomeric else 2 for telomeric in candidates.telomeric)
    return genes + model.n_b + extremities


def _a_names(table: ConservedAdjacencyTable) -> list[str]:
    """The selection variables' names, one per candidate."""
    return ["a_" + "_".join(map(_token, table.candidates.names(m)))
            for m in range(len(table.candidates))]


def _b_names(table: ConservedAdjacencyTable) -> list[str]:
    """The adjacency variables' names, one per row: per genome, the two
    genes' names with their ends."""
    names = [[_token(name) for name in table.candidates.names(m)]
             for m in range(len(table.candidates))]
    return [
        "b_" + "_".join(f"{x1}{ENDS[e1]}_{x2}{ENDS[e2]}" for x1, x2 in zip(names[m1], names[m2]))
        for m1, e1, m2, e2 in zip(table.m1, table.e1, table.m2, table.e2)
    ]


_TWELVE_DIGITS = Context(prec=12, rounding=ROUND_HALF_EVEN)


def _coeff(value: float) -> str:
    """`value` in positional notation to 12 significant digits, as numpy's
    `format_float_positional(value, precision=12, unique=False,
    fractional=False, trim="k")` writes it: the exact binary value rounded
    half to even, its trailing zeros stripped when it rounded up or was
    exact, then the fraction padded with zeros to 12 digits in all."""
    exact = Decimal(value)
    rounded = _TWELVE_DIGITS.plus(exact)
    if abs(rounded) > abs(exact) or rounded == exact:
        rounded = rounded.normalize()
    whole, _, fraction = format(rounded, "f").partition(".")
    return f"{whole}.{fraction.ljust(12 - len(whole.lstrip('-')), '0')}"


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
    """Write the program in LP text format, byte-deterministically: the
    conflict rows by genome label, then gene name (a genome numbers its
    genes in name order), and the saturation rows by extremity."""
    table = model.table
    a_names, b_names = _a_names(table), _b_names(table)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("Maximize\n")
        terms = [f"{'+ ' if k else ''}{_coeff(w)} {name}"
                 for k, (w, name) in enumerate(zip(table.weight, b_names))]
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

        def row(names) -> list[str]:
            return [("+ " if j else "") + name for j, name in enumerate(names)]

        on_genes = candidates_on_genes(table.candidates)
        for x in sorted(range(3), key=table.labels.__getitem__):
            for members in on_genes[x]:
                if members:
                    emit(row(a_names[m] for m in members), "<= 1")
        for k, (m1, m2) in enumerate(zip(table.m1, table.m2)):
            emit([f"2 {b_names[k]}", f"- {a_names[m1]}", f"- {a_names[m2]}"], "<= 0")
        for rows in extremity_rows(table):
            if rows:
                emit(row(b_names[k] for k in rows), "<= 1")
        fh.write("Binary\n")
        for name in a_names + b_names:
            fh.write(f" {name}\n")
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
    rows = sorted(range(len(table)), key=lambda k: (-table.weight[k], k))
    weights = [table.weight[k] for k in rows]
    # the weight of the rows from each position on, summed from the last
    left = [*itertools.accumulate(weights[::-1])][::-1] + [0.0]
    ends = [((table.m1[k], table.e1[k]), (table.m2[k], table.e2[k])) for k in rows]
    best = 0.0
    optima: set[tuple[int, ...]] = set()
    used: set[tuple[int, int]] = set()
    owner: dict[tuple[int, int], int] = {}  # (genome, gene id) -> its candidate
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
        genes = [((x, column[m]), m) for m in (u[0], v[0])
                 for x, column in enumerate(candidates.ids)]
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
