"""Exact solver for the family-free median 0-1 program.

The program has one binary per candidate gene (selection must be
conflict-free: each extant gene supports at most one chosen candidate) and
one binary per conserved candidate adjacency (an adjacency needs both its
genes chosen, and each candidate extremity carries at most one adjacency).
The objective maximizes the conservation-weighted adjacency scores.

`solve_branch_and_bound` is a deterministic depth-first branch and bound on
adjacency variables, started from a greedy incumbent.  Node bounds come
from one LP relaxation over all adjacency variables.  Its valid rows allow
at most one chosen adjacency per candidate extremity (the matching
structure) and per extant gene extremity, and at most two per extant gene
(one per telomere); the last two follow from conflict-freeness.  At the
root, a few separation rounds add clique inequalities over the conflict
graph of the LP-active adjacencies.  `brute_force_median` is the
independent oracle: it enumerates maximal conflict-free candidate subsets
and solves each by exhaustive matching search.
"""
from __future__ import annotations

import logging
import re
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import networkx as nx
import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .candidates import (
    CandidateAdjacency,
    CandidateGene,
    ConflictIndex,
    ConservedAdjacencyTable,
    END_NAMES,
)
from .genomes import Gene

log = logging.getLogger(__name__)

GRID = 1e-9  # objective comparison grid
LP_EPS = 1e-6  # safety margin added to LP bounds

STATUS_OPTIMAL = "optimal"
STATUS_FEASIBLE = "feasible"
STATUS_EMPTY = "infeasible-empty"


class SolverError(RuntimeError):
    pass


class OracleCapExceeded(SolverError):
    pass


# -- model -------------------------------------------------------------------


_NAME_BAD = re.compile(r"[^A-Za-z0-9._~]")


def _token(name: str) -> str:
    return _NAME_BAD.sub(".", name)


@dataclass
class IlpModel:
    """Array-backed 0-1 program over candidate genes and adjacencies.

    Counted sizes follow the program statements: one selection variable per
    candidate, one adjacency variable and one coupling constraint per
    conserved adjacency, one conflict constraint per extant gene occurring
    in a candidate, one saturation constraint per candidate extremity.
    """

    candidates: list[CandidateGene]
    table: ConservedAdjacencyTable
    conflict: ConflictIndex

    def __post_init__(self):
        genes: set[Gene] = set()
        ext_count = 0
        for cand in self.candidates:
            genes.update(cand.genes)
            ext_count += len(cand.ends)
        self.n_a = len(self.candidates)
        self.n_b = len(self.table)
        self.counted_variables = self.n_a + self.n_b
        self.counted_constraints = len(genes) + self.n_b + ext_count

    def a_name(self, i: int) -> str:
        c = self.candidates[i]
        return f"a_{_token(c.g.name)}_{_token(c.h.name)}_{_token(c.i.name)}"

    def b_name(self, k: int) -> str:
        m1, e1, m2, e2 = self.table.key(k)
        c1, c2 = self.candidates[m1], self.candidates[m2]
        s1, s2 = END_NAMES[e1], END_NAMES[e2]
        parts = []
        for x1, x2 in zip(c1.genes, c2.genes):
            parts.append(f"{_token(x1.name)}{s1}_{_token(x2.name)}{s2}")
        return "b_" + "_".join(parts)


def build_ilp(
    candidates: Sequence[CandidateGene], table: ConservedAdjacencyTable
) -> IlpModel:
    return IlpModel(list(candidates), table, ConflictIndex(candidates))


# -- LP text export ------------------------------------------------------------


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
            terms.append(f"{op}{_coeff(float(model.table.weight[k]))} {model.b_name(k)}")
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

        by_gene: dict[Gene, list[int]] = {}
        for idx, cand in enumerate(model.candidates):
            for gene in cand.genes:
                by_gene.setdefault(gene, []).append(idx)
        for gene in sorted(by_gene):
            members = by_gene[gene]
            emit(
                [("+ " if j else "") + model.a_name(i) for j, i in enumerate(members)],
                "<= 1",
            )
        for k in range(model.n_b):
            m1, _, m2, _ = model.table.key(k)
            emit(
                [f"2 {model.b_name(k)}", f"- {model.a_name(m1)}", f"- {model.a_name(m2)}"],
                "<= 0",
            )
        by_ext: dict[tuple[int, int], list[int]] = {}
        for k in range(model.n_b):
            m1, e1, m2, e2 = model.table.key(k)
            by_ext.setdefault((m1, e1), []).append(k)
            by_ext.setdefault((m2, e2), []).append(k)
        for ext in sorted(by_ext):
            emit(
                [("+ " if j else "") + model.b_name(k) for j, k in enumerate(by_ext[ext])],
                "<= 1",
            )
        fh.write("Binary\n")
        for i in range(model.n_a):
            fh.write(f" {model.a_name(i)}\n")
        for k in range(model.n_b):
            fh.write(f" {model.b_name(k)}\n")
        fh.write("End\n")


# -- solutions -----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Car:
    """Contiguous ancestral region: a path or cycle of chosen adjacencies."""

    shape: str  # "linear" | "circular"
    members: tuple[tuple[int, int], ...]  # (candidate index, orientation)


@dataclass
class MedianSolution:
    status: str
    objective: float
    bound: float
    gene_indices: tuple[int, ...]
    row_indices: tuple[int, ...]
    candidates: list[CandidateGene]
    table: ConservedAdjacencyTable
    cars: list[Car] = field(default_factory=list)
    nodes_explored: int = 0

    @property
    def genes(self) -> list[CandidateGene]:
        return [self.candidates[i] for i in self.gene_indices]

    @property
    def adjacencies(self) -> list[CandidateAdjacency]:
        return [self.table[k] for k in self.row_indices]


def verify_solution(
    candidates: Sequence[CandidateGene],
    table: ConservedAdjacencyTable,
    gene_indices: Iterable[int],
    row_indices: Iterable[int],
    objective: float | None = None,
) -> None:
    """Independent feasibility check straight from the definitions."""
    genes = set(gene_indices)
    gene_use: dict[Gene, int] = {}
    for i in genes:
        for gene in candidates[i].genes:
            if gene in gene_use:
                raise SolverError(f"conflict on extant gene {gene}")
            gene_use[gene] = i
    ext_use: set[tuple[int, int]] = set()
    total = 0.0
    for k in row_indices:
        m1, e1, m2, e2 = table.key(k)
        if m1 not in genes or m2 not in genes:
            raise SolverError(f"adjacency row {k} uses unchosen candidate")
        for ext in ((m1, e1), (m2, e2)):
            if ext in ext_use:
                raise SolverError(f"extremity {ext} used twice")
            ext_use.add(ext)
        total += float(table.weight[k])
    if objective is not None and abs(total - objective) > 1e-6 * max(1.0, abs(total)):
        raise SolverError(f"objective mismatch: {total} vs {objective}")


# -- CAR assembly ---------------------------------------------------------------


def _orient_from_exit(cand: CandidateGene, end: int) -> int:
    if cand.is_telomere_triple:
        return 1
    return 1 if end == 1 else -1  # exiting via the head = forward


def _orient_from_entry(cand: CandidateGene, end: int) -> int:
    if cand.is_telomere_triple:
        return 1
    return 1 if end == 0 else -1  # entering at the tail = forward


def _other_end(cand: CandidateGene, end: int) -> int | None:
    if cand.is_telomere_triple:
        return None
    return 1 - end


def _canonical(seq, shape: str, candidates) -> tuple[tuple[int, int], ...]:
    def flip(s):
        return tuple(
            (m, 1 if candidates[m].is_telomere_triple else -o) for m, o in reversed(s)
        )

    fwd = tuple(seq)
    if shape == "linear":
        return min(fwd, flip(fwd))
    variants = []
    for rotation in range(len(fwd)):
        rot = fwd[rotation:] + fwd[:rotation]
        variants.append(rot)
        variants.append(flip(rot))
    return min(variants)


def cars_from_rows(
    candidates: Sequence[CandidateGene],
    table: ConservedAdjacencyTable,
    gene_indices: Iterable[int],
    row_indices: Iterable[int],
) -> list[Car]:
    """Connected components of the extremity-link graph, as ordered CARs.

    Only the chosen adjacencies are used; no completion adjacencies are
    invented.  Chosen genes without adjacencies become singleton CARs.
    """
    link: dict[tuple[int, int], tuple[int, int]] = {}
    for k in row_indices:
        m1, e1, m2, e2 = table.key(k)
        link[(m1, e1)] = (m2, e2)
        link[(m2, e2)] = (m1, e1)

    def walk(m: int, exit_end: int) -> list[tuple[int, int]]:
        seq = [(m, _orient_from_exit(candidates[m], exit_end))]
        ext = (m, exit_end)
        while True:
            nxt = link.get(ext)
            if nxt is None:
                break
            n_m, n_in = nxt
            if n_m == seq[0][0] and len(seq) > 1:
                break  # cycle closed
            seq.append((n_m, _orient_from_entry(candidates[n_m], n_in)))
            out = _other_end(candidates[n_m], n_in)
            if out is None:
                break  # telomere member terminates the walk
            ext = (n_m, out)
        return seq

    placed: set[int] = set()
    cars: list[Car] = []
    for start in sorted(set(gene_indices)):
        if start in placed:
            continue
        # collect the component
        comp = {start}
        frontier = [start]
        while frontier:
            m = frontier.pop()
            for e in candidates[m].ends:
                nxt = link.get((m, e))
                if nxt is not None and nxt[0] not in comp:
                    comp.add(nxt[0])
                    frontier.append(nxt[0])
        terminals: list[tuple[int, int]] = []
        for m in sorted(comp):
            cand = candidates[m]
            linked = [e for e in cand.ends if (m, e) in link]
            if cand.is_telomere_triple and linked:
                terminals.append((m, linked[0]))
            elif len(linked) == 1:
                terminals.append((m, linked[0]))
        if not link or not any((m, e) in link for m in comp for e in candidates[m].ends):
            placed.add(start)
            cars.append(Car("linear", ((start, 1),)))
            continue
        if terminals:
            seq = walk(*min(terminals))
            shape = "linear"
        else:
            first = min(comp)
            seq = walk(first, candidates[first].ends[-1])
            shape = "circular"
        placed.update(m for m, _ in seq)
        cars.append(Car(shape, _canonical(seq, shape, candidates)))
    return cars


def assemble_cars(solution: MedianSolution) -> list[Car]:
    return cars_from_rows(
        solution.candidates, solution.table, solution.gene_indices, solution.row_indices
    )


# -- bound LP -------------------------------------------------------------------


class _BoundLP:
    """LP relaxation over adjacency variables only.

    Rows: at most one chosen adjacency per candidate extremity, and at most
    one per extant gene extremity (valid because chosen candidates are
    conflict-free and each extant gene backs at most one of them).  Rows
    with fewer than two entries are vacuous and dropped.
    """

    def __init__(self, model: IlpModel):
        table = model.table
        self.n_b = len(table)
        self.w = np.asarray(table.weight, dtype=np.float64)
        self.matrix = None
        if self.n_b == 0:
            return
        gene_num: dict[Gene, int] = {}
        gene_rhs: list[float] = []
        cand_gene = np.zeros((3, model.n_a), dtype=np.int64)
        for idx, cand in enumerate(model.candidates):
            for slot, gene in enumerate(cand.genes):
                if gene not in gene_num:
                    gene_num[gene] = len(gene_num)
                    # an owning telomere triple carries one adjacency, a gene two
                    gene_rhs.append(1.0 if gene.is_telomere else 2.0)
                cand_gene[slot, idx] = gene_num[gene]
        arange = np.arange(self.n_b, dtype=np.int64)
        keys = []
        for side_m, side_e in ((table.m1, table.e1), (table.m2, table.e2)):
            for slot in range(3):
                keys.append(cand_gene[slot, side_m] * 4 + side_e)
        shift = 4 * len(gene_num)
        keys.append(shift + table.m1 * 4 + table.e1)
        keys.append(shift + table.m2 * 4 + table.e2)
        all_keys = np.concatenate(keys)
        all_cols = np.tile(arange, 8)
        uniq, row_ids, counts = np.unique(
            all_keys, return_inverse=True, return_counts=True
        )
        keep = counts[row_ids] >= 2
        row_ids, all_cols = row_ids[keep], all_cols[keep]
        blocks = []
        rhs_parts = []
        if row_ids.size:
            _, row_ids = np.unique(row_ids, return_inverse=True)
            n_rows = int(row_ids.max()) + 1
            blocks.append(
                sp.csr_matrix(
                    (np.ones(row_ids.size), (row_ids, all_cols)),
                    shape=(n_rows, self.n_b),
                )
            )
            rhs_parts.append(np.ones(n_rows))
        # per extant gene: an owner candidate carries at most rhs adjacencies
        gene_rows = np.concatenate(
            [cand_gene[slot, side] for side in (table.m1, table.m2) for slot in range(3)]
        )
        gene_matrix = sp.csr_matrix(
            (np.ones(gene_rows.size), (gene_rows, np.tile(arange, 6))),
            shape=(len(gene_num), self.n_b),
        )
        counts_per_row = np.diff(gene_matrix.indptr)
        keep_rows = np.nonzero(counts_per_row >= 2)[0]
        if keep_rows.size:
            blocks.append(gene_matrix[keep_rows])
            rhs_parts.append(np.asarray(gene_rhs)[keep_rows])
        if not blocks:
            return
        self.matrix = sp.vstack(blocks, format="csr")
        self.rhs = np.concatenate(rhs_parts)

    def add_cuts(self, rows: list[tuple[np.ndarray, np.ndarray, float]]) -> None:
        """Append valid inequality rows (cols, coefficients, rhs)."""
        if not rows or self.matrix is None:
            return
        data = np.concatenate([coef for _, coef, _ in rows])
        cols = np.concatenate([c for c, _, _ in rows])
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([c.size for c, _, _ in rows], out=indptr[1:])
        block = sp.csr_matrix((data, cols, indptr), shape=(len(rows), self.n_b))
        self.matrix = sp.vstack([self.matrix, block], format="csr")
        self.rhs = np.concatenate([self.rhs, [r for _, _, r in rows]])

    def solve(self, lb: np.ndarray, ub: np.ndarray) -> tuple[float, np.ndarray]:
        """LP optimum over all columns under the node bounds: (value, point).

        Without rows, or when HiGHS reports no optimum, the bound falls back
        to taking every allowed column, which is valid but weak.
        """
        if self.n_b == 0:
            return 0.0, np.zeros(0)
        if self.matrix is not None:
            res = linprog(
                -self.w,
                A_ub=self.matrix,
                b_ub=self.rhs,
                bounds=np.column_stack([lb, ub]),
                method="highs",
            )
            if res.status == 0:
                return float(-res.fun), np.asarray(res.x)
            log.warning("bound LP fallback (status %s)", res.status)
        x = ub.astype(np.float64)
        return float(self.w @ x), x


# -- branch and bound ------------------------------------------------------------


def _csr_groups(keys: np.ndarray, values: np.ndarray, n_keys: int):
    order = np.argsort(keys, kind="stable")
    counts = np.bincount(keys, minlength=n_keys)
    indptr = np.zeros(n_keys + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, values[order]


class _SearchState:
    """Variable bounds plus vectorized branching implications."""

    def __init__(self, model: IlpModel):
        table = model.table
        self.model = model
        n_b = len(table)
        self.lb = np.zeros(n_b, dtype=np.float64)
        self.ub = np.ones(n_b, dtype=np.float64)
        rows2 = np.tile(np.arange(n_b, dtype=np.int64), 2)
        cand_keys = np.concatenate([table.m1, table.m2]).astype(np.int64)
        self._cand_indptr, self._cand_rows = _csr_groups(cand_keys, rows2, model.n_a)
        ext_keys = np.concatenate(
            [table.m1 * 3 + table.e1, table.m2 * 3 + table.e2]
        ).astype(np.int64)
        self._ext_indptr, self._ext_rows = _csr_groups(ext_keys, rows2, model.n_a * 3)
        self._conflict_rows_cache: dict[int, np.ndarray] = {}

    def rows_of_cand(self, m: int) -> np.ndarray:
        return self._cand_rows[self._cand_indptr[m] : self._cand_indptr[m + 1]]

    def rows_of_ext(self, m: int, e: int) -> np.ndarray:
        key = m * 3 + e
        return self._ext_rows[self._ext_indptr[key] : self._ext_indptr[key + 1]]

    def conflict_rows(self, m: int) -> np.ndarray:
        """All rows incident to candidates conflicting with m."""
        cached = self._conflict_rows_cache.get(m)
        if cached is None:
            chunks = [self.rows_of_cand(c) for c in self.model.conflict.conflicts_of(m)]
            cached = (
                np.unique(np.concatenate(chunks)) if chunks else np.empty(0, np.int64)
            )
            self._conflict_rows_cache[m] = cached
        return cached

    def _disable(self, rows: np.ndarray, journal: list) -> None:
        mask = (self.ub[rows] == 1.0) & (self.lb[rows] == 0.0)
        changed = rows[mask]
        if changed.size:
            self.ub[changed] = 0.0
            journal.append(("ubs", changed))

    def apply(self, decisions: list[tuple[int, int]]) -> list[tuple[str, object]]:
        journal: list[tuple[str, object]] = []
        table = self.model.table
        for row, value in decisions:
            if value == 0:
                self._disable(np.array([row], dtype=np.int64), journal)
                continue
            if self.ub[row] == 0.0:
                raise SolverError("branching on an excluded row")
            self.lb[row] = 1.0
            journal.append(("lb", row))
            m1, e1, m2, e2 = table.key(row)
            skip = np.array([row], dtype=np.int64)
            for m, e in ((m1, e1), (m2, e2)):
                self._disable(np.setdiff1d(self.conflict_rows(m), skip), journal)
                self._disable(np.setdiff1d(self.rows_of_ext(m, e), skip), journal)
        return journal

    def undo(self, journal) -> None:
        for kind, payload in reversed(journal):
            if kind == "ubs":
                self.ub[payload] = 1.0
            else:
                self.lb[payload] = 0.0


def _greedy_incumbent(model: IlpModel) -> tuple[float, tuple[int, ...]]:
    """Take adjacencies by decreasing weight while the selection stays valid."""
    table = model.table
    order = np.lexsort((np.arange(len(table)), -table.weight))
    owner: dict[Gene, int] = {}
    used_ext: set[tuple[int, int]] = set()
    chosen: list[int] = []
    value = 0.0
    for k in order:
        k = int(k)
        m1, e1, m2, e2 = table.key(k)
        if (m1, e1) in used_ext or (m2, e2) in used_ext:
            continue
        ok = True
        for m in (m1, m2):
            for gene in model.candidates[m].genes:
                if owner.get(gene, m) != m:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        for m in (m1, m2):
            for gene in model.candidates[m].genes:
                owner[gene] = m
        used_ext.add((m1, e1))
        used_ext.add((m2, e2))
        chosen.append(k)
        value += float(table.weight[k])
    return value, tuple(sorted(chosen))


def solve_branch_and_bound(
    model: IlpModel, time_limit: float | None = None
) -> MedianSolution:
    """Exact, deterministic solve of the 0-1 program.

    The weight-order greedy selection is the first incumbent.  The root LP
    is tightened by conflict-clique cuts, then a depth-first branch and
    bound runs.  Branching picks the highest-weight adjacency variable that
    is fractional in the node LP (ties by variable order) and explores the
    include branch first.  Pruning happens on the 1e-9 comparison grid.
    When the time limit strikes, at the root or in the node loop, the
    incumbent is returned with status `feasible` and a valid upper bound.
    """
    t0 = time.monotonic()
    deadline = None if time_limit is None else t0 + time_limit
    table = model.table
    if model.n_a == 0:
        return MedianSolution(STATUS_EMPTY, 0.0, 0.0, (), (), model.candidates, table)
    if model.n_b == 0:
        return _finish(model, STATUS_OPTIMAL, 0.0, 0.0, (), 0)

    best_value, best_rows = _greedy_incumbent(model)
    if time_limit is not None and time_limit <= 0:
        bound = float(np.sum(table.weight))
        return _finish(model, STATUS_FEASIBLE, best_value, bound, best_rows, 0)

    status, value, bound, rows, nodes = _search(model, best_value, best_rows, deadline)
    return _finish(model, status, value, bound, rows, nodes)


def _conflict_clique_cuts(
    model: IlpModel, x: np.ndarray, limit: int = 32
) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """Violated clique inequalities over mutually exclusive adjacencies.

    Two adjacency variables exclude each other when their endpoint
    candidates conflict (the coupling through the selection binaries that
    the extremity rows cannot see).  Greedy cliques are grown from every
    conflict edge among LP-active columns; a clique with mass above one
    yields a cut.
    """
    active = np.nonzero(x > 0.2)[0]
    if active.size < 2:
        return []
    conflict = model.conflict
    table = model.table
    n = int(active.size)
    ends = [(int(table.m1[k]), int(table.m2[k])) for k in active]
    exts = [
        ((int(table.m1[k]), int(table.e1[k])), (int(table.m2[k]), int(table.e2[k])))
        for k in active
    ]
    adj: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        a1, a2 = ends[i]
        for j in range(i + 1, n):
            b1, b2 = ends[j]
            exclusive = (
                conflict.conflicting(a1, b1)
                or conflict.conflicting(a1, b2)
                or conflict.conflicting(a2, b1)
                or conflict.conflicting(a2, b2)
                or bool(set(exts[i]) & set(exts[j]))
            )
            if exclusive:
                adj[i].add(j)
                adj[j].add(i)
    xs = x[active]
    by_mass = sorted(range(n), key=lambda t: (-xs[t], t))
    cuts: list[tuple[np.ndarray, np.ndarray, float]] = []
    seen: set[frozenset[int]] = set()
    for i in range(n):
        for j in sorted(adj[i]):
            if j <= i or len(cuts) >= limit:
                continue
            clique = [i, j]
            members = {i, j}
            for k in by_mass:
                if k in members or xs[k] <= 1e-9:
                    continue
                if all(k in adj[c] for c in clique):
                    clique.append(k)
                    members.add(k)
            if xs[list(members)].sum() <= 1.0 + 1e-6:
                continue
            key = frozenset(int(active[c]) for c in members)
            if key in seen:
                continue
            seen.add(key)
            cols = np.array(sorted(key), dtype=np.int64)
            cuts.append((cols, np.ones(cols.size), 1.0))
    return cuts


def _search(
    model: IlpModel,
    best_value: float,
    best_rows: tuple[int, ...],
    deadline: float | None,
) -> tuple[str, float, float, tuple[int, ...], int]:
    """LP-bounded depth-first branch and bound from the given incumbent.

    Returns (status, value, bound, rows, nodes).  Up to 8 rounds separate
    conflict-clique cuts at the root; the cuts are globally valid, so they
    stay in every node LP.  No round starts after the deadline.
    """
    table = model.table
    weights = np.asarray(table.weight, dtype=np.float64)
    lp = _BoundLP(model)
    state = _SearchState(model)

    root_bound, root_x = lp.solve(state.lb, state.ub)
    for _ in range(8):
        if root_bound + LP_EPS <= best_value + GRID:
            break
        if deadline is not None and time.monotonic() > deadline:
            return STATUS_FEASIBLE, best_value, root_bound + LP_EPS, best_rows, 0
        cuts = _conflict_clique_cuts(model, root_x)
        if not cuts:
            break
        lp.add_cuts(cuts)
        root_bound, root_x = lp.solve(state.lb, state.ub)
    if root_bound + LP_EPS <= best_value + GRID:
        return STATUS_OPTIMAL, best_value, best_value, best_rows, 1

    nodes = 0
    # stack entries: ("node", decisions, parent_bound) or ("undo", journal)
    stack: list[tuple] = [("node", [], root_bound + LP_EPS)]
    while stack:
        entry = stack.pop()
        if entry[0] == "undo":
            state.undo(entry[1])
            continue
        _, decisions, parent_bound = entry
        if parent_bound <= best_value + GRID:
            continue
        if deadline is not None and time.monotonic() > deadline:
            # this node and every open one stay unexplored
            open_bounds = [e[2] for e in stack if e[0] == "node"]
            bound = max([best_value, parent_bound] + open_bounds)
            return STATUS_FEASIBLE, best_value, bound, best_rows, nodes
        journal = state.apply(decisions)
        stack.append(("undo", journal))
        nodes += 1
        if float(weights @ state.ub) + LP_EPS <= best_value + GRID:
            continue
        if nodes == 1:
            bound, x = root_bound, root_x
        else:
            bound, x = lp.solve(state.lb, state.ub)
        bound += LP_EPS
        if bound <= best_value + GRID:
            continue
        undecided = state.lb < state.ub
        fractional = undecided & (x > 1e-7) & (x < 1.0 - 1e-7)
        if fractional.any():
            branch_rows = np.nonzero(fractional)[0]
        else:
            chosen = np.nonzero(x > 0.5)[0]
            clash = _gene_clashes(model, table, chosen)
            if clash is None:
                value = float(np.sum(table.weight[chosen]))
                rows = tuple(sorted(int(k) for k in chosen))
                if value > best_value + GRID:
                    best_value, best_rows = value, rows
                elif abs(value - best_value) <= GRID and rows < best_rows:
                    best_rows = rows
                continue
            branch_rows = [
                int(k)
                for k in chosen
                if state.lb[k] == 0.0
                and (int(table.m1[int(k)]) in clash or int(table.m2[int(k)]) in clash)
            ]
            if not branch_rows:
                raise SolverError("integral LP point conflicts only via fixed rows")
        pick = max(
            (int(k) for k in branch_rows),
            key=lambda k: (float(table.weight[k]), -k),
        )
        stack.append(("node", [(pick, 0)], bound))
        stack.append(("node", [(pick, 1)], bound))
    return STATUS_OPTIMAL, best_value, best_value, best_rows, nodes


def _gene_clashes(model: IlpModel, table, chosen) -> set[int] | None:
    """Candidates double-booking an extant gene in an integral LP point."""
    active: set[int] = set()
    for k in chosen:
        active.add(int(table.m1[int(k)]))
        active.add(int(table.m2[int(k)]))
    use: dict[Gene, int] = {}
    clash: set[int] = set()
    for m in sorted(active):
        for gene in model.candidates[m].genes:
            prev = use.get(gene)
            if prev is not None and prev != m:
                clash.add(prev)
                clash.add(m)
            else:
                use[gene] = m
    return clash or None


def _finish(model, status, value, bound, rows, nodes) -> MedianSolution:
    genes = set()
    for k in rows:
        m1, _, m2, _ = model.table.key(int(k))
        genes.add(m1)
        genes.add(m2)
    solution = MedianSolution(
        status=status,
        objective=float(value),
        bound=float(bound),
        gene_indices=tuple(sorted(genes)),
        row_indices=tuple(sorted(int(k) for k in rows)),
        candidates=model.candidates,
        table=model.table,
        nodes_explored=nodes,
    )
    verify_solution(
        model.candidates, model.table, solution.gene_indices, solution.row_indices,
        solution.objective,
    )
    solution.cars = assemble_cars(solution)
    return solution


# -- brute-force oracle ----------------------------------------------------------


def _maximal_conflict_free_sets(
    candidates: Sequence[CandidateGene],
) -> list[tuple[int, ...]]:
    n = len(candidates)
    conflict = ConflictIndex(candidates)
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if not conflict.conflicting(i, j):
                graph.add_edge(i, j)
    return sorted(tuple(sorted(c)) for c in nx.find_cliques(graph))


def _max_matchings(
    rows: list[int], table: ConservedAdjacencyTable, collect: bool
) -> tuple[float, list[tuple[int, ...]]]:
    """Exhaustive maximum-weight matching over the given adjacency rows."""
    rows = sorted(rows, key=lambda k: (-float(table.weight[k]), k))
    weights = [float(table.weight[k]) for k in rows]
    suffix = np.zeros(len(rows) + 1)
    if rows:
        suffix[:-1] = np.cumsum(weights[::-1])[::-1]
    exts = [((int(table.m1[k]), int(table.e1[k])),
             (int(table.m2[k]), int(table.e2[k]))) for k in rows]
    best = [0.0]
    solutions: list[tuple[int, ...]] = [()]

    def record(picked: list[int], value: float) -> None:
        if value > best[0] + GRID:
            best[0] = value
            solutions.clear()
            solutions.append(tuple(sorted(picked)))
        elif collect and abs(value - best[0]) <= GRID:
            entry = tuple(sorted(picked))
            if entry not in solutions:
                solutions.append(entry)

    def dfs(pos: int, used: set, picked: list[int], value: float) -> None:
        record(picked, value)
        if pos == len(rows):
            return
        reachable = value + suffix[pos]
        if collect:
            if reachable < best[0] - GRID:
                return
        elif reachable <= best[0] + GRID:
            return
        u, v = exts[pos]
        if u not in used and v not in used:
            used.add(u)
            used.add(v)
            picked.append(rows[pos])
            dfs(pos + 1, used, picked, value + weights[pos])
            picked.pop()
            used.discard(u)
            used.discard(v)
        dfs(pos + 1, used, picked, value)

    dfs(0, set(), [], 0.0)
    return best[0], solutions


def brute_force_median(
    candidates: Sequence[CandidateGene],
    table: ConservedAdjacencyTable,
    cap: int = 12,
    collect_optima: bool = False,
):
    """Oracle: enumerate maximal conflict-free subsets, exhaust matchings.

    With `collect_optima` returns (solution, optima) where optima lists all
    optimal adjacency sets as sorted row-index tuples.
    """
    candidates = list(candidates)
    if len(candidates) > cap:
        raise OracleCapExceeded(
            f"{len(candidates)} candidates exceed the oracle cap of {cap}"
        )
    if not candidates:
        empty = MedianSolution(STATUS_EMPTY, 0.0, 0.0, (), (), candidates, table)
        return (empty, [()]) if collect_optima else empty
    best_value = 0.0
    best_rows: tuple[int, ...] = ()
    optima: set[tuple[int, ...]] = {()}
    for subset in _maximal_conflict_free_sets(candidates):
        inside = set(subset)
        rows = [
            k
            for k in range(len(table))
            if int(table.m1[k]) in inside and int(table.m2[k]) in inside
        ]
        value, sols = _max_matchings(rows, table, collect_optima)
        if value > best_value + GRID:
            best_value = value
            best_rows = min(sols)
            optima = set(sols)
        elif abs(value - best_value) <= GRID:
            optima.update(sols)
            best_rows = min([best_rows] + sols)
    genes = set()
    for k in best_rows:
        genes.add(int(table.m1[k]))
        genes.add(int(table.m2[k]))
    solution = MedianSolution(
        status=STATUS_OPTIMAL,
        objective=float(best_value),
        bound=float(best_value),
        gene_indices=tuple(sorted(genes)),
        row_indices=tuple(sorted(best_rows)),
        candidates=candidates,
        table=table,
    )
    verify_solution(candidates, table, solution.gene_indices, solution.row_indices)
    solution.cars = assemble_cars(solution)
    if collect_optima:
        return solution, sorted(optima)
    return solution


def brute_force_relaxed(
    candidates: Sequence[CandidateGene],
    table: ConservedAdjacencyTable,
    cap: int = 12,
) -> float:
    """Optimum when the one-adjacency-per-extremity rule is dropped."""
    if len(candidates) > cap:
        raise OracleCapExceeded(f"{len(candidates)} candidates exceed cap {cap}")
    best = 0.0
    for subset in _maximal_conflict_free_sets(candidates):
        inside = set(subset)
        value = float(
            sum(
                table.weight[k]
                for k in range(len(table))
                if int(table.m1[k]) in inside and int(table.m2[k]) in inside
            )
        )
        best = max(best, value)
    return best
