"""Exact solver for the family-free median 0-1 program.

The program has one binary per candidate gene (selection must be
conflict-free: each extant gene supports at most one chosen candidate) and
one binary per conserved candidate adjacency (an adjacency needs both its
genes chosen, and each candidate extremity carries at most one adjacency).
The objective maximizes the conservation-weighted adjacency scores.

`solve_branch_and_bound` hands the program to HiGHS's MIP solver in one
call, in a two-block form: one row per extant gene over the selection
binaries, and one row per candidate extremity that bounds the adjacencies
there by the selection of its candidate.  That row replaces the paper's
coupling and saturation rows, is tighter than both, and keeps the same
integer points.  HiGHS presolve is off, because on this form it costs more
than it saves.  On a timeout the weight-order greedy selection competes
with HiGHS's incumbent.  scipy, which bundles HiGHS, is imported by the
first solve that reaches HiGHS, not with this module: the import takes
longer than the rest of a short `ffmedian` run, and no other subcommand
uses scipy.  `export_lp` writes the paper's own rows.
`brute_force_median` is the independent oracle: it enumerates maximal
conflict-free candidate subsets and solves each by exhaustive matching
search.
"""
from __future__ import annotations

import logging
import re
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .candidates import (
    CandidateAdjacency,
    CandidateGene,
    ConflictIndex,
    ConservedAdjacencyTable,
    END_NAMES,
)
from .genomes import Gene

if TYPE_CHECKING:
    import scipy.sparse as sp

log = logging.getLogger(__name__)

GRID = 1e-9  # objective comparison grid

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
    return IlpModel(list(candidates), table)


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


# -- exact solve ------------------------------------------------------------------


def _import_scipy() -> None:
    """Import the scipy modules the solve uses, about 0.6 s the first time.

    `solve_branch_and_bound` calls it before `linprog`, so that the import
    counts against its time limit and is not timed as part of the HiGHS call.
    """
    import scipy.optimize  # noqa: F401
    import scipy.sparse  # noqa: F401


def linprog(*args, **kwargs):
    """`scipy.optimize.linprog`; `solve_branch_and_bound` imports scipy first.

    A module-level name, so that the HiGHS call can be timed on its own.
    """
    import scipy.optimize

    return scipy.optimize.linprog(*args, **kwargs)


def _mip_rows(model: IlpModel) -> tuple[sp.csr_matrix, np.ndarray]:
    """The two row blocks over the columns [candidates, adjacencies].

    One row per extant gene: its candidates take at most one selection.
    One row per candidate extremity (m, e) carrying an adjacency: the
    adjacencies there sum to at most a_m.
    """
    import scipy.sparse as sp

    table = model.table
    n_a, n_b = model.n_a, model.n_b
    gene_num: dict[Gene, int] = {}
    cand_gene = np.array(
        [gene_num.setdefault(g, len(gene_num)) for c in model.candidates for g in c.genes],
        dtype=np.int64,
    )
    ext_keys = np.concatenate([table.m1 * 3 + table.e1, table.m2 * 3 + table.e2])
    ext, ext_row = np.unique(ext_keys.astype(np.int64), return_inverse=True)
    n_genes = len(gene_num)
    rows = np.concatenate([cand_gene, n_genes + ext_row, n_genes + np.arange(ext.size)])
    cols = np.concatenate([
        np.repeat(np.arange(n_a), 3),
        n_a + np.tile(np.arange(n_b), 2),
        ext // 3,
    ])
    vals = np.concatenate([np.ones(3 * n_a + 2 * n_b), -np.ones(ext.size)])
    matrix = sp.csr_matrix((vals, (rows, cols)), shape=(n_genes + ext.size, n_a + n_b))
    rhs = np.concatenate([np.ones(n_genes), np.zeros(ext.size)])
    return matrix, rhs


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
    """Exact, deterministic solve of the 0-1 program by one HiGHS MIP call.

    The rows are the two blocks of `_mip_rows`.  Its extremity row
    `sum b at (m, e) - a_m <= 0` merges the paper's coupling rows
    (`2b - a1 - a2 <= 0`) and saturation rows (`sum b <= 1`) into one row
    that is tighter than both and has the same integer points; the paper's
    rows, as `export_lp` writes them, give one coupling row per adjacency
    and a far larger, slower model.  HiGHS presolve is off: on this form it
    costs more than it saves, up to seconds on the MIS-reduction instances.

    HiGHS status 0 gives `optimal`.  When the time limit strikes (status 1)
    the result is `feasible`: the incumbent is the better of HiGHS's point
    and the weight-order greedy selection, which is far better than HiGHS's
    first points on telomere-heavy instances, and the bound is HiGHS's dual
    bound, or the total weight when HiGHS has none.  Any other status
    raises `SolverError`.

    `time_limit` counts from this call, so scipy's first import (about
    0.6 s) and the row build come out of the budget HiGHS gets.
    """
    started = time.monotonic()
    table = model.table
    if model.n_a == 0:
        return MedianSolution(STATUS_EMPTY, 0.0, 0.0, (), (), model.candidates, table)
    if model.n_b == 0:
        return _finish(model, STATUS_OPTIMAL, 0.0, 0.0, (), 0)

    _import_scipy()
    matrix, rhs = _mip_rows(model)
    options = {"mip_rel_gap": 0, "presolve": False}
    if time_limit is not None:
        # HiGHS ignores a negative limit, so a spent budget becomes 0
        spent = time.monotonic() - started
        options["time_limit"] = max(0.0, float(time_limit) - spent)
    res = linprog(
        np.concatenate([np.zeros(model.n_a), -table.weight]),
        A_ub=matrix,
        b_ub=rhs,
        bounds=(0, 1),
        integrality=1,
        method="highs",
        options=options,
    )
    nodes = int(res.get("mip_node_count", 0))
    dual_bound = -float(res.get("mip_dual_bound", -np.inf))
    log.info(
        "HiGHS MIP: status %d, %d nodes, gap %s, dual bound %s",
        res.status, nodes, res.get("mip_gap"), dual_bound,
    )
    rows: tuple[int, ...] = ()
    if res.x is not None:
        rows = tuple(int(k) for k in np.nonzero(res.x[model.n_a :] > 0.5)[0])
    value = float(np.sum(table.weight[list(rows)]))
    if res.status == 0:
        return _finish(model, STATUS_OPTIMAL, value, value, rows, nodes)
    if res.status != 1:
        raise SolverError(f"HiGHS MIP failed: {res.message}")
    greedy_value, greedy_rows = _greedy_incumbent(model)
    if greedy_value > value:
        value, rows = greedy_value, greedy_rows
    bound = dual_bound if np.isfinite(dual_bound) else float(np.sum(table.weight))
    # HiGHS's dual bound holds only up to its tolerances
    return _finish(model, STATUS_FEASIBLE, value, max(bound, value), rows, nodes)


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
    return solution


# -- brute-force oracle ----------------------------------------------------------


def _maximal_conflict_free_sets(
    candidates: Sequence[CandidateGene],
) -> list[tuple[int, ...]]:
    import networkx as nx

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
    model = build_ilp(candidates, table)
    solution = _finish(model, STATUS_OPTIMAL, best_value, best_value, best_rows, 0)
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
