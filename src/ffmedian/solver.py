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
than it saves.  So are the two MIP features that HiGHS (1.12, in scipy
1.17) runs before the root LP, the feasibility-jump heuristic and symmetry
detection: the root LP is already integral on 18 of the 24 perfbench pool
models (colinear and paralog instances 0-11), and with both off the HiGHS
time summed over those models went 576 -> 439 ms with the same optima
(feasibility jump off alone: 487 ms, symmetry detection off alone: 573 ms,
medians of 3).  Of the larger `benchmarks/scale.py` models, only n=200 c=6
was seen to need them, its HiGHS time 1.62 s with them and 1.70 s
without.  On a timeout the weight-order greedy selection competes
with HiGHS's incumbent.  HiGHS is the extension module that scipy bundles,
`scipy.optimize._highspy._core`.  The first solve that reaches HiGHS
loads that one file, in about 10 ms, without importing `scipy.optimize`
or `scipy.sparse`, whose imports take longer than the rest of a short
`ffmedian` run.  The paper's own rows, a conflict row per extant gene, a
coupling row per adjacency and a saturation row per candidate extremity,
are written by `reference.export_lp`, which no default solve imports.

The instance is one `ConservedAdjacencyTable`, which `build_ilp`,
`verify_solution` and `cars_from_rows` take alone, and a solution is a set
of its rows: the median genes are the candidates those rows join.
`cars_from_rows` reads the CARs off a graph over the extremities of those
genes: one edge joins the two ends of each gene and one edge stands for
each chosen row.  `paths_and_cycles`, the walk that ICF-SEG's matching
also uses, lists its paths and cycles.  A member reads `-` when the walk
enters it at its head; a telomere triple has one end and reads `+`.  A
linear CAR is the lesser of its two readings, and a circular CAR starts at
its smallest candidate, read `-`.

The independent oracle, `reference.brute_force_median`, is an exhaustive
search in plain Python that `solve --engine oracle` and the tests run.  It
and the rest of `reference` stay out of this module so that a default
solve compiles only the code it runs, and `IlpModel` and `MedianSolution`
are plain classes, not dataclasses, whose creation at import cost about
0.5 and 1 ms of each solve's start-up.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import logging
import sys
import time
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .candidates import ConservedAdjacencyTable
from .genomes import Gene

log = logging.getLogger(__name__)

GRID = 1e-9  # objective comparison grid

STATUS_OPTIMAL = "optimal"
STATUS_FEASIBLE = "feasible"
STATUS_EMPTY = "infeasible-empty"


class SolverError(RuntimeError):
    pass


# -- model -------------------------------------------------------------------


class IlpModel:
    """The 0-1 program over the candidate genes (`n_a` selection columns)
    and the rows of `table` (`n_b` adjacency columns).  `reference` counts
    and names the paper's form of it."""

    def __init__(self, table: ConservedAdjacencyTable):
        self.table = table
        self.n_a = len(table.candidates)
        self.n_b = len(table)


def build_ilp(table: ConservedAdjacencyTable) -> IlpModel:
    return IlpModel(table)


# -- solutions -----------------------------------------------------------------


class Car(NamedTuple):
    """Contiguous ancestral region: a path or cycle of chosen adjacencies."""

    shape: str  # "linear" | "circular"
    members: tuple[tuple[int, int], ...]  # (candidate index, orientation)


class MedianSolution:
    """The chosen rows of `table`; the median genes are the candidates they join."""

    def __init__(
        self,
        status: str,
        objective: float,
        bound: float,
        row_indices: tuple[int, ...],
        table: ConservedAdjacencyTable,
        nodes_explored: int = 0,
        simplex_iterations: int = 0,
        dual_bound: float | None = None,
        gap: float | None = None,
    ):
        self.status = status
        self.objective = objective
        self.bound = bound
        self.row_indices = row_indices
        self.table = table
        # HiGHS's counters; zero and None when no MIP ran
        self.nodes_explored = nodes_explored
        self.simplex_iterations = simplex_iterations
        self.dual_bound = dual_bound  # HiGHS's bound on the objective, or None
        self.gap = gap  # HiGHS's relative gap, or None


def verify_solution(
    table: ConservedAdjacencyTable, row_indices: Iterable[int], objective: float
) -> None:
    """Independent check of a solution straight from the definitions: no
    extant gene under two of the candidates its rows join, no candidate
    extremity in two rows, and the rows' weights summing to `objective`."""
    rows = list(row_indices)
    gene_use: dict[Gene, int] = {}
    for i in table.genes(rows):
        for gene in table.candidates[i].genes:
            if gene in gene_use:
                raise SolverError(f"conflict on extant gene {gene}")
            gene_use[gene] = i
    ext_use: set[tuple[int, int]] = set()
    total = 0.0
    for k in rows:
        m1, e1, m2, e2 = table.key(k)
        for ext in ((m1, e1), (m2, e2)):
            if ext in ext_use:
                raise SolverError(f"extremity {ext} used twice")
            ext_use.add(ext)
        total += float(table.weight[k])
    if abs(total - objective) > 1e-6 * max(1.0, abs(total)):
        raise SolverError(f"objective mismatch: {total} vs {objective}")


# -- CAR assembly ---------------------------------------------------------------


def paths_and_cycles(neighbours: dict) -> list[tuple[list, bool]]:
    """The components of a graph of degree <= 2, as (vertices in walk order,
    closed).

    `neighbours` maps every vertex to its neighbours.  The paths come first,
    each walked from its first vertex of degree <= 1 in `neighbours` order;
    the components left over are cycles, each walked from its first vertex.
    A vertex of higher degree or a self-loop raises `SolverError`.
    """
    for v, nb in neighbours.items():
        if len(nb) > 2 or v in nb:
            raise SolverError(
                f"graph is not a union of paths and cycles at vertex {v}: "
                f"its neighbours are {nb}"
            )
    seen: set = set()

    def walk(start) -> list:
        seen.add(start)
        vertices = [start]
        while True:
            step = [v for v in neighbours[vertices[-1]] if v not in seen]
            if not step:
                return vertices
            seen.add(step[0])
            vertices.append(step[0])

    components = []
    # paths from an end first; the components left over are cycles
    for v, nb in neighbours.items():
        if len(nb) <= 1 and v not in seen:
            components.append((walk(v), False))
    for v in neighbours:
        if v not in seen:
            components.append((walk(v), True))
    return components


def _members(walk: list[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Each candidate of an extremity walk once, `-` if entered at its head."""
    members = []
    for i, (m, e) in enumerate(walk):
        if i == 0 or walk[i - 1][0] != m:
            members.append((m, -1 if e == 1 else 1))
    return tuple(members)


def cars_from_rows(table: ConservedAdjacencyTable, row_indices: Iterable[int]) -> list[Car]:
    """The paths and cycles of the extremities of the genes that the chosen
    rows join, as canonical CARs sorted by their smallest member.

    Only the chosen adjacencies are used; no completion adjacencies are
    invented.  Each gene has a row, so each CAR has two members or more.
    """
    rows = list(row_indices)
    neighbours: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for m in table.genes(rows):
        ends = table.candidates[m].ends
        for e in ends:
            neighbours[(m, e)] = [(m, f) for f in ends if f != e]
    for k in rows:
        m1, e1, m2, e2 = table.key(k)
        neighbours[(m1, e1)].append((m2, e2))
        neighbours[(m2, e2)].append((m1, e1))
    cars = []
    for walk, closed in paths_and_cycles(neighbours):
        if closed:
            # enter the smallest candidate at its head: each candidate occurs
            # once, so this is the least of all rotations and reversals
            first = min(walk)[0]
            i = walk.index((first, 1))
            walk = walk[i:] + walk[:i]
            if walk[1] != (first, 0):
                walk = walk[:1] + walk[:0:-1]
            cars.append(Car("circular", _members(walk)))
            continue
        cars.append(Car("linear", min(_members(walk), _members(walk[::-1]))))
    cars.sort(key=lambda car: min(car.members))
    return cars


# -- exact solve ------------------------------------------------------------------


HIGHS_MODULE = "scipy.optimize._highspy._core"
SCIPY_FLOOR = "1.15"  # the first scipy release that ships HIGHS_MODULE
# HiGHS MIP features that run before the root LP; `linprog` turns them off
OFF_BEFORE_ROOT_LP = ("mip_heuristic_run_feasibility_jump", "mip_detect_symmetry")


def _highs_file() -> Path | None:
    """The file of scipy's HiGHS extension, found without importing scipy."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    folder = Path(spec.submodule_search_locations[0], "optimize", "_highspy")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"_core{suffix}"
        if path.is_file():
            return path
    return None


def _import_scipy():
    """The HiGHS extension module bundled with scipy, loaded on first use.

    Only that one file is loaded, under its own name, in about 10 ms; the
    packages around it, `scipy.optimize` among them, are not imported.  A
    process that imported `scipy.optimize` first already holds the module,
    and gets that same object back.  `solve_branch_and_bound` calls it
    before `linprog`, so that the load counts against its time limit and is
    not timed as part of the HiGHS call.
    """
    module = sys.modules.get(HIGHS_MODULE)
    if module is not None:
        return module
    path = _highs_file()
    if path is None:
        raise SolverError(
            f"the solve needs scipy>={SCIPY_FLOOR}: its HiGHS extension "
            f"{HIGHS_MODULE} was not found"
        )
    loader = importlib.machinery.ExtensionFileLoader(HIGHS_MODULE, str(path))
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(HIGHS_MODULE, path, loader=loader)
    )
    loader.exec_module(module)
    sys.modules[HIGHS_MODULE] = module
    return module


class MipResult(NamedTuple):
    """What one HiGHS MIP run returns; `x` is None without a point."""

    status: object  # the extension's HighsModelStatus
    message: str
    x: np.ndarray | None
    nodes: int
    iterations: int  # HiGHS's simplex iteration count
    dual_bound: float
    gap: float


def linprog(highs, cost, start, index, value, rhs, time_limit=None) -> MipResult:
    """Minimize `cost @ x` over 0-1 `x` with `A @ x <= rhs` in one HiGHS run.

    `highs` is the module `_import_scipy` returns and `A` is given in
    compressed-column form (`start`, `index`, `value`).  The options are
    those `scipy.optimize.linprog(method="highs")` sets when given
    `presolve=False` and `mip_rel_gap=0` (presolve off, a zero relative gap,
    no output, dual simplex, no debug checks), and two more, unlike scipy's:
    `OFF_BEFORE_ROOT_LP`, the feasibility-jump heuristic and symmetry
    detection, are off, as they cost more than they save on these models
    (see the module docstring).  An older HiGHS may lack one of the two: it
    rejects that setting, and the solve goes on.  A module-level name, so
    that the HiGHS call can be timed on its own.
    """
    n_col, n_row = len(cost), len(rhs)
    lp = highs.HighsLp()
    lp.num_col_ = n_col
    lp.num_row_ = n_row
    lp.col_cost_ = cost
    lp.col_lower_ = np.zeros(n_col)
    lp.col_upper_ = np.ones(n_col)
    lp.row_lower_ = np.full(n_row, -highs.kHighsInf)
    lp.row_upper_ = rhs
    lp.integrality_ = [highs.HighsVarType.kInteger] * n_col
    matrix = lp.a_matrix_
    matrix.format_ = highs.MatrixFormat.kColwise
    matrix.num_col_ = n_col
    matrix.num_row_ = n_row
    matrix.start_ = start
    matrix.index_ = index
    matrix.value_ = value

    options = highs.HighsOptions()
    options.presolve = "off"
    options.mip_rel_gap = 0.0
    options.output_flag = False
    options.log_to_console = False
    options.simplex_strategy = 1  # dual
    options.highs_debug_level = 0  # none
    if time_limit is not None:
        options.time_limit = float(time_limit)
    solver = highs._Highs()
    error = highs.HighsStatus.kError
    if solver.passOptions(options) == error or solver.passModel(lp) == error:
        raise SolverError("HiGHS rejected the model or its options")
    for name in OFF_BEFORE_ROOT_LP:
        solver.setOptionValue(name, False)  # kError, and ignored, in a HiGHS without it
    solver.run()
    status = solver.getModelStatus()
    info = solver.getInfo()
    x = None
    if status == highs.HighsModelStatus.kOptimal or (
        status == highs.HighsModelStatus.kTimeLimit
        and np.isfinite(info.objective_function_value)
    ):
        x = np.array(solver.getSolution().col_value)
    return MipResult(
        status, solver.modelStatusToString(status), x,
        int(info.mip_node_count), int(info.simplex_iteration_count),
        float(info.mip_dual_bound), float(info.mip_gap),
    )


def _mip_rows(model: IlpModel) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The two row blocks over the columns [candidates, adjacencies].

    One row per extant gene: its candidates take at most one selection.
    One row per candidate extremity (m, e) carrying an adjacency: the
    adjacencies there sum to at most a_m.  Returns the matrix in
    compressed-column form, entries sorted by (column, row), and the
    right-hand sides.
    """
    table = model.table
    n_a, n_b = model.n_a, model.n_b
    gene_num: dict[Gene, int] = {}
    cand_gene = np.array(
        [gene_num.setdefault(g, len(gene_num)) for c in table.candidates for g in c.genes],
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
    order = np.lexsort((rows, cols))
    start = np.searchsorted(cols[order], np.arange(n_a + n_b + 1))
    rhs = np.concatenate([np.ones(n_genes), np.zeros(ext.size)])
    return start, rows[order], vals[order], rhs


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
            for gene in table.candidates[m].genes:
                if owner.get(gene, m) != m:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        for m in (m1, m2):
            for gene in table.candidates[m].genes:
                owner[gene] = m
        used_ext.add((m1, e1))
        used_ext.add((m2, e2))
        chosen.append(k)
        value += float(table.weight[k])
    return value, tuple(sorted(chosen))


def solve_branch_and_bound(
    model: IlpModel, time_limit: float | None = None
) -> MedianSolution:
    """Exact, deterministic solve of the 0-1 program by one HiGHS MIP run.

    The rows are the two blocks of `_mip_rows`.  Its extremity row
    `sum b at (m, e) - a_m <= 0` merges the paper's coupling rows
    (`2b - a1 - a2 <= 0`) and saturation rows (`sum b <= 1`) into one row
    that is tighter than both and has the same integer points; the paper's
    rows, as `reference.export_lp` writes them, give one coupling row per
    adjacency and a far larger, slower model.  HiGHS presolve is off: on this form it
    costs more than it saves, up to seconds on the MIS-reduction instances.

    HiGHS's `kOptimal` gives `optimal`.  When the time limit strikes
    (`kTimeLimit`) the result is `feasible`: the incumbent is the better of
    HiGHS's point and the weight-order greedy selection, which is far better
    than HiGHS's first points on telomere-heavy instances, and the bound is
    HiGHS's dual bound, or the total weight when HiGHS has none.  Any other
    status raises `SolverError` with HiGHS's status string.

    `time_limit` counts from this call, so the first load of HiGHS and the
    row build come out of the budget HiGHS gets.
    """
    started = time.monotonic()
    table = model.table
    if model.n_a == 0:
        return MedianSolution(STATUS_EMPTY, 0.0, 0.0, (), table)
    if model.n_b == 0:
        return _finish(model, STATUS_OPTIMAL, 0.0, 0.0, ())

    highs = _import_scipy()
    start, index, coeffs, rhs = _mip_rows(model)
    limit = None
    if time_limit is not None:
        # HiGHS ignores a negative limit, so a spent budget becomes 0
        limit = max(0.0, float(time_limit) - (time.monotonic() - started))
    cost = np.concatenate([np.zeros(model.n_a), -table.weight])
    res = linprog(highs, cost, start, index, coeffs, rhs, limit)
    dual_bound = -res.dual_bound
    log.info(
        "HiGHS MIP: %s, %d nodes, gap %s, dual bound %s",
        res.message, res.nodes, res.gap, dual_bound,
    )
    rows: tuple[int, ...] = ()
    if res.x is not None:
        rows = tuple(int(k) for k in np.nonzero(res.x[model.n_a :] > 0.5)[0])
    value = float(np.sum(table.weight[list(rows)]))
    if res.status == highs.HighsModelStatus.kOptimal:
        return _finish(model, STATUS_OPTIMAL, value, value, rows, res)
    if res.status != highs.HighsModelStatus.kTimeLimit:
        raise SolverError(f"HiGHS MIP failed: {res.message}")
    greedy_value, greedy_rows = _greedy_incumbent(model)
    if greedy_value > value:
        value, rows = greedy_value, greedy_rows
    bound = dual_bound if np.isfinite(dual_bound) else float(np.sum(table.weight))
    # HiGHS's dual bound holds only up to its tolerances
    return _finish(model, STATUS_FEASIBLE, value, max(bound, value), rows, res)


def _finish(model, status, value, bound, rows, res=None) -> MedianSolution:
    """The verified solution of `rows`, with the counters of the HiGHS run
    `res` when there was one; a non-finite HiGHS bound or gap becomes None."""
    solution = MedianSolution(
        status=status,
        objective=float(value),
        bound=float(bound),
        row_indices=tuple(sorted(int(k) for k in rows)),
        table=model.table,
    )
    if res is not None:
        solution.nodes_explored = res.nodes
        solution.simplex_iterations = res.iterations
        if np.isfinite(res.dual_bound):
            solution.dual_bound = -res.dual_bound
        if np.isfinite(res.gap):
            solution.gap = res.gap
    verify_solution(model.table, solution.row_indices, solution.objective)
    return solution
