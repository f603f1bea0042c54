"""Exact solver for the family-free median 0-1 program.

The program has one binary per candidate gene (selection must be
conflict-free: each extant gene supports at most one chosen candidate) and
one binary per conserved candidate adjacency (an adjacency needs both its
genes chosen, and each candidate extremity carries at most one adjacency).
The objective maximizes the conservation-weighted adjacency scores.

`solve_branch_and_bound` solves a capped form of it (`_Capped`).
Telomere triples, one telomere per genome in every combination, are
interchangeable and get no columns.  A real extremity (m, e) gets one cap
for its rows to telomere triples: the row to a triple that holds the
telomere facing (m, e) in each genome of S, the union of those rows'
masks.  Rows between two telomere triples, whose telomeres end a
chromosome that preprocessing emptied in each genome of their mask S,
become counts y_S.  Distinct chosen caps face distinct telomeres, none of
which ends an emptied chromosome, so by Hall's theorem the caps and y_S get
triples of their own exactly when each genome has the telomeres (caps +
2 y) and the emptied chromosomes they need (Shao, Lin & Moret, JCB 2015;
Bohnenkämper et al., JCB 2021).  So the capped program keeps the optimum,
and `_Capped.table_rows` maps its point to table rows.  Each extremity row,
`sum b at (m, e) - a_m <= 0`, is tighter than the paper's coupling and
saturation rows, with the same integer points.  Two exact reductions
(Achterberg et al., "Presolve Reductions in Mixed Integer Programming",
INFORMS J. Comput. 2020) shrink what HiGHS gets: the selection of a
candidate that alone holds its genes is fixed at 1, and a row that cannot
bind is left out.  `linprog` solves the LP, and runs the MIP on the same
HiGHS object only when the LP's vertex is not a 0-1 point of the rows;
nearly every root is integral.  HiGHS presolve, feasibility jump and
symmetry detection are off: each costs more than it saves on these models
(`BENCH_fixed_costs.json`).  On a timeout the weight-order greedy selection
competes with HiGHS's point.  HiGHS is scipy's extension
`scipy.optimize._highspy._core`, loaded alone, without `scipy.optimize`.
The paper's own rows are written by `reference.export_lp`.

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
search in plain Python that the tests run.  It and the rest of `reference`
stay out of this module, so that a solve compiles only the code it runs,
and `IlpModel` and `MedianSolution` are plain classes, not dataclasses.
Nor does it import `logging`: the solve's INFO record on the HiGHS run
goes to the `ffmedian.solver` logger only in a process that has loaded the
module, as `ffmedian -v` and any caller that configures logging have.
"""
from __future__ import annotations

import contextlib
import ctypes
import importlib.machinery
import importlib.util
import os
import sys
import time
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .candidates import ConservedAdjacencyTable

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

    def __init__(self, status: str, objective: float, bound: float,
                 row_indices: tuple[int, ...], table: ConservedAdjacencyTable):
        self.status = status
        self.objective = objective
        self.bound = bound
        self.row_indices = row_indices
        self.table = table
        # HiGHS's counters, which `solve_branch_and_bound` sets after a MIP run
        self.nodes_explored = 0
        self.simplex_iterations = 0
        self.dual_bound: float | None = None  # HiGHS's bound on the objective
        self.gap: float | None = None  # HiGHS's relative gap
        self.caps = 0  # the cap and y columns handed to HiGHS
        self.lp_integral: bool | None = None  # whether HiGHS's LP vertex was a 0-1 point
        self.highs_rows = 0  # the rows handed to HiGHS
        self.fixed = 0  # the selections fixed at 1 before HiGHS runs


def verify_solution(
    table: ConservedAdjacencyTable, row_indices: Iterable[int], objective: float
) -> None:
    """Independent check of a solution straight from the definitions, counted
    on the table's arrays: no extant gene under two of the candidates its
    rows join, no candidate extremity in two rows, and the rows' weights
    summing to `objective`.  `cli.run_pipeline` runs it once per solve."""
    rows = np.array(list(row_indices), dtype=np.int64)
    cands = table.candidates
    for genome, genes in zip(cands.genomes, cands.ids[:, table.genes(rows)]):
        used = np.bincount(genes, minlength=1)
        if used.max() > 1:
            gene = genome.names[int(used.argmax())]
            raise SolverError(f"conflict on extant gene {genome.label}:{gene}")
    ends = np.concatenate([table.m1[rows] * 3 + table.e1[rows],
                           table.m2[rows] * 3 + table.e2[rows]])
    used = np.bincount(ends, minlength=1)
    if used.max() > 1:
        ext = int(used.argmax())
        raise SolverError(f"extremity {(ext // 3, ext % 3)} used twice")
    total = float(sum(table.weight[rows].tolist()))
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
    telomeric = table.candidates.telomeric
    for m in table.genes(rows):
        ends = (2,) if telomeric[m] else (0, 1)
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
    """What `linprog` returns; `x` is None without a point."""

    status: object  # the extension's HighsModelStatus
    message: str
    x: np.ndarray | None
    nodes: int
    iterations: int  # HiGHS's simplex iterations, the LP's and the MIP's
    dual_bound: float  # the tighter of the LP's objective and the MIP's bound
    gap: float
    lp_integral: bool | None  # whether the LP's vertex is a 0-1 point of the rows


@contextlib.contextmanager
def _stdout_away():
    """Point fd 1 at the null device while HiGHS runs: its MIP prints debug
    lines through C stdio whatever its output options say.  C stdio is
    flushed before fd 1 points back, so none of them is left pending."""
    try:
        saved = os.dup(1)
    except OSError:  # no fd 1, nothing to keep clean
        yield
        return
    try:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, 1)
        os.close(null)
        yield
    finally:
        ctypes.CDLL(None).fflush(None)
        os.dup2(saved, 1)
        os.close(saved)


def linprog(highs, cost, start, index, value, rhs, time_limit=None) -> MipResult:
    """Minimize `cost @ x` over 0-1 `x` with `A @ x <= rhs`: the LP first,
    then, only when its vertex is not a 0-1 point within 1e-6 whose rounding
    satisfies every row, the MIP on the same HiGHS object, in what the LP
    left of `time_limit`.  A module-level name, so that it can be timed.

    `highs` is the module `_import_scipy` returns and `A` is given in
    compressed-column form (`start`, `index`, `value`).  The options are
    those `scipy.optimize.linprog(method="highs")` sets when given
    `presolve=False` and `mip_rel_gap=0` (presolve off, a zero relative gap,
    no output, dual simplex, no debug checks), and `OFF_BEFORE_ROOT_LP`,
    the feasibility-jump heuristic and symmetry detection, turned off (see
    the module docstring); an older HiGHS that lacks one rejects it, and
    the solve goes on.
    """
    if time_limit is not None and time_limit <= 0:  # HiGHS's LP would still run
        return MipResult(highs.HighsModelStatus.kTimeLimit, "Time limit reached", None,
                         0, 0, -np.inf, np.inf, None)
    deadline = None if time_limit is None else time.monotonic() + float(time_limit)
    n_col, n_row = len(cost), len(rhs)
    lp = highs.HighsLp()
    lp.num_col_ = n_col
    lp.num_row_ = n_row
    lp.col_cost_ = cost
    lp.col_lower_ = np.zeros(n_col)
    lp.col_upper_ = np.ones(n_col)
    lp.row_lower_ = np.full(n_row, -highs.kHighsInf)
    lp.row_upper_ = rhs
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
    optimal = highs.HighsModelStatus.kOptimal
    with _stdout_away():
        solver.run()
        status, info = solver.getModelStatus(), solver.getInfo()
        iterations = int(info.simplex_iteration_count)
        if status != optimal:  # the LP did not finish: no point, no bound
            return MipResult(status, solver.modelStatusToString(status), None, 0,
                             iterations, -np.inf, np.inf, None)
        lp_bound = float(info.objective_function_value)
        x = np.array(solver.getSolution().col_value)
        point = np.round(x)
        activity = np.bincount(index, value * np.repeat(point, np.diff(start)),
                               minlength=n_row)
        if np.abs(x - point).max(initial=0.0) <= 1e-6 and (activity <= rhs).all():
            return MipResult(status, solver.modelStatusToString(status), point, 0,
                             iterations, lp_bound, 0.0, True)
        solver.changeColsIntegrality(n_col, np.arange(n_col, dtype=np.int32),
                                     np.full(n_col, int(highs.HighsVarType.kInteger), np.uint8))
        if deadline is not None:
            solver.setOptionValue("time_limit", max(0.0, deadline - time.monotonic()))
        solver.run()
    status, info = solver.getModelStatus(), solver.getInfo()
    x = None
    if status == optimal or (
        status == highs.HighsModelStatus.kTimeLimit
        and np.isfinite(info.objective_function_value)
    ):
        x = np.array(solver.getSolution().col_value)
    return MipResult(
        status, solver.modelStatusToString(status), x, int(info.mip_node_count),
        iterations + int(info.simplex_iteration_count),
        max(float(info.mip_dual_bound), lp_bound), float(info.mip_gap), False,
    )


class _Capped:
    """The capped program of a table in compressed-column form (entries
    sorted by column, then row).  Columns: a selection per real candidate;
    one per row between two of them; a cap per real extremity (m, e) with
    telomere rows, of weight triple(m)^(1/6) |S|; each y_S in unary, as
    binaries of weight |S|.  Rows: per extant gene, its selections <= 1;
    per real extremity, its rows and cap <= the selection of m; per genome
    X, the y with X in S <= X's emptied chromosomes; caps + 2 y <= the
    fewest telomeres of a genome.  `handed` is the program HiGHS gets,
    reduced by rules (a) and (b) below with the columns' numbers kept, and
    `fixed` counts the selections that rule (a) fixes."""

    def __init__(self, table: ConservedAdjacencyTable):
        ids, telomeric = table.candidates.ids, table.candidates.telomeric
        real, tri = np.nonzero(~telomeric)[0], np.nonzero(telomeric)[0]
        # the real candidates' genes, numbered in order of first use
        _, used, cand_gene = np.unique((ids[:, real] * 3 + np.arange(3)[:, None]).T,
                                       return_index=True, return_inverse=True)
        rank = np.empty(used.size, dtype=np.int64)
        rank[np.argsort(used)] = np.arange(used.size)
        # per genome, each telomere triple's telomere, numbered in name order,
        # and per combination of telomeres the end of its telomere triple
        code = np.full((telomeric.size, 3), -1, dtype=np.int64)
        for x in range(3):
            code[tri, x] = np.unique(ids[x, tri], return_inverse=True)[1]
        self.telomeres = (code.max(axis=0, initial=-1) + 1).tolist()
        self.end = np.zeros(np.prod(self.telomeres), dtype=np.int64)
        self.end[np.ravel_multi_index(code[tri].T, self.telomeres)] = 3 * tri + 2
        m1, m2, mask = table.m1, table.m2, table.mask
        end1, end2 = m1 * 3 + table.e1, m2 * 3 + table.e2
        t1, t2 = telomeric[m1], telomeric[m2]
        self.inner = inner = np.nonzero(~(t1 | t2))[0]
        mixed, tt = np.nonzero(t1 != t2)[0], np.nonzero(t1 & t2)[0]
        self.cap_ext, first, cap_of = np.unique(
            np.where(t1, end2, end1)[mixed], return_index=True, return_inverse=True
        )
        cap_mask = np.zeros(self.cap_ext.size, dtype=np.int64)
        np.bitwise_or.at(cap_mask, cap_of, mask[mixed])
        # per genome, the telomere each cap faces (-1: none), each telomere's
        # partner on an emptied chromosome (-1: none) and those chromosomes
        self.forced = np.full((self.cap_ext.size, 3), -1, dtype=np.int64)
        self.partner, emptied = [], []
        for x, n in enumerate(self.telomeres):
            on = mask[mixed] >> x & 1 == 1
            self.forced[cap_of[on], x] = code[np.where(t1, m1, m2)[mixed[on]], x]
            on = tt[mask[tt] >> x & 1 == 1]
            partner = np.full(n, -1, dtype=np.int64)
            partner[code[m1[on], x]], partner[code[m2[on], x]] = code[m2[on], x], code[m1[on], x]
            self.partner.append(partner)
            emptied.append(int((partner >= 0).sum()) // 2)
        room = min(self.telomeres)
        # y_S per mask S of those rows, in as many copies as S's genomes and
        # the room allow; no np.unique here, which loads numpy.ma unless it
        # returns an index
        masks = np.nonzero(np.bincount(mask[tt], minlength=8))[0]
        in_s = masks[:, None] >> np.arange(3) & 1 == 1
        copies = np.minimum(np.where(in_s, emptied, room).min(axis=1), room // 2)
        self.y_mask = y_mask = np.repeat(masks, copies)

        n_r, n_in, n_cap, n_genes = real.size, inner.size, self.cap_ext.size, used.size
        self.split = (n_r, n_r + n_in, n_r + n_in + n_cap)
        ext, ext_row = np.unique(np.concatenate([end1[inner], end2[inner], self.cap_ext]),
                                 return_inverse=True)
        col_of = np.zeros(telomeric.size, dtype=np.int64)
        col_of[real] = np.arange(n_r)
        caps = np.arange(n_r + n_in, self.split[2])
        ys = self.split[2] + np.arange(y_mask.size)
        blocks = [  # (rows, columns, value)
            (rank[cand_gene.ravel()], np.repeat(np.arange(n_r), 3), 1.0),
            (n_genes + ext_row, np.concatenate([n_r + np.tile(np.arange(n_in), 2), caps]), 1.0),
            (n_genes + np.arange(ext.size), col_of[ext // 3], -1.0),
        ]
        row = n_genes + ext.size
        blocks += [(row + x, ys[y_mask >> x & 1 == 1], 1.0) for x in range(3)]
        blocks += [(row + 3, caps, 1.0), (row + 3, ys, 2.0)]
        rows = np.concatenate([np.broadcast_to(r, c.shape) for r, c, _ in blocks])
        cols = np.concatenate([c for _, c, _ in blocks])
        order = np.lexsort((rows, cols))
        rows, cols = rows[order], cols[order]
        n_col = ys.size + self.split[2]
        self.start = np.searchsorted(cols, np.arange(n_col + 1))
        self.index = rows
        self.value = np.concatenate([np.full(c.size, v) for _, c, v in blocks])[order]
        self.rhs = np.concatenate([np.ones(n_genes), np.zeros(ext.size), emptied, [room]])
        # (a) a real candidate that alone holds each of its genes is fixed at
        # 1: its entries move to the right sides, and its column is left
        # empty.  Its gene rows hold it alone, it costs 0, and choosing it
        # only loosens its extremity rows.
        fixed = np.zeros(n_col, dtype=bool)
        fixed[:n_r] = np.bincount(cand_gene.ravel())[cand_gene].max(axis=1, initial=0) == 1
        self.fixed = int(fixed.sum())
        on = fixed[cols]
        rhs = self.rhs - np.bincount(rows[on], self.value[on], minlength=self.rhs.size)
        # (b) a row goes to HiGHS only when its largest activity, the sum of
        # its positive coefficients on free columns, exceeds its right side
        keep = np.bincount(rows[~on], np.maximum(self.value[~on], 0.0),
                           minlength=rhs.size) > rhs
        on = ~on & keep[rows]  # the entries handed to HiGHS
        self.handed = (  # compressed-column arrays and right sides, as `linprog` takes them
            np.concatenate([[0], np.cumsum(np.bincount(cols[on], minlength=n_col))]),
            (np.cumsum(keep) - 1)[rows[on]], self.value[on], rhs[keep],
        )
        self.cost = -np.concatenate([
            np.zeros(n_r), table.weight[inner],
            table.factor[mixed[first]] * np.bitwise_count(cap_mask.astype(np.uint8)),
            np.bitwise_count(y_mask.astype(np.uint8)),
        ])
        self.table = table

    def table_rows(self, point: np.ndarray) -> tuple[int, ...]:
        """The table rows of a 0-1 point: its rows between real candidates,
        and a telomere triple's row for each cap and two triples' row for
        each y binary.  A cap takes the telomeres its mask forces, and y_S
        an unused emptied chromosome in each genome of S; each genome then
        hands out its other telomeres in name order, to the y first.
        """
        on = point > 0.5
        n_r, n_rows, n_caps = self.split
        caps = np.nonzero(on[n_rows:n_caps])[0]
        ys = self.y_mask[on[n_caps:]]
        # the telomeres of the two triples of each y, then of each cap's triple
        slots = np.concatenate([np.full((2 * ys.size, 3), -1), self.forced[caps]])
        for x, partner in enumerate(self.partner):
            held = 2 * np.nonzero(ys >> x & 1)[0]
            left = np.nonzero(partner > np.arange(partner.size))[0][:held.size]
            slots[held, x], slots[held + 1, x] = left, partner[left]
            open_ = slots[:, x] < 0
            free = np.ones(self.telomeres[x], dtype=bool)
            free[slots[~open_, x]] = False
            slots[open_, x] = np.nonzero(free)[0][:open_.sum()]
        ends = self.end[np.ravel_multi_index(slots.T, self.telomeres)]
        a = np.concatenate([ends[:2 * ys.size:2], self.cap_ext[caps]])
        b = np.concatenate([ends[1:2 * ys.size:2], ends[2 * ys.size:]])
        table = self.table
        keys = (table.m1 * 3 + table.e1) << 32 | (table.m2 * 3 + table.e2)
        wanted = np.minimum(a, b) << 32 | np.maximum(a, b)
        found = np.searchsorted(keys, wanted)
        if not np.array_equal(keys[np.minimum(found, len(table) - 1)], wanted):
            raise SolverError("a cap or emptied chromosome has no row in the table")
        return tuple(sorted(self.inner[on[n_r:n_rows]].tolist() + found.tolist()))


def _greedy_incumbent(model: IlpModel) -> tuple[float, tuple[int, ...]]:
    """Take adjacencies by decreasing weight while the selection stays valid."""
    table = model.table
    genes = [list(enumerate(col)) for col in table.candidates.ids.T.tolist()]
    owner: dict[tuple[int, int], int] = {}
    used_ext: set[tuple[int, int]] = set()
    chosen: list[int] = []
    for k in np.lexsort((np.arange(len(table)), -table.weight)).tolist():
        m1, e1, m2, e2 = table.key(k)
        if (m1, e1) in used_ext or (m2, e2) in used_ext or any(
            owner.get(gene, m) != m for m in (m1, m2) for gene in genes[m]
        ):
            continue
        owner.update((gene, m) for m in (m1, m2) for gene in genes[m])
        used_ext |= {(m1, e1), (m2, e2)}
        chosen.append(k)
    return float(sum(table.weight[chosen].tolist())), tuple(sorted(chosen))


def solve_branch_and_bound(
    model: IlpModel, time_limit: float | None = None
) -> MedianSolution:
    """Exact, deterministic solve of the 0-1 program: the capped program,
    `_Capped`, reduced by its rules (a) and (b), goes to `linprog`, which
    runs HiGHS's LP and, only on a fractional root, its MIP (see the module
    docstring).

    An LP vertex that is a 0-1 point of the rows, or HiGHS's MIP `kOptimal`,
    gives `optimal`.  When the time limit strikes (`kTimeLimit`) the result
    is `feasible`: the incumbent is the better of HiGHS's point and the
    weight-order greedy selection, and the bound is the tighter of the LP's
    objective and HiGHS's MIP bound, or the capped program's total weight
    when the LP did not finish.  Any other status raises `SolverError` with
    HiGHS's status string.

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
    program = _Capped(table)
    limit = None
    if time_limit is not None:
        # HiGHS ignores a negative limit, so a spent budget becomes 0
        limit = max(0.0, float(time_limit) - (time.monotonic() - started))
    res = linprog(highs, program.cost, *program.handed, limit)
    dual_bound = -res.dual_bound
    logging = sys.modules.get("logging")
    if logging is not None:  # without the module no handler could show the record
        logging.getLogger(__name__).info(
            "HiGHS: %s, LP integral %s, %d nodes, gap %s, dual bound %s",
            res.message, res.lp_integral, res.nodes, res.gap, dual_bound,
        )
    rows = () if res.x is None else program.table_rows(res.x)
    value = float(np.sum(table.weight[list(rows)]))
    if res.status == highs.HighsModelStatus.kOptimal:
        solution = _finish(model, STATUS_OPTIMAL, value, value, rows, res)
    elif res.status != highs.HighsModelStatus.kTimeLimit:
        raise SolverError(f"HiGHS failed: {res.message}")
    else:
        greedy_value, greedy_rows = _greedy_incumbent(model)
        if greedy_value > value:
            value, rows = greedy_value, greedy_rows
        bound = dual_bound if np.isfinite(dual_bound) else -float(np.sum(program.cost))
        # HiGHS's dual bound holds only up to its tolerances
        solution = _finish(model, STATUS_FEASIBLE, value, max(bound, value), rows, res)
    solution.caps = program.cost.size - program.split[1]
    solution.highs_rows, solution.fixed = program.handed[3].size, program.fixed
    return solution


def _finish(model, status, value, bound, rows, res=None) -> MedianSolution:
    """The solution of `rows`, unverified, with the counters of the HiGHS run
    `res` when there was one; a non-finite HiGHS bound or gap becomes None."""
    rows = tuple(sorted(int(k) for k in rows))
    solution = MedianSolution(status, float(value), float(bound), rows, model.table)
    if res is not None:
        solution.nodes_explored = res.nodes
        solution.simplex_iterations = res.iterations
        solution.lp_integral = res.lp_integral
        if np.isfinite(res.dual_bound):
            solution.dual_bound = -res.dual_bound
        if np.isfinite(res.gap):
            solution.gap = res.gap
    return solution
