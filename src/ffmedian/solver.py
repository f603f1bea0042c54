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
Its setters of model arrays load numpy, even when given a list, so
`linprog` hands HiGHS the program as a free MPS file instead: every column
in order, the empty ones too, and every number written with `repr`, so
that HiGHS reads back the very model the arrays hold.  The columns are
binary, and the LP is HiGHS's relaxation of them (`solve_relaxation`), so
that the MIP needs no call per column.  The file lives only until HiGHS
has read it, and the solve imports no numpy.  The paper's own
rows are written by `reference.export_lp`.

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
import itertools
import math
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Iterable, NamedTuple

from .candidates import ConservedAdjacencyTable
from .kernels import SHIFT

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
    rows = list(row_indices)
    cands = table.candidates
    chosen = table.genes(rows)
    for genome, slot in zip(cands.genomes, cands.ids):
        gene, used = _most_used(slot[m] for m in chosen)
        if used > 1:
            raise SolverError(f"conflict on extant gene {genome.label}:{genome.names[gene]}")
    m1, e1, m2, e2 = table.m1, table.e1, table.m2, table.e2
    ext, used = _most_used(end for k in rows for end in (m1[k] * 3 + e1[k], m2[k] * 3 + e2[k]))
    if used > 1:
        raise SolverError(f"extremity {(ext // 3, ext % 3)} used twice")
    total = math.fsum(table.weight[k] for k in rows)
    if abs(total - objective) > 1e-6 * max(1.0, abs(total)):
        raise SolverError(f"objective mismatch: {total} vs {objective}")


def _most_used(values) -> tuple[int | None, int]:
    """The least of the values that occur most often, and how often it does."""
    counts: dict[int, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    top = max(counts.values(), default=0)
    return min((v for v, n in counts.items() if n == top), default=None), top


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
    x: list[float] | None
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


def _mps(cost, start, index, value, rhs) -> str:
    """The program of `linprog` in free MPS: rows r0.. (`A @ x <= rhs`) and
    binary columns c0.. in order, each with its cost, even 0, so that an
    empty column is kept; numbers as `repr` writes them."""
    text = {v: repr(v) for v in set(value)}  # the matrix holds few distinct values
    lines = ["NAME", "ROWS", " N obj", *(f" L r{i}" for i in range(len(rhs))), "COLUMNS"]
    for j, c in enumerate(cost):
        lines.append(f" c{j} obj {c!r}")
        lines += [f" c{j} r{index[k]} {text[value[k]]}" for k in range(start[j], start[j + 1])]
    lines.append("RHS")
    lines += [f" rhs r{i} {v!r}" for i, v in enumerate(rhs) if v]
    lines.append("BOUNDS")
    lines += [f" BV bnd c{j}" for j in range(len(cost))]
    lines.append("ENDATA\n")
    return "\n".join(lines)


def _read_model(solver, cost, start, index, value, rhs):
    """Hand the program to the HiGHS object `solver` through an MPS file,
    in `TMPDIR` when it is set, removed once HiGHS has read it, and return
    HiGHS's status.  A file that cannot be written, such as one in a
    `TMPDIR` that does not exist, raises `SolverError`."""
    try:
        fd, path = tempfile.mkstemp(suffix=".mps", dir=os.environ.get("TMPDIR") or None)
    except OSError as exc:
        raise SolverError(f"cannot write the model for HiGHS: {exc}") from None
    try:
        with open(fd, "w", encoding="ascii") as fh:
            fh.write(_mps(cost, start, index, value, rhs))
        with _stdout_away():
            return solver.readModel(path)
    except OSError as exc:
        raise SolverError(f"cannot write the model for HiGHS: {exc}") from None
    finally:
        os.unlink(path)


def linprog(highs, cost, start, index, value, rhs, time_limit=None) -> MipResult:
    """Minimize `cost @ x` over 0-1 `x` with `A @ x <= rhs`: the LP first,
    then, only when its vertex is not a 0-1 point within 1e-6 whose rounding
    satisfies every row, the MIP on the same HiGHS object, in what the LP
    left of `time_limit`.  A module-level name, so that it can be timed.

    `highs` is the module `_import_scipy` returns and `A` is given in
    compressed-column form (`start`, `index`, `value`), as sequences of
    Python numbers; `_read_model` hands it to HiGHS with binary columns, and
    the LP is HiGHS's `solve_relaxation` of it.  The options are those
    `scipy.optimize.linprog(method="highs")` sets when given
    `presolve=False` and `mip_rel_gap=0` (presolve off, a zero relative gap,
    no output, dual simplex, no debug checks), and `OFF_BEFORE_ROOT_LP`,
    the feasibility-jump heuristic and symmetry detection, turned off (see
    the module docstring); an older HiGHS that lacks one rejects it, and
    the solve goes on.
    """
    if time_limit is not None and time_limit <= 0:  # HiGHS's LP would still run
        return MipResult(highs.HighsModelStatus.kTimeLimit, "Time limit reached", None,
                         0, 0, -math.inf, math.inf, None)
    deadline = None if time_limit is None else time.monotonic() + float(time_limit)
    n_row = len(rhs)
    solver = highs._Highs()
    options = {"output_flag": False, "log_to_console": False, "presolve": "off",
               "mip_rel_gap": 0.0, "simplex_strategy": 1,  # dual
               "highs_debug_level": 0,  # none
               "solve_relaxation": True}  # the LP first
    for name, setting in options.items():
        if solver.setOptionValue(name, setting) == highs.HighsStatus.kError:
            raise SolverError(f"HiGHS rejected its option {name}")
    for name in OFF_BEFORE_ROOT_LP:
        solver.setOptionValue(name, False)  # kError, and ignored, in a HiGHS without it
    if _read_model(solver, cost, start, index, value, rhs) == highs.HighsStatus.kError:
        raise SolverError("HiGHS rejected the model")
    if time_limit is not None:  # set after the read, which HiGHS would time out
        solver.setOptionValue("time_limit", max(0.0, deadline - time.monotonic()))
    optimal = highs.HighsModelStatus.kOptimal
    with _stdout_away():
        solver.run()
        status, info = solver.getModelStatus(), solver.getInfo()
        iterations = int(info.simplex_iteration_count)
        if status != optimal:  # the LP did not finish: no point, no bound
            return MipResult(status, solver.modelStatusToString(status), None, 0,
                             iterations, -math.inf, math.inf, None)
        lp_bound = float(info.objective_function_value)
        x = solver.getSolution().col_value
        point = [float(round(v)) for v in x]
        activity = [0.0] * n_row
        for j, p in enumerate(point):
            if p:
                for k in range(start[j], start[j + 1]):
                    activity[index[k]] += value[k] * p
        if max((abs(v - p) for v, p in zip(x, point)), default=0.0) <= 1e-6 and all(
            a <= r for a, r in zip(activity, rhs)
        ):
            return MipResult(status, solver.modelStatusToString(status), point, 0,
                             iterations, lp_bound, 0.0, True)
        solver.setOptionValue("solve_relaxation", False)
        if deadline is not None:
            solver.setOptionValue("time_limit", max(0.0, deadline - time.monotonic()))
        solver.run()
    status, info = solver.getModelStatus(), solver.getInfo()
    x = None
    if status == optimal or (
        status == highs.HighsModelStatus.kTimeLimit
        and math.isfinite(info.objective_function_value)
    ):
        x = solver.getSolution().col_value
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
        real = [m for m, t in enumerate(telomeric) if not t]
        tri = [m for m, t in enumerate(telomeric) if t]
        # the real candidates' genes, as gene rows numbered in order of first use
        g, h, i = ids
        gene_row: dict[int, int] = {}
        for m in real:
            for code in (3 * g[m], 3 * h[m] + 1, 3 * i[m] + 2):
                gene_row.setdefault(code, len(gene_row))
        cand_gene = [(gene_row[3 * g[m]], gene_row[3 * h[m] + 1], gene_row[3 * i[m] + 2])
                     for m in real]
        # per genome, each telomere triple's telomere, numbered in name order,
        # and per combination of telomeres the end of its telomere triple
        number = [{t: c for c, t in enumerate(sorted({ids[x][m] for m in tri}))}
                  for x in range(3)]
        self.telomeres = [len(n) for n in number]
        code = {m: tuple(number[x][ids[x][m]] for x in range(3)) for m in tri}
        self.end = {c: 3 * m + 2 for m, c in code.items()}
        m1, e1, m2, e2, mask = table.m1, table.e1, table.m2, table.e2, table.mask
        self.inner = inner = []
        mixed, tt = [], []
        for k, (a, b) in enumerate(zip(m1, m2)):
            (tt if telomeric[a] and telomeric[b] else
             mixed if telomeric[a] or telomeric[b] else inner).append(k)
        # a cap per real extremity of the mixed rows: its first row, the
        # union of the rows' masks and, per genome, the telomere it faces
        # (-1: none)
        cap_first: dict[int, int] = {}
        cap_mask: dict[int, int] = {}
        forced: dict[int, list[int]] = {}
        for k in mixed:
            tel, ext = ((m1[k], 3 * m2[k] + e2[k]) if telomeric[m1[k]] else
                        (m2[k], 3 * m1[k] + e1[k]))
            cap_first.setdefault(ext, k)
            cap_mask[ext] = cap_mask.get(ext, 0) | mask[k]
            faced = forced.setdefault(ext, [-1, -1, -1])
            for x in range(3):
                if mask[k] >> x & 1:
                    faced[x] = code[tel][x]
        self.cap_ext = sorted(cap_first)
        self.forced = [forced[ext] for ext in self.cap_ext]
        # per genome, each telomere's partner on an emptied chromosome (-1:
        # none) and those chromosomes
        self.partner, emptied = [], []
        for x, n in enumerate(self.telomeres):
            on = [k for k in tt if mask[k] >> x & 1]
            partner = [-1] * n
            for k in on:
                partner[code[m1[k]][x]] = code[m2[k]][x]
            for k in on:
                partner[code[m2[k]][x]] = code[m1[k]][x]
            self.partner.append(partner)
            emptied.append(sum(t >= 0 for t in partner) // 2)
        room = min(self.telomeres)
        # y_S per mask S of those rows, in as many copies as S's genomes and
        # the room allow
        self.y_mask = y_mask = []
        for bits in sorted({mask[k] for k in tt}):
            copies = min(emptied[x] if bits >> x & 1 else room for x in range(3))
            y_mask += [bits] * min(copies, room // 2)

        n_r, n_in, n_cap, n_genes = len(real), len(inner), len(self.cap_ext), len(gene_row)
        self.split = (n_r, n_r + n_in, n_r + n_in + n_cap)
        ext_rows = sorted({*(3 * m1[k] + e1[k] for k in inner),
                           *(3 * m2[k] + e2[k] for k in inner), *self.cap_ext})
        ext_row = {ext: n_genes + j for j, ext in enumerate(ext_rows)}.get
        row = n_genes + len(ext_rows)
        # each column's (row, value) entries, by row
        index, value, self.start = [], [], [0]
        for m, genes in zip(real, cand_gene):
            index += sorted(genes)
            value += (1.0, 1.0, 1.0)
            for r in (ext_row(3 * m), ext_row(3 * m + 1)):
                if r is not None:
                    index.append(r)
                    value.append(-1.0)
            self.start.append(len(index))
        for k in inner:
            index += (ext_row(3 * m1[k] + e1[k]), ext_row(3 * m2[k] + e2[k]))
            value += (1.0, 1.0)
            self.start.append(len(index))
        for ext in self.cap_ext:
            index += (ext_row(ext), row + 3)
            value += (1.0, 1.0)
            self.start.append(len(index))
        for bits in y_mask:
            rows = [row + x for x in range(3) if bits >> x & 1] + [row + 3]
            index += rows
            value += [1.0] * (len(rows) - 1) + [2.0]
            self.start.append(len(index))
        self.index, self.value = index, value
        self.rhs = [1.0] * n_genes + [0.0] * len(ext_rows) + [float(e) for e in emptied]
        self.rhs.append(float(room))
        # (a) a real candidate that alone holds each of its genes is fixed at
        # 1: its entries move to the right sides, and its column is left
        # empty.  Its gene rows hold it alone, it costs 0, and choosing it
        # only loosens its extremity rows.
        uses = [0] * n_genes
        for genes in cand_gene:
            for r in genes:
                uses[r] += 1
        fixed = [uses[a] == uses[b] == uses[c] == 1 for a, b, c in cand_gene]
        self.fixed = sum(fixed)
        column = [j for j, (a, b) in enumerate(itertools.pairwise(self.start))
                  for _ in range(a, b)]
        on = [j < n_r and fixed[j] for j in column]  # the entries of fixed columns
        rhs = self.rhs.copy()
        # (b) a row goes to HiGHS only when its largest activity, the sum of
        # its positive coefficients on free columns, exceeds its right side
        reach = [0.0] * len(rhs)
        for r, v, dead in zip(index, value, on):
            if dead:
                rhs[r] -= v
            elif v > 0:
                reach[r] += v
        kept = [r for r, (most, limit) in enumerate(zip(reach, rhs)) if most > limit]
        new_row = [-1] * len(rhs)
        for j, r in enumerate(kept):
            new_row[r] = j
        handed = [not dead and new_row[r] >= 0 for r, dead in zip(index, on)]
        counts = [0] * (len(self.start) - 1)
        for j, keep in zip(column, handed):
            counts[j] += keep
        # compressed-column arrays and right sides, as `linprog` takes them
        self.handed = (list(itertools.accumulate(counts, initial=0)),
                       [new_row[r] for r, keep in zip(index, handed) if keep],
                       [v for v, keep in zip(value, handed) if keep], [rhs[r] for r in kept])
        weight, factor = table.weight, table.factor
        self.cost = [-0.0] * n_r + [-weight[k] for k in inner]
        self.cost += [-(factor[cap_first[ext]] * cap_mask[ext].bit_count())
                      for ext in self.cap_ext]
        self.cost += [-float(bits.bit_count()) for bits in y_mask]
        self.table = table

    def table_rows(self, point) -> tuple[int, ...]:
        """The table rows of a 0-1 point: its rows between real candidates,
        and a telomere triple's row for each cap and two triples' row for
        each y binary.  A cap takes the telomeres its mask forces, and y_S
        an unused emptied chromosome in each genome of S; each genome then
        hands out its other telomeres in name order, to the y first.
        """
        on = [v > 0.5 for v in point]
        n_r, n_rows, n_caps = self.split
        caps = [j for j in range(n_caps - n_rows) if on[n_rows + j]]
        ys = [bits for bits, chosen in zip(self.y_mask, on[n_caps:]) if chosen]
        # the telomeres of the two triples of each y, then of each cap's triple
        slots = [[-1, -1, -1] for _ in range(2 * len(ys))]
        slots += [self.forced[j].copy() for j in caps]
        for x, partner in enumerate(self.partner):
            held = [2 * j for j, bits in enumerate(ys) if bits >> x & 1]
            left = [t for t, other in enumerate(partner) if other > t]
            for j, t in zip(held, left):
                slots[j][x], slots[j + 1][x] = t, partner[t]
            taken = {slot[x] for slot in slots}
            free = (t for t in range(self.telomeres[x]) if t not in taken)
            for slot in slots:
                if slot[x] < 0:
                    slot[x] = next(free, -1)
        ends = [self.end.get(tuple(slot), -1) for slot in slots]
        n_y = 2 * len(ys)
        a = ends[:n_y:2] + [self.cap_ext[j] for j in caps]
        b = ends[1:n_y:2] + ends[n_y:]
        table = self.table
        row_of = {(3 * m1 + e1) << SHIFT | (3 * m2 + e2): k for k, (m1, e1, m2, e2) in
                  enumerate(zip(table.m1, table.e1, table.m2, table.e2))} if a else {}
        found = [row_of.get(min(u, v) << SHIFT | max(u, v), -1) if min(u, v) >= 0 else -1
                 for u, v in zip(a, b)]
        if -1 in found:
            raise SolverError("a cap or emptied chromosome has no row in the table")
        return tuple(sorted([k for j, k in enumerate(self.inner) if on[n_r + j]] + found))


def _greedy_incumbent(model: IlpModel) -> tuple[float, tuple[int, ...]]:
    """Take adjacencies by decreasing weight while the selection stays valid."""
    table = model.table
    weight = table.weight
    genes = [list(enumerate(col)) for col in zip(*table.candidates.ids)]
    owner: dict[tuple[int, int], int] = {}
    used_ext: set[tuple[int, int]] = set()
    chosen: list[int] = []
    for k in sorted(range(len(table)), key=lambda k: (-weight[k], k)):
        m1, e1, m2, e2 = table.key(k)
        if (m1, e1) in used_ext or (m2, e2) in used_ext or any(
            owner.get(gene, m) != m for m in (m1, m2) for gene in genes[m]
        ):
            continue
        owner.update((gene, m) for m in (m1, m2) for gene in genes[m])
        used_ext |= {(m1, e1), (m2, e2)}
        chosen.append(k)
    return math.fsum(weight[k] for k in chosen), tuple(sorted(chosen))


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
    value = math.fsum(table.weight[k] for k in rows)
    if res.status == highs.HighsModelStatus.kOptimal:
        solution = _finish(model, STATUS_OPTIMAL, value, value, rows, res)
    elif res.status != highs.HighsModelStatus.kTimeLimit:
        raise SolverError(f"HiGHS failed: {res.message}")
    else:
        greedy_value, greedy_rows = _greedy_incumbent(model)
        if greedy_value > value:
            value, rows = greedy_value, greedy_rows
        bound = dual_bound if math.isfinite(dual_bound) else -math.fsum(program.cost)
        # HiGHS's dual bound holds only up to its tolerances
        solution = _finish(model, STATUS_FEASIBLE, value, max(bound, value), rows, res)
    solution.caps = len(program.cost) - program.split[1]
    solution.highs_rows, solution.fixed = len(program.handed[3]), program.fixed
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
        if math.isfinite(res.dual_bound):
            solution.dual_bound = -res.dual_bound
        if math.isfinite(res.gap):
            solution.gap = res.gap
    return solution
