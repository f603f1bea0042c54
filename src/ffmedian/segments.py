"""Matching machinery and safe local-optimum extraction.

Builds the matching graph over candidate extremities, detects runs
(internally conflict-free segments whose extant gene order is conserved up
to a full reversal), and accepts a run's internal adjacencies when a
maximum-weight matching on its conflict-extended graph certifies that they
belong to at least one optimal median.  The instance is the paper's
`ConservedAdjacencyTable`, with its telomere triples
(`objects.paper_table`), read as arrays: the candidates' gene ids, the
table's columns and G's walks.  Every key is an int: a G gene id,
a candidate id, or the extremity code 3 m + e of end e of candidate m.

Runs are found by a left-to-right scan of each chromosome of G, a chain
of steps: the step after position `prev` skips to the next position with
exactly one starter candidate, grows a run there, and reads only positions
prev+1 .. end+1, where `end` is the run's right end.  A circular
chromosome is read with unwrapped positions: its first step grows a run
around the circle from the first starter, and the chain of ordinary steps
after it ends just before that run's left end.  Accepting a run changes
the scan state only at the G positions of its members and of the
candidates it kills, so ICF-SEG builds its lookups once and, after each
acceptance, grows again only the first step of a circular chromosome and
the steps whose window holds a changed position, and resumes its walk
over the steps at the first one grown again.  A run grows from its end
member through the extremity that `objects.facing_end` says the member's
G entry turns to the next position: the rule that also gives every
genome's adjacencies.

A run's conflict-extended graph Γ′ has maximum degree 2, so `mwm` solves
it over its paths and cycles, as listed by `solver.paths_and_cycles`, the
same walk that assembles the median's CARs; there is no general matching,
and a graph of higher degree is an error:
- Members of a run are pairwise conflict-free, so no two share a gene in
  any genome.
- An extant extremity has exactly one neighbour in each genome, and a
  run's links are conserved in all three, so each member extremity has at
  most one row to another member: its link, or at a run end the wrap to
  the other end when the members fill a circular chromosome.
- Each member adds at most one conflict edge, between its own two
  extremities; telomere triples never join a run.

A member's conflict edge weighs an exact maximum-weight conflict-free set
of its live external conflicts, a search exponential in their number, so a
run with a member of more than `CONFLICT_CAP` (20) such conflicts is
skipped.  The cap is a guard, not an option: it is a module constant, and
the INFO line of `icf_seg` counts the runs it skipped.

ICF-SEG runs only in the `icf-seg` subcommand.  `solve` reaches the same
optimum without it, and `cli` imports this module only when `icf-seg`
runs.
"""
from __future__ import annotations

import bisect
import logging
from dataclasses import dataclass
from typing import NamedTuple

from .candidates import ConservedAdjacencyTable, candidates_on_genes
from .genomes import Genome
from .kernels import IntArray
from .objects import candidate_names, extremity_rows, facing_end, telomere_triples
from .solver import paths_and_cycles

log = logging.getLogger(__name__)


CONFLICT_CAP = 20  # most live external conflicts of a run member (see above)


class SegmentConflictCapError(RuntimeError):
    """Too many external conflicts; the segment should be skipped."""


class Flags(bytearray):
    """One 0/1 flag per candidate or table row, answering numpy's `size`,
    `~` and `sum` of a boolean array."""

    size = property(len)

    def __invert__(self) -> "Flags":
        return Flags(self.translate(_NOT))

    def sum(self) -> int:
        return self.count(1)


_NOT = bytes.maketrans(b"\x00\x01", b"\x01\x00")


@dataclass(frozen=True, slots=True)
class MatchGraph:
    """Weighted graph over candidate extremities.

    A vertex is the extremity code 3 m + e of end e (a `genomes.ENDS`
    code) of candidate m, as `kernels` and `solver.verify_solution` number
    extremities.
    """

    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int, float], ...]

    def edge_weight(self) -> dict[tuple, float]:
        return {_edge_key(u, v): w for u, v, w in self.edges}


def _edge_key(u, v) -> tuple:
    return (u, v) if u <= v else (v, u)


def _ends(telomeric: bool) -> tuple[int, ...]:
    """The end codes of a candidate: a telomere triple has one."""
    return (2,) if telomeric else (0, 1)


def mwm(graph: MatchGraph) -> frozenset[tuple]:
    """Exact maximum-weight matching of a graph of degree <= 2; returns
    canonical edge keys.

    Such a graph is a disjoint union of paths and cycles.
    `solver.paths_and_cycles`, the walk that also assembles the median's
    CARs, lists them, and each is solved by the linear dynamic program of
    `_path_matching`.  A cycle takes the better of its path without the
    first edge and its path without the last: a matching leaves out at
    least one of two edges that share a vertex.  Every conflict-extended
    graph of a run has degree <= 2 (see the module docstring), so a vertex
    of higher degree or a self-loop breaks that invariant and the walk
    raises `SolverError`.  Parallel edges keep the last weight listed.
    """
    weight = graph.edge_weight()
    neighbours: dict = {}
    for u, v in weight:
        neighbours.setdefault(u, []).append(v)
        neighbours.setdefault(v, []).append(u)
    matching: list[tuple] = []
    for vertices, closed in paths_and_cycles(neighbours):
        if not closed:
            matching.extend(_path_matching(list(zip(vertices, vertices[1:])), weight)[1])
            continue
        edges = list(zip(vertices, vertices[1:] + vertices[:1]))
        no_first = _path_matching(edges[1:], weight)
        no_last = _path_matching(edges[:-1], weight)
        matching.extend(max(no_first, no_last, key=lambda option: option[0])[1])
    return frozenset(matching)


def _path_matching(edges: list[tuple], weight: dict[tuple, float]) -> tuple[float, list[tuple]]:
    """Maximum-weight set of pairwise disjoint edges of a path, as its total
    and canonical edge keys; `edges` are vertex pairs in path order.

    best[i] = max(best[i-1], best[i-2] + w_i) over the first i edges.
    """
    best = [0.0, 0.0]
    take = []
    for u, v in edges:
        with_edge = best[-2] + weight[_edge_key(u, v)]
        take.append(with_edge > best[-1])
        best.append(with_edge if take[-1] else best[-1])
    chosen = []
    i = len(edges) - 1
    while i >= 0:
        if take[i]:
            chosen.append(_edge_key(*edges[i]))
            i -= 2
        else:
            i -= 1
    return best[-1], chosen


# -- the id indexes ICF-SEG reads ---------------------------------------------


class Incidence:
    """The candidates on each gene (`candidates_on_genes`) and the rows at
    each extremity (`extremity_rows`), built once per ICF-SEG run.  The
    queries see the candidates and rows that `cand_alive` and `row_alive`
    flag live right now (by default all; ICF-SEG clears them as it goes).
    """

    def __init__(self, table: ConservedAdjacencyTable, cand_alive=None, row_alive=None):
        candidates = table.candidates
        self.table = table
        self.ids = candidates.ids
        self.ends = [_ends(telomeric) for telomeric in telomere_triples(candidates)]
        self.on_gene = candidates_on_genes(candidates)
        self.at = extremity_rows(table)
        self.cand_alive = Flags(b"\x01" * len(candidates)) if cand_alive is None else cand_alive
        self.row_alive = Flags(b"\x01" * len(table)) if row_alive is None else row_alive

    def conflicts_of(self, m: int) -> list[int]:
        """The candidates other than m that share a gene with it, sorted."""
        seen = {c for on_gene, column in zip(self.on_gene, self.ids) for c in on_gene[column[m]]}
        seen.discard(m)
        return sorted(seen)

    def rows_at(self, code: int) -> list[int]:
        """Live rows at one extremity."""
        alive = self.row_alive
        return [k for k in self.at[code] if alive[k]]

    def rows_of(self, m: int) -> list[int]:
        """Live rows at either extremity of candidate m, in no particular
        order (a row never joins a candidate to itself)."""
        return [k for e in self.ends[m] for k in self.rows_at(3 * m + e)]

    def best_weight(self, code: int) -> float:
        weight = self.table.weight
        return max((weight[k] for k in self.rows_at(code)), default=0.0)


def potential(m: int, incidence: Incidence) -> float:
    """Best combined weight of live adjacencies incident to opposite extremities.

    With incident adjacencies on one extremity only, the best single weight;
    with none, 0.  Telomere triples have a single extremity.
    """
    return float(sum(incidence.best_weight(3 * m + e) for e in incidence.ends[m]))


# -- runs --------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Segment:
    """An ordered set of candidate genes, scanned along genome G."""

    members: tuple[int, ...]
    internal_rows: tuple[int, ...]
    circular: bool = False

    @property
    def key(self) -> frozenset[int]:
        return frozenset(self.members)


class _Step(NamedTuple):
    """One step of the scan of a chromosome.

    Positions are unwrapped: position p reads entry p % size, so a run of a
    circular chromosome that crosses the origin has consecutive positions.
    A step starts just after position `prev`, skips the positions without
    exactly one starter, grows a run from the first position that has one
    and ends at the run's right end `end`, or at the chain's last position
    when no starter is left.  Growth stays between prev+1 and the chain's
    last position, so the step reads only positions prev+1 .. end+1.  `run`
    is None when the step found no starter or grew a single candidate.

    The first step of a circular chromosome grows from its first starter
    around the circle and may close it; its `prev` is just before the run's
    left end, and the chain's last position is prev + size, just before
    that left end again.
    """

    prev: int
    end: int
    run: Segment | None
    key: frozenset[int] | None


class _RunScanner:
    """The lookups of run detection along G, built once per instance.

    G is numbered as the candidates' G genes (preprocessing keeps the
    numbering).  `by_g_gene` lists, per G gene id, the live candidates not
    yet locked in a run (telomere triples never join runs: capping is not
    part of a run's internal adjacency set, and their crossed variants
    would only inflate the conflict-edge potentials), and `where` gives its
    chromosome and position.  `link` maps a candidate extremity code to the
    other candidate and the row of the one row conserved in all three
    genomes that touches it: an extant extremity has one neighbour per
    genome, so there is at most one.  `row_alive` is held by reference and
    checked when a link is followed.
    """

    def __init__(self, G: Genome, table, cand_alive=None, row_alive=None, locked=()):
        self.walks = [(shape, *walk) for _, shape, walk in G.walks]
        self.telomeric = G.telomeric
        self.ids = table.candidates.ids
        self.row_alive = row_alive
        self.link: dict[int, tuple[int, int]] = {}
        for k, (m1, e1, m2, e2, bits) in enumerate(
                zip(table.m1, table.e1, table.m2, table.e2, table.mask)):
            if bits == 0b111:
                self.link[3 * m1 + e1] = (m2, k)
                self.link[3 * m2 + e2] = (m1, k)
        self.by_g_gene: list[list[int]] = [[] for _ in G.names]
        for m, gene in enumerate(self.ids[0]):
            if (cand_alive is None or cand_alive[m]) and m not in locked and not self.telomeric[gene]:
                self.by_g_gene[gene].append(m)
        self.where = {gene: (ci, pos) for ci, (_, ids, _) in enumerate(self.walks)
                      for pos, gene in enumerate(ids)}

    def scan(self, ci: int) -> list[_Step]:
        """All steps of chromosome ci, scanned left to right."""
        return self.rescan(ci, [], [])[0]

    def rescan(self, ci: int, old: list[_Step], changed: list[int]) -> tuple[list[_Step], int]:
        """The steps of chromosome ci after the state at `changed` positions
        moved, and the index of the first that differs from the old chain.

        Each old step that starts where the new chain needs a step and whose
        window prev+1 .. end+1 holds no changed position is kept, with the
        clean old steps after it; the others are grown again.  On a circular
        chromosome the first step is always grown again, and the old and new
        left ends of its run count as changed, since the chain ends just
        before that left end; a changed position stands for both of its
        unwrapped positions.
        """
        shape, ids, signs = self.walks[ci]
        size = len(ids)
        first = None
        if shape == "circular":
            head = self._step(ids, signs, -1, size - 1, around=True)
            steps, last = [head], head.prev + size
            if old:
                changed = [*changed, head.prev + 1, old[0].prev + 1]
                if head != old[0]:
                    first = 0
                old = old[1:]
            changed = [p % size + k for p in changed for k in (0, size)]
        else:
            steps, last = [], size - 1
        dirty = set()  # neighbouring windows share one position
        for p in changed:
            k = bisect.bisect_left(old, p - 1, key=lambda step: step.end)
            while k < len(old) and old[k].prev < p:
                dirty.add(k)
                k += 1
        dirty = sorted(dirty) + [len(old)]  # len(old) ends every run of clean steps
        prev = steps[-1].end if steps else -1
        while prev < last:
            j = bisect.bisect_left(old, prev, key=lambda step: step.prev)
            clean_until = dirty[bisect.bisect_left(dirty, j)]
            if j < clean_until and old[j].prev == prev:
                steps.extend(old[j:clean_until])
            else:
                if first is None:
                    first = len(steps)
                steps.append(self._step(ids, signs, prev, last))
            prev = steps[-1].end
        return steps, len(steps) if first is None else first

    def remove(self, indices) -> dict[int, list[int]]:
        """Take locked or killed candidates out of the starter lists.

        Returns their G positions per chromosome: the positions whose scan
        state changed.
        """
        changed: dict[int, list[int]] = {}
        for m in indices:
            gene = self.ids[0][m]
            options = self.by_g_gene[gene]
            if m in options:
                options.remove(m)
            ci, pos = self.where[gene]
            changed.setdefault(ci, []).append(pos)
        return changed

    def _step(self, ids, signs, prev: int, last: int, around: bool = False) -> _Step:
        """The step after position `prev` of a chain that ends at `last`;
        `around` grows the first run of a circular chromosome."""
        by_g_gene = self.by_g_gene
        size = len(ids)
        start = prev + 1
        while start <= last and len(by_g_gene[ids[start % size]]) != 1:
            start += 1
        if start > last:
            return _Step(prev, last, None, None)
        lo, hi = (start - size, start + size) if around else (prev + 1, last)
        left, right, members, rows, closed = self._grow(ids, signs, start, lo, hi)
        run = Segment(tuple(members), tuple(rows), closed) if len(members) > 1 else None
        return _Step(left - 1 if around else prev, right, run, run.key if run else None)

    def _grow(self, ids, signs, start, lo, hi):
        """Grow a run from position `start` right up to `hi`, then left down to `lo`.

        Each growth step follows the link of the end member's facing
        extremity.  The linked candidate joins when the link's row is
        alive, the candidate is still listed for the G gene at the next
        position, and it shares no gene with the members.  Following the
        links right back to the start member, at start + size, closes a
        circular chromosome; growing left never reaches the run's right
        end again.  Returns the run's left and right end, its members and
        internal rows in G order, and whether it closed the circle.
        """
        columns, by_g_gene, link, row_alive, telomeric = (
            self.ids, self.by_g_gene, self.link, self.row_alive, self.telomeric
        )
        size = len(ids)
        first = by_g_gene[ids[start % size]][0]
        # the members' G, H and I genes: a candidate sharing one conflicts
        member_genes = [{column[first]} for column in columns]

        def extend(pos: int, member: int, forward: bool) -> tuple[int, int] | None:
            """The candidate that continues the run past `pos`, and its row."""
            pos %= size
            end = facing_end(telomeric[ids[pos]], signs[pos], forward)
            linked = link.get(3 * member + end)
            if linked is None:
                return None
            cand, row = linked
            nxt = (pos + 1 if forward else pos - 1) % size
            if row_alive is not None and not row_alive[row] \
                    or cand not in by_g_gene[ids[nxt]]:
                return None
            genes = [column[cand] for column in columns]
            # the start member, met again when the circle closes, is no conflict
            if cand != first and any(g in seen for g, seen in zip(genes, member_genes)):
                return None
            for g, seen in zip(genes, member_genes):
                seen.add(g)
            return linked

        members, rows = [first], []
        right = start
        while right < hi and (linked := extend(right, members[-1], True)):
            rows.append(linked[1])
            if right + 1 == start + size:
                return start, right, members, rows, True
            right += 1
            members.append(linked[0])
        left_members, left_rows = [first], []
        left, lo = start, max(lo, right - size + 1)
        while left > lo and (linked := extend(left, left_members[-1], False)):
            left -= 1
            left_members.append(linked[0])
            left_rows.append(linked[1])
        return left, right, left_members[:0:-1] + members, left_rows[::-1] + rows, False


def detect_runs(
    G: Genome,
    table: ConservedAdjacencyTable,
    cand_alive=None,
    row_alive=None,
    locked: set[int] | None = None,
) -> list[Segment]:
    """Maximal runs, scanned left to right along G.

    A run is a chain of pairwise non-conflicting candidates whose
    consecutive extremity pairs are conserved in all three genomes, which
    forces the projections to be contiguous and co-ordered (up to a full
    reversal) everywhere.  Chain growth requires the next candidate to be
    the unique compatible choice; ambiguity ends the run.
    """
    scanner = _RunScanner(G, table, cand_alive, row_alive, locked or ())
    return [
        step.run
        for ci in range(len(G.walks))
        for step in scanner.scan(ci)
        if step.run is not None
    ]


# -- conflict-extended graph and ICF-SEG --------------------------------------


def _max_conflict_free_potential(
    conflicts: list[int],
    deltas: dict[int, float],
    conflict: Incidence,
) -> float:
    """Exact maximum total potential of a conflict-free subset (MWIS)."""
    items = [c for c in conflicts if deltas[c] > 0.0]
    if not items:
        return 0.0
    adj = {c: set(conflict.conflicts_of(c)) for c in items}

    def solve(active: frozenset[int]) -> float:
        if not active:
            return 0.0
        # pick the heaviest vertex; branch on keeping or dropping it
        v = max(active, key=lambda c: (deltas[c], -c))
        without = solve(active - {v})
        with_v = deltas[v] + solve(active - {v} - adj[v])
        return max(without, with_v)

    return solve(frozenset(items))


def build_gamma_prime(segment: Segment, incidence: Incidence) -> MatchGraph:
    """Γ restricted to the segment plus one conflict edge per member.

    The conflict edge between a member's extremities carries the best total
    potential of a conflict-free subset of its live external conflicts; zero
    weight conflict edges are omitted.  Only the candidates and rows live
    in `incidence` count.  A member with more than `CONFLICT_CAP` live
    external conflicts raises `SegmentConflictCapError`.
    """
    table = incidence.table
    m1, e1, m2, e2, weight = table.m1, table.e1, table.m2, table.e2, table.weight
    cand_alive = incidence.cand_alive
    members = set(segment.members)
    nodes = tuple(3 * m + e for m in segment.members for e in incidence.ends[m])
    edges = []
    # in row order, as a scan over the whole table would list them
    for k in sorted({k for m in segment.members for k in incidence.rows_of(m)}):
        if m1[k] in members and m2[k] in members:
            edges.append((3 * m1[k] + e1[k], 3 * m2[k] + e2[k], weight[k]))
    deltas: dict[int, float] = {}
    for m in segment.members:
        external = [c for c in incidence.conflicts_of(m) if c not in members and cand_alive[c]]
        if len(external) > CONFLICT_CAP:
            raise SegmentConflictCapError(
                f"segment member ({','.join(candidate_names(table.candidates, m))}) has "
                f"{len(external)} external conflicts (cap {CONFLICT_CAP}); skip this segment"
            )
        for c in external:
            if c not in deltas:
                deltas[c] = potential(c, incidence)
        w_prime = _max_conflict_free_potential(external, deltas, incidence)
        if w_prime > 0.0:
            edges.append((3 * m, 3 * m + 1, w_prime))
    return MatchGraph(nodes, tuple(edges))


@dataclass(slots=True)
class IcfSegResult:
    table: ConservedAdjacencyTable
    accepted: list[Segment]
    cand_alive: Flags
    row_alive: Flags
    examined: int  # runs whose certificate was tried or skipped
    skipped: int  # runs skipped at CONFLICT_CAP

    def weight(self, run: Segment) -> float:
        """Total weight of a run's internal rows."""
        return float(sum(self.table.weight[r] for r in run.internal_rows))

    @property
    def accepted_weight(self) -> float:
        return float(sum(self.weight(run) for run in self.accepted))

    @property
    def live_rows(self) -> list[int]:
        """The rows left to the solve, in table order."""
        return [k for k, alive in enumerate(self.row_alive) if alive]

    def reduced_table(self) -> ConservedAdjacencyTable:
        return subset(self.table, self.live_rows)


def subset(table: ConservedAdjacencyTable, keep) -> ConservedAdjacencyTable:
    """New table restricted to the given row indices (candidate indexing and
    telomere facts kept)."""
    keep = [int(k) for k in keep]
    return ConservedAdjacencyTable(table.candidates, *(
        IntArray(map(column.__getitem__, keep))
        for column in (table.m1, table.e1, table.m2, table.e2, table.mask)),
        table.genomes, table.telomeres, table.emptied, table.facing)


def icf_seg(G: Genome, table: ConservedAdjacencyTable) -> IcfSegResult:
    """Iteratively accept runs whose matching certificate holds.

    The runs are examined in the order `detect_runs` lists them, each run
    (by member set) once.  For a run the conflict-extended graph is built
    and an exact maximum-weight matching computed; if the matching equals
    the run's internal adjacency set, those adjacencies are recorded, masked
    from the instance, and all externally conflicting candidates are
    removed.  After an acceptance the examination goes on over the runs of
    the changed instance, in the same order.  The reduced instance is
    returned for the exact solver.  The result counts the runs examined
    and those skipped at `CONFLICT_CAP`; one INFO line (shown by `ffmedian
    -v`) gives them with the runs accepted.

    The runs are kept up to date incrementally, with the same result as a
    fresh `detect_runs` after every acceptance, walked from its first run.
    An acceptance changes the scan state only at the G positions of the
    run's members (now locked) and of the killed candidates: every masked
    row touches one of them.  `_RunScanner.rescan` grows again only the
    steps that read such a position.  Every step before the first one that
    changed was walked already, so it holds no run or an observed one: the
    walk resumes there, never past the accepted run's own step.
    """
    incidence = Incidence(table)
    cand_alive, row_alive = incidence.cand_alive, incidence.row_alive
    scanner = _RunScanner(G, table, cand_alive, row_alive)
    chains = [scanner.scan(ci) for ci in range(len(G.walks))]
    accepted: list[Segment] = []
    observed: set[frozenset[int]] = set()
    skipped = 0

    ci = j = 0  # the next step is chains[ci][j]
    while ci < len(chains):
        if j == len(chains[ci]):
            ci, j = ci + 1, 0
            continue
        step = chains[ci][j]
        j += 1
        run = step.run
        if run is None or step.key in observed:
            continue
        observed.add(step.key)
        try:
            gamma_prime = build_gamma_prime(run, incidence)
        except SegmentConflictCapError as exc:
            log.info("skipping segment: %s", exc)
            skipped += 1
            continue
        matching = mwm(gamma_prime)
        internal = frozenset(
            _edge_key(3 * table.m1[r] + table.e1[r], 3 * table.m2[r] + table.e2[r])
            for r in run.internal_rows
        )
        if matching != internal:
            continue
        # accept: mask adjacencies, drop external conflicts
        accepted.append(run)
        masked = {k for edge in internal for code in edge for k in incidence.rows_at(code)}
        doomed = {c for m in run.members for c in incidence.conflicts_of(m)
                  if cand_alive[c] and c not in step.key}
        for c in doomed:
            cand_alive[c] = 0
            masked.update(incidence.rows_of(c))
        for k in masked:
            row_alive[k] = 0
        # every masked row touches a member or a killed candidate; resume at
        # this step or at the first step grown again, whichever comes first
        j -= 1
        for c, positions in scanner.remove(step.key | doomed).items():
            chains[c], grown = scanner.rescan(c, chains[c], positions)
            ci, j = min((ci, j), (c, grown))

    log.info(
        "icf-seg: %d runs examined, %d accepted, %d skipped at the conflict cap",
        len(observed), len(accepted), skipped,
    )
    return IcfSegResult(table, accepted, cand_alive, row_alive, len(observed), skipped)
