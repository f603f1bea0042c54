"""Matching machinery and safe local-optimum extraction.

Builds the matching graph over candidate extremities, detects runs
(internally conflict-free segments whose extant gene order is conserved up
to a full reversal), and accepts a run's internal adjacencies when a
maximum-weight matching on its conflict-extended graph certifies that they
belong to at least one optimal median.  The instance is one
`ConservedAdjacencyTable`: `build_gamma`, `detect_runs` and `icf_seg` read
the candidates from its `candidates`.

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
the steps whose window holds a changed position.  A run grows from its end
member through the extremity that `genomes.facing_end` says the member's
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

ICF-SEG runs only on request: the `icf-seg` subcommand, or `solve
--icf-seg`.  A plain `solve` reaches the same optimum without it, and
`cli` imports this module only when one of those runs it.
"""
from __future__ import annotations

import bisect
import logging
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .candidates import ConservedAdjacencyTable
from .genomes import Gene, Genome, facing_end
from .indexes import ConflictIndex, ExtremityIncidence
from .solver import paths_and_cycles

log = logging.getLogger(__name__)


CONFLICT_CAP = 20  # most live external conflicts of a run member (see above)


class SegmentConflictCapError(RuntimeError):
    """Too many external conflicts; the segment should be skipped."""


@dataclass(frozen=True, slots=True)
class MatchGraph:
    """Weighted graph over candidate extremities.

    Vertex keys are (candidate index, end code), end codes as in
    `genomes.ENDS`: the codes `genomes.facing_end` gives the extremity an
    oriented gene turns to its neighbour.
    """

    nodes: tuple[tuple[int, int], ...]
    edges: tuple[tuple[tuple[int, int], tuple[int, int], float], ...]

    def edge_weight(self) -> dict[tuple, float]:
        return {_edge_key(u, v): w for u, v, w in self.edges}


def _edge_key(u, v) -> tuple:
    return (u, v) if u <= v else (v, u)


def build_gamma(table: ConservedAdjacencyTable) -> MatchGraph:
    """Graph with one vertex per candidate extremity and one weighted edge
    per conserved candidate adjacency."""
    nodes = []
    for idx, cand in enumerate(table.candidates):
        for e in cand.ends:
            nodes.append((idx, e))
    edges = []
    for k in range(len(table)):
        m1, e1, m2, e2 = table.key(k)
        edges.append(((m1, e1), (m2, e2), float(table.weight[k])))
    return MatchGraph(tuple(nodes), tuple(edges))


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
    neighbours: dict[tuple, list[tuple]] = {}
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


def matching_weight(graph: MatchGraph, matching) -> float:
    weights = graph.edge_weight()
    return float(sum(weights[key] for key in matching))


def potential(m: int, incidence: ExtremityIncidence) -> float:
    """Best combined weight of live adjacencies incident to opposite extremities.

    With incident adjacencies on one extremity only, the best single weight;
    with none, 0.  Telomere triples have a single extremity.
    """
    return float(sum(incidence.best_weight((m, e)) for e in incidence.candidates[m].ends))


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

    `by_g_gene` lists, per G gene, the live candidates not yet locked in a
    run (telomere triples never join runs: capping is not part of a run's
    internal adjacency set, and their crossed variants would only inflate
    the conflict-edge potentials).  `link` maps a candidate extremity to the
    other candidate and the row of the one row conserved in all three
    genomes that touches it: an extant extremity has one neighbour per
    genome, so there is at most one.  `row_alive` is held by reference and
    checked when a link is followed.
    """

    def __init__(self, G, table, cand_alive=None, row_alive=None, locked=()):
        self.G = G
        self.candidates = table.candidates
        self.row_alive = row_alive
        self.link: dict[tuple[int, int], tuple[int, int]] = {}
        for k in np.flatnonzero(np.asarray(table.mask) == 0b111).tolist():
            m1, e1, m2, e2 = table.key(k)
            self.link[m1, e1] = (m2, k)
            self.link[m2, e2] = (m1, k)
        self.by_g_gene: dict[Gene, list[int]] = {}
        for idx, cand in enumerate(self.candidates):
            if (cand_alive is None or cand_alive[idx]) and idx not in locked \
                    and not cand.is_telomere_triple:
                self.by_g_gene.setdefault(cand.g, []).append(idx)

    def scan(self, ci: int) -> list[_Step]:
        """All steps of chromosome ci, scanned left to right."""
        return self.rescan(ci, [], [])

    def rescan(self, ci: int, old: list[_Step], changed: list[int]) -> list[_Step]:
        """The steps of chromosome ci after the state at `changed` positions moved.

        Each old step that starts where the new chain needs a step and whose
        window prev+1 .. end+1 holds no changed position is kept, with the
        clean old steps after it; the others are grown again.  On a circular
        chromosome the first step is always grown again, and the old and new
        left ends of its run count as changed, since the chain ends just
        before that left end; a changed position stands for both of its
        unwrapped positions.
        """
        chrom = self.G.chromosomes[ci]
        entries = chrom.order
        size = len(entries)
        if chrom.shape == "circular":
            first = self._step(entries, -1, size - 1, around=True)
            steps, last = [first], first.prev + size
            if old:
                changed = [*changed, first.prev + 1, old[0].prev + 1]
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
                steps.append(self._step(entries, prev, last))
            prev = steps[-1].end
        return steps

    def remove(self, indices) -> dict[int, list[int]]:
        """Take locked or killed candidates out of the starter lists.

        Returns their G positions per chromosome: the positions whose scan
        state changed.
        """
        changed: dict[int, list[int]] = {}
        for idx in indices:
            gene = self.candidates[idx].g
            options = self.by_g_gene.get(gene)
            if options and idx in options:
                options.remove(idx)
            ci, pos, _ = self.G.locate(gene)
            changed.setdefault(ci, []).append(pos)
        return changed

    def _step(self, entries, prev: int, last: int, around: bool = False) -> _Step:
        """The step after position `prev` of a chain that ends at `last`;
        `around` grows the first run of a circular chromosome."""
        size = len(entries)
        start = prev + 1
        while start <= last and len(self.by_g_gene.get(entries[start % size][0], ())) != 1:
            start += 1
        if start > last:
            return _Step(prev, last, None, None)
        lo, hi = (start - size, start + size) if around else (prev + 1, last)
        left, right, members, rows, closed = self._grow(entries, start, lo, hi)
        run = Segment(tuple(members), tuple(rows), closed) if len(members) > 1 else None
        return _Step(left - 1 if around else prev, right, run, run.key if run else None)

    def _grow(self, entries, start, lo, hi):
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
        candidates, by_g_gene, link, row_alive = (
            self.candidates, self.by_g_gene, self.link, self.row_alive
        )
        size = len(entries)
        first = by_g_gene[entries[start % size][0]][0]
        # the members' G, H and I genes: a candidate sharing one conflicts
        member_genes = [{g} for g in candidates[first].genes]

        def extend(pos: int, member: int, forward: bool) -> tuple[int, int] | None:
            """The candidate that continues the run past `pos`, and its row."""
            linked = link.get((member, facing_end(*entries[pos % size], forward)))
            if linked is None:
                return None
            cand, row = linked
            nxt = pos + 1 if forward else pos - 1
            if row_alive is not None and not row_alive[row] \
                    or cand not in by_g_gene.get(entries[nxt % size][0], ()):
                return None
            genes = candidates[cand].genes
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
        for ci in range(len(G.chromosomes))
        for step in scanner.scan(ci)
        if step.run is not None
    ]


# -- conflict-extended graph and ICF-SEG --------------------------------------


def _max_conflict_free_potential(
    conflicts: list[int],
    deltas: dict[int, float],
    conflict: ConflictIndex,
) -> float:
    """Exact maximum total potential of a conflict-free subset (MWIS)."""
    items = [c for c in conflicts if deltas[c] > 0.0]
    if not items:
        return 0.0
    adj = {
        c: {d for d in items if d != c and conflict.conflicting(c, d)} for c in items
    }

    def solve(active: frozenset[int]) -> float:
        if not active:
            return 0.0
        # pick the heaviest vertex; branch on keeping or dropping it
        v = max(active, key=lambda c: (deltas[c], -c))
        without = solve(active - {v})
        with_v = deltas[v] + solve(active - {v} - adj[v])
        return max(without, with_v)

    return solve(frozenset(items))


def build_gamma_prime(
    segment: Segment,
    table: ConservedAdjacencyTable,
    conflict: ConflictIndex,
    cand_alive: np.ndarray,
    incidence: ExtremityIncidence,
) -> MatchGraph:
    """Γ restricted to the segment plus one conflict edge per member.

    The conflict edge between a member's extremities carries the best total
    potential of a conflict-free subset of its live external conflicts; zero
    weight conflict edges are omitted.  Only the rows live in `incidence`
    count.  A member with more than `CONFLICT_CAP` live external conflicts
    raises `SegmentConflictCapError`.
    """
    candidates = table.candidates
    members = set(segment.members)
    nodes = []
    for m in segment.members:
        for e in candidates[m].ends:
            nodes.append((m, e))
    edges = []
    # in row order, as a scan over the whole table would list them
    for k in sorted({k for m in segment.members for k in incidence.rows_of(m)}):
        m1, e1, m2, e2 = table.key(k)
        if m1 in members and m2 in members:
            edges.append(((m1, e1), (m2, e2), incidence.weight[k]))
    deltas: dict[int, float] = {}
    for m in segment.members:
        external = [c for c in conflict.conflicts_of(m) if c not in members and cand_alive[c]]
        if len(external) > CONFLICT_CAP:
            raise SegmentConflictCapError(
                f"segment member {candidates[m]} has {len(external)} external "
                f"conflicts (cap {CONFLICT_CAP}); skip this segment"
            )
        for c in external:
            if c not in deltas:
                deltas[c] = potential(c, incidence)
        w_prime = _max_conflict_free_potential(external, deltas, conflict)
        if w_prime > 0.0:
            edges.append(((m, 0), (m, 1), w_prime))
    return MatchGraph(tuple(nodes), tuple(edges))


@dataclass(slots=True)
class IcfSegResult:
    table: ConservedAdjacencyTable
    accepted: list[Segment]
    cand_alive: np.ndarray
    row_alive: np.ndarray
    examined: int  # runs whose certificate was tried or skipped
    skipped: int  # runs skipped at CONFLICT_CAP

    def weight(self, run: Segment) -> float:
        """Total weight of a run's internal rows."""
        return float(sum(self.table.weight[r] for r in run.internal_rows))

    @property
    def accepted_weight(self) -> float:
        return float(sum(self.weight(run) for run in self.accepted))

    @property
    def accepted_rows(self) -> list[int]:
        return [r for run in self.accepted for r in run.internal_rows]

    def reduced_table(self) -> ConservedAdjacencyTable:
        return self.table.subset(np.nonzero(self.row_alive)[0])


def icf_seg(
    G: Genome, table: ConservedAdjacencyTable, deadline: float | None = None
) -> IcfSegResult:
    """Iteratively accept runs whose matching certificate holds.

    The runs are examined in the order `detect_runs` lists them, each run
    (by member set) once.  For a run the conflict-extended graph is built
    and an exact maximum-weight matching computed; if the matching equals
    the run's internal adjacency set, those adjacencies are recorded, masked
    from the instance, and all externally conflicting candidates are
    removed.  After an acceptance the examination starts over on the runs
    of the changed instance.  The reduced instance is returned for the
    exact solver.  Once `time.monotonic()` passes `deadline`, no further
    run is examined and the runs accepted so far are returned: each was
    applied whole, so the reduced instance is consistent.  The result
    counts the runs examined and those skipped at `CONFLICT_CAP`; one INFO
    line (shown by `ffmedian -v`) gives them with the runs accepted.

    The runs are kept up to date incrementally, with the same result as a
    fresh `detect_runs` after every acceptance.  An acceptance changes the
    scan state only at the G positions of the run's members (now locked)
    and of the killed candidates: every masked row touches one of them.  A
    step of the scan reads only the positions from just after the previous
    run's right end to just after its own (see `_Step`), so only steps whose
    window holds a changed position are grown again, and every other step
    that starts where the new chain needs one is kept.  On a circular
    chromosome the first step, which reads the whole circle, is always
    grown again, and the chain after it moves its end with that run's left
    end.
    """
    cand_alive = np.ones(len(table.candidates), dtype=bool)
    row_alive = np.ones(len(table), dtype=bool)
    conflict = ConflictIndex(table.candidates)
    incidence = ExtremityIncidence(table, row_alive)
    scanner = _RunScanner(G, table, cand_alive, row_alive)
    chains = [scanner.scan(ci) for ci in range(len(G.chromosomes))]
    accepted: list[Segment] = []
    observed: set[frozenset[int]] = set()
    skipped = 0

    progress = True
    while progress:
        progress = False
        for step in (step for chain in chains for step in chain):
            run = step.run
            if run is None or step.key in observed:
                continue
            if deadline is not None and time.monotonic() > deadline:
                log.info("icf-seg stopped at the deadline")
                break
            observed.add(step.key)
            try:
                gamma_prime = build_gamma_prime(run, table, conflict, cand_alive, incidence)
            except SegmentConflictCapError as exc:
                log.info("skipping segment: %s", exc)
                skipped += 1
                continue
            matching = mwm(gamma_prime)
            internal = frozenset(
                _edge_key((table.key(r)[0], table.key(r)[1]),
                          (table.key(r)[2], table.key(r)[3]))
                for r in run.internal_rows
            )
            if matching != internal:
                continue
            # accept: mask adjacencies, drop external conflicts
            accepted.append(run)
            masked = set()
            for r in run.internal_rows:
                m1, e1, m2, e2 = table.key(r)
                masked.update(incidence.rows_at((m1, e1)))
                masked.update(incidence.rows_at((m2, e2)))
            doomed = set()
            for m in run.members:
                for c in conflict.conflicts_of(m):
                    if cand_alive[c] and c not in step.key:
                        doomed.add(c)
            for c in doomed:
                cand_alive[c] = False
                masked.update(incidence.rows_of(c))
            row_alive[list(masked)] = False
            # every masked row touches a member or a killed candidate
            for ci, positions in scanner.remove(step.key | doomed).items():
                chains[ci] = scanner.rescan(ci, chains[ci], positions)
            progress = True
            break

    log.info(
        "icf-seg: %d runs examined, %d accepted, %d skipped at the conflict cap",
        len(observed), len(accepted), skipped,
    )
    return IcfSegResult(table, accepted, cand_alive, row_alive, len(observed), skipped)
