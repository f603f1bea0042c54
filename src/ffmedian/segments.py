"""Matching machinery and safe local-optimum extraction.

Builds the matching graph over candidate extremities, detects runs
(internally conflict-free segments whose extant gene order is conserved up
to a full reversal), and accepts a run's internal adjacencies when a
maximum-weight matching on its conflict-extended graph certifies that they
belong to at least one optimal median.

Runs are found by a left-to-right scan of each chromosome of G.  On a
linear chromosome the scan is a chain of steps: the step after position
`prev` skips to the next position with exactly one starter candidate, grows
a run there, and reads only positions prev+1 .. end+1, where `end` is the
run's right end.  Accepting a run changes the scan state only at the G
positions of its members and of the candidates it kills, so ICF-SEG builds
its lookups once and, after each acceptance, recomputes only the steps
whose window holds a changed position.

A run's conflict-extended graph Γ′ has maximum degree 2, so `mwm` solves
it by a walk over its paths and cycles and needs no general matching:
- Members of a run are pairwise conflict-free, so no two share a gene in
  any genome.
- An extant extremity has exactly one neighbour in each genome, and a
  run's links are conserved in all three, so each member extremity has at
  most one row to another member: its link, or at a run end the wrap to
  the other end when the members fill a circular chromosome.
- Each member adds at most one conflict edge, between its own two
  extremities (or between its telomere end and `DUMMY_END`).
"""
from __future__ import annotations

import bisect
import logging
import time
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .candidates import CandidateGene, ConflictIndex, ConservedAdjacencyTable
from .genomes import Gene, Genome

log = logging.getLogger(__name__)

# Vertex keys are (candidate index, end code); end codes 0/1/2 as in
# candidates.END_CODES, 4 marks the dummy partner of a telomere conflict edge.
DUMMY_END = 4


class SegmentConflictCapError(RuntimeError):
    """Too many external conflicts; the segment should be skipped."""


@dataclass(frozen=True, slots=True)
class MatchGraph:
    """Weighted graph over candidate extremities."""

    nodes: tuple[tuple[int, int], ...]
    edges: tuple[tuple[tuple[int, int], tuple[int, int], float], ...]

    def to_networkx(self):
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self.nodes)
        for u, v, w in self.edges:
            graph.add_edge(u, v, weight=w)
        return graph

    def edge_weight(self) -> dict[tuple, float]:
        return {_edge_key(u, v): w for u, v, w in self.edges}


def _edge_key(u, v) -> tuple:
    return (u, v) if u <= v else (v, u)


def build_gamma(
    candidates: Sequence[CandidateGene], table: ConservedAdjacencyTable
) -> MatchGraph:
    """Graph with one vertex per candidate extremity and one weighted edge
    per conserved candidate adjacency."""
    nodes = []
    for idx, cand in enumerate(candidates):
        for e in cand.ends:
            nodes.append((idx, e))
    edges = []
    for k in range(len(table)):
        m1, e1, m2, e2 = table.key(k)
        edges.append(((m1, e1), (m2, e2), float(table.weight[k])))
    return MatchGraph(tuple(nodes), tuple(edges))


def mwm(graph: MatchGraph, counts: dict[str, int] | None = None) -> frozenset[tuple]:
    """Exact maximum-weight matching; returns canonical edge keys.

    A graph whose vertices all have degree <= 2 is a disjoint union of
    paths and cycles, and each is solved by the linear dynamic program of
    `_path_matching`.  A cycle takes the better of its path without the
    first edge and its path without the last: a matching leaves out at
    least one of two edges that share a vertex.  Every conflict-extended
    graph of a run has degree <= 2 (see the module docstring); any other
    graph goes to networkx's blossom algorithm.  `counts`, when given,
    gains one under "walk" or "blossom".  Parallel edges keep the last
    weight listed, as in `to_networkx`.
    """
    weight = graph.edge_weight()
    neighbours: dict[tuple, list[tuple]] = {}
    for u, v in weight:
        neighbours.setdefault(u, []).append(v)
        neighbours.setdefault(v, []).append(u)
    general = any(len(nb) > 2 or v in nb for v, nb in neighbours.items())
    if counts is not None:
        kind = "blossom" if general else "walk"
        counts[kind] = counts.get(kind, 0) + 1
    if general:
        import networkx as nx

        matching = nx.max_weight_matching(graph.to_networkx(), maxcardinality=False)
        return frozenset(_edge_key(u, v) for u, v in matching)
    seen: set[tuple] = set()

    def walk(start: tuple) -> list[tuple]:
        """The vertices of start's component in path order, from start."""
        seen.add(start)
        vertices = [start]
        while True:
            step = [v for v in neighbours[vertices[-1]] if v not in seen]
            if not step:
                return vertices
            seen.add(step[0])
            vertices.append(step[0])

    matching: list[tuple] = []
    # paths from an end first; the components left over are cycles
    for v, nb in neighbours.items():
        if len(nb) == 1 and v not in seen:
            vertices = walk(v)
            matching.extend(_path_matching(list(zip(vertices, vertices[1:])), weight)[1])
    for v in neighbours:
        if v not in seen:
            vertices = walk(v)
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


class ExtremityIncidence:
    """Table rows incident to each candidate extremity and to each candidate.

    The row lists cover every row of the table and are built once; `row_alive`
    is held by reference, so the queries always see the rows live right now.
    """

    def __init__(self, table: ConservedAdjacencyTable, row_alive=None):
        self.row_alive = row_alive
        self.weight = table.weight.tolist()
        self.by_ext: dict[tuple[int, int], list[int]] = {}
        self.by_cand: dict[int, list[int]] = {}
        ends = zip(table.m1.tolist(), table.e1.tolist(), table.m2.tolist(), table.e2.tolist())
        for k, (m1, e1, m2, e2) in enumerate(ends):
            self.by_ext.setdefault((m1, e1), []).append(k)
            self.by_ext.setdefault((m2, e2), []).append(k)
            self.by_cand.setdefault(m1, []).append(k)
            self.by_cand.setdefault(m2, []).append(k)

    def _live(self, rows: list[int]) -> list[int]:
        alive = self.row_alive
        return rows if alive is None else [k for k in rows if alive[k]]

    def rows_at(self, ext: tuple[int, int]) -> list[int]:
        """Live rows incident to one extremity."""
        return self._live(self.by_ext.get(ext, []))

    def rows_of(self, m: int) -> list[int]:
        """Live rows incident to either extremity of candidate m."""
        return self._live(self.by_cand.get(m, []))

    def best_weight(self, ext: tuple[int, int]) -> float:
        return max((self.weight[k] for k in self.rows_at(ext)), default=0.0)


def potential(
    m: int,
    table: ConservedAdjacencyTable,
    incidence: ExtremityIncidence | None = None,
) -> float:
    """Best combined weight of adjacencies incident to opposite extremities.

    With incident adjacencies on one extremity only, the best single weight;
    with none, 0.  Telomere triples have a single extremity.
    """
    if incidence is None:
        incidence = ExtremityIncidence(table)
    cand = table.candidates[m]
    best = [incidence.best_weight((m, e)) for e in cand.ends]
    return float(sum(best))


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


def _facing_end(cand: CandidateGene, orientation: int, forward: bool) -> int:
    """End code of the extremity facing the next (forward) or previous position."""
    if cand.is_telomere_triple:
        return 2
    if forward:
        return 1 if orientation > 0 else 0
    return 0 if orientation > 0 else 1


class _Step(NamedTuple):
    """One step of the scan of a chromosome.

    On a linear chromosome the step starts just after position `prev`,
    skips the positions without exactly one starter, grows a run from the
    first position that has one and ends at the run's right end `end`; it
    reads only positions prev+1 .. end+1.  `run` is None when the step found
    no starter or grew a single candidate.  Steps of a circular chromosome
    carry prev = end = -1.
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
    the conflict-edge potentials).  `link_rows` maps the key of every row
    conserved in all three genomes to its row; `row_alive` is held by
    reference and checked when a link is looked up.
    """

    def __init__(self, G, candidates, table, cand_alive=None, row_alive=None, locked=()):
        self.G = G
        self.candidates = candidates
        self.row_alive = row_alive
        self.link_rows: dict[tuple[int, int, int, int], int] = {
            table.key(k): k for k in np.nonzero(table.mask == 0b111)[0].tolist()
        }
        self.by_g_gene: dict[Gene, list[int]] = {}
        for idx, cand in enumerate(candidates):
            if (cand_alive is None or cand_alive[idx]) and idx not in locked \
                    and not cand.is_telomere_triple:
                self.by_g_gene.setdefault(cand.g, []).append(idx)

    def scan(self, ci: int) -> list[_Step]:
        """All steps of chromosome ci, scanned left to right."""
        chrom = self.G.chromosomes[ci]
        if chrom.shape == "circular":
            return self._scan_circular(chrom.order)
        return self._chain(chrom.order, [], -1)

    def rescan(self, ci: int, old: list[_Step], changed: list[int]) -> list[_Step]:
        """The steps of chromosome ci after the state at `changed` positions moved.

        A linear chromosome keeps the old steps before the first window that
        holds a changed position, recomputes from there, and takes the old
        tail back once the chain is past every changed position and meets
        an old step start again.  A circular chromosome is rescanned whole.
        """
        chrom = self.G.chromosomes[ci]
        if chrom.shape == "circular":
            return self._scan_circular(chrom.order)
        first = bisect.bisect_left(old, min(changed) - 1, key=lambda step: step.end)
        return self._chain(chrom.order, old[:first], old[first].prev, old[first:], max(changed))

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

    def _chain(self, entries, steps, prev, old=(), changed_until=-1) -> list[_Step]:
        """Append the steps of a linear chromosome from position `prev` on."""
        j = 0
        while prev < len(entries) - 1:
            if prev >= changed_until:
                while j < len(old) and old[j].prev < prev:
                    j += 1
                if j < len(old) and old[j].prev == prev:
                    steps.extend(old[j:])
                    return steps
            step = self._linear_step(entries, prev)
            steps.append(step)
            prev = step.end
        return steps

    def _starter(self, gene) -> bool:
        return len(self.by_g_gene.get(gene, ())) == 1

    def _linear_step(self, entries, prev: int) -> _Step:
        start = prev + 1
        while start < len(entries) and not self._starter(entries[start][0]):
            start += 1
        if start == len(entries):
            return _Step(prev, start - 1, None, None)
        positions, members, rows, _ = self._grow(entries, start, False, lambda p: p <= prev)
        return _Step(prev, positions[-1], *self._segment(members, rows, False))

    def _scan_circular(self, entries) -> list[_Step]:
        used = [False] * len(entries)
        steps = []
        for start in range(len(entries)):
            if used[start] or not self._starter(entries[start][0]):
                continue
            positions, members, rows, is_cycle = self._grow(
                entries, start, True, used.__getitem__
            )
            for pos in positions:
                used[pos] = True
            run, key = self._segment(members, rows, is_cycle)
            if run is not None:
                steps.append(_Step(-1, -1, run, key))
        return steps

    @staticmethod
    def _segment(members, rows, is_cycle):
        if len(members) < 2:
            return None, None
        run = Segment(members=tuple(members), internal_rows=tuple(rows), circular=is_cycle)
        return run, run.key

    def _grow(self, entries, start, circular, taken):
        """Grow a run from `start` to the right, then to the left.

        Growth requires the next candidate to be the unique compatible
        choice; `taken(pos)` marks positions already claimed by the scan.
        Returns the positions, members and internal rows in G order and
        whether the run closed a circular chromosome.
        """
        candidates, by_g_gene, row_alive = self.candidates, self.by_g_gene, self.row_alive
        size = len(entries)
        members = [by_g_gene[entries[start][0]][0]]
        positions = [start]
        # the members' G, H and I genes: a candidate sharing one conflicts
        member_set = {members[0]}
        member_genes = [{g} for g in candidates[members[0]].genes]

        def extend(pos: int, member: int, forward: bool, rows_acc) -> tuple[int, int] | None:
            """Try one growth step; returns (next position, candidate) or None."""
            nxt = pos + 1 if forward else pos - 1
            if circular:
                nxt %= size
            elif not 0 <= nxt < size:
                return None
            if taken(nxt):
                return None
            gene, orientation = entries[nxt]
            e_from = _facing_end(candidates[member], entries[pos][1], forward)
            options = []
            for cand_idx in by_g_gene.get(gene, ()):
                cand = candidates[cand_idx]
                e_to = _facing_end(cand, orientation, not forward)
                a, b = (member, e_from), (cand_idx, e_to)
                if b < a:
                    a, b = b, a
                row = self.link_rows.get((a[0], a[1], b[0], b[1]))
                if row is None or row_alive is not None and not row_alive[row]:
                    continue
                # a member (the wrap-around one) conflicts with no other member
                if cand_idx not in member_set and any(
                    g in seen for g, seen in zip(cand.genes, member_genes)
                ):
                    continue
                options.append((cand_idx, row))
            if len(options) != 1:
                return None
            cand_idx, row = options[0]
            rows_acc.append(row)
            member_set.add(cand_idx)
            for g, seen in zip(candidates[cand_idx].genes, member_genes):
                seen.add(g)
            return nxt, cand_idx

        rows: list[int] = []
        while True:
            step = extend(positions[-1], members[-1], True, rows)
            if step is None:
                break
            pos, cand_idx = step
            if pos == positions[0] and circular:
                # closed the cycle: the wrap link is already recorded
                break
            positions.append(pos)
            members.append(cand_idx)
        is_cycle = circular and len(members) == size and len(rows) == size
        if not is_cycle:
            left_rows: list[int] = []
            while True:
                step = extend(positions[0], members[0], False, left_rows)
                if step is None:
                    break
                pos, cand_idx = step
                positions.insert(0, pos)
                members.insert(0, cand_idx)
            rows = left_rows[::-1] + rows
        return positions, members, rows, is_cycle


def detect_runs(
    G: Genome,
    candidates: Sequence[CandidateGene],
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
    scanner = _RunScanner(G, candidates, table, cand_alive, row_alive, locked or ())
    return [
        step.run
        for ci in range(len(G.chromosomes))
        for step in scanner.scan(ci)
        if step.run is not None
    ]


# -- segment classification (detect-only) -------------------------------------


def is_ic_free(
    members: Sequence[int],
    candidates: Sequence[CandidateGene],
    genomes: Sequence[Genome],
) -> bool:
    """No internal conflicts and contiguous in all three genomes."""
    conflict = ConflictIndex(candidates)
    ms = list(members)
    for a in range(len(ms)):
        for b in range(a + 1, len(ms)):
            if conflict.conflicting(ms[a], ms[b]):
                return False
    for slot, genome in enumerate(genomes):
        spots = [genome.locate(candidates[m].genes[slot]) for m in ms]
        chroms = {s[0] for s in spots}
        if len(chroms) != 1:
            return False
        chrom = genome.chromosomes[spots[0][0]]
        positions = sorted(s[1] for s in spots)
        span = positions[-1] - positions[0] + 1
        if span == len(positions):
            continue
        if chrom.shape == "circular":
            # allow wrap-around contiguity
            size = len(chrom.order)
            gaps = [
                (positions[(j + 1) % len(positions)] - positions[j]) % size
                for j in range(len(positions))
            ]
            if sorted(gaps)[:-1] != [1] * (len(positions) - 1):
                return False
        else:
            return False
    return True


def is_framed(
    members: Sequence[int],
    candidates: Sequence[CandidateGene],
    genomes: Sequence[Genome],
) -> bool:
    """IC-free and flanked by the same two members in every genome, with
    conserved relative orientations."""
    if not is_ic_free(members, candidates, genomes):
        return False
    frames = []
    for slot, genome in enumerate(genomes):
        spots = sorted(
            (genome.locate(candidates[m].genes[slot])[1], m) for m in members
        )
        first, last = spots[0][1], spots[-1][1]
        o_first = genome.locate(candidates[first].genes[slot])[2]
        frames.append((first, last, o_first))
    anchor = frames[0]
    for first, last, orientation in frames[1:]:
        same = (first, last) == (anchor[0], anchor[1]) and orientation == anchor[2]
        flipped = (first, last) == (anchor[1], anchor[0]) and orientation != anchor[2]
        if not (same or flipped):
            return False
    return True


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
    candidates: Sequence[CandidateGene],
    table: ConservedAdjacencyTable,
    conflict_index: ConflictIndex | None = None,
    cand_alive=None,
    row_alive=None,
    conflict_cap: int = 20,
    incidence: ExtremityIncidence | None = None,
) -> MatchGraph:
    """Γ restricted to the segment plus one conflict edge per member.

    The conflict edge between a member's extremities carries the best total
    potential of a conflict-free subset of its external conflicts; zero
    weight conflict edges are omitted.  `incidence`, when given, must read
    the same `row_alive`.
    """
    conflict = conflict_index or ConflictIndex(candidates)
    members = set(segment.members)
    if incidence is None:
        incidence = ExtremityIncidence(table, row_alive)
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
        external = [
            c
            for c in conflict.conflicts_of(m)
            if c not in members and (cand_alive is None or cand_alive[c])
        ]
        if len(external) > conflict_cap:
            raise SegmentConflictCapError(
                f"segment member {candidates[m]} has {len(external)} external "
                f"conflicts (cap {conflict_cap}); skip this segment"
            )
        for c in external:
            if c not in deltas:
                deltas[c] = potential(c, table, incidence)
        w_prime = _max_conflict_free_potential(external, deltas, conflict)
        if w_prime > 0.0:
            if candidates[m].is_telomere_triple:
                u, v = (m, 2), (m, DUMMY_END)
                nodes.append((m, DUMMY_END))
            else:
                u, v = (m, 0), (m, 1)
            edges.append((u, v, w_prime))
    return MatchGraph(tuple(nodes), tuple(edges))


@dataclass(slots=True)
class AcceptedSegment:
    segment: Segment
    rows: tuple[int, ...]
    weight: float


@dataclass(slots=True)
class IcfSegResult:
    candidates: list[CandidateGene]
    table: ConservedAdjacencyTable
    accepted: list[AcceptedSegment]
    cand_alive: np.ndarray
    row_alive: np.ndarray

    @property
    def accepted_weight(self) -> float:
        return float(sum(seg.weight for seg in self.accepted))

    @property
    def accepted_rows(self) -> list[int]:
        return [r for seg in self.accepted for r in seg.rows]

    def reduced_table(self) -> ConservedAdjacencyTable:
        return self.table.subset(np.nonzero(self.row_alive)[0])


def icf_seg(
    G: Genome,
    candidates: list[CandidateGene],
    table: ConservedAdjacencyTable,
    conflict_cap: int = 20,
    deadline: float | None = None,
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
    applied whole, so the reduced instance is consistent.  One INFO line
    (shown by `ffmedian -v`) gives the runs examined, accepted and skipped
    at the conflict cap, and how many conflict-extended graphs the
    path/cycle walk and the blossom fallback of `mwm` solved.

    The runs are kept up to date incrementally, with the same result as a
    fresh `detect_runs` after every acceptance.  An acceptance changes the
    scan state only at the G positions of the run's members (now locked)
    and of the killed candidates: every masked row touches one of them.  A
    step of a linear chromosome's scan reads only the positions from just
    after the previous run's right end to just after its own (see `_Step`),
    so only steps whose window holds a changed position are recomputed, and
    once the chain is past the last changed position at an old step start
    the old tail is kept.  Circular chromosomes are rescanned whole.
    """
    n = len(candidates)
    cand_alive = np.ones(n, dtype=bool)
    row_alive = np.ones(len(table), dtype=bool)
    conflict = ConflictIndex(candidates)
    incidence = ExtremityIncidence(table, row_alive)
    scanner = _RunScanner(G, candidates, table, cand_alive, row_alive)
    chains = [scanner.scan(ci) for ci in range(len(G.chromosomes))]
    accepted: list[AcceptedSegment] = []
    observed: set[frozenset[int]] = set()
    skipped = 0
    solved_by: dict[str, int] = {}

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
                gamma_prime = build_gamma_prime(
                    run, candidates, table, conflict,
                    cand_alive=cand_alive, row_alive=row_alive,
                    conflict_cap=conflict_cap, incidence=incidence,
                )
            except SegmentConflictCapError as exc:
                log.info("skipping segment: %s", exc)
                skipped += 1
                continue
            matching = mwm(gamma_prime, solved_by)
            internal = frozenset(
                _edge_key((table.key(r)[0], table.key(r)[1]),
                          (table.key(r)[2], table.key(r)[3]))
                for r in run.internal_rows
            )
            if matching != internal:
                continue
            # accept: mask adjacencies, drop external conflicts
            weight = float(sum(table.weight[r] for r in run.internal_rows))
            accepted.append(AcceptedSegment(run, tuple(run.internal_rows), weight))
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
        "icf-seg: %d runs examined, %d accepted, %d skipped at the conflict cap; "
        "matchings: %d by path/cycle walk, %d by blossom",
        len(observed), len(accepted), skipped,
        solved_by.get("walk", 0), solved_by.get("blossom", 0),
    )
    return IcfSegResult(
        candidates=candidates,
        table=table,
        accepted=accepted,
        cand_alive=cand_alive,
        row_alive=row_alive,
    )
