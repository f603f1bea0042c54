"""Matching machinery and safe local-optimum extraction.

Builds the matching graph over candidate extremities, detects runs
(internally conflict-free segments whose extant gene order is conserved up
to a full reversal), and accepts a run's internal adjacencies when a
maximum-weight matching on its conflict-extended graph certifies that they
belong to at least one optimal median.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import networkx as nx
import numpy as np

from .candidates import (
    CandidateGene,
    ConflictIndex,
    ConservedAdjacencyTable,
    enumerate_candidates,
    enumerate_conserved_adjacencies,
)
from .genomes import Genome, SimilarityGraph

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

    def to_networkx(self) -> nx.Graph:
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


def mwm(graph: MatchGraph) -> frozenset[tuple]:
    """Exact maximum-weight matching; returns canonical edge keys."""
    nxg = graph.to_networkx()
    matching = nx.max_weight_matching(nxg, maxcardinality=False)
    return frozenset(_edge_key(u, v) for u, v in matching)


def matching_weight(graph: MatchGraph, matching) -> float:
    weights = graph.edge_weight()
    return float(sum(weights[key] for key in matching))


class ExtremityIncidence:
    """Table rows incident to each candidate extremity."""

    def __init__(self, table: ConservedAdjacencyTable, row_alive=None):
        self.table = table
        self.by_ext: dict[tuple[int, int], list[int]] = {}
        rows = range(len(table)) if row_alive is None else np.nonzero(row_alive)[0]
        for k in rows:
            m1, e1, m2, e2 = table.key(int(k))
            self.by_ext.setdefault((m1, e1), []).append(int(k))
            self.by_ext.setdefault((m2, e2), []).append(int(k))

    def best_weight(self, ext: tuple[int, int]) -> float:
        rows = self.by_ext.get(ext)
        if not rows:
            return 0.0
        return max(float(self.table.weight[k]) for k in rows)


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


def detect_runs(
    G: Genome,
    H: Genome,
    I: Genome,
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
    locked = locked or set()
    n = len(candidates)
    alive = np.ones(n, dtype=bool) if cand_alive is None else cand_alive
    conflict = ConflictIndex(candidates)

    # rows conserved in all three genomes, usable as run links
    link_rows: dict[tuple[int, int, int, int], int] = {}
    rows = range(len(table)) if row_alive is None else np.nonzero(row_alive)[0]
    for k in rows:
        k = int(k)
        if int(table.mask[k]) == 0b111:
            link_rows[table.key(k)] = k

    # telomere triples never join runs: capping is not part of a run's
    # internal adjacency set, and their crossed variants would only inflate
    # the conflict-edge potentials
    by_g_gene: dict = {}
    for idx, cand in enumerate(candidates):
        if alive[idx] and idx not in locked and not cand.is_telomere_triple:
            by_g_gene.setdefault(cand.g, []).append(idx)

    def link_row(m_from: int, e_from: int, m_to: int, e_to: int) -> int | None:
        a, b = (m_from, e_from), (m_to, e_to)
        if b < a:
            a, b = b, a
        return link_rows.get((a[0], a[1], b[0], b[1]))

    runs: list[Segment] = []
    for ci, chrom in enumerate(G.chromosomes):
        entries = chrom.order
        size = len(entries)
        if size == 0:
            continue
        circular = chrom.shape == "circular"
        used = [False] * size

        def extend(pos: int, member: int, forward: bool, members, rows_acc) -> tuple[int, int] | None:
            """Try one growth step; returns (next position, candidate) or None."""
            nxt = pos + 1 if forward else pos - 1
            if circular:
                nxt %= size
            elif not 0 <= nxt < size:
                return None
            if used[nxt]:
                return None
            gene, orientation = entries[nxt]
            e_from = _facing_end(candidates[member], entries[pos][1], forward)
            options = []
            for cand_idx in by_g_gene.get(gene, ()):
                e_to = _facing_end(candidates[cand_idx], orientation, not forward)
                row = link_row(member, e_from, cand_idx, e_to)
                if row is None or row_alive is not None and not row_alive[row]:
                    continue
                if any(conflict.conflicting(cand_idx, m) for m in members):
                    continue
                options.append((cand_idx, row))
            if len(options) != 1:
                return None
            cand_idx, row = options[0]
            rows_acc.append(row)
            return nxt, cand_idx

        for start in range(size):
            if used[start]:
                continue
            gene, _ = entries[start]
            starters = by_g_gene.get(gene, ())
            if len(starters) != 1:
                continue
            members = [starters[0]]
            positions = [start]
            rows_acc: list[int] = []
            # grow right, then left
            while True:
                step = extend(positions[-1], members[-1], True, members, rows_acc)
                if step is None:
                    break
                pos, cand_idx = step
                if pos == positions[0] and circular:
                    # closed the cycle: the wrap link is already recorded
                    break
                positions.append(pos)
                members.append(cand_idx)
            is_cycle = circular and len(members) == size and len(rows_acc) == size
            if not is_cycle:
                left_rows: list[int] = []
                while True:
                    step = extend(positions[0], members[0], False, members, left_rows)
                    if step is None:
                        break
                    pos, cand_idx = step
                    positions.insert(0, pos)
                    members.insert(0, cand_idx)
                rows_acc = left_rows[::-1] + rows_acc
            for pos in positions:
                used[pos] = True
            if len(members) >= 2:
                runs.append(
                    Segment(
                        members=tuple(members),
                        internal_rows=tuple(rows_acc),
                        circular=is_cycle,
                    )
                )
    return runs


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
) -> MatchGraph:
    """Γ restricted to the segment plus one conflict edge per member.

    The conflict edge between a member's extremities carries the best total
    potential of a conflict-free subset of its external conflicts; zero
    weight conflict edges are omitted.
    """
    conflict = conflict_index or ConflictIndex(candidates)
    members = set(segment.members)
    incidence = ExtremityIncidence(table, row_alive)
    nodes = []
    for m in segment.members:
        for e in candidates[m].ends:
            nodes.append((m, e))
    edges = []
    rows = range(len(table)) if row_alive is None else np.nonzero(row_alive)[0]
    for k in rows:
        k = int(k)
        m1, e1, m2, e2 = table.key(k)
        if m1 in members and m2 in members:
            edges.append(((m1, e1), (m2, e2), float(table.weight[k])))
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
    H: Genome,
    I: Genome,
    sigma: SimilarityGraph | None = None,
    candidates: list[CandidateGene] | None = None,
    table: ConservedAdjacencyTable | None = None,
    conflict_cap: int = 20,
) -> IcfSegResult:
    """Iteratively accept runs whose matching certificate holds.

    For every unobserved run the conflict-extended graph is built and an
    exact maximum-weight matching computed; if the matching equals the
    run's internal adjacency set, those adjacencies are recorded, masked
    from the instance, and all externally conflicting candidates are
    removed.  The reduced instance is returned for the exact solver.
    """
    if candidates is None or table is None:
        if sigma is None:
            raise ValueError("need sigma when candidate sets are not supplied")
        candidates = enumerate_candidates(G, H, I, sigma)
        table = enumerate_conserved_adjacencies(candidates, G, H, I, sigma)
    n = len(candidates)
    cand_alive = np.ones(n, dtype=bool)
    row_alive = np.ones(len(table), dtype=bool)
    conflict = ConflictIndex(candidates)
    accepted: list[AcceptedSegment] = []
    observed: set[frozenset[int]] = set()
    locked: set[int] = set()

    progress = True
    while progress:
        progress = False
        runs = detect_runs(
            G, H, I, candidates, table,
            cand_alive=cand_alive, row_alive=row_alive, locked=locked,
        )
        for run in runs:
            if run.key in observed:
                continue
            observed.add(run.key)
            try:
                gamma_prime = build_gamma_prime(
                    run, candidates, table, conflict,
                    cand_alive=cand_alive, row_alive=row_alive,
                    conflict_cap=conflict_cap,
                )
            except SegmentConflictCapError as exc:
                log.info("skipping segment: %s", exc)
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
            weight = float(sum(table.weight[r] for r in run.internal_rows))
            accepted.append(AcceptedSegment(run, tuple(run.internal_rows), weight))
            used_exts = set()
            for r in run.internal_rows:
                m1, e1, m2, e2 = table.key(r)
                used_exts.add((m1, e1))
                used_exts.add((m2, e2))
            doomed = set()
            for m in run.members:
                for c in conflict.conflicts_of(m):
                    if cand_alive[c] and c not in run.members:
                        doomed.add(c)
            for c in doomed:
                cand_alive[c] = False
            for k in np.nonzero(row_alive)[0]:
                k = int(k)
                m1, e1, m2, e2 = table.key(k)
                if (
                    m1 in doomed
                    or m2 in doomed
                    or (m1, e1) in used_exts
                    or (m2, e2) in used_exts
                ):
                    row_alive[k] = False
            locked.update(run.members)
            progress = True
            break

    return IcfSegResult(
        candidates=candidates,
        table=table,
        accepted=accepted,
        cand_alive=cand_alive,
        row_alive=row_alive,
    )
