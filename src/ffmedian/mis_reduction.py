"""Maximum-independent-set instance generator and back-mapping.

Transforms a degree-bounded graph into a three-genome median instance whose
optimal objective encodes the independence number: per vertex, two gene
pairs on circular chromosomes; per edge, a shared gene creating a conflict;
plus a star chromosome common to all genomes whose two adjacencies anchor
the score.  The inverse transformation reads an independent set off any
feasible median.  Together with the brute-force independent-set solver this
is the strongest end-to-end correctness harness of the package.
"""
from __future__ import annotations

import json
import logging
import random
from dataclasses import dataclass
from pathlib import Path

from .genomes import (
    Gene,
    Genome,
    ParseError,
    SimilarityGraph,
    _parse_qualified,
    build_genome,
)
from .solver import MedianSolution

log = logging.getLogger(__name__)


class ReductionError(ValueError):
    pass


@dataclass(frozen=True)
class BoundedGraph:
    """Simple undirected graph with maximum degree 3."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self):
        seen = set()
        degree: dict[str, int] = {v: 0 for v in self.vertices}
        for u, v in self.edges:
            if u == v:
                raise ReductionError(f"self-loop at {u!r}")
            if u not in degree or v not in degree:
                raise ReductionError(f"edge ({u},{v}) uses an undeclared vertex")
            key = (u, v) if u <= v else (v, u)
            if key in seen:
                raise ReductionError(f"duplicate edge ({u},{v})")
            seen.add(key)
            degree[u] += 1
            degree[v] += 1
        bad = [v for v, d in degree.items() if d > 3]
        if bad:
            raise ReductionError(f"degree bound 3 violated at {bad}")

    @classmethod
    def from_edges(cls, edges, vertices=None) -> "BoundedGraph":
        edges = [tuple(sorted((str(u), str(v)))) for u, v in edges]
        names = set(vertices or ())
        for u, v in edges:
            names.add(u)
            names.add(v)
        return cls(tuple(sorted(names)), tuple(sorted(set(edges))))

    @classmethod
    def from_edge_file(cls, path) -> "BoundedGraph":
        edges = []
        vertices = set()
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                fields = line.split("\t")
                if len(fields) == 1:
                    vertices.add(fields[0])
                    continue
                if len(fields) != 2:
                    raise ReductionError(f"line {lineno}: expected 'u<TAB>v'")
                edges.append((fields[0], fields[1]))
        return cls.from_edges(edges, vertices)

    def neighbors(self, v: str) -> set[str]:
        out = set()
        for a, b in self.edges:
            if a == v:
                out.add(b)
            elif b == v:
                out.add(a)
        return out


def random_bounded_graph(n: int, p: float, seed: int) -> BoundedGraph:
    """Erdos-Renyi edges, accepted only while both endpoints stay below degree 4."""
    rng = random.Random(seed)
    vertices = [f"v{k}" for k in range(n)]
    degree = {v: 0 for v in vertices}
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p and degree[vertices[a]] < 3 and degree[vertices[b]] < 3:
                edges.append((vertices[a], vertices[b]))
                degree[vertices[a]] += 1
                degree[vertices[b]] += 1
    return BoundedGraph.from_edges(edges, vertices)


# -- edge split ------------------------------------------------------------------


def _split_edges(graph: BoundedGraph) -> dict[tuple[str, str], int]:
    """Each edge's class, 0 or 1, with at most two edges of each class at
    every vertex.

    Every odd-degree vertex is joined to one extra vertex, so every degree
    is even and at most 4.  The edges of an Euler circuit of each component
    (Hierholzer's algorithm, without recursion) take the classes 0, 1, 0,
    1, ... in circuit order, so each pass through a vertex takes one edge of
    each class.  Only the circuit's first vertex can get two edges of one
    class, where the circuit closes, and it is the extra vertex or, in a
    component without it (a cycle), a vertex of degree 2.
    """
    extra = None  # no vertex is named None
    ends = sorted(graph.edges)
    degree = dict.fromkeys(graph.vertices, 0)
    for u, v in ends:
        degree[u] += 1
        degree[v] += 1
    ends += [(v, extra) for v in graph.vertices if degree[v] % 2]
    incident: dict[str | None, list[int]] = {v: [] for v in (extra, *graph.vertices)}
    for k, (u, v) in enumerate(ends):
        incident[u].append(k)
        incident[v].append(k)
    used = [False] * len(ends)
    split: dict[tuple[str | None, str | None], int] = {}
    for start in incident:  # the extra vertex first
        closed = 0  # edges of this circuit so far, taken in reverse order
        stack: list[tuple[str | None, int | None]] = [(start, None)]
        while stack:
            v, via = stack[-1]
            edges = incident[v]
            while edges and used[edges[-1]]:
                edges.pop()
            if edges:
                k = edges.pop()
                used[k] = True
                u, w = ends[k]
                stack.append((w if u == v else u, k))
            else:
                stack.pop()
                if via is not None:
                    split[ends[via]] = closed % 2
                    closed += 1
    return {edge: split[edge] for edge in graph.edges}


# -- transformation ------------------------------------------------------------


@dataclass
class ReductionInstance:
    graph: BoundedGraph
    genomes: tuple[Genome, Genome, Genome]
    sigma: SimilarityGraph
    xi: dict[Gene, tuple[str, ...]]  # vertex association per gene

    def associated(self, gene: Gene) -> tuple[str, ...]:
        return self.xi.get(gene, ())


def reduce_mis(
    graph: BoundedGraph, labels: tuple[str, str, str] = ("G", "H", "I")
) -> ReductionInstance:
    """Build the median instance encoding maximum independent set."""
    lg, lh, li = labels
    xi: dict[Gene, tuple[str, ...]] = {}

    # genome G: one circular chromosome per vertex, plus the star chromosome
    g_chroms = []
    for v in graph.vertices:
        g_chroms.append((f"c{v}", "circular", [(f"{v}.1", 1), (f"{v}.2", 1)]))
        xi[Gene(lg, f"{v}.1")] = (v,)
        xi[Gene(lg, f"{v}.2")] = (v,)
    g_chroms.append(("cstar", "circular", [("star.1", 1), ("star.2", 1)]))
    genome_g = build_genome(lg, g_chroms)

    # edge chromosomes, split between H and I so that no vertex has more
    # than two edge genes in either genome
    split = _split_edges(graph)
    per_genome: dict[str, list[tuple[str, str, list]]] = {lh: [], li: []}
    assoc: dict[str, dict[str, list[str]]] = {
        lh: {v: [] for v in graph.vertices},
        li: {v: [] for v in graph.vertices},
    }
    null_count = {lh: 0, li: 0}

    def add_chromosome(label: str, stem: str, gene_name: str, vertices: tuple[str, ...]):
        null_count[label] += 1
        null_name = f"null.{null_count[label]}"
        per_genome[label].append(
            (f"c{stem}", "circular", [(gene_name, 1), (null_name, 1)])
        )
        xi[Gene(label, gene_name)] = vertices
        xi[Gene(label, null_name)] = ()
        for v in vertices:
            assoc[label][v].append(gene_name)

    for u, v in sorted(graph.edges):
        label = li if split[(u, v)] == 0 else lh
        add_chromosome(label, f"{u}.{v}", f"e.{u}.{v}", (u, v))
    # fillers: every vertex gets exactly two associated genes per genome
    for label in (lh, li):
        for v in graph.vertices:
            fill = 0
            while len(assoc[label][v]) < 2:
                fill += 1
                add_chromosome(label, f"{v}.f{fill}", f"f.{v}.{fill}", (v,))
    for label in (lh, li):
        per_genome[label].append(
            ("cstar", "circular", [("star.1", 1), ("star.2", 1)])
        )
    genome_h = build_genome(lh, sorted(per_genome[lh]))
    genome_i = build_genome(li, sorted(per_genome[li]))

    sigma = SimilarityGraph()
    # vertex triples: pair the k-th associated genes of each genome
    for v in graph.vertices:
        g_genes = [Gene(lg, f"{v}.1"), Gene(lg, f"{v}.2")]
        h_genes = [Gene(lh, name) for name in sorted(assoc[lh][v])]
        i_genes = [Gene(li, name) for name in sorted(assoc[li][v])]
        for k in range(2):
            sigma.set(g_genes[k], h_genes[k], 1.0)
            sigma.set(g_genes[k], i_genes[k], 1.0)
            sigma.set(h_genes[k], i_genes[k], 1.0)
    # star triples
    for k in ("1", "2"):
        sigma.set(Gene(lg, f"star.{k}"), Gene(lh, f"star.{k}"), 1.0)
        sigma.set(Gene(lg, f"star.{k}"), Gene(li, f"star.{k}"), 1.0)
        sigma.set(Gene(lh, f"star.{k}"), Gene(li, f"star.{k}"), 1.0)
    # unassociated class: null genes everywhere plus G's star genes, at 1/4
    null_h = [Gene(lh, f"null.{k}") for k in range(1, null_count[lh] + 1)]
    null_i = [Gene(li, f"null.{k}") for k in range(1, null_count[li] + 1)]
    g_star = [Gene(lg, "star.1"), Gene(lg, "star.2")]
    for gs in g_star:
        for x in null_h + null_i:
            sigma.set(gs, x, 0.25)
    for xh in null_h:
        for xi_gene in null_i:
            sigma.set(xh, xi_gene, 0.25)
    for k in ("1", "2"):
        xi[Gene(lh, f"star.{k}")] = ()
        xi[Gene(li, f"star.{k}")] = ()
        xi[Gene(lg, f"star.{k}")] = ()

    return ReductionInstance(
        graph=graph,
        genomes=(genome_g, genome_h, genome_i),
        sigma=sigma,
        xi=xi,
    )


def backmap_solution(
    solution: MedianSolution, instance: ReductionInstance
) -> set[str]:
    """Vertices whose gene-pair adjacency is realized in the median.

    Reads, from every chosen adjacency conserved in the first genome, the
    vertex associated with the projected gene; star adjacencies project to
    unassociated genes and are skipped.  The result is an independent set.
    """
    label_g = instance.genomes[0].label
    table = solution.table
    genome, g_ids = table.candidates.genomes[0], table.candidates.ids[0]
    out: set[str] = set()
    for k in solution.row_indices:
        if label_g not in table.conserved_in[table.mask[k]]:
            continue
        for m in (table.m1[k], table.m2[k]):
            vertices = instance.associated(Gene(genome.label, genome.names[g_ids[m]]))
            if vertices:
                out.add(vertices[0])
    return out


def mis_bruteforce(graph: BoundedGraph, cap: int = 24) -> int:
    """Exact maximum independent set size by branching with degree pruning."""
    if len(graph.vertices) > cap:
        raise ReductionError(f"{len(graph.vertices)} vertices exceed cap {cap}")
    neighbors = {v: frozenset(graph.neighbors(v)) for v in graph.vertices}

    def solve(active: frozenset[str]) -> int:
        if not active:
            return 0
        isolated = frozenset(u for u in active if not neighbors[u] & active)
        if isolated:
            return len(isolated) + solve(active - isolated)
        v = max(active, key=lambda u: (len(neighbors[u] & active), u))
        return max(solve(active - {v}), 1 + solve(active - {v} - neighbors[v]))

    return solve(frozenset(graph.vertices))


# -- instance files --------------------------------------------------------------


def write_instance(instance: ReductionInstance, out_dir) -> None:
    from .genomes import write_genome_file

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for genome in instance.genomes:
        write_genome_file(out / f"{genome.label}.gen", [genome])
    instance.sigma.write(out / "graph.sim")
    with open(out / "edges.tsv", "w", encoding="utf-8") as fh:
        for v in instance.graph.vertices:
            if not instance.graph.neighbors(v):
                fh.write(f"{v}\n")
        for u, v in instance.graph.edges:
            fh.write(f"{u}\t{v}\n")
    with open(out / "xi.tsv", "w", encoding="utf-8") as fh:
        for gene in sorted(instance.xi):
            vertices = ",".join(instance.xi[gene])
            fh.write(f"{gene}\t{vertices}\n")
    meta = {
        "labels": [g.label for g in instance.genomes],
        "vertices": list(instance.graph.vertices),
        "edges": [list(e) for e in instance.graph.edges],
    }
    with open(out / "meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_instance(in_dir) -> ReductionInstance:
    from .genomes import parse_genome_file

    path = Path(in_dir)
    with open(path / "meta.json", "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    labels = meta.get("labels") if isinstance(meta, dict) else None
    if not isinstance(labels, list):
        raise ParseError(f"{path / 'meta.json'} lists no genome labels")
    graph = BoundedGraph.from_edge_file(path / "edges.tsv")
    genomes = []
    for label in labels:
        found = parse_genome_file(path / f"{label}.gen")
        genomes.extend(g for g in found if g.label == label)
    if len(genomes) != 3:
        raise ParseError(f"{path}: expected three genomes, found {len(genomes)}")
    sigma = SimilarityGraph.read(path / "graph.sim")
    xi: dict[Gene, tuple[str, ...]] = {}
    with open(path / "xi.tsv", "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            token, tab, vertices = raw.rstrip("\n").partition("\t")
            if not tab:
                raise ParseError(f"{fh.name}: expected 'genome:gene<TAB>vertices'", lineno)
            try:
                gene = _parse_qualified(token)
            except ValueError as exc:
                raise ParseError(f"{fh.name}: {exc}", lineno) from exc
            xi[gene] = tuple(v for v in vertices.split(",") if v)
    return ReductionInstance(
        graph=graph,
        genomes=tuple(genomes),  # type: ignore[arg-type]
        sigma=sigma,
        xi=xi,
    )
