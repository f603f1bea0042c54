"""The path/cycle matching of `segments.mwm` against networkx's blossom.

Random unions of paths and cycles, with distinct and with repeated
weights, must get a matching of networkx's weight, and networkx's edges
wherever exhaustive search finds the optimum unique.  Every
conflict-extended graph that ICF-SEG builds on the golden instances must
have maximum degree 2, and a graph beyond that is an error, not a case
for a general matching.
"""
import random

import networkx as nx
import pytest

from ffmedian import segments
from ffmedian.segments import MatchGraph, _edge_key, icf_seg, mwm
from ffmedian.solver import SolverError

from test_icf_seg_golden import CASES


def matching_weight(graph: MatchGraph, matching) -> float:
    """The summed weight of a matching's edges, given as canonical keys."""
    weights = graph.edge_weight()
    return float(sum(weights[key] for key in matching))


def blossom(graph: MatchGraph) -> frozenset:
    """networkx's maximum-weight matching; parallel edges keep the last weight."""
    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(graph.nodes)
    nx_graph.add_weighted_edges_from(graph.edges)
    matching = nx.max_weight_matching(nx_graph, maxcardinality=False)
    return frozenset(_edge_key(u, v) for u, v in matching)


def optima(graph: MatchGraph) -> list[frozenset]:
    """Every maximum-weight matching, by exhaustive search."""
    edges = [(_edge_key(u, v), w) for u, v, w in graph.edges]
    found: list[tuple[float, frozenset]] = []

    def extend(i, used, chosen, total):
        if i == len(edges):
            found.append((total, frozenset(chosen)))
            return
        extend(i + 1, used, chosen, total)
        (u, v), w = edges[i]
        if u not in used and v not in used:
            extend(i + 1, used | {u, v}, chosen + [(u, v)], total + w)

    extend(0, frozenset(), [], 0.0)
    best = max(total for total, _ in found)
    return [m for total, m in found if total > best - 1e-9]


def paths_and_cycles(rng: random.Random, shapes, repeated: bool) -> MatchGraph:
    """Disjoint paths ("path", k edges) and cycles ("cycle", k vertices),
    edges listed in random order and direction."""
    nodes, edges = [], []
    for c, (shape, k) in enumerate(shapes):
        size = k + 1 if shape == "path" else k
        vertices = [(c, j) for j in range(size)]
        nodes.extend(vertices)
        pairs = list(zip(vertices, vertices[1:]))
        if shape == "cycle":
            pairs.append((vertices[-1], vertices[0]))
        for u, v in pairs:
            w = float(rng.choice((1, 2, 3))) if repeated else round(rng.uniform(0.1, 3.0), 6)
            edges.append((v, u, w) if rng.random() < 0.5 else (u, v, w))
    rng.shuffle(edges)
    return MatchGraph(tuple(nodes), tuple(edges))


SHAPES = {
    "path": lambda rng: [("path", rng.randint(1, 9))],
    "even_cycle": lambda rng: [("cycle", rng.choice((4, 6, 8, 10)))],
    "odd_cycle": lambda rng: [("cycle", rng.choice((3, 5, 7, 9)))],
    "union": lambda rng: [
        (rng.choice(("path", "cycle")), rng.randint(3, 5)) for _ in range(rng.randint(2, 3))
    ],
}


@pytest.mark.parametrize("repeated", [False, True], ids=["distinct", "repeated"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_walk_matches_blossom(shape, repeated):
    unique = 0
    for seed in range(40):
        rng = random.Random(f"{shape}:{repeated}:{seed}")
        graph = paths_and_cycles(rng, SHAPES[shape](rng), repeated)
        ours, theirs = mwm(graph), blossom(graph)
        used = [v for edge in ours for v in edge]
        assert len(used) == len(set(used)) and ours <= set(graph.edge_weight())
        assert matching_weight(graph, ours) == pytest.approx(
            matching_weight(graph, theirs), abs=1e-9
        )
        best = optima(graph)
        assert ours in best
        if len(best) == 1:
            unique += 1
            assert ours == theirs
    assert unique >= 10  # the edge comparison must not be vacuous


def test_degree_three_raises_solver_error():
    star = MatchGraph(
        nodes=((0, 0), (1, 0), (2, 0), (3, 0)),
        edges=(((0, 0), (1, 0), 1.0), ((0, 0), (2, 0), 2.0), ((0, 0), (3, 0), 1.5),
               ((2, 0), (3, 0), 1.25)),
    )
    with pytest.raises(SolverError, match=r"vertex \(0, 0\)"):
        mwm(star)
    loop = MatchGraph(nodes=((0, 0), (1, 0)), edges=(((0, 0), (1, 0), 1.0), ((1, 0), (1, 0), 2.0)))
    with pytest.raises(SolverError, match=r"vertex \(1, 0\)"):
        mwm(loop)


@pytest.mark.parametrize("case", sorted(CASES))
def test_gamma_prime_has_degree_two_at_most(case, monkeypatch):
    built = []
    build = segments.build_gamma_prime

    def recording_build(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(segments, "build_gamma_prime", recording_build)
    genomes, candidates, table = CASES[case]()
    icf_seg(genomes[0], table)
    for graph in built:
        degree = {}
        for u, v, _ in graph.edges:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        assert max(degree.values(), default=0) <= 2
        assert mwm(graph) == blossom(graph)
    assert built or case == "mis_reduction"
