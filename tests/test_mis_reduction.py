"""Independent-set reduction: structure, back-mapping, end-to-end laws."""
import itertools

import pytest

from ffmedian.candidates import enumerate_candidates
from ffmedian import objects
from ffmedian.objects import Gene, serialize_similarities, similarity
from ffmedian.mis_reduction import (
    BoundedGraph,
    ReductionError,
    _split_edges,
    backmap_solution,
    mis_bruteforce,
    random_bounded_graph,
    read_instance,
    reduce_mis,
    write_instance,
)
from ffmedian.solver import build_ilp, solve_branch_and_bound

from conftest import build_tables, conflicts

FIVE_EDGE_GRAPH = [("a", "b"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]


class TestBoundedGraph:
    def test_degree_bound_enforced(self):
        edges = [("v", f"u{k}") for k in range(4)]
        with pytest.raises(ReductionError, match="degree"):
            BoundedGraph.from_edges(edges)

    def test_duplicates_and_loops_rejected(self):
        with pytest.raises(ReductionError, match="duplicate"):
            BoundedGraph(("a", "b"), (("a", "b"), ("b", "a")))
        with pytest.raises(ReductionError, match="self-loop"):
            BoundedGraph.from_edges([("a", "a")])

    def test_random_generator_respects_bound(self):
        for seed in range(10):
            graph = random_bounded_graph(12, 0.5, seed)
            for v in graph.vertices:
                assert len(graph.neighbors(v)) <= 3
        assert random_bounded_graph(10, 0.4, 3).edges == random_bounded_graph(
            10, 0.4, 3
        ).edges


class TestEdgeSplit:
    @staticmethod
    def assert_split(graph):
        split = _split_edges(graph)
        assert set(split) == set(graph.edges)
        assert set(split.values()) <= {0, 1}
        for v in graph.vertices:
            classes = [c for e, c in split.items() if v in e]
            assert classes.count(0) <= 2 and classes.count(1) <= 2
        assert _split_edges(graph) == split

    def test_at_most_two_edges_per_genome_at_every_vertex(self):
        for seed in range(10):
            self.assert_split(random_bounded_graph(10, 0.5, seed))

    def test_large_graph(self):
        graph = random_bounded_graph(2000, 6 / 2000, 1)
        assert len(graph.edges) > 2000
        self.assert_split(graph)


class TestTransformation:
    def test_five_edge_graph_shape(self):
        graph = BoundedGraph.from_edges(FIVE_EDGE_GRAPH)
        instance = reduce_mis(graph)
        G, H, I = instance.genomes
        assert len(objects.genes(G)) == 2 * 4 + 2
        assert len(objects.chromosomes(G)) == 5  # one per vertex plus the anchor pair
        for genome in (H, I):
            for v in graph.vertices:
                associated = [
                    gene for gene in objects.genes(genome)
                    if v in instance.associated(gene)
                ]
                assert len(associated) == 2

    def test_unassociated_similarities_quarter(self):
        graph = BoundedGraph.from_edges(FIVE_EDGE_GRAPH)
        instance = reduce_mis(graph)
        G, H, I = instance.genomes
        nulls_h = [g for g in objects.genes(H) if g.name.startswith("null.")]
        nulls_i = [g for g in objects.genes(I) if g.name.startswith("null.")]
        star_g = Gene(G.label, "star.1")
        for x in nulls_h + nulls_i:
            assert similarity(instance.sigma, star_g, x) == 0.25
        for xh in nulls_h:
            for xi in nulls_i:
                assert similarity(instance.sigma, xh, xi) == 0.25

    def test_edgeless_graph_fillers_only(self):
        graph = BoundedGraph.from_edges([], vertices=["a", "b", "c"])
        instance = reduce_mis(graph)
        _, H, I = instance.genomes
        for genome in (H, I):
            stems = {g.name.split(".")[0] for g in objects.genes(genome)}
            assert stems == {"f", "null", "star"}

    def test_single_edge_one_shared_chromosome(self):
        graph = BoundedGraph.from_edges([("u", "v")])
        instance = reduce_mis(graph)
        _, H, I = instance.genomes
        edge_genes = [
            g for genome in (H, I) for g in objects.genes(genome) if g.name.startswith("e.")
        ]
        assert len(edge_genes) == 1

    def test_three_hundred_vertex_graph(self):
        # a few hundred vertices of degree <= 3: the split of the edges
        # between H and I must not search
        graph = random_bounded_graph(300, 0.02, 1)
        assert len(graph.edges) == 380
        instance = reduce_mis(graph)
        for genome in instance.genomes[1:]:
            genes = {gene for gene in objects.genes(genome) if not gene.is_telomere}
            for v in graph.vertices:
                assert sum(v in instance.associated(gene) for gene in genes) == 2

    def test_instance_round_trip(self, tmp_path):
        graph = BoundedGraph.from_edges(FIVE_EDGE_GRAPH)
        instance = reduce_mis(graph)
        write_instance(instance, tmp_path / "inst")
        again = read_instance(tmp_path / "inst")
        assert again.graph.edges == instance.graph.edges
        assert [g.label for g in again.genomes] == [g.label for g in instance.genomes]
        assert serialize_similarities(again.sigma) == serialize_similarities(instance.sigma)
        assert again.xi == instance.xi


class TestMisBruteforce:
    def test_triangle(self):
        graph = BoundedGraph.from_edges([("a", "b"), ("b", "c"), ("a", "c")])
        assert mis_bruteforce(graph) == 1

    def test_path_of_four(self):
        graph = BoundedGraph.from_edges([("a", "b"), ("b", "c"), ("c", "d")])
        assert mis_bruteforce(graph) == 2

    def test_five_edge_graph(self):
        graph = BoundedGraph.from_edges(FIVE_EDGE_GRAPH)
        assert mis_bruteforce(graph) == 2

    def test_matches_exhaustive_subsets(self):
        for seed in range(8):
            graph = random_bounded_graph(8, 0.4, seed)
            best = 0
            verts = list(graph.vertices)
            for mask in range(1 << len(verts)):
                chosen = [v for k, v in enumerate(verts) if mask >> k & 1]
                if all(
                    (a, b) not in graph.edges
                    for a, b in itertools.combinations(sorted(chosen), 2)
                ):
                    best = max(best, len(chosen))
            assert mis_bruteforce(graph) == best

    def test_cap(self):
        graph = BoundedGraph.from_edges([], vertices=[f"v{k}" for k in range(30)])
        with pytest.raises(ReductionError, match="cap"):
            mis_bruteforce(graph)


def solve_reduction(graph):
    instance = reduce_mis(graph)
    cands, table = build_tables(instance.genomes, instance.sigma)
    solution = solve_branch_and_bound(build_ilp(table))
    return instance, cands, table, solution


class TestBackmap:
    def test_anchor_only_solution_maps_to_nothing(self):
        graph = BoundedGraph.from_edges(FIVE_EDGE_GRAPH)
        instance, cands, table, _ = solve_reduction(graph)
        star_rows = [
            k for k in range(len(table))
            if cands[table.key(k)[0]].g.name.startswith("star")
            and cands[table.key(k)[2]].g.name.startswith("star")
            and cands[table.key(k)[0]].h.name.startswith("star")
            and cands[table.key(k)[2]].h.name.startswith("star")
        ]
        from ffmedian.solver import MedianSolution

        solution = MedianSolution(
            "optimal", float(sum(table.weight[k] for k in star_rows)), 0.0,
            tuple(star_rows), table,
        )
        assert backmap_solution(solution, instance) == set()

    def test_optimal_solution_maps_to_maximum_independent_set(self):
        graph = BoundedGraph.from_edges(FIVE_EDGE_GRAPH)
        instance, _, _, solution = solve_reduction(graph)
        mapped = backmap_solution(solution, instance)
        assert len(mapped) == mis_bruteforce(graph) == 2
        for u, v in itertools.combinations(sorted(mapped), 2):
            assert (u, v) not in graph.edges

    def test_feasible_solutions_map_to_independent_sets(self):
        for seed in range(6):
            graph = random_bounded_graph(7, 0.5, seed)
            instance = reduce_mis(graph)
            cands, table = build_tables(instance.genomes, instance.sigma)
            from ffmedian.solver import _greedy_incumbent, MedianSolution

            model = build_ilp(table)
            value, (rows, caps, ys) = _greedy_incumbent(model)
            feasible = MedianSolution("feasible", value, value, rows, table, caps, ys)
            mapped = backmap_solution(feasible, instance)
            for u, v in itertools.combinations(sorted(mapped), 2):
                assert (u, v) not in graph.edges


class TestStructuralLaws:
    def test_chosen_gene_associations(self):
        graph = BoundedGraph.from_edges(FIVE_EDGE_GRAPH)
        instance, cands, table, solution = solve_reduction(graph)
        unassociated = 0
        for idx in table.genes(solution.row_indices):
            cand = cands[idx]
            assoc_g = set(instance.associated(cand.g))
            assoc_h = set(instance.associated(cand.h))
            assoc_i = set(instance.associated(cand.i))
            if assoc_g or assoc_h or assoc_i:
                if not assoc_g and (assoc_h & assoc_i):
                    # mixed candidates carry vertex hints on one side only
                    unassociated += 1
                    continue
                assert assoc_g == (assoc_h & assoc_i) or assoc_g <= (assoc_h | assoc_i)
            else:
                unassociated += 1
        assert unassociated <= 2

    def test_anchor_adjacencies_always_chosen(self):
        for seed in range(5):
            graph = random_bounded_graph(6, 0.4, seed)
            instance, cands, table, solution = solve_reduction(graph)
            star_rows = {
                k for k in solution.row_indices
                if cands[table.key(k)[0]].g.name.startswith("star.")
                and cands[table.key(k)[2]].g.name.startswith("star.")
            }
            assert len(star_rows) == 2

    def test_vertex_candidate_conflicts_iff_edge(self):
        graph = BoundedGraph.from_edges(FIVE_EDGE_GRAPH)
        instance = reduce_mis(graph)
        cands = enumerate_candidates(*instance.genomes, instance.sigma)
        conflicting = conflicts(cands)
        per_vertex = {}
        for idx, cand in enumerate(cands):
            assoc = instance.associated(cand.g)
            if assoc:
                per_vertex.setdefault(assoc[0], []).append(idx)
        for u, v in itertools.combinations(sorted(per_vertex), 2):
            pair_conflicts = any(
                conflicting(a, b)
                for a in per_vertex[u]
                for b in per_vertex[v]
            )
            assert pair_conflicts == (
                (u, v) in instance.graph.edges or (v, u) in instance.graph.edges
            )

    def test_reduction_rejects_high_degree(self):
        edges = [("v", f"u{k}") for k in range(4)]
        with pytest.raises(ReductionError):
            reduce_mis(BoundedGraph(("v", "u0", "u1", "u2", "u3"), tuple(edges)))
