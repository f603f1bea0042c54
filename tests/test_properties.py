"""Property tests of the exact solve on random small instances.

Hypothesis draws instances of the `random_small_instance` kind: three
genomes of one circular chromosome over the same 2-5 gene names, shuffled
and randomly oriented, with most same-name similarities and a few paralog
ones.  Circular genomes have no telomere triples, so the instances with at
most 12 candidates stay within the oracle's cap.  The linear instances,
1-3 chromosomes per genome with lost genes, have telomere triples beyond
that cap and, where preprocessing empties a chromosome, rows between two
telomere triples; their reference optimum comes from a MILP solver on the
paper's rows (`conftest.milp_objective`), as does that of the gene-family
instances, drawn from `conftest.evolved_instance`.
"""
from collections import Counter

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ffmedian.candidates import (
    enumerate_candidates,
    enumerate_conserved_adjacencies,
    preprocess_discard_nonclique,
)
from ffmedian.genomes import SimilarityGraph, build_genome
from ffmedian.objects import Gene, set_similarity
from ffmedian.objects import paper_table
from ffmedian.reference import brute_force_median
from ffmedian.solver import (
    GRID,
    STATUS_OPTIMAL,
    _Capped,
    build_ilp,
    cars_from_rows,
    solve_branch_and_bound,
)

from conftest import evolved_instance, icf_seg_then_solve, milp_objective

PAIRS = (("G", "H"), ("G", "I"), ("H", "I"))
WEIGHTS = st.integers(200, 1000).map(lambda w: w / 1000)

# fixed examples, so that a run is repeatable; the first solve loads HiGHS
SETTINGS = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)


@st.composite
def circular_instances(draw):
    names = [f"x{k}" for k in range(draw(st.integers(2, 5)))]
    genomes = []
    for label in "GHI":
        order = draw(st.permutations(names))
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(names), max_size=len(names)))
        genomes.append(build_genome(label, [("c1", "circular", list(zip(order, signs)))]))
    sigma = SimilarityGraph()
    for name in names:
        for a, b in PAIRS:
            if draw(st.integers(0, 9)):  # nine in ten
                set_similarity(sigma, Gene(a, name), Gene(b, name), draw(WEIGHTS))
    # a paralog: gene y of one genome is also similar to gene x of the two
    # others, which makes the candidate (x, x, y) that conflicts with (x, x, x)
    paralogs = st.tuples(st.sampled_from(names), st.sampled_from(names), st.sampled_from("GHI"))
    for x, y, label in draw(st.lists(paralogs, max_size=4)):
        for other in "GHI":
            if x != y and other != label:
                set_similarity(sigma, Gene(label, y), Gene(other, x), draw(WEIGHTS))
    candidates = enumerate_candidates(*genomes, sigma)
    assume(0 < len(candidates) <= 12)
    return genomes, candidates, enumerate_conserved_adjacencies(candidates, *genomes)


@st.composite
def linear_instances(draw):
    """Three genomes of 1-3 linear chromosomes over the same 2-5 positions.
    A genome loses the gene at a position with chance 1/4 and has a gene of
    its own there, which resembles nothing; preprocessing splices those
    genes out, and the genes lost elsewhere, so a chromosome can end up
    empty, its two telomeres facing each other."""
    names = [f"x{k}" for k in range(draw(st.integers(2, 5)))]
    genomes = []
    for label in "GHI":
        order = draw(st.permutations(names))
        entries = [
            (name if draw(st.integers(0, 3)) else f"z{label}{k}", draw(st.sampled_from((1, -1))))
            for k, name in enumerate(order)
        ]
        cuts = draw(st.sets(st.integers(1, len(names) - 1), max_size=2))
        bounds = [0, *sorted(cuts), len(names)]
        genomes.append(build_genome(label, [
            (f"c{k}", "linear", entries[bounds[k] : bounds[k + 1]]) for k in range(len(bounds) - 1)
        ]))
    sigma = SimilarityGraph()
    for name in names:
        for a, b in PAIRS:
            set_similarity(sigma, Gene(a, name), Gene(b, name), draw(WEIGHTS))
    *genomes, _ = preprocess_discard_nonclique(*genomes, enumerate_candidates(*genomes, sigma))
    candidates = enumerate_candidates(*genomes, sigma)
    table = enumerate_conserved_adjacencies(candidates, *genomes)
    assume(len(paper_table(table)) <= 300)  # the MILP on the paper's rows slows down beyond
    return genomes, candidates, table


@st.composite
def family_instances(draw):
    """`conftest.evolved_instance` genomes of 20-40 genes with 10-30% of the
    genes copied per genome and 1-3 linear chromosomes, not preprocessed:
    their LP vertices are fractional more often than those of the
    preprocessed tables, which is what the MIP branch needs."""
    genomes, sigma = evolved_instance(
        draw(st.integers(0, 10**6)), draw(st.integers(20, 40)), draw(st.integers(1, 3)),
        draw(st.sampled_from((0.1, 0.2, 0.3))),
    )
    candidates = enumerate_candidates(*genomes, sigma)
    table = enumerate_conserved_adjacencies(candidates, *genomes)
    assume(len(paper_table(table)) <= 300)
    return genomes, candidates, table


def _car_links(candidates, car):
    """The extremity pairs that join consecutive members of a CAR."""
    members = list(car.members)
    steps = zip(members, members[1:] + members[:1] if car.shape == "circular" else members[1:])
    for (m, o), (n, p) in steps:
        exit_end = 1 if o == 1 else 0  # forward leaves through the head
        entry_end = 0 if p == 1 else 1  # forward enters at the tail
        yield frozenset({(m, exit_end), (n, entry_end)})


@SETTINGS
@given(circular_instances())
def test_solve_equals_oracle_with_a_valid_bound(instance):
    genomes, candidates, table = instance
    solution = solve_branch_and_bound(build_ilp(table))
    oracle = brute_force_median(table)
    assert abs(solution.objective - oracle.objective) <= GRID
    assert solution.bound >= solution.objective - GRID
    if solution.status == STATUS_OPTIMAL:
        assert abs(solution.bound - solution.objective) <= GRID


@SETTINGS
@given(linear_instances())
def test_linear_solve_equals_milp(instance):
    genomes, candidates, table = instance
    solution = solve_branch_and_bound(build_ilp(table))
    assert solution.status == STATUS_OPTIMAL
    assert abs(solution.objective - milp_objective(table)) <= GRID
    assert abs(solution.bound - solution.objective) <= GRID


def test_solve_equals_milp_on_integral_and_fractional_roots():
    """Linear, circular, emptied-chromosome and gene-family tables: the
    solve reaches the MILP optimum of the paper's rows whether the LP's
    vertex is a 0-1 point or HiGHS's MIP runs, and both happen.  HiGHS gets
    only the live columns, the others take their best bounds (rule (c) of
    `solver._Capped`), and on an integral root the dual bound, HiGHS's plus
    the cost of those columns, is the objective; some tables leave HiGHS
    no column at all."""
    roots, handed = Counter(), Counter()

    @settings(SETTINGS, max_examples=90)
    @given(st.one_of(circular_instances(), linear_instances(), family_instances()))
    def check(instance):
        genomes, candidates, table = instance
        solution = solve_branch_and_bound(build_ilp(table))
        roots[solution.lp_integral] += 1
        assert solution.status == STATUS_OPTIMAL
        assert abs(solution.objective - milp_objective(table)) <= GRID
        if solution.lp_integral:
            tolerance = 1e-9 * max(1.0, abs(solution.objective))
            assert abs(solution.dual_bound - solution.objective) <= tolerance
        if len(table):
            columns = len(_Capped(table).cost)
            handed["none" if not solution.highs_columns else
                   "some" if solution.highs_columns < columns else "all"] += 1

    check()
    assert roots[True] > 0 and roots[False] > 0, roots
    assert handed["none"] > 0 and handed["some"] > 0, handed


@SETTINGS
@given(circular_instances())
def test_every_chosen_row_appears_once_in_the_cars(instance):
    _check_cars(instance)


@SETTINGS
@given(linear_instances())
def test_linear_cars_hold_every_chosen_row_once(instance):
    _check_cars(instance)


def _check_cars(instance):
    genomes, candidates, table = instance
    solution = solve_branch_and_bound(build_ilp(table))
    cars = cars_from_rows(table, solution.row_indices, solution.caps)
    links = Counter(link for car in cars for link in _car_links(candidates, car))
    rows = Counter()
    for k in solution.row_indices:
        m1, e1, m2, e2 = table.key(k)
        rows[frozenset({(m1, e1), (m2, e2)})] += 1
    assert links == rows
    placed = Counter(m for car in cars for m, _ in car.members)
    assert placed == Counter(table.genes(solution.row_indices, solution.caps))


@SETTINGS
@given(circular_instances())
def test_icf_seg_then_solve_equals_a_plain_solve(instance):
    genomes, candidates, table = instance
    plain = solve_branch_and_bound(build_ilp(table))
    segments, reduced, _ = icf_seg_then_solve(genomes[0], table)
    assert abs(segments.accepted_weight + reduced.objective - plain.objective) <= GRID


@SETTINGS
@given(linear_instances())
def test_linear_icf_seg_then_solve_equals_milp(instance):
    genomes, candidates, table = instance
    segments, reduced, _ = icf_seg_then_solve(genomes[0], table)
    assert abs(segments.accepted_weight + reduced.objective - milp_objective(table)) <= GRID
