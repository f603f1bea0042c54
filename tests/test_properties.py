"""Property tests of the exact solve on random small circular instances.

Hypothesis draws instances of the `random_small_instance` kind: three
genomes of one circular chromosome over the same 2-5 gene names, shuffled
and randomly oriented, with most same-name similarities and a few paralog
ones.  Circular genomes have no telomere triples, so the instances with at
most 12 candidates stay within the oracle's cap.
"""
from collections import Counter

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ffmedian.candidates import enumerate_candidates, enumerate_conserved_adjacencies
from ffmedian.genomes import Gene, SimilarityGraph, build_genome
from ffmedian.reference import brute_force_median
from ffmedian.segments import icf_seg
from ffmedian.solver import (
    GRID,
    STATUS_OPTIMAL,
    build_ilp,
    cars_from_rows,
    solve_branch_and_bound,
)

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
                sigma.set(Gene(a, name), Gene(b, name), draw(WEIGHTS))
    # a paralog: gene y of one genome is also similar to gene x of the two
    # others, which makes the candidate (x, x, y) that conflicts with (x, x, x)
    paralogs = st.tuples(st.sampled_from(names), st.sampled_from(names), st.sampled_from("GHI"))
    for x, y, label in draw(st.lists(paralogs, max_size=4)):
        for other in "GHI":
            if x != y and other != label:
                sigma.set(Gene(label, y), Gene(other, x), draw(WEIGHTS))
    candidates = enumerate_candidates(*genomes, sigma)
    assume(0 < len(candidates) <= 12)
    return genomes, candidates, enumerate_conserved_adjacencies(candidates, *genomes)


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
@given(circular_instances())
def test_every_chosen_row_appears_once_in_the_cars(instance):
    genomes, candidates, table = instance
    solution = solve_branch_and_bound(build_ilp(table))
    cars = cars_from_rows(table, solution.row_indices)
    links = Counter(link for car in cars for link in _car_links(candidates, car))
    rows = Counter()
    for k in solution.row_indices:
        m1, e1, m2, e2 = table.key(k)
        rows[frozenset({(m1, e1), (m2, e2)})] += 1
    assert links == rows
    placed = Counter(m for car in cars for m, _ in car.members)
    assert placed == Counter(table.genes(solution.row_indices))


@SETTINGS
@given(circular_instances())
def test_icf_seg_then_solve_equals_a_plain_solve(instance):
    genomes, candidates, table = instance
    plain = solve_branch_and_bound(build_ilp(table))
    segments = icf_seg(genomes[0], table)
    reduced = solve_branch_and_bound(build_ilp(segments.reduced_table()))
    assert abs(segments.accepted_weight + reduced.objective - plain.objective) <= GRID
