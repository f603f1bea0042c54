"""CAR assembly against its definition, and hand-checked CARs."""
import random

import pytest

from ffmedian.candidates import enumerate_candidates, preprocess_discard_nonclique
from ffmedian.genomes import build_genome
from ffmedian.solver import Car, cars_from_rows

from conftest import (
    build_tables,
    diagonal_sigma,
    disjoint_clique_instance,
    evolved_instance,
    identical_genomes,
    linear,
)


def reference_cars(table, rows):
    """CARs by their definition: follow the chosen links from a free end, or
    around a cycle, then take the least of every rotation and reversal."""
    candidates = table.candidates
    link = {}
    for k in rows:
        m1, e1, m2, e2 = table.key(k)
        link[(m1, e1)] = (m2, e2)
        link[(m2, e2)] = (m1, e1)

    def telomere(m):
        return candidates[m].is_telomere_triple

    def follow(m, out):
        """The members met from m, left through end `out`, and whether the
        walk came back to m."""
        seq = [(m, 1 if telomere(m) or out == 1 else -1)]  # leaving by the head: forward
        while (m, out) in link:
            m, entry = link[(m, out)]
            if m == seq[0][0]:
                return seq, True
            seq.append((m, 1 if telomere(m) or entry == 0 else -1))  # entering at the tail: forward
            if telomere(m):
                break
            out = 1 - entry
        return seq, False

    def flip(seq):
        return tuple((m, o if telomere(m) else -o) for m, o in reversed(seq))

    cars, placed = [], set()
    chosen = sorted({m for m, _ in link})  # the genes the rows join
    for on_cycles in (False, True):  # every path end first
        for m in chosen:
            linked = [e for e in candidates[m].ends if (m, e) in link]
            if m in placed or (len(linked) == 2) != on_cycles:
                continue
            seq, closed = follow(m, linked[-1])
            placed.update(x for x, _ in seq)
            if closed:
                rotations = [seq[i:] + seq[:i] for i in range(len(seq))]
                cars.append(Car("circular", min(
                    [tuple(r) for r in rotations] + [flip(r) for r in rotations])))
            else:
                cars.append(Car("linear", min(tuple(seq), flip(seq))))
    return sorted(cars, key=lambda car: min(m for m, _ in car.members))


def random_selection(rng, candidates, table):
    """A random set of rows that joins a conflict-free gene set and uses each
    extremity at most once."""
    keep = rng.choice((0.7, 0.9, 1.0))
    used, genes = set(), []
    for m in rng.sample(range(len(candidates)), len(candidates)):
        if rng.random() < keep and not used & set(candidates[m].genes):
            used.update(candidates[m].genes)
            genes.append(m)
    chosen, ends, rows = set(genes), set(), []
    for k in rng.sample(range(len(table)), len(table)):
        m1, e1, m2, e2 = table.key(k)
        pair = {(m1, e1), (m2, e2)}
        if m1 in chosen and m2 in chosen and not ends & pair and rng.random() < keep:
            ends |= pair
            rows.append(k)
    return rows


def circular_instance(seed):
    rng = random.Random(seed)
    if seed % 2:
        return disjoint_clique_instance(seed, n=8, n_chroms=2)
    names = [f"x{k}" for k in range(rng.randint(2, 8))]
    entries = [(name, rng.choice((1, -1))) for name in names]
    genomes = [build_genome(label, [("c1", "circular", entries)]) for label in "GHI"]
    return genomes, diagonal_sigma(names)


def spliced_instance(seed):
    """A kept chromosome plus one whose genes match nothing: discarding them
    leaves a telomere-telomere adjacency in every genome."""
    rng = random.Random(seed)
    names = [f"x{k}" for k in range(rng.randint(1, 4))]
    genomes = []
    for label in "GHI":
        entries = [(name, rng.choice((1, -1))) for name in names]
        rng.shuffle(entries)
        genomes.append(build_genome(label, [
            ("c1", "linear", entries),
            ("c2", "linear", [(f"only{label}", 1)]),
        ]))
    sigma = diagonal_sigma(names)
    *genomes, _ = preprocess_discard_nonclique(*genomes, enumerate_candidates(*genomes, sigma))
    return genomes, sigma


@pytest.mark.parametrize("make", [
    lambda seed: evolved_instance(seed, 30, 2, 0.1),
    circular_instance,
    spliced_instance,
], ids=["linear", "circular", "spliced"])
def test_cars_match_their_definition(make):
    shapes, telomere_rows = set(), 0
    for seed in range(16):
        candidates, table = build_tables(*make(seed))
        rng = random.Random(seed)
        for _ in range(3):
            rows = random_selection(rng, candidates, table)
            cars = cars_from_rows(table, rows)
            assert cars == reference_cars(table, rows)
            assert all(len(car.members) > 1 for car in cars)
            shapes |= {car.shape for car in cars}
            telomere_rows += sum(
                candidates[table.key(k)[0]].is_telomere_triple
                and candidates[table.key(k)[2]].is_telomere_triple
                for k in rows
            )
    assert "linear" in shapes
    if make is circular_instance:
        assert "circular" in shapes
    if make is spliced_instance:
        assert telomere_rows


def conserved_rows(table, genes):
    return [
        k for k in range(len(table))
        if int(table.mask[k]) == 0b111
        and table.key(k)[0] in genes and table.key(k)[2] in genes
    ]


def test_circular_car_with_a_reversed_gene():
    # a+ b- c+ around the circle reads a- c- b+ from a, its smallest member
    genomes = [build_genome(label, [("c1", "circular", [("a", 1), ("b", -1), ("c", 1)])])
               for label in "GHI"]
    cands, table = build_tables(genomes, diagonal_sigma(["a", "b", "c"]))
    assert [c.g.name for c in cands] == ["a", "b", "c"]
    cars = cars_from_rows(table, conserved_rows(table, {0, 1, 2}))
    assert cars == [Car("circular", ((0, -1), (2, -1), (1, 1)))]


def test_linear_car_capped_by_telomere_triples():
    genomes = [linear(label, [("a", 1), ("b", -1)]) for label in "GHI"]
    cands, table = build_tables(genomes, diagonal_sigma(["a", "b"]))
    assert str(cands[2]) == "(~c1.L,~c1.L,~c1.L)"
    assert str(cands[9]) == "(~c1.R,~c1.R,~c1.R)"
    cars = cars_from_rows(table, conserved_rows(table, {0, 1, 2, 9}))
    assert cars == [Car("linear", ((2, 1), (0, 1), (1, -1), (9, 1)))]


def test_cars_are_sorted_by_their_smallest_member():
    # genome order c a d b e: the path c a d starts at c (2) but holds a (0),
    # so it comes before the path b e, which starts at b (1)
    names = ["a", "b", "c", "d", "e"]
    genomes = [linear(label, [(nm, 1) for nm in "cadbe"]) for label in "GHI"]
    cands, table = build_tables(genomes, diagonal_sigma(names))
    assert [c.g.name for c in cands[:5]] == names
    rows = [k for k in conserved_rows(table, {0, 1, 2, 3, 4})
            if {table.key(k)[0], table.key(k)[2]} != {1, 3}]  # cut d from b
    cars = cars_from_rows(table, rows)
    assert cars == [
        Car("linear", ((2, 1), (0, 1), (3, 1))),
        Car("linear", ((1, 1), (4, 1))),
    ]
