"""Shared instance builders for the test suite."""
from __future__ import annotations

import math
import random

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, milp

from ffmedian.candidates import (
    ConservedAdjacencyTable,
    candidates_on_genes,
    enumerate_candidates,
    enumerate_conserved_adjacencies,
)
from ffmedian import segments, solver
from ffmedian.genomes import SimilarityGraph, build_genome
from ffmedian.kernels import IntArray
from ffmedian.objects import Gene, paper_table, set_similarity, telomere_triples
from ffmedian.solver import verify_solution


def linear(label, entries, chrom="c1"):
    return build_genome(label, [(chrom, "linear", entries)])


def circular(label, entries, chrom="c1"):
    return build_genome(label, [(chrom, "circular", entries)])


def diagonal_sigma(names, value=1.0):
    sigma = SimilarityGraph()
    for nm in names:
        set_similarity(sigma, Gene("G", nm), Gene("H", nm), value)
        set_similarity(sigma, Gene("G", nm), Gene("I", nm), value)
        set_similarity(sigma, Gene("H", nm), Gene("I", nm), value)
    return sigma


def identical_genomes(names=("a", "b", "c"), shape="linear"):
    builder = linear if shape == "linear" else circular
    genomes = [builder(label, [(nm, 1) for nm in names]) for label in "GHI"]
    return genomes, diagonal_sigma(list(names))


@pytest.fixture
def four_candidate_instance():
    """Three genomes with four gene triples, two of them in conflicts.

    Gene orders: G = g1..g4, H = h1..h3, I = i1..i3; the similarity edges
    form triangles (g1,h1,i2), (g2,h2,i1), (g3,h3,i2), (g4,h3,i3), so the
    first/third triples share i2 and the last two share h3.
    """
    G = linear("G", [(f"g{k}", 1) for k in range(1, 5)])
    H = linear("H", [(f"h{k}", 1) for k in range(1, 4)])
    I = linear("I", [(f"i{k}", 1) for k in range(1, 4)])
    sigma = SimilarityGraph()
    edges = [
        ("G:g1", "H:h1"), ("H:h1", "I:i2"), ("G:g1", "I:i2"),
        ("G:g2", "H:h2"), ("H:h2", "I:i1"), ("G:g2", "I:i1"),
        ("G:g3", "H:h3"), ("H:h3", "I:i2"), ("G:g3", "I:i2"),
        ("G:g4", "H:h3"), ("H:h3", "I:i3"), ("G:g4", "I:i3"),
    ]
    for a, b in edges:
        ga, gb = a.split(":"), b.split(":")
        set_similarity(sigma, Gene(ga[0], ga[1]), Gene(gb[0], gb[1]), 0.5)
    return (G, H, I), sigma


def random_small_instance(seed, max_candidates=12, rng_genes=(2, 4)):
    """Small random instance with at most `max_candidates` candidates."""
    for attempt in range(60):
        rng = random.Random(seed * 1009 + attempt)
        n = rng.randint(*rng_genes)
        names = [f"x{k}" for k in range(n)]
        genomes = []
        for label in "GHI":
            order = names[:]
            rng.shuffle(order)
            entries = [(nm, rng.choice([1, -1])) for nm in order]
            shape = rng.choice(["linear", "circular", "circular"])
            genomes.append(build_genome(label, [("c1", shape, entries)]))
        sigma = SimilarityGraph()
        for nm in names:
            for a, b in (("G", "H"), ("G", "I"), ("H", "I")):
                if rng.random() < 0.9:
                    set_similarity(sigma, Gene(a, nm), Gene(b, nm),
                                   round(rng.uniform(0.2, 1.0), 3))
        for _ in range(rng.randint(0, 3)):
            if n < 2:
                break
            x, y = rng.sample(names, 2)
            a, b = rng.choice([("G", "H"), ("G", "I"), ("H", "I")])
            set_similarity(sigma, Gene(a, x), Gene(b, y), round(rng.uniform(0.2, 1.0), 3))
        cands = enumerate_candidates(*genomes, sigma)
        if 0 < len(cands) <= max_candidates:
            return genomes, sigma, cands
    raise RuntimeError(f"no usable instance for seed {seed}")


def random_blockish_instance(seed, max_candidates=11):
    """Random instance carrying a conserved block, for run detection."""
    for attempt in range(60):
        rng = random.Random(seed * 2003 + attempt)
        n = rng.randint(3, 5)
        names = [f"x{k}" for k in range(n)]
        block = names[: rng.randint(2, n)]
        rest = names[len(block):]
        genomes = []
        for label in "GHI":
            tail = rest[:]
            rng.shuffle(tail)
            order = block + tail if rng.random() < 0.8 else tail + block
            entries = [
                (nm, 1 if nm in block else rng.choice([1, -1])) for nm in order
            ]
            shape = rng.choice(["linear", "circular"])
            genomes.append(build_genome(label, [("c1", shape, entries)]))
        sigma = SimilarityGraph()
        for nm in names:
            for a, b in (("G", "H"), ("G", "I"), ("H", "I")):
                set_similarity(sigma, Gene(a, nm), Gene(b, nm), round(rng.uniform(0.3, 1.0), 3))
        for _ in range(rng.randint(0, 2)):
            x, y = rng.sample(names, 2)
            a, b = rng.choice([("G", "H"), ("G", "I"), ("H", "I")])
            set_similarity(sigma, Gene(a, x), Gene(b, y), round(rng.uniform(0.3, 1.0), 3))
        cands = enumerate_candidates(*genomes, sigma)
        if 0 < len(cands) <= max_candidates:
            return genomes, sigma, cands
    raise RuntimeError(f"no usable instance for seed {seed}")


def disjoint_clique_instance(seed, n=6, n_chroms=1):
    """Equal-weight instance whose candidate set is entirely conflict-free."""
    rng = random.Random(seed)
    names = [f"x{k}" for k in range(n)]
    genomes = []
    for label in "GHI":
        order = names[:]
        rng.shuffle(order)
        chroms = []
        bounds = sorted(rng.sample(range(1, n), n_chroms - 1)) if n_chroms > 1 else []
        pieces = []
        last = 0
        for b in bounds + [n]:
            pieces.append(order[last:b])
            last = b
        for ci, piece in enumerate(pieces):
            entries = [(nm, rng.choice([1, -1])) for nm in piece]
            chroms.append((f"c{ci}", "circular", entries))
        genomes.append(build_genome(label, chroms))
    return genomes, diagonal_sigma(names)


def conflicts(candidates):
    """`conflicting(a, b)`: whether two distinct candidates share a gene,
    read off the lists of `candidates_on_genes`."""
    on_genes = candidates_on_genes(candidates)

    def conflicting(a, b):
        return a != b and any(
            b in on_gene[column[a]] for on_gene, column in zip(on_genes, candidates.ids)
        )

    return conflicting


def build_tables(genomes, sigma):
    cands = enumerate_candidates(*genomes, sigma)
    table = enumerate_conserved_adjacencies(cands, *genomes)
    return cands, table


def real_index(paper) -> dict[int, int]:
    """Per candidate of a paper's table that is no telomere triple, its
    index in the table the paper's table was built from."""
    real = [m for m, t in enumerate(telomere_triples(paper.candidates)) if not t]
    return {m: j for j, m in enumerate(real)}


def residual_table(table, result):
    """The table that ICF-SEG, run on the paper's table of `table` with the
    result `result`, leaves to the solve, as a solve reads a table: the
    live rows between candidates, and a cap at each extremity whose rows to
    telomere triples stay live.  ICF-SEG never masks a row between two
    telomere triples, so the telomeres and emptied chromosomes stay."""
    paper = result.table
    index = real_index(paper)
    rows, capped = [], set()
    for k in result.live_rows:
        m1, e1, m2, e2 = paper.key(k)
        if m1 in index and m2 in index:
            rows.append((index[m1], e1, index[m2], e2, paper.mask[k]))
        elif m1 in index or m2 in index:
            m, e = (m1, e1) if m1 in index else (m2, e2)
            capped.add(3 * index[m] + e)
    columns = [IntArray(column) for column in zip(*rows)] if rows else [IntArray()] * 5
    facing = {code: faced for code, faced in table.facing.items() if code in capped}
    return ConservedAdjacencyTable(table.candidates, *columns, table.genomes, table.telomeres,
                                   table.emptied, facing)


def combined_rows(table, result, residual, solution) -> list[int]:
    """The rows of `table` that ICF-SEG's accepted runs (`result`, on the
    paper's table of `table`) and the solution of `residual` choose, found
    by key.  Runs hold no telomere triple, and the residual table indexes
    the candidates as `table` does."""
    row_of = {table.key(k): k for k in range(len(table))}
    index = real_index(result.table)
    rows = []
    for run in result.accepted:
        for r in run.internal_rows:
            m1, e1, m2, e2 = result.table.key(r)
            rows.append(row_of[(index[m1], e1, index[m2], e2)])
    rows += [row_of[residual.key(k)] for k in solution.row_indices]
    return sorted(rows)


def icf_seg_then_solve(G, table):
    """ICF-SEG on the paper's table of `table`, then the exact solve of the
    table it leaves (`residual_table`): the ICF-SEG result, the solution and
    the residual table.  The accepted runs' rows with the solution's rows,
    caps and y masks are checked together against `table`: no gene or
    extremity used by both, and their weights summing to the two objectives."""
    result = segments.icf_seg(G, paper_table(table))
    residual = residual_table(table, result)
    solution = solver.solve_branch_and_bound(solver.build_ilp(residual))
    solver.verify_solution(table, combined_rows(table, result, residual, solution),
                           result.accepted_weight + solution.objective,
                           solution.caps, solution.ys)
    return result, solution, residual


def evolved_instance(seed, n, chromosomes, family_rate, labels=("G", "H", "I"),
                     emptied=(0, 0, 0)):
    """Three genomes evolved from one ancestor, with their similarities.

    Each genome copies each ancestral gene as a paralog with probability
    `family_rate`, undergoes n/10 inversions, loses 5% of its genes and
    gains n/20 genes of its own, then is cut into `chromosomes` linear
    chromosomes.  Genome x then gains `emptied[x]` linear chromosomes of one
    gene that resembles nothing, so that preprocessing empties them.
    Orthologs and family members score U(0.4, 1); n/10 random pairs score
    U(0.2, 0.6); n/20 pairs name genes no genome has.
    """
    rng = random.Random(seed)
    names = [f"a{k:03d}" for k in range(n)]
    genomes, contents = [], {}
    for x, label in enumerate(labels):
        order = [(name, 1) for name in names]
        for name in names:
            if rng.random() < family_rate:
                order.insert(rng.randrange(len(order) + 1), (f"{name}p", rng.choice((1, -1))))
        for _ in range(n // 10):
            a, b = sorted(rng.sample(range(len(order) + 1), 2))
            order[a:b] = [(name, -o) for name, o in reversed(order[a:b])]
        order = [entry for entry in order if rng.random() >= 0.05]
        for k in range(n // 20):
            order.insert(rng.randrange(len(order) + 1), (f"z{label}{k}", 1))
        cuts = sorted(rng.sample(range(1, len(order)), chromosomes - 1))
        bounds = [0] + cuts + [len(order)]
        genomes.append(
            build_genome(
                label,
                [(f"c{k}", "linear", order[bounds[k] : bounds[k + 1]])
                 for k in range(chromosomes)]
                + [(f"e{k}", "linear", [(f"e{label}{k}", 1)]) for k in range(emptied[x])],
            )
        )
        contents[label] = [name for name, _ in order]
    sigma = SimilarityGraph()
    for x, lx in enumerate(labels):
        for ly in labels[x + 1 :]:
            family_y: dict[str, list[str]] = {}
            for name in contents[ly]:
                family_y.setdefault(name.rstrip("p"), []).append(name)
            for name in contents[lx]:
                for other in family_y.get(name.rstrip("p"), []):
                    set_similarity(sigma, Gene(lx, name), Gene(ly, other),
                                   round(rng.uniform(0.4, 1.0), 6))
            for _ in range(n // 10):
                set_similarity(
                    sigma,
                    Gene(lx, rng.choice(contents[lx])),
                    Gene(ly, rng.choice(contents[ly])),
                    round(rng.uniform(0.2, 0.6), 6),
                )
            for k in range(n // 20):
                set_similarity(sigma, Gene(lx, f"gone{k}"),
                               Gene(ly, rng.choice(contents[ly])), 0.5)
    return genomes, sigma


def milp_objective(table) -> float:
    """Optimum of the full 0-1 program by HiGHS's MILP solver.

    The rows are those `export_lp` writes, on the paper's table of `table`:
    one conflict row per extant gene, one coupling row per adjacency, one
    saturation row per candidate extremity.
    """
    table = paper_table(table)
    cands = table.candidates
    n_a, n_b = len(cands), len(table)
    rows, cols, vals, rhs = [], [], [], []

    def row(entries, limit):
        for col, val in entries:
            rows.append(len(rhs))
            cols.append(col)
            vals.append(val)
        rhs.append(limit)

    by_gene, by_ext = {}, {}
    for i, cand in enumerate(cands):
        for gene in cand.genes:
            by_gene.setdefault(gene, []).append(i)
    for members in by_gene.values():
        row([(i, 1.0) for i in members], 1.0)
    for k in range(n_b):
        m1, e1, m2, e2 = table.key(k)
        row([(n_a + k, 2.0), (m1, -1.0), (m2, -1.0)], 0.0)
        by_ext.setdefault((m1, e1), []).append(k)
        by_ext.setdefault((m2, e2), []).append(k)
    for incident in by_ext.values():
        row([(n_a + k, 1.0) for k in incident], 1.0)
    matrix = sp.csr_matrix((vals, (rows, cols)), shape=(len(rhs), n_a + n_b))
    res = milp(
        np.concatenate([np.zeros(n_a), -np.asarray(table.weight)]),
        constraints=LinearConstraint(matrix, -np.inf, rhs),
        integrality=np.ones(n_a + n_b),
        bounds=Bounds(0, 1),
        options={"mip_rel_gap": 0},
    )
    assert res.status == 0
    chosen = np.nonzero(res.x[n_a:] > 0.5)[0]
    assert set(table.genes(chosen)) <= set(np.nonzero(res.x[:n_a] > 0.5)[0].tolist())
    value = math.fsum(table.weight[k] for k in chosen.tolist())
    verify_solution(table, chosen, value)
    return value
