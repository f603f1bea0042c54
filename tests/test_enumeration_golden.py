"""Golden values for candidate and conserved-adjacency enumeration.

Each case builds a seeded instance, enumerates its candidate genes and its
conserved candidate adjacencies, rebuilds the paper's table of them, with
its telomere triples (`objects.paper_table`), and compares a SHA-256 digest
of every
candidate (genes, exact `triple_score` and `gene_score`) and of the table
arrays (`m1, e1, m2, e2, mask` and the exact `weight`) with a recorded
value.  Any change to the enumeration order, to the candidate set or to a
single bit of a score changes the digest.

The cases cover telomere triples from several linear chromosomes, gene
families, a preprocess that removes genes, genomes passed in an order other
than their label order, and an MIS-reduction instance (circular only).
"""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

from ffmedian.candidates import (
    enumerate_candidates,
    enumerate_conserved_adjacencies,
    preprocess_discard_nonclique,
)
from ffmedian.mis_reduction import random_bounded_graph, reduce_mis
from ffmedian.objects import paper_table

from conftest import evolved_instance


def digest(candidates, table) -> str:
    h = hashlib.sha256()
    for c in candidates:
        h.update(
            f"{c.g}|{c.h}|{c.i}|{c.triple_score.hex()}|{c.gene_score.hex()}\n".encode()
        )
    for name in ("m1", "e1", "m2", "e2", "mask"):
        h.update(name.encode())
        h.update(np.ascontiguousarray(getattr(table, name), dtype=np.int64).tobytes())
    h.update(b"weight")
    h.update(np.ascontiguousarray(table.weight, dtype=np.float64).tobytes())
    return h.hexdigest()


def enumerate_case(genomes, sigma, preprocess):
    removed = 0
    if preprocess:
        candidates = enumerate_candidates(*genomes, sigma)
        g, h, i, report = preprocess_discard_nonclique(*genomes, candidates)
        genomes = [g, h, i]
        removed = sum(len(v) for v in report.values())
    table = paper_table(enumerate_conserved_adjacencies(enumerate_candidates(*genomes, sigma),
                                                        *genomes))
    candidates = table.candidates
    telomeric = sum(c.is_telomere_triple for c in candidates)
    return (removed, len(candidates), telomeric, len(table), digest(candidates, table))


def permuted_order_case():
    genomes, sigma = evolved_instance(14, 50, 3, 0.1)
    g, h, i = genomes
    return [i, g, h], sigma


def mis_case():
    instance = reduce_mis(random_bounded_graph(9, 0.4, 3))
    return list(instance.genomes), instance.sigma


CASES = {
    "telomeric": (lambda: evolved_instance(11, 60, 3, 0.0), True),
    "families": (lambda: evolved_instance(12, 50, 2, 0.15), True),
    "families_no_preprocess": (lambda: evolved_instance(13, 40, 1, 0.2), False),
    "call_order_IGH": (permuted_order_case, True),
    "labels_ZAM": (lambda: evolved_instance(15, 50, 2, 0.1, labels=("Z", "A", "M")), True),
    "mis_reduction": (mis_case, False),
}

# (removed genes, candidates, telomere triples, table rows, digest)
GOLDEN = {
    "call_order_IGH": (21, 269, 216, 800, "e2677a34a73e941e7de4e5bf2a9e3f2b92aedf5e94b88f8baff650e267c54b7f"),
    "families": (13, 135, 64, 394, "55732dbf63be65df85591d1c646f0221c2c343473359a9de56f9ef1affe52a9c"),
    "families_no_preprocess": (0, 70, 8, 202, "5d5ed6845f77c252786e94dd477341210d44b2e9bcc8d974a3311093a8cda2c2"),
    "labels_ZAM": (23, 113, 64, 320, "21e1c01036a5e93381401297d81ab1eb5cdf9e193f2b4fe17dbfffc8fdd6bdb0"),
    "mis_reduction": (0, 440, 0, 79316, "4e01d46bad441ba1e9f62c40d1606c573011fd63c6535e97c3c1baff79226ef3"),
    "telomeric": (31, 265, 216, 688, "22388dbba5eb6e2e0ca2d7ed2f5845d17f120de995e22ae7aea1ce899dc44268"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_enumeration_matches_golden(case):
    build, preprocess = CASES[case]
    genomes, sigma = build()
    assert enumerate_case(genomes, sigma, preprocess) == GOLDEN[case]
