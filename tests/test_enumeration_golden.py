"""Golden values for candidate and conserved-adjacency enumeration.

Each case builds a seeded instance, enumerates its candidate genes and its
conserved candidate adjacencies, and compares a SHA-256 digest of every
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
        g, h, i, report = preprocess_discard_nonclique(*genomes, sigma)
        genomes = [g, h, i]
        removed = sum(len(v) for v in report.values())
    candidates = enumerate_candidates(*genomes, sigma)
    table = enumerate_conserved_adjacencies(candidates, *genomes)
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
    "call_order_IGH": (21, 269, 216, 800, "7429f97ab1c7af4c87680d380001b903016e54f55aabab7a414d396913088e34"),
    "families": (13, 135, 64, 394, "54f335c84aa815f2e414fdb240c2761c0a3ca8780db2cec78c2e4c05b799c78c"),
    "families_no_preprocess": (0, 70, 8, 202, "301d93261a1ad8fc10b109419f658afd9f4ad4f97684b427f6c1c6d73ee20b3f"),
    "labels_ZAM": (23, 113, 64, 320, "0b0bc8f295ac0fb7ad3f3c4ffcc1d37877ca967d9d4ba5e8999e85581eb57bf8"),
    "mis_reduction": (0, 436, 0, 77748, "ffcd79d2762733eb03792f0ec00405842f8333ef6113df06d13e34db3ef8bbbc"),
    "telomeric": (31, 265, 216, 688, "9bd73067e6cde54469d3ad9c410246f12fc9f7760a9e025deacf4b69b28aa75c"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_enumeration_matches_golden(case):
    build, preprocess = CASES[case]
    genomes, sigma = build()
    assert enumerate_case(genomes, sigma, preprocess) == GOLDEN[case]
