"""Golden values and a reference loop for ICF-SEG.

`test_icf_seg_matches_golden` builds seeded instances, runs `icf_seg` and
compares a SHA-256 digest of every accepted run (members, rows and the
exact weight) and of the final `cand_alive` and `row_alive` masks with a
recorded value.  A change to the accepted runs, to their order, or to the
candidates and rows they remove changes the digest.

`test_icf_seg_matches_restart_loop` runs a plain copy of the original
algorithm, which rescans every chromosome with the public `detect_runs`
after each accepted run, and asserts that `icf_seg` examines the same runs
in the same order, accepts the same ones and leaves the same masks.
`test_rescan_matches_fresh_scan` checks the partial rescan of the run scan
directly against a scan from scratch after random removals, on linear,
circular and mixed chromosomes, and `test_circular_rescan_is_local` checks
that a rescan of a circular chromosome grows only a few runs again.

The digests of the circular cases were recorded with the scan that kept a
separate whole-chromosome pass for circular chromosomes, so they pin the
runs the shared step chain must reproduce.
"""
from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest

from ffmedian.candidates import (
    enumerate_candidates,
    enumerate_conserved_adjacencies,
    preprocess_discard_nonclique,
)
from ffmedian.genomes import build_genome
from ffmedian.mis_reduction import random_bounded_graph, reduce_mis
from ffmedian import objects, segments
from ffmedian.objects import Gene, paper_table, set_similarity
from ffmedian.segments import (
    Incidence,
    SegmentConflictCapError,
    _edge_key,
    _RunScanner,
    detect_runs,
    icf_seg,
    mwm,
)

from conftest import (
    circular,
    diagonal_sigma,
    evolved_instance,
    identical_genomes,
    linear,
    random_blockish_instance,
    random_small_instance,
)


def digest(result) -> str:
    h = hashlib.sha256()
    for run in result.accepted:
        members = ",".join(map(str, run.members))
        rows = ",".join(map(str, run.internal_rows))
        h.update(f"{members}|{rows}|{run.circular}|{result.weight(run).hex()}\n".encode())
    h.update(np.packbits(result.cand_alive).tobytes())
    h.update(b"|")
    h.update(np.packbits(result.row_alive).tobytes())
    return h.hexdigest()


def tables(genomes, sigma, preprocess=True):
    """The genomes and the paper's candidates and table, which ICF-SEG reads."""
    if preprocess:
        g, h, i, _ = preprocess_discard_nonclique(*genomes, enumerate_candidates(*genomes, sigma))
        genomes = [g, h, i]
    table = paper_table(enumerate_conserved_adjacencies(enumerate_candidates(*genomes, sigma),
                                                        *genomes))
    return genomes, table.candidates, table


def permuted_order_case():
    genomes, sigma = evolved_instance(36, 120, 2, 0.1)
    g, h, i = genomes
    return tables([i, g, h], sigma)


def reshaped(genomes, circular_chromosomes):
    """The genomes with the named chromosomes made circular (their telomeres
    dropped) and the others kept linear."""
    return [
        build_genome(
            genome.label,
            [
                (chrom.name,
                 "circular" if chrom.name in circular_chromosomes else "linear",
                 [(gene.name, o) for gene, o in chrom.order if not gene.is_telomere])
                for chrom in objects.chromosomes(genome)
            ],
        )
        for genome in genomes
    ]


def circular_tables(seed, n, chromosomes, rate, circular_chromosomes=None):
    """An evolved instance with the named chromosomes circular, by default all."""
    genomes, sigma = evolved_instance(seed, n, chromosomes, rate)
    if circular_chromosomes is None:
        circular_chromosomes = {f"c{k}" for k in range(chromosomes)}
    return tables(reshaped(genomes, circular_chromosomes), sigma)


def circular_case():
    return circular_tables(38, 120, 2, 0.1)


def closed_circle_case():
    """Three identical 50-gene circles: one run that closes the circle."""
    return tables(*identical_genomes([f"a{k:02d}" for k in range(50)], "circular"))


def circle_across_origin_case():
    """H reverses a20..a29 and G starts at a40, so the first run that G's
    scan meets, a30..a49 a00..a19, wraps across position 0."""
    names = [f"a{k:02d}" for k in range(50)]
    forward = [(nm, 1) for nm in names]
    G = circular("G", forward[40:] + forward[:40])
    H = circular("H", forward[:20] + [(nm, -1) for nm in reversed(names[20:30])] + forward[30:])
    I = circular("I", forward)
    return tables([G, H, I], diagonal_sigma(names))


def mis_case():
    instance = reduce_mis(random_bounded_graph(7, 0.4, 2))
    return tables(list(instance.genomes), instance.sigma, preprocess=False)


CASES = {
    "c2_f0_n300": lambda: tables(*evolved_instance(31, 300, 2, 0.0)),
    "c3_f0_n200": lambda: tables(*evolved_instance(32, 200, 3, 0.0)),
    "c2_f0.1_n200": lambda: tables(*evolved_instance(33, 200, 2, 0.1)),
    "c3_f0.1_n150": lambda: tables(*evolved_instance(34, 150, 3, 0.1)),
    "c2_f0.2_n150": lambda: tables(*evolved_instance(35, 150, 2, 0.2)),
    "c3_f0.2_n100": lambda: tables(*evolved_instance(37, 100, 3, 0.2)),
    "call_order_IGH": permuted_order_case,
    "circular_c2_f0.1_n120": circular_case,
    "circular_c1_f0_n300": lambda: circular_tables(48, 300, 1, 0.0),
    "circular_c2_f0.2_n150": lambda: circular_tables(49, 150, 2, 0.2),
    "mixed_c2_f0.1_n150": lambda: circular_tables(50, 150, 2, 0.1, {"c0"}),
    "closed_circle_n50": closed_circle_case,
    "circle_across_origin": circle_across_origin_case,
    "mis_reduction": mis_case,
}

# (candidates, table rows, accepted runs, digest)
GOLDEN = {
    "c2_f0.1_n200": (286, 698, 26, "32f6438ef11631347da4f3fea308b4f67f350827d0bde02890af8d51ba8f01ba"),
    "c2_f0.2_n150": (281, 975, 8, "dae3ee797bb6beb461b1dfa06ad74ca8847ae28018691a43c02917605074a1d2"),
    "c2_f0_n300": (323, 592, 59, "95635d64aeaa7646e2f3adebaa6c3a4d2205cc013bcc220f91a332d78c76f0a9"),
    "c3_f0.1_n150": (379, 1057, 22, "3a4f3d6e92eb86bcaf835963558d5a262fe454c6b2aa3f297ab9924a4a18128d"),
    "c3_f0.2_n100": (362, 1357, 4, "9427a11f7d12c6f40c6e95b7600ce091a5347bc5afef7b6e5163d687fe65cdcf"),
    "c3_f0_n200": (383, 881, 41, "3c38a72b9b55d8b97196078390d04638b49f0ec495fdcd609cd98f1ac6d3dfa2"),
    "call_order_IGH": (208, 574, 12, "3c72800cc9664c086f7e4dc682625ff17895937260d05aef7317a44399887eb4"),
    "circle_across_origin": (50, 52, 2, "7a7b49223c4d2c709e3f1f12562844f044bc46c69d3f200af5ee007c8c8d5a56"),
    "circular_c1_f0_n300": (272, 426, 71, "cef4867e304addb81d82a98893c1930f89b7d1b91d72dc07f4bd39edea7675c0"),
    "circular_c2_f0.1_n120": (124, 270, 16, "2ef51115bae7091e7dfbc60de6f708b39959208e45d613b1925a3070c2f69807"),
    "circular_c2_f0.2_n150": (216, 692, 12, "8743043430c1a5bf8f51e3ba08a48a54d98e3db143d92da9221345103e07225d"),
    "closed_circle_n50": (50, 50, 1, "d3d655bb6ea721f167861b81b2b262fa0925125665e9bcf41b18a5af2c73d4a0"),
    "mixed_c2_f0.1_n150": (182, 443, 20, "ef5266465ef3ee3440ea187a0b42709a2cd9d00fb47389a0f8b687170552c1bb"),
    "mis_reduction": (236, 21376, 0, "56d76284ee0cdea7c9c55083121b3453baa6f84cd084b231cc073e62473b38a9"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_icf_seg_matches_golden(case):
    genomes, candidates, table = CASES[case]()
    result = icf_seg(genomes[0], table)
    assert (len(candidates), len(table), len(result.accepted), digest(result)) == GOLDEN[case]


# -- the original restart loop, kept as the reference -------------------------


def restart_loop(G, table):
    """ICF-SEG as first written: a fresh `detect_runs` after every acceptance.

    Calls `build_gamma_prime` through the module, as `icf_seg` does, so a
    test can record the runs either one examines.
    """
    cand_alive = np.ones(len(table.candidates), dtype=bool)
    row_alive = np.ones(len(table), dtype=bool)
    incidence = Incidence(table, cand_alive, row_alive)
    accepted = []
    observed: set[frozenset[int]] = set()
    locked: set[int] = set()
    progress = True
    while progress:
        progress = False
        runs = detect_runs(
            G, table,
            cand_alive=cand_alive, row_alive=row_alive, locked=locked,
        )
        for run in runs:
            if run.key in observed:
                continue
            observed.add(run.key)
            try:
                gamma_prime = segments.build_gamma_prime(run, incidence)
            except SegmentConflictCapError:
                continue
            internal = frozenset(
                _edge_key(3 * table.m1[r] + table.e1[r], 3 * table.m2[r] + table.e2[r])
                for r in run.internal_rows
            )
            if mwm(gamma_prime) != internal:
                continue
            weight = float(sum(table.weight[r] for r in run.internal_rows))
            accepted.append((run.members, tuple(run.internal_rows), run.circular, weight))
            used_exts = set()
            for r in run.internal_rows:
                m1, e1, m2, e2 = table.key(r)
                used_exts.update(((m1, e1), (m2, e2)))
            doomed = {
                c
                for m in run.members
                for c in incidence.conflicts_of(m)
                if cand_alive[c] and c not in run.members
            }
            for c in doomed:
                cand_alive[c] = False
            for k in np.nonzero(row_alive)[0]:
                m1, e1, m2, e2 = table.key(int(k))
                if m1 in doomed or m2 in doomed or (m1, e1) in used_exts or (m2, e2) in used_exts:
                    row_alive[k] = False
            locked.update(run.members)
            progress = True
            break
    return accepted, cand_alive, row_alive


def killed_member_case():
    """Accepting the run a-b kills (c, H:b, I:x), a member of the later run
    c-d, which sits past the chain's first resynchronization at e."""
    G = linear("G", [(nm, 1) for nm in "abecd"])
    H = linear("H", [(nm, 1) for nm in "abye"])
    I = linear("I", [(nm, 1) for nm in "abxze"])
    sigma = diagonal_sigma(["a", "b", "e"])
    for g, h, i in (("c", "b", "x"), ("d", "y", "z")):
        set_similarity(sigma, Gene("G", g), Gene("H", h), 0.5)
        set_similarity(sigma, Gene("G", g), Gene("I", i), 0.5)
        set_similarity(sigma, Gene("H", h), Gene("I", i), 0.5)
    return tables([G, H, I], sigma, preprocess=False)


def reference_cases():
    yield "killed_member", *killed_member_case()
    for seed in range(12):
        genomes, sigma, candidates = random_blockish_instance(seed)
        table = paper_table(enumerate_conserved_adjacencies(candidates, *genomes))
        yield f"blockish{seed}", genomes, table.candidates, table
    for seed in range(6):
        genomes, sigma, candidates = random_small_instance(seed)
        table = paper_table(enumerate_conserved_adjacencies(candidates, *genomes))
        yield f"small{seed}", genomes, table.candidates, table
    for seed, n, chromosomes, rate in (
        (41, 60, 1, 0.0), (42, 80, 2, 0.0), (43, 60, 3, 0.1),
        (44, 80, 2, 0.2), (45, 100, 1, 0.1), (46, 120, 2, 0.05),
        (104, 80, 2, 0.1), (113, 80, 2, 0.2), (125, 80, 3, 0.2),
    ):
        genomes, candidates, table = tables(*evolved_instance(seed, n, chromosomes, rate))
        yield f"evolved{seed}", genomes, candidates, table
    yield "circular", *circular_case()
    for seed, n, chromosomes, rate, circular_chromosomes in (
        (51, 60, 1, 0.0, None), (52, 80, 1, 0.1, None), (53, 100, 1, 0.2, None),
        (54, 80, 2, 0.0, None), (55, 60, 2, 0.1, None), (56, 80, 3, 0.2, None),
        (57, 80, 2, 0.0, {"c0"}), (58, 80, 2, 0.1, {"c1"}), (59, 60, 3, 0.2, {"c1"}),
        (60, 100, 2, 0.05, {"c0"}), (61, 80, 3, 0.1, {"c0", "c2"}),
        # accepting a later run shortens the circle's first run, which was
        # examined before: the walk must go back to the first step
        (2729, 28, 1, 0.3, None),
    ):
        yield f"circular{seed}", *circular_tables(seed, n, chromosomes, rate, circular_chromosomes)


def test_icf_seg_matches_restart_loop(monkeypatch):
    examined = []
    build = segments.build_gamma_prime

    def recording_build(run, *args, **kwargs):
        examined.append(run)
        return build(run, *args, **kwargs)

    monkeypatch.setattr(segments, "build_gamma_prime", recording_build)
    cases = 0
    for name, genomes, candidates, table in reference_cases():
        examined.clear()
        result = icf_seg(genomes[0], table)
        examined_incrementally = list(examined)
        examined.clear()
        accepted, cand_alive, row_alive = restart_loop(genomes[0], table)
        assert examined_incrementally == examined, name
        got = [
            (run.members, run.internal_rows, run.circular, result.weight(run))
            for run in result.accepted
        ]
        assert got == accepted, name
        assert np.array_equal(result.cand_alive, cand_alive), name
        assert np.array_equal(result.row_alive, row_alive), name
        cases += 1
    assert cases >= 20


@pytest.mark.parametrize("seed", range(24))
def test_rescan_matches_fresh_scan(seed):
    """Kill random candidates and mask their rows, a few at a time; after
    each round the rescanned steps equal those of a scan from scratch.

    Seeds 0-7 have linear chromosomes only, 8-15 circular ones only, and
    16-23 one circular chromosome beside linear ones.
    """
    rng = random.Random(seed)
    rate = (0.1, 0.3)[seed % 2]
    if seed < 8:
        genomes, candidates, table = tables(*evolved_instance(70 + seed, 60, 1 + seed % 3, rate))
    elif seed < 16:
        genomes, candidates, table = circular_tables(70 + seed, 60, 1 + seed % 3, rate)
    else:
        genomes, candidates, table = circular_tables(70 + seed, 60, 2 + seed % 2, rate, {"c0"})
    G = genomes[0]
    cand_alive = np.ones(len(candidates), dtype=bool)
    row_alive = np.ones(len(table), dtype=bool)
    scanner = _RunScanner(G, table, cand_alive, row_alive)
    chains = [scanner.scan(ci) for ci in range(len(objects.chromosomes(G)))]
    genic = [c for c in range(len(candidates)) if not candidates[c].is_telomere_triple]
    rng.shuffle(genic)
    rescans = 0
    while genic:
        killed = [genic.pop() for _ in range(min(len(genic), rng.randint(1, 3)))]
        cand_alive[killed] = False
        row_alive[np.isin(table.m1, killed) | np.isin(table.m2, killed)] = False
        for ci, positions in scanner.remove(killed).items():
            chains[ci], _ = scanner.rescan(ci, chains[ci], positions)
            rescans += 1
        fresh = _RunScanner(G, table, cand_alive, row_alive)
        assert chains == [fresh.scan(ci) for ci in range(len(objects.chromosomes(G)))]
    assert rescans > 20


def test_circular_rescan_is_local(monkeypatch):
    """Removing one candidate from a 400-gene circle regrows the first run
    and the steps whose window holds the change, not the whole circle."""
    genomes, candidates, table = circular_tables(62, 400, 1, 0.0)
    G = genomes[0]
    cand_alive = np.ones(len(candidates), dtype=bool)
    row_alive = np.ones(len(table), dtype=bool)
    scanner = _RunScanner(G, table, cand_alive, row_alive)
    old = scanner.scan(0)
    _, _, (g_ids, _) = G.walks[0]
    victim = scanner.by_g_gene[g_ids[200]][0]
    cand_alive[victim] = False
    row_alive[np.isin(table.m1, [victim]) | np.isin(table.m2, [victim])] = False
    assert (~row_alive).sum() > 0
    changed = scanner.remove([victim])
    assert changed == {0: [200]}

    grown = 0
    grow = _RunScanner._grow

    def counting_grow(self, *args):
        nonlocal grown
        grown += 1
        return grow(self, *args)

    monkeypatch.setattr(_RunScanner, "_grow", counting_grow)
    new, _ = scanner.rescan(0, old, changed[0])
    assert grown <= 5
    assert new == _RunScanner(G, table, cand_alive, row_alive).scan(0)
