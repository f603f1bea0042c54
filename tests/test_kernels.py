"""The enumeration kernels against brute force over dense rebuilds.

The triangle join runs on random sparse edge lists, some of them empty, and
must return exactly the triangles, in the same lexicographic order, that a
loop over dense adjacency matrices rebuilt from those lists finds.  The
adjacency pair scan must emit exactly the pairs a plain loop emits, in the
same order, also with no adjacency, genes without candidates, long candidate
runs and adjacencies whose every pair is filtered out.
"""
import numpy as np
import pytest

from ffmedian import kernels

# seed -> genome pairs (0 = gh, 1 = gi, 2 = hi) left without any edge
EMPTY_PAIRS = {0: (0,), 1: (1,), 2: (2,), 3: (0, 1, 2)}


def random_edges(seed, sizes=(8, 7, 9)):
    """Sorted (2, m) edge lists for the gh, gi and hi genome pairs."""
    rng = np.random.default_rng(seed)
    ng, nh, ni = sizes
    out = []
    for k, (a, b) in enumerate(((ng, nh), (ng, ni), (nh, ni))):
        m = 0 if k in EMPTY_PAIRS.get(seed, ()) else int(rng.integers(0, a * b + 1))
        flat = np.sort(rng.choice(a * b, size=m, replace=False))
        out.append(np.stack(np.divmod(flat, b)).astype(np.int64))
    return out


def keys(edges):
    """A sorted (2, m) edge array as the keys `kernels.triangles` takes."""
    return kernels.IntArray((edges[0] << kernels.SHIFT | edges[1]).tolist())


def dense(edges, shape):
    mat = np.zeros(shape, dtype=bool)
    mat[edges[0], edges[1]] = True
    return mat


def brute_triangles(gh, gi, hi):
    out = []
    for g in range(gh.shape[0]):
        for h in range(gh.shape[1]):
            for i in range(gi.shape[1]):
                if gh[g, h] and gi[g, i] and hi[h, i]:
                    out.append((g, h, i))
    return out


@pytest.mark.parametrize("seed", range(10))
def test_triangles_match_bruteforce(seed):
    sizes = (8, 7, 9) if seed % 2 else (12, 10, 11)
    gh, gi, hi = random_edges(seed, sizes)
    ng, nh, ni = sizes
    p, q, r = (np.asarray(x, dtype=np.int64) for x in kernels.triangles(*map(keys, (gh, gi, hi))))
    got = list(zip(gh[0, p].tolist(), gh[1, p].tolist(), gi[1, q].tolist()))
    assert got == brute_triangles(
        dense(gh, (ng, nh)), dense(gi, (ng, ni)), dense(hi, (nh, ni))
    )
    np.testing.assert_array_equal(gi[0, q], gh[0, p])
    np.testing.assert_array_equal(hi[:, r], np.stack([gh[1, p], gi[1, q]]))


PAIR_SEEDS = range(32)


def random_pair_inputs(seed):
    """Scan inputs for genome slot 0; seed 0 has no adjacency, seed 1 no
    candidate, in seed 2 all candidates share their H gene, so that every
    pair is filtered out, and in seed 3 genes 0 and 1 hold runs of four
    candidates, gene 2 none, and every ordered pair of the three genes is
    an adjacency."""
    rng = np.random.default_rng(seed)
    n_genes = 3 if seed == 3 else int(rng.integers(1, 12))
    n_cands = 0 if seed == 1 else 8 if seed == 3 else int(rng.integers(1, 40))
    n_adj = 0 if seed == 0 else 9 if seed == 3 else int(rng.integers(1, 16))
    # candidates crowd onto the first genes: long CSR runs, and genes without any
    if seed == 3:
        cg = np.arange(n_cands) % 2
    else:
        cg = rng.integers(0, int(rng.integers(1, n_genes + 1)), n_cands)
    ch = np.zeros(n_cands, dtype=np.int64) if seed == 2 else rng.integers(0, n_genes, n_cands)
    ci = rng.integers(0, n_genes, n_cands)
    # CSR over genome-slot 0 (which candidate sits on which gene)
    order = np.argsort(cg, kind="stable")
    indptr = np.zeros(n_genes + 1, dtype=np.int64)
    np.cumsum(np.bincount(cg, minlength=n_genes), out=indptr[1:])
    if seed == 3:
        ax1, ax2 = np.divmod(np.arange(n_adj), n_genes)
    else:
        ax1 = rng.integers(0, n_genes, n_adj)
        ax2 = rng.integers(0, n_genes, n_adj)
    ae1 = rng.integers(0, 3, n_adj)
    ae2 = rng.integers(0, 3, n_adj)
    return ax1, ae1, ax2, ae2, indptr, order, cg, ch, ci


def brute_pairs(ax1, ae1, ax2, ae2, indptr, cand_ids, cg, ch, ci):
    out = []
    for k in range(len(ax1)):
        for m1 in cand_ids[indptr[ax1[k]] : indptr[ax1[k] + 1]]:
            for m2 in cand_ids[indptr[ax2[k]] : indptr[ax2[k] + 1]]:
                if m1 != m2 and cg[m1] != cg[m2] and ch[m1] != ch[m2] and ci[m1] != ci[m2]:
                    out.append((int(m1), int(ae1[k]), int(m2), int(ae2[k])))
    return out


@pytest.mark.parametrize("seed", PAIR_SEEDS)
def test_pairs_match_bruteforce(seed):
    args = random_pair_inputs(seed)
    ax1, ae1, ax2, ae2, indptr, cand_ids, cg, ch, ci = args
    on_gene = [cand_ids[indptr[x]:indptr[x + 1]].tolist() for x in range(indptr.size - 1)]
    first, second = kernels.conserved_pairs(
        *(a.tolist() for a in (ax1, ae1, ax2, ae2)), on_gene, *(a.tolist() for a in (cg, ch, ci))
    )
    got = [(*divmod(a, 3), *divmod(b, 3)) for a, b in zip(first, second)]
    assert got == brute_pairs(*args)


def codes(*rows):
    """(m1, e1, m2, e2) rows as the extremity codes `conserved_pairs` emits."""
    return [3 * m1 + e1 for m1, e1, _, _ in rows], [3 * m2 + e2 for _, _, m2, e2 in rows]


def test_merge_deduplicates_and_masks():
    genome0 = codes((0, 1, 2, 0), (0, 1, 2, 0))  # same record twice
    genome1 = codes((1, 0, 3, 1))
    out = kernels.merge_genome_pairs([genome0, genome1, codes()])
    lo, elo, hi, ehi, mask = out
    assert lo.tolist() == [0, 1]
    assert mask.tolist() == [1, 2]


def test_merge_canonicalizes_endpoint_order():
    # the same unordered pair reported from both sides collapses
    g0 = codes((5, 1, 2, 0))
    g1 = codes((2, 0, 5, 1))
    lo, elo, hi, ehi, mask = kernels.merge_genome_pairs([g0, g1, codes()])
    assert len(lo) == 1
    assert (lo[0], elo[0], hi[0], ehi[0]) == (2, 0, 5, 1)
    assert mask[0] == 0b011
