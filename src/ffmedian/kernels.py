"""Enumeration kernels in numpy: the triangle join and the adjacency pair scan.

The two kernels dominating runtime on large instances are the tripartite
triangle scan (candidate genes) and the per-extant-adjacency pair scan
(conserved candidate adjacencies).  Both work on integer index arrays; the
triangle scan reads only the sparse similarity edges, so its cost follows
the number of edges and wedges, not the product of the genome sizes.
"""
from __future__ import annotations

import numpy as np


# -- tripartite triangle scan ------------------------------------------------


def triangles(gh: np.ndarray, gi: np.ndarray, hi: np.ndarray):
    """Triangles of a tripartite graph given as three sorted edge lists.

    Each argument is an int64 array of shape (2, m) holding the (row, col)
    endpoints of one genome pair's edges, sorted by (row, col): `gh` has
    G rows and H cols, `gi` G rows and I cols, `hi` H rows and I cols.
    Returns the positions (p, q, r) of the three edges of every triangle,
    so that triangle k is (g, h, i) = (gh[0, p], gh[1, p], gi[1, q]) with
    gi[0, q] = g, hi[:, r] = (h, i).  Triangles come in lexicographic
    (g, h, i) order.

    The gh edges are joined with the gi edges on g to form the wedges
    (g, h, i); a wedge is a triangle when (h, i) is an hi edge, found by
    binary search in the sorted hi keys.
    """
    gh, gi, hi = (np.asarray(e, dtype=np.int64).reshape(2, -1) for e in (gh, gi, hi))
    start = np.searchsorted(gi[0], gh[0], side="left")
    count = np.searchsorted(gi[0], gh[0], side="right") - start
    total = int(count.sum())
    p = np.repeat(np.arange(gh.shape[1], dtype=np.int64), count)
    first = np.cumsum(count) - count
    q = np.arange(total, dtype=np.int64) - np.repeat(first - start, count)
    hi_keys = hi[0] << 32 | hi[1]
    wedge_keys = gh[1, p] << 32 | gi[1, q]
    r = np.searchsorted(hi_keys, wedge_keys)
    hit = r < hi_keys.size
    hit[hit] = hi_keys[r[hit]] == wedge_keys[hit]
    return p[hit], q[hit], r[hit]


# -- conserved candidate adjacency scan --------------------------------------
#
# For one genome: every extant adjacency {x1^e1, x2^e2} is matched against
# the candidates projecting onto x1 and x2 (CSR lists per extant gene);
# non-conflicting distinct candidate pairs are emitted as extremity pairs.
# End codes: 0 = tail, 1 = head, 2 = telomeric.


def conserved_pairs(ax1, ae1, ax2, ae2, indptr, cand_ids, cg, ch, ci):
    """Candidate extremity pairs projecting onto one genome's adjacencies.

    Adjacency k pairs each of the nl[k] candidates on gene ax1[k] with each
    of the nr[k] candidates on gene ax2[k]: the nl*nr block of k is laid
    out left-major, so pairs come in adjacency order, then left, then right
    candidate, as a loop over the adjacencies would emit them.
    """
    ax1, ae1, ax2, ae2, indptr, cand_ids, cg, ch, ci = (
        np.ascontiguousarray(a, dtype=np.int64)
        for a in (ax1, ae1, ax2, ae2, indptr, cand_ids, cg, ch, ci)
    )
    l0, r0 = indptr[ax1], indptr[ax2]
    nr = indptr[ax2 + 1] - r0
    size = (indptr[ax1 + 1] - l0) * nr
    adj = np.repeat(np.arange(ax1.size, dtype=np.int64), size)
    # arrays as long as all blocks together: filled in place, dropped once used
    j = np.arange(adj.size, dtype=np.int64)
    j -= np.repeat(np.cumsum(size) - size, size)
    left, j = np.divmod(j, nr[adj])
    left += l0[adj]
    j += r0[adj]
    m1, m2 = cand_ids[left], cand_ids[j]
    del left, j
    keep = (m1 != m2) & (cg[m1] != cg[m2])
    keep &= (ch[m1] != ch[m2]) & (ci[m1] != ci[m2])
    adj = adj[keep]
    return m1[keep], ae1[adj], m2[keep], ae2[adj]


def merge_genome_pairs(per_genome):
    """Merge per-genome emissions into unique records with conservation bits.

    `per_genome` is a list of (m1, e1, m2, e2) tuples, one per genome in
    order.  Returns (m1, e1, m2, e2, mask) sorted by (m1, e1, m2, e2) with
    canonical endpoint order and the conservation bitmask (bit k = genome k).
    """
    keys, bits = [], []
    for k, (m1, e1, m2, e2) in enumerate(per_genome):
        if m1.size == 0:
            continue
        a = m1 * 3 + e1
        b = m2 * 3 + e2
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        keys.append(lo.astype(np.int64) << 32 | hi.astype(np.int64))
        bits.append(np.full(lo.size, 1 << k, dtype=np.int64))
    if not keys:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy(), empty.copy(), empty.copy()
    key = np.concatenate(keys)
    bit = np.concatenate(bits)
    order = np.argsort(key, kind="stable")
    key, bit = key[order], bit[order]
    boundaries = np.empty(key.size, dtype=bool)
    boundaries[0] = True
    boundaries[1:] = key[1:] != key[:-1]
    starts = np.nonzero(boundaries)[0]
    mask = np.bitwise_or.reduceat(bit, starts)
    ukey = key[starts]
    lo = ukey >> 32
    hi = ukey & 0xFFFFFFFF
    return lo // 3, lo % 3, hi // 3, hi % 3, mask
