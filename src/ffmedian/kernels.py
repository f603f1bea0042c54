"""Enumeration kernels in plain Python: the triangle join and the adjacency pair scan.

The two kernels dominating runtime on large instances are the tripartite
triangle scan (candidate genes) and the per-extant-adjacency pair scan
(conserved candidate adjacencies).  Both work on integer gene and
candidate ids, and return `IntArray`s; the triangle scan reads only the
sparse similarity edges, so its cost follows the number of edges and
wedges, not the product of the genome sizes.  An edge or a table row is
one int key, `a << SHIFT | b`, so that sorting the keys sorts by (a, b).
"""
from __future__ import annotations

import array

SHIFT = 32  # a key packs two ids as a << SHIFT | b
LOW = (1 << SHIFT) - 1


class IntArray(array.array):
    """An int64 `array.array` that also answers numpy's `size` and `nbytes`."""

    def __new__(cls, values=()):
        return super().__new__(cls, "q", values)

    size = property(len)
    nbytes = property(lambda self: len(self) * self.itemsize)


# -- tripartite triangle scan ------------------------------------------------


def triangles(gh, gi, hi):
    """Triangles of a tripartite graph given as three sorted edge lists.

    Each argument holds one genome pair's edges as sorted keys
    `row << SHIFT | col`: `gh` has G rows and H cols, `gi` G rows and I
    cols, `hi` H rows and I cols.  Returns the positions (p, q, r) of the
    three edges of every triangle, so that triangle k is the genes (g, h,
    i) with gh[p] = (g, h), gi[q] = (g, i) and hi[r] = (h, i).  Triangles
    come in lexicographic (g, h, i) order.

    The gh edges are joined with the gi edges on g to form the wedges
    (g, h, i); a wedge is a triangle when (h, i) is an hi key.
    """
    at_g: dict[int, list[tuple[int, int]]] = {}
    for q, key in enumerate(gi):
        at_g.setdefault(key >> SHIFT, []).append((key & LOW, q))
    at_hi = {key: r for r, key in enumerate(hi)}
    ps, qs, rs = [], [], []
    for p, key in enumerate(gh):
        wedges = at_g.get(key >> SHIFT)
        if wedges is None:
            continue
        h = (key & LOW) << SHIFT
        for i, q in wedges:
            r = at_hi.get(h | i)
            if r is not None:
                ps.append(p)
                qs.append(q)
                rs.append(r)
    return IntArray(ps), IntArray(qs), IntArray(rs)


# -- conserved candidate adjacency scan --------------------------------------
#
# For one genome: every extant adjacency {x1^e1, x2^e2} is matched against
# the candidates on x1 and x2; non-conflicting candidate pairs are emitted
# as extremity codes 3 m + e.  End codes: 0 = tail, 1 = head, 2 = telomeric.


def conserved_pairs(ax1, ae1, ax2, ae2, on_gene, cg, ch, ci):
    """Candidate extremity pairs projecting onto one genome's adjacencies.

    Adjacency k joins end ae1[k] of gene ax1[k] to end ae2[k] of gene
    ax2[k]; `on_gene[x]` lists the candidates on gene x of this genome, and
    cg, ch and ci hold each candidate's three genes.  Each candidate m1 on
    ax1[k] pairs with each m2 on ax2[k] that shares no gene with it, and
    the pair is emitted as the codes (3 m1 + ae1[k], 3 m2 + ae2[k]): in
    adjacency order, then left, then right candidate.
    """
    first, second = [], []
    for x1, e1, x2, e2 in zip(ax1, ae1, ax2, ae2):
        right = on_gene[x2]
        if not right:
            continue
        for m1 in on_gene[x1]:
            g, h, i = cg[m1], ch[m1], ci[m1]
            for m2 in right:
                if g != cg[m2] and h != ch[m2] and i != ci[m2]:
                    first.append(3 * m1 + e1)
                    second.append(3 * m2 + e2)
    return IntArray(first), IntArray(second)


def merge_genome_pairs(per_genome):
    """Merge per-genome emissions into unique records with conservation bits.

    `per_genome` is a list of (first, second) extremity-code arrays, one
    per genome in order.  Returns (m1, e1, m2, e2, mask) sorted by (m1, e1,
    m2, e2) with canonical endpoint order and the conservation bitmask (bit
    k = genome k).
    """
    masks: dict[int, int] = {}
    for k, (first, second) in enumerate(per_genome):
        bit = 1 << k
        for a, b in zip(first, second):
            key = a << SHIFT | b if a < b else b << SHIFT | a
            masks[key] = masks.get(key, 0) | bit
    keys = sorted(masks)
    lo = [divmod(key >> SHIFT, 3) for key in keys]
    hi = [divmod(key & LOW, 3) for key in keys]
    return (IntArray([m for m, _ in lo]), IntArray([e for _, e in lo]),
            IntArray([m for m, _ in hi]), IntArray([e for _, e in hi]),
            IntArray([masks[key] for key in keys]))
