"""Symmetric spaces on which the matching searches do the most work.

Most are {1, 2}-spaces of graphs: distance 1 across an edge and 2
elsewhere, so the automorphisms of the graph are the isometries of the
space. ``cycle(n)`` is Cₙ, ``circulant(n, jumps)`` joins each point a to
a ± s for every s in ``jumps``, ``complete_multipartite(3, 3, 3)`` is
K₃,₃,₃, and ``cycles(k)`` is 2·Cₖ, which refinement cannot tell from C₂ₖ.
``tree_space(k)`` is the ultrametric space Tₖ of a tree whose root (label
4) has k children (label 3) with two children each (label 2), and under
each of those one leaf and one cherry (label 1), so n = 6k. Every
builder returns a ``FiniteSemimetricSpace`` on the points p0, p1, ....
"""
from __future__ import annotations

from fractions import Fraction as F

from umtk import space_from_pairs


def graph_space(n, edges):
    """The {1, 2}-space of the graph on points 0..n-1 with the given edges,
    each an index pair in either order."""
    joined = {frozenset(edge) for edge in edges}
    pts = tuple(f"p{k}" for k in range(n))
    return space_from_pairs(
        pts, {(pts[a], pts[b]): F(1 if {a, b} in joined else 2) for a in range(n) for b in range(a + 1, n)}
    )


def circulant(n, jumps):
    return graph_space(n, [(a, (a + s) % n) for a in range(n) for s in jumps])


def cycle(n):
    return circulant(n, (1,))


def cycles(k):
    """2·Cₖ: two disjoint k-cycles, the second on points k..2k-1."""
    return graph_space(2 * k, [(c + a, c + (a + 1) % k) for c in (0, k) for a in range(k)])


def complete_multipartite(*sizes):
    part = [p for p, size in enumerate(sizes) for _ in range(size)]
    n = len(part)
    return graph_space(n, [(a, b) for a in range(n) for b in range(a + 1, n) if part[a] != part[b]])


def tree_space(k):
    """Tₖ: point (c, g, s) is leaf s of grandchild g of child c, where s = 0
    is the grandchild's own leaf and s = 1, 2 are its cherry's leaves; the
    distance of two points is the label of their lowest common ancestor."""
    leaves = [(c, g, s) for c in range(k) for g in range(2) for s in range(3)]
    pts = tuple(f"p{i}" for i in range(len(leaves)))

    def label(u, v):
        if u[0] != v[0]:
            return 4
        if u[1] != v[1]:
            return 3
        return 1 if u[2] and v[2] else 2

    return space_from_pairs(
        pts,
        {(pts[a], pts[b]): F(label(leaves[a], leaves[b])) for a in range(len(pts)) for b in range(a + 1, len(pts))},
    )
