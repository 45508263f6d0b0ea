"""Reference implementations that the fast ultrametric pipeline is tested against.

``diametrical_tree`` is the paper's construction of the representing tree:
the root is labeled with the diameter, and its children are the parts of the
diametrical graph's multipartite decomposition, built recursively on each
part. ``first_violating_triple`` scans every triple in point order. Both are
cubic or worse and exist only to check the O(n^2) pass.
"""
from __future__ import annotations

from umtk import diameter, diametrical_graph, multipartite_parts
from umtk.errors import NotUltrametricError
from umtk.reptree import RepNode, RepTree, leaf
from umtk.treecanon import canon_code_labeled


def first_violating_triple(space):
    """First (x, y, z) with d(x,y) > max(d(x,z), d(z,y)): pairs i<j, then z."""
    d, pts = space.dist, space.points
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                if k not in (i, j) and d[i][j] > max(d[i][k], d[k][j]):
                    return (pts[i], pts[j], pts[k])
    return None


def _sorted_leaf_points(node: RepNode) -> tuple[str, ...]:
    return tuple(sorted(n.point for n in RepTree(node).leaves()))


def diametrical_tree(space) -> RepTree:
    """Representing tree by recursive diametrical splitting. Children are
    ordered by labeled canonical code, then by sorted leaf point names."""
    violation = first_violating_triple(space)
    if violation is not None:
        raise NotUltrametricError(violation)

    def build(sub) -> RepNode:
        if len(sub) == 1:
            return leaf(sub.points[0])
        children = []
        for part in multipartite_parts(diametrical_graph(sub)).parts:
            children.append(leaf(part[0]) if len(part) == 1 else build(sub.restrict(part)))
        children.sort(
            key=lambda c: (canon_code_labeled(RepTree(c)), _sorted_leaf_points(c))
        )
        return RepNode(diameter(sub), tuple(children))

    return RepTree(build(space))
