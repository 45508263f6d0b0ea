"""Reference implementations that the fast ultrametric pipeline is tested against.

``diametrical_tree`` is the paper's construction of the representing tree:
the root is labeled with the diameter, and its children are the parts of the
diametrical graph's multipartite decomposition, built recursively on each
part. ``first_violating_triple`` scans every triple in point order, and
``prim_violating_triple`` replays the Prim pass on the distances themselves.
All are cubic or worse and exist only to check the O(n^2) pass.
"""
from __future__ import annotations

from umtk import diameter, diametrical_graph, multipartite_parts
from umtk.errors import NotUltrametricError
from umtk.reptree import RepNode, RepTree
from umtk.treecanon import canon_code_labeled

from tree_oracle import leaf, tree_of
from validation_oracle import distances


def first_violating_triple(space):
    """First (x, y, z) with d(x,y) > max(d(x,z), d(z,y)): pairs i<j, then z."""
    d, pts = distances(space), space.points
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                if k not in (i, j) and d[i][j] > max(d[i][k], d[k][j]):
                    return (pts[i], pts[j], pts[k])
    return None


def prim_violating_triple(space):
    """The triple ``ultrametric_violation`` reports, or None, from a plain
    Prim pass over the Fraction matrix. The lowest-indexed vertex v nearest
    to the tree joins through the first tree vertex p at that weight w; at
    the first tree vertex u with d(v,u) != max(w, d(p,u)) the triple is
    (v, u, p) if d(v,u) is the larger side, else (p, u, v)."""
    d, pts = distances(space), space.points
    tree = [0]
    while len(tree) < len(pts):
        out = [v for v in range(len(pts)) if v not in tree]
        w = min(d[t][v] for t in tree for v in out)
        v = min(v for v in out if min(d[t][v] for t in tree) == w)
        p = next(t for t in tree if d[t][v] == w)
        for u in tree:
            if d[v][u] > max(w, d[p][u]):
                return (pts[v], pts[u], pts[p])
            if d[v][u] < max(w, d[p][u]):
                return (pts[p], pts[u], pts[v])
        tree.append(v)
    return None


def _sorted_leaf_points(node: RepNode) -> tuple[str, ...]:
    return tuple(sorted(tree_of(node).leaf_points()))


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
            key=lambda c: (canon_code_labeled(tree_of(c)), _sorted_leaf_points(c))
        )
        return RepNode(diameter(sub), tuple(children))

    return tree_of(build(space))
