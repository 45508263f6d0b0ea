"""Reference implementations that the fast ultrametric pipeline is tested against.

``diametrical_tree`` is the paper's construction of the representing tree:
the root is labeled with the diameter, and its children are the parts of the
diametrical graph's multipartite decomposition, built recursively on each
part. ``first_violating_triple`` scans every triple in point order, and
``sorted_row_violating_triple`` replays the certificate's naming rule on
the distances themselves, with plain loops. They exist only to check the
O(n^2) pass.

``DiametricalGraph``, ``diametrical_graph``, ``multipartite_parts`` and
``graph_to_dot`` are the name-set reference for ``umtk.diametrical``'s
partner masks: one frozenset per edge, a complement search that asks
``has_edge`` per pair, and a pair-by-pair check of the whole decomposition,
cross-part pairs included.
"""
from __future__ import annotations

from dataclasses import dataclass

import umtk
from umtk import diameter
from umtk.diametrical import MultipartitePartition
from umtk.errors import NotMultipartiteError, NotUltrametricError, SpaceTooSmallError
from umtk.reptree import RepNode, RepTree
from umtk.spaces import FiniteSemimetricSpace, dot_string
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


def sorted_row_violating_triple(space):
    """The triple ``ultrametric_violation`` reports, or None, replayed on the
    Fraction matrix (see ``named_triple``)."""
    return named_triple(distances(space), space.points)


def named_triple(d, points):
    """The naming rule on a matrix of comparable distances. The pairs are
    tried in order: point 0 and the lowest-indexed point at its least
    distance, then each pair of neighbours once the points are sorted by
    their rows. The first pair (x, z) whose rows differ at a column c where
    max(d(x,z), d(x,c)) != max(d(x,z), d(z,c)), c the first such column,
    gives (x, c, z), x the row with the larger entry at c; None if no pair
    does."""
    n = len(d)
    pairs = []
    if n > 2:
        nearest = min(d[0][1:])
        pairs.append((0, d[0].index(nearest)))
    order = sorted(range(n), key=d.__getitem__)
    pairs += zip(order, order[1:])
    for x, z in pairs:
        a = d[x][z]
        for c in range(n):
            if max(a, d[x][c]) != max(a, d[z][c]):
                if d[x][c] < d[z][c]:
                    x, z = z, x
                return (points[x], points[c], points[z])
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
        for part in umtk.multipartite_parts(umtk.diametrical_graph(sub)).parts:
            children.append(leaf(part[0]) if len(part) == 1 else build(sub.restrict(part)))
        children.sort(
            key=lambda c: (canon_code_labeled(tree_of(c)), _sorted_leaf_points(c))
        )
        return RepNode(diameter(sub), tuple(children))

    return tree_of(build(space))


@dataclass(frozen=True)
class DiametricalGraph:
    vertices: tuple[str, ...]
    edges: frozenset[frozenset[str]]

    def has_edge(self, u: str, v: str) -> bool:
        return frozenset((u, v)) in self.edges

    def sorted_edges(self) -> list[tuple[str, str]]:
        return sorted(tuple(sorted(e)) for e in self.edges)


def diametrical_graph(space: FiniteSemimetricSpace) -> DiametricalGraph:
    """Graph on the points whose edges are the pairs at distance diam(X)."""
    n = len(space)
    if n < 2:
        raise SpaceTooSmallError(n)
    top = len(space.spectrum) - 1  # the rank of the diameter
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if space.ranks[i][j] == top:
                edges.add(frozenset((space.points[i], space.points[j])))
    return DiametricalGraph(space.points, frozenset(edges))


def multipartite_parts(graph: DiametricalGraph) -> MultipartitePartition:
    """Decompose a complete multipartite graph into its parts, or raise.

    Parts are the connected components of the complement graph. The
    decomposition is then checked in full: every intra-part pair must be a
    non-edge and every cross-part pair an edge, and there must be at least
    two parts. Any failure raises NotMultipartiteError.
    """
    verts = graph.vertices
    unvisited = set(verts)
    parts: list[list[str]] = []
    while unvisited:
        start = next(v for v in verts if v in unvisited)
        comp = {start}
        frontier = [start]
        unvisited.discard(start)
        while frontier:
            u = frontier.pop()
            for v in list(unvisited):
                if not graph.has_edge(u, v):
                    unvisited.discard(v)
                    comp.add(v)
                    frontier.append(v)
        parts.append(sorted(comp))

    if len(parts) < 2:
        raise NotMultipartiteError("graph has no complete multipartite split into >= 2 parts")
    for part in parts:
        for a in part:
            for b in part:
                if a < b and graph.has_edge(a, b):
                    raise NotMultipartiteError(f"edge inside a part: ({a!r}, {b!r})")
    for i, pa in enumerate(parts):
        for pb in parts[i + 1 :]:
            for a in pa:
                for b in pb:
                    if not graph.has_edge(a, b):
                        raise NotMultipartiteError(f"missing cross edge: ({a!r}, {b!r})")

    ordered = tuple(tuple(p) for p in sorted(parts, key=lambda p: (len(p), p[0])))
    return MultipartitePartition(ordered)


def graph_to_dot(graph: DiametricalGraph) -> str:
    lines = ["graph diametrical {"]
    for v in sorted(graph.vertices):
        lines.append(f"  {dot_string(v)};")
    for a, b in graph.sorted_edges():
        lines.append(f"  {dot_string(a)} -- {dot_string(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
