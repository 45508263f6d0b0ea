"""Diametrical graphs and their complete-multipartite decomposition.

The diametrical graph joins exactly the point pairs realizing the diameter.
For an ultrametric space with >= 2 points that graph is complete multipartite;
``multipartite_parts`` recovers the parts as the connected components of the
complement and then *verifies* the decomposition pair-by-pair, so it is total:
on an arbitrary graph it either returns a certified partition or raises
NotMultipartiteError.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import NotMultipartiteError, SpaceTooSmallError
from .spaces import FiniteSemimetricSpace, dot_string


@dataclass(frozen=True)
class DiametricalGraph:
    vertices: tuple[str, ...]
    edges: frozenset[frozenset[str]]

    def has_edge(self, u: str, v: str) -> bool:
        return frozenset((u, v)) in self.edges

    def sorted_edges(self) -> list[tuple[str, str]]:
        return sorted(tuple(sorted(e)) for e in self.edges)


@dataclass(frozen=True)
class MultipartitePartition:
    """Parts sorted by (size, smallest member name); members sorted by name."""

    parts: tuple[tuple[str, ...], ...]


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


def partition_to_json(partition: MultipartitePartition) -> dict:
    return {"parts": [list(p) for p in partition.parts]}


def graph_to_dot(graph: DiametricalGraph) -> str:
    lines = ["graph diametrical {"]
    for v in sorted(graph.vertices):
        lines.append(f"  {dot_string(v)};")
    for a, b in graph.sorted_edges():
        lines.append(f"  {dot_string(a)} -- {dot_string(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
