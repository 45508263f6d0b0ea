"""Diametrical graphs and their complete-multipartite decomposition.

The diametrical graph joins the point pairs at the diameter; each point holds
one mask of its partners, read off its rank row. On an ultrametric space with
>= 2 points it is complete multipartite, and its parts are the components of
the complement. Points in different components are joined, so only an edge
inside a part can break the split.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import compress
from operator import or_

from .errors import NotMultipartiteError, SpaceTooSmallError
from .spaces import FiniteSemimetricSpace, dot_string


def _members(mask: int) -> list[int]:  # the set bits, ascending
    found = []
    while mask:
        found.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return found


@dataclass(frozen=True)
class DiametricalGraph:
    """Bit j of ``near[i]`` is set iff points i and j realize the diameter."""

    vertices: tuple[str, ...]
    near: tuple[int, ...]

    @cached_property
    def edges(self) -> frozenset[frozenset[str]]:
        pts = self.vertices
        return frozenset(frozenset((pts[i], pts[j]))
                         for i, mask in enumerate(self.near) for j in _members(mask) if j > i)

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
    if len(space) < 2:
        raise SpaceTooSmallError(len(space))
    top = len(space.spectrum) - 1  # the rank of the diameter
    binary = bytes.maketrans(b"\0\1", b"01")  # a reversed row as b"0"/b"1" text is its mask
    near = (int(bytes(map(top.__eq__, row[::-1])).translate(binary), 2) for row in space.ranks)
    return DiametricalGraph(space.points, tuple(near))


def multipartite_parts(graph: DiametricalGraph) -> MultipartitePartition:
    """The parts, or NotMultipartiteError naming the first defect. Each part
    grows from the first unvisited point by the frontier's non-partners."""
    verts, near = graph.vertices, graph.near
    unvisited, parts = (1 << len(verts)) - 1, []
    while unvisited:
        part = frontier = unvisited & -unvisited
        while frontier:
            unvisited &= ~frontier
            frontier = reduce(or_, [unvisited & ~near[u] for u in _members(frontier)])
            part |= frontier
        parts.append(part)
    if len(parts) < 2:
        raise NotMultipartiteError("graph has no complete multipartite split into >= 2 parts")
    for part in parts:
        if clash := [a for a in _members(part) if near[a] & part]:
            a = min(clash, key=verts.__getitem__)  # by symmetry its partners here sort after it
            b = min(verts[b] for b in _members(near[a] & part))
            raise NotMultipartiteError(f"edge inside a part: ({verts[a]!r}, {b!r})")
    named = sorted((sorted(verts[a] for a in _members(part)) for part in parts), key=lambda p: (len(p), p[0]))
    return MultipartitePartition(tuple(map(tuple, named)))


def partition_to_json(partition: MultipartitePartition) -> dict:
    return {"parts": [list(p) for p in partition.parts]}


def graph_to_dot(graph: DiametricalGraph) -> str:
    """Vertices by name, then the edges (a, b) with a < b in name order."""
    n = len(graph.vertices)
    order = sorted(range(n), key=graph.vertices.__getitem__)
    quoted = [dot_string(graph.vertices[i]) for i in order]
    lines = ["graph diametrical {", *(f"  {q};" for q in quoted)]
    binary = bytes.maketrans(b"01", b"\0\1")
    for k, a in enumerate(order):
        bits = format(graph.near[a], f"0{n}b")[::-1].encode().translate(binary)  # bits[j] is bit j
        later = compress(quoted[k + 1 :], map(bits.__getitem__, order[k + 1 :]))
        if edges := f";\n  {quoted[k]} -- ".join(later):  # one join per vertex; a quoted name is never ""
            lines.append(f"  {quoted[k]} -- {edges};")
    return "\n".join(lines) + "\n}\n"
