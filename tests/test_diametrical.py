from fractions import Fraction as F

import pytest

from umtk import (
    diametrical_graph,
    multipartite_parts,
    space_from_pairs,
)
from umtk.diametrical import graph_to_dot, partition_to_json
from umtk.errors import NotMultipartiteError, SpaceTooSmallError
from umtk.suites import rebuild_edges


def edge(a, b):
    return frozenset({a, b})


def test_diametrical_edges(ultra3):
    graph = diametrical_graph(ultra3)
    assert graph.edges == {edge("p", "q"), edge("p", "r")}


def test_two_point_space_single_edge():
    space = space_from_pairs(("x", "y"), {("x", "y"): F(5)})
    graph = diametrical_graph(space)
    assert graph.edges == {edge("x", "y")}
    parts = multipartite_parts(graph)
    assert parts.parts == (("x",), ("y",))


def test_blocks_cross_edges(blocks4):
    graph = diametrical_graph(blocks4)
    assert graph.edges == {
        edge("a", "c"),
        edge("a", "d"),
        edge("b", "c"),
        edge("b", "d"),
    }
    assert multipartite_parts(graph).parts == (("a", "b"), ("c", "d"))


def test_parts_of_ultra3(ultra3):
    parts = multipartite_parts(diametrical_graph(ultra3))
    assert parts.parts == (("p",), ("q", "r"))
    assert partition_to_json(parts) == {"parts": [["p"], ["q", "r"]]}


def test_non_multipartite(semi3):
    # only {a,c} realizes the diameter; the complement is connected, and the
    # single component fails the cross-edge requirement
    graph = diametrical_graph(semi3)
    assert graph.edges == {edge("a", "c")}
    with pytest.raises(NotMultipartiteError):
        multipartite_parts(graph)


def test_one_point_space_too_small():
    space = space_from_pairs(("x",), {})
    with pytest.raises(SpaceTooSmallError):
        diametrical_graph(space)


def test_rebuild_edges_round_trip(ultra3, blocks4, blocks5):
    for space in (ultra3, blocks4, blocks5):
        graph = diametrical_graph(space)
        parts = multipartite_parts(graph)
        assert rebuild_edges(parts) == graph.edges
        # parts cover the point set and are pairwise disjoint
        names = [p for part in parts.parts for p in part]
        assert sorted(names) == sorted(space.points)
        assert len(parts.parts) >= 2


def test_dot_output_is_stable(ultra3):
    dot = graph_to_dot(diametrical_graph(ultra3))
    assert dot == graph_to_dot(diametrical_graph(ultra3))
    assert dot.startswith("graph diametrical {")
    assert '"p" -- "q";' in dot
