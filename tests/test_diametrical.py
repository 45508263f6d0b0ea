import random
from collections import Counter
from fractions import Fraction as F
from itertools import combinations, product

import pytest

import diametrical_oracle as oracle
from umtk import (
    DiametricalGraph,
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
    # only {a,c} realizes the diameter; the complement is connected, so
    # there is one part where at least two are needed
    graph = diametrical_graph(semi3)
    assert graph.edges == {edge("a", "c")}
    with pytest.raises(NotMultipartiteError) as caught:
        multipartite_parts(graph)
    assert str(caught.value) == "graph has no complete multipartite split into >= 2 parts"
    # the diameter pairs are a-c, a-d, b-d and c-d: the complement joins a-b
    # and b-c, so {a, b, c} is one part and holds the edge a-c
    far = {("a", "c"), ("a", "d"), ("b", "d"), ("c", "d")}
    space = space_from_pairs(tuple("abcd"), {(p, q): F(2 if (p, q) in far else 1) for p, q in combinations("abcd", 2)})
    with pytest.raises(NotMultipartiteError) as caught:
        multipartite_parts(diametrical_graph(space))
    assert str(caught.value) == "edge inside a part: ('a', 'c')"


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


NAMES = ("", "a", "b", "a,b", ",", 'q"r', "s\\", "\\t", "é", "點", "{", "}", "%", "z\n")


def _random_graph(rng: random.Random) -> tuple[tuple[str, ...], set[tuple[int, int]]]:
    """Names and edges (i < j): complete multipartite, perturbed or not, or uniform."""
    n = rng.randrange(0, 10)
    names = tuple(rng.sample(NAMES, n))
    pairs = list(combinations(range(n), 2))
    if rng.random() < 0.6:
        side = [rng.randrange(rng.randint(1, n + 1)) for _ in range(n)]
        edges = {(i, j) for i, j in pairs if side[i] != side[j]}
        if rng.random() < 0.5 and pairs:
            edges ^= set(rng.sample(pairs, rng.randint(1, min(3, len(pairs)))))
    else:
        p = rng.random()
        edges = {pair for pair in pairs if rng.random() < p}
    return names, edges


def _outcome(parts, graph):
    try:
        return parts(graph)
    except NotMultipartiteError as exc:
        return str(exc)


def test_masks_match_the_name_set_reference():
    rng = random.Random(21)
    outcomes = Counter()
    for _ in range(1200):
        names, pairs = _random_graph(rng)
        near = [0] * len(names)
        for i, j in pairs:
            near[i] |= 1 << j
            near[j] |= 1 << i
        graph = DiametricalGraph(names, tuple(near))
        reference = oracle.DiametricalGraph(names, frozenset(frozenset((names[i], names[j])) for i, j in pairs))
        if len(names) >= 2 and pairs:
            # distance 2 on the edges and 1 elsewhere makes them the diameter pairs
            space = space_from_pairs(names, {(names[i], names[j]): F(1 + ((i, j) in pairs))
                                             for i, j in combinations(range(len(names)), 2)})
            assert diametrical_graph(space) == graph
            assert oracle.diametrical_graph(space) == reference
        assert graph.edges == reference.edges
        assert graph.sorted_edges() == reference.sorted_edges()
        for u, v in product((*names, "absent"), repeat=2):
            assert graph.has_edge(u, v) == reference.has_edge(u, v)
        assert graph_to_dot(graph) == oracle.graph_to_dot(reference)
        got = _outcome(multipartite_parts, graph)
        assert got == _outcome(oracle.multipartite_parts, reference)
        outcomes[got if isinstance(got, str) else "parts"] += 1
    # every outcome occurs; the reference's cross-edge check never fires
    assert outcomes["parts"] > 100
    assert outcomes["graph has no complete multipartite split into >= 2 parts"] > 100
    assert sum(v for k, v in outcomes.items() if k.startswith("edge inside a part")) > 100
    assert not any(k.startswith("missing cross edge") for k in outcomes)
