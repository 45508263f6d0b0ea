"""The ballean, cover and search passes give exactly the reference outputs."""
import sys
from fractions import Fraction as F

import ballean_oracle as oracle

from umtk import (
    GenConfig,
    balls,
    enumerate_balls,
    hasse_diagram,
    hasse_digraph_iso,
    random_semimetric,
    random_ultrametric,
    renamed_copy,
)
from umtk.balls import HasseDiagram

WIDE_POOL = tuple(F(v) for v in range(1, 49))
TIED_POOL = (F(1), F(2), F(3))


def _triples(ballean):
    return [(b.members, b.center, b.radius) for b in ballean.balls]


def _search_both(h1, h2):
    # the reference search recurses once per vertex
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 2 * len(h1.vertices) + 200))
    try:
        expected = oracle.search_assignment(h1, h2)
    finally:
        sys.setrecursionlimit(limit)
    found = balls._search_assignment(h1, h2)
    return found, expected


def _check_against_oracle(space, seed):
    ballean = enumerate_balls(space)
    reference = oracle.enumerate_balls(space)
    assert _triples(ballean) == _triples(reference)
    diagram = hasse_diagram(ballean)
    reference_diagram = oracle.hasse_diagram(reference)
    assert diagram.vertices == reference_diagram.vertices
    assert diagram.arcs == reference_diagram.arcs
    copy, _ = renamed_copy(space, seed)
    found, expected = _search_both(diagram, hasse_diagram(enumerate_balls(copy)))
    assert expected is not None
    assert list(found.items()) == list(expected.items())


def test_small_spaces_match_the_oracle():
    checked = 0
    for seed in range(80):
        n = 1 + seed % 10
        for space in (
            random_semimetric(GenConfig(seed=seed, n=n, spectrum_pool=WIDE_POOL)),
            random_semimetric(GenConfig(seed=seed, n=n, spectrum_pool=TIED_POOL)),
            random_ultrametric(GenConfig(seed=seed, n=n)),
        ):
            _check_against_oracle(space, seed)
            checked += 1
    assert checked >= 200


def test_large_semimetrics_match_the_oracle():
    for n in (16, 24, 32, 40):
        space = random_semimetric(GenConfig(seed=n, n=n, spectrum_pool=WIDE_POOL))
        _check_against_oracle(space, seed=n)


def _pairs_order(groups):
    """Singletons and the pairs {x, y} of each group's cyclic neighbours:
    every singleton lies in two pairs, every pair over two singletons."""
    points = [p for group in groups for p in group]
    pairs = []
    for group in groups:
        for k, p in enumerate(group):
            pairs.append(frozenset({p, group[(k + 1) % len(group)]}))
    vertices = tuple(frozenset({p}) for p in points) + tuple(pairs)
    index = {v: i for i, v in enumerate(vertices)}
    arcs = frozenset(
        (index[frozenset({p})], index[pair]) for pair in pairs for p in pair
    )
    return HasseDiagram(vertices, arcs)


def test_search_exhausts_where_refinement_cannot_tell():
    # a 12-cycle against two 6-cycles: colour refinement keeps one class per
    # layer on both sides, so only backtracking finds there is no map
    cycle = _pairs_order([tuple("abcdef")])
    two_cycles = _pairs_order([tuple("abc"), tuple("def")])
    assert balls._joint_refine(cycle, two_cycles) is not None
    found, expected = _search_both(cycle, two_cycles)
    assert found is None and expected is None
    assert hasse_digraph_iso(cycle, two_cycles) is None
    found, expected = _search_both(two_cycles, two_cycles)
    assert list(found.items()) == list(expected.items())
