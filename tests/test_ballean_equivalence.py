"""The ballean, cover, refinement, search and verification passes give
exactly the reference outputs."""
import random
import sys
from fractions import Fraction as F
from itertools import combinations

import ballean_oracle as oracle
import pytest

from umtk import (
    GenConfig,
    ball_preserving_bijection,
    balls,
    enumerate_balls,
    hasse_diagram,
    hasse_digraph_iso,
    oracle_ball_preserving,
    random_relabeled,
    random_semimetric,
    random_ultrametric,
    rank_relabel,
    renamed_copy,
    space_from_pairs,
    verify_ball_preserving,
)
from umtk.balls import HasseDiagram

WIDE_POOL = tuple(F(v) for v in range(1, 49))
TIED_POOL = (F(1), F(2), F(3))


def _triples(ballean):
    return [(b.members, b.center, b.radius) for b in ballean.balls]


def _partition(colors):
    """The joint colour classes as a set of (side, vertex) sets."""
    classes = {}
    for side, side_colors in enumerate(colors):
        for v, color in enumerate(side_colors):
            classes.setdefault(color, set()).add((side, v))
    return {frozenset(members) for members in classes.values()}


def _search_both(h1, h2):
    # the reference search recurses once per vertex
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 2 * len(h1.vertices) + 200))
    try:
        expected = oracle.search_assignment(h1, h2)
    finally:
        sys.setrecursionlimit(limit)
    found = balls._search_assignment(h1, h2, [set(near) for near in h2.succs])
    return found, expected


def _check_against_oracle(space, seed):
    ballean = enumerate_balls(space)
    reference = oracle.enumerate_balls(space)
    assert _triples(ballean) == reference
    diagram = hasse_diagram(ballean)
    reference_diagram = oracle.hasse_diagram(members for members, _, _ in reference)
    assert diagram.vertices == reference_diagram.vertices
    assert diagram.arcs == reference_diagram.arcs
    copy, _ = renamed_copy(space, seed)
    other = hasse_diagram(enumerate_balls(copy))
    refined = balls._joint_refine(diagram, other)
    assert _partition(refined) == _partition(oracle.joint_refine(diagram, other))
    found, expected = _search_both(diagram, other)
    assert expected is not None
    assert list(found.items()) == list(expected.items())


def _spaces(seed, n):
    return (
        random_semimetric(GenConfig(seed=seed, n=n, spectrum_pool=WIDE_POOL)),
        random_semimetric(GenConfig(seed=seed, n=n, spectrum_pool=TIED_POOL)),
        random_ultrametric(GenConfig(seed=seed, n=n)),
    )


def test_small_spaces_match_the_oracle():
    checked = 0
    for seed in range(80):
        for space in _spaces(seed, 1 + seed % 10):
            _check_against_oracle(space, seed)
            checked += 1
    assert checked >= 200


def test_large_semimetrics_match_the_oracle():
    for n in (16, 24, 32, 40):
        space = random_semimetric(GenConfig(seed=n, n=n, spectrum_pool=WIDE_POOL))
        _check_against_oracle(space, seed=n)


def test_verify_matches_the_frozenset_reference():
    # random bijections onto a renamed copy and onto an unrelated space of
    # the same size: the verdict and the first violation, kind, ball and
    # offending set, agree with the reference
    kinds = {True: 0, "image": 0, "preimage": 0}
    for seed in range(50):
        n = 2 + seed % 9
        x = _spaces(seed, n)[seed % 3]
        renamed, names = renamed_copy(x, seed)
        assert verify_ball_preserving(enumerate_balls(x), enumerate_balls(renamed), names) == (True, None)
        rng = random.Random(seed)
        for y in (renamed, _spaces(seed + 1, n)[(seed + 1) % 3]):
            targets = list(y.points)
            for _ in range(4):
                rng.shuffle(targets)
                mapping = dict(zip(x.points, targets))
                result = verify_ball_preserving(enumerate_balls(x), enumerate_balls(y), mapping)
                assert result == oracle.verify_ball_preserving(x, y, mapping)
                kinds[True if result[0] else result[1][0]] += 1
    assert min(kinds.values()) > 0 and kinds["image"] >= 100


def test_one_fold_verify_matches_the_two_pass_reference():
    # 10 500 seeded pairs, n <= 7: random point bijections onto a renamed
    # copy and onto an unrelated draw of the same size give the verdict and
    # first violation of the verifier that folded both sides
    kinds = {True: 0, "image": 0, "preimage": 0}
    for seed in range(750):
        n = 1 + seed % 7
        x = _spaces(seed, n)[seed % 3]
        rng = random.Random(seed)
        for y in (renamed_copy(x, seed)[0], _spaces(seed + 1, n)[(seed + 1) % 3]):
            bx, by = enumerate_balls(x), enumerate_balls(y)
            targets = list(y.points)
            for _ in range(7):
                rng.shuffle(targets)
                mapping = dict(zip(x.points, targets))
                result = verify_ball_preserving(bx, by, mapping)
                assert result == oracle.two_pass_verify(bx, by, mapping)
                kinds[True if result[0] else result[1][0]] += 1
    assert sum(kinds.values()) == 10_500 and min(kinds.values()) >= 300, kinds


def _kernel_spaces():
    """Seeded spaces of pools 1..3, 1..8 and 1..48 and ultrametric ones,
    with up to 40 points."""
    pools = (TIED_POOL, tuple(F(v) for v in range(1, 9)), WIDE_POOL)
    for seed in range(40):
        n = 1 + seed % 13 if seed < 36 else 16 + 8 * (seed - 36)
        for pool in pools:
            yield random_semimetric(GenConfig(seed=seed, n=n, spectrum_pool=pool))
        yield random_ultrametric(GenConfig(seed=seed, n=n))


def test_fold_kernels_match_the_per_ball_loops():
    # chain folds and bit counts against the loops they replaced: the
    # profiles of every space, and the verdict and first violation of maps
    # onto a renamed copy, the same with two images swapped, onto an
    # unrelated space, and from an equilateral space, whose ball images are
    # always balls, so that only a preimage can fail
    kinds = {True: 0, "image": 0, "preimage": 0}
    for k, x in enumerate(_kernel_spaces()):
        bx = enumerate_balls(x)
        assert bx.profiles == oracle.counter_profiles(bx)
        n = len(x.points)
        y, names = renamed_copy(x, k)
        swapped = dict(names)
        if n > 1:
            a, b = x.points[k % n], x.points[(k + 1) % n]
            swapped[a], swapped[b] = names[b], names[a]
        flat = space_from_pairs(x.points, dict.fromkeys(combinations(x.points, 2), F(1)))
        other = random_semimetric(GenConfig(seed=k + 500, n=n, spectrum_pool=TIED_POOL))
        for source, target, mapping in (
            (x, y, names),
            (x, y, swapped),
            (flat, x, dict(zip(x.points, x.points))),
            (x, other, dict(zip(x.points, other.points))),
        ):
            bs, bt = enumerate_balls(source), enumerate_balls(target)
            result = verify_ball_preserving(bs, bt, mapping)
            assert result == oracle.image_sum_verify(bs, bt, mapping)
            kinds[True if result[0] else result[1][0]] += 1
    assert min(kinds.values()) >= 50, kinds


def test_vertices_come_in_key_order():
    for seed in range(30):
        for space in _spaces(seed, 2 + seed % 12):
            for s in (space, renamed_copy(space, seed)[0]):
                keys = [oracle._set_key(v) for v in hasse_diagram(enumerate_balls(s)).vertices]
                assert keys == sorted(keys) and len(set(keys)) == len(keys)


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
    return HasseDiagram.of_sets(vertices, arcs)


def _reordered(diagram, seed):
    """The same diagram with its vertices listed in a shuffled order."""
    order = list(range(len(diagram.vertices)))
    random.Random(seed).shuffle(order)
    at = {v: k for k, v in enumerate(order)}
    return HasseDiagram.of_sets(
        tuple(diagram.vertices[v] for v in order), frozenset((at[a], at[b]) for a, b in diagram.arcs)
    )


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


def test_diagrams_out_of_key_order_give_the_reference_map():
    # of_sets relists sets given out of (size, sorted names) order in that
    # order, with the same arcs between name sets; the search on the
    # relisted diagrams finds the reference's first map
    two_cycles = _pairs_order([tuple("abc"), tuple("def")])
    cycle = _pairs_order([tuple("abcdef")])
    for diagram in (two_cycles, cycle):
        name_arcs = {(diagram.vertices[a], diagram.vertices[b]) for a, b in diagram.arcs}
        for seed in range(5):
            order = list(range(len(diagram.vertices)))
            random.Random(seed).shuffle(order)
            given = [diagram.vertices[v] for v in order]
            assert given != sorted(given, key=oracle._set_key)
            at = {v: k for k, v in enumerate(order)}
            listed = HasseDiagram.of_sets(given, [(at[a], at[b]) for a, b in diagram.arcs])
            assert list(listed.vertices) == sorted(given, key=oracle._set_key)
            assert {(listed.vertices[a], listed.vertices[b]) for a, b in listed.arcs} == name_arcs
            assert len(listed.arcs) == len(name_arcs)
    for h1, h2 in (
        (two_cycles, two_cycles),
        (_reordered(two_cycles, 1), two_cycles),
        (two_cycles, _reordered(two_cycles, 2)),
        (_reordered(cycle, 3), cycle),
    ):
        expected = oracle.search_assignment(h1, h2)
        iso = hasse_digraph_iso(h1, h2)
        assert [(h1.vertices[i], h2.vertices[j]) for i, j in iso.assignment.items()] == [
            (h1.vertices[i], h2.vertices[j]) for i, j in expected.items()
        ]


def test_tree_branch_pairs_like_the_shape_tree_reference():
    # ultrametric diagrams against a renamed copy, a relabeled copy and a
    # renamed relabeled copy: the map paired in place is the one read off
    # the old shape-tree route, pair for pair
    pairs = 0
    for seed in range(120):
        x = random_ultrametric(GenConfig(seed=seed, n=1 + seed % 40))
        relabeled = random_relabeled(x, seed)
        for y in (renamed_copy(x, seed)[0], relabeled, renamed_copy(relabeled, seed + 1)[0]):
            hx, hy = hasse_diagram(enumerate_balls(x)), hasse_diagram(enumerate_balls(y))
            assert hasse_digraph_iso(hx, hy).assignment == oracle.shape_tree_assignment(hx, hy)
            pairs += 1
    assert pairs >= 300


def _hasse_route(x, y):
    """The map the Hasse route gives: a diagram isomorphism restricted to the
    one-point balls, or None."""
    bx, by = enumerate_balls(x), enumerate_balls(y)
    if len(bx.masks) != len(by.masks):
        return None
    iso = hasse_digraph_iso(hasse_diagram(bx), hasse_diagram(by))
    return None if iso is None else oracle.singleton_map(iso)


def _cycle(n):
    """The {1, 2}-space of the n-cycle: distance 1 between neighbours."""
    pts = tuple(f"c{k}" for k in range(n))
    return space_from_pairs(
        pts, {(pts[a], pts[b]): F(1 if (b - a) % n in (1, n - 1) else 2) for a in range(n) for b in range(a + 1, n)}
    )


def _route_pairs():
    """Semimetric pairs over four pools against a renamed, a stretched and an
    unrelated partner; ultrametric pairs; shuffled cycles."""
    pools = [tuple(F(v) for v in range(1, top + 1)) for top in (3, 4, 8, 48)]
    for seed in range(120):
        pool = pools[seed % 4]
        n = 1 + seed % 20
        x = random_semimetric(GenConfig(seed=seed, n=n, spectrum_pool=pool))
        stretched = rank_relabel(x, tuple(F(k * k) for k in range(len(x.spectrum))))
        yield x, renamed_copy(x, seed)[0]
        yield x, renamed_copy(stretched, seed + 1)[0]
        yield x, random_semimetric(GenConfig(seed=seed + 1000, n=n, spectrum_pool=pool))
    for seed in range(30):
        x = random_ultrametric(GenConfig(seed=seed, n=1 + seed % 24))
        yield x, renamed_copy(x, seed)[0]
        yield x, renamed_copy(random_relabeled(x, seed), seed)[0]
        yield x, random_ultrametric(GenConfig(seed=seed + 1000, n=1 + seed % 24))
    # cycles past 9 points stall the Hasse search (ROADMAP item 11)
    for n in range(3, 10):
        for seed in (1, 2):
            yield _cycle(n), renamed_copy(_cycle(n), seed)[0]


def test_profile_step_returns_the_hasse_route_map():
    # wherever the profiles force a map it is the Hasse route's, and every
    # other pair gets the Hasse route's answer
    counts = {"forced": 0, "tied": 0, "negative": 0}
    for x, y in _route_pairs():
        found = ball_preserving_bijection(x, y)
        assert found == _hasse_route(x, y)
        profiles = enumerate_balls(x).profiles
        if found is None:
            counts["negative"] += 1
        else:
            counts["forced" if len(set(profiles)) == len(profiles) > 1 else "tied"] += 1
    assert sum(counts.values()) >= 400 and min(counts.values()) >= 100


def test_rigid_pairs_skip_the_diagrams(monkeypatch):
    x = random_semimetric(GenConfig(seed=24, n=24, spectrum_pool=WIDE_POOL))
    y, names = renamed_copy(x, 24)
    cycle = _cycle(6)
    assert len(set(enumerate_balls(x).profiles)) == 24
    assert len(set(enumerate_balls(cycle).profiles)) == 1

    def no_diagram(ballean):
        raise AssertionError("Hasse diagram built")

    monkeypatch.setattr(balls, "hasse_diagram", no_diagram)
    assert ball_preserving_bijection(x, y) == names
    with pytest.raises(AssertionError, match="Hasse diagram built"):
        ball_preserving_bijection(cycle, renamed_copy(cycle, 6)[0])


def test_a_refuted_forced_map_is_a_no(monkeypatch):
    # equal ball counts and the same five distinct profiles, but the map
    # pairing them is not ball-preserving, and neither the oracle nor the
    # Hasse route finds one
    pool = tuple(F(v) for v in range(1, 5))
    x = random_semimetric(GenConfig(seed=4, n=5, spectrum_pool=pool))
    y = random_semimetric(GenConfig(seed=195, n=5, spectrum_pool=pool))
    bx, by = enumerate_balls(x), enumerate_balls(y)
    assert len(bx.masks) == len(by.masks)
    assert len(set(bx.profiles)) == 5 and set(bx.profiles) == set(by.profiles)
    at = dict(zip(by.profiles, y.points))
    assert not verify_ball_preserving(bx, by, {p: at[q] for p, q in zip(x.points, bx.profiles)})[0]
    assert oracle_ball_preserving(x, y) is None
    assert hasse_digraph_iso(hasse_diagram(bx), hasse_diagram(by)) is None
    seen = []

    def no_diagram(ballean):
        raise AssertionError("Hasse diagram built")

    def counted_verifier(bx, by, mapping):
        seen.append(mapping)
        return verify_ball_preserving(bx, by, mapping)

    monkeypatch.setattr(balls, "hasse_diagram", no_diagram)
    monkeypatch.setattr(balls, "verify_ball_preserving", counted_verifier)
    # the forced map decides the pair with one verifier call: no here, and
    # the map itself for a rigid positive pair
    assert ball_preserving_bijection(x, y) is None and len(seen) == 1
    x = random_semimetric(GenConfig(seed=16, n=16, spectrum_pool=WIDE_POOL))
    y, names = renamed_copy(x, 16)
    assert len(set(enumerate_balls(x).profiles)) == 16
    assert ball_preserving_bijection(x, y) == names and seen[1:] == [names]
