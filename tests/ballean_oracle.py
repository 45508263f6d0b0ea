"""Reference implementations that the ballean layer is tested against.

``enumerate_balls`` sweeps every centre over the whole spectrum, and
``hasse_diagram`` tests every triple of balls for a ball strictly between.
``singleton_map`` reads a point map off a diagram isomorphism's one-point
sets, as ``ball_preserving_bijection``'s Hasse route does.
``joint_refine`` refines tuple colours, ``search_assignment`` is the
recursive backtracking search that checks each candidate against every
assigned pair, and ``verify_ball_preserving`` maps member ``frozenset``s.
All of them work on point names, share no code with ``umtk.balls`` and are
slow; they exist only to check its passes. ``shape_tree_assignment`` is the
route the tree branch of ``hasse_digraph_iso`` once took: a diagram copied
into a preorder ``RepTree``, paired by ``rooted_tree_iso_map``. A diagram
here is anything with ``vertices`` (member sets) and ``arcs`` (vertex-index
pairs). ``image_sum_verify`` and ``counter_profiles`` are the per-ball loops
that ``umtk.balls`` ran before its chain folds and bit counts, and
``two_pass_verify`` is the verifier that folded the balls of both spaces,
before one fold over X's balls decided both sides; they read a
``Ballean``'s own fields. ``loop_ballean`` and ``fold_hasse`` are the
prefix loop and the running-AND cover fold that ``umtk.balls`` runs on a
space that is not ultrametric, copied here as the reference for the
ballean and covers that it reads off an ultrametric space's tree; they
build the library's ``Ballean`` and ``HasseDiagram`` records.
"""
from __future__ import annotations

from collections import Counter
from itertools import accumulate, chain, groupby
from operator import and_
from typing import NamedTuple

from validation_oracle import distances

from umtk import NotABijectionError, NotIsomorphicError, RepTree, rooted_tree_iso_map
from umtk.balls import Ballean, HasseDiagram


class Diagram(NamedTuple):
    vertices: tuple[frozenset[str], ...]
    arcs: frozenset[tuple[int, int]]


def _set_key(members: frozenset[str]) -> tuple[int, tuple[str, ...]]:
    return (len(members), tuple(sorted(members)))


def enumerate_balls(space) -> list[tuple[frozenset[str], str, object]]:
    """Every ball B_r(t) as (members, t, r), t in point order and r over the
    whole spectrum; the first (t, r) to give a member set is its witness."""
    found = {}
    pts = space.points
    dist = distances(space)
    values = sorted({d for row in dist for d in row})
    for ti, t in enumerate(pts):
        row = dist[ti]
        for r in values:
            members = frozenset(pts[i] for i in range(len(pts)) if row[i] <= r)
            if members not in found:
                found[members] = (members, t, r)
    return sorted(found.values(), key=lambda ball: _set_key(ball[0]))


def hasse_diagram(sets) -> Diagram:
    """Cover pairs B1 < B2 with no ball strictly between (triple scan)."""
    sets = tuple(sets)
    n = len(sets)
    arcs = set()
    for i in range(n):
        for j in range(n):
            if i == j or not sets[i] < sets[j]:
                continue
            if any(k != i and k != j and sets[i] < sets[k] < sets[j] for k in range(n)):
                continue
            arcs.add((i, j))
    return Diagram(sets, frozenset(arcs))


def _neighbors(h) -> tuple[list[list[int]], list[list[int]]]:
    preds: list[list[int]] = [[] for _ in h.vertices]
    succs: list[list[int]] = [[] for _ in h.vertices]
    for a, b in h.arcs:
        succs[a].append(b)
        preds[b].append(a)
    return preds, succs


def joint_refine(h1, h2) -> tuple[list[int], list[int]] | None:
    """Joint colour refinement over (own colour, sorted predecessor colours,
    sorted successor colours) keys, starting from (in-degree, out-degree,
    height), until a round splits no class; None once the histograms
    diverge."""

    def heights(h, preds: list[list[int]]) -> list[int]:
        order = sorted(range(len(h.vertices)), key=lambda i: len(h.vertices[i]))
        height = [0] * len(h.vertices)
        for v in order:
            for p in preds[v]:
                height[v] = max(height[v], height[p] + 1)
        return height

    p1, s1 = _neighbors(h1)
    p2, s2 = _neighbors(h2)
    hts1 = heights(h1, p1)
    hts2 = heights(h2, p2)
    colors1: list = [(len(p1[i]), len(s1[i]), hts1[i]) for i in range(len(h1.vertices))]
    colors2: list = [(len(p2[i]), len(s2[i]), hts2[i]) for i in range(len(h2.vertices))]
    if sorted(colors1) != sorted(colors2):
        return None

    while True:
        palette: dict[object, int] = {}

        def norm(key: object) -> int:
            if key not in palette:
                palette[key] = len(palette)
            return palette[key]

        new1 = [
            norm(
                (
                    colors1[i],
                    tuple(sorted(colors1[j] for j in p1[i])),
                    tuple(sorted(colors1[j] for j in s1[i])),
                )
            )
            for i in range(len(colors1))
        ]
        new2 = [
            norm(
                (
                    colors2[i],
                    tuple(sorted(colors2[j] for j in p2[i])),
                    tuple(sorted(colors2[j] for j in s2[i])),
                )
            )
            for i in range(len(colors2))
        ]
        if sorted(new1) != sorted(new2):
            return None
        if len(set(new1) | set(new2)) == len(set(colors1) | set(colors2)):
            return new1, new2
        colors1, colors2 = new1, new2


def search_assignment(h1, h2) -> dict[int, int] | None:
    """Recursive backtracking over the jointly refined colour classes; each
    candidate is tested against every assigned pair. Recurses once per
    vertex, so callers raise the recursion limit for large diagrams."""
    refined = joint_refine(h1, h2)
    if refined is None:
        return None
    colors1, colors2 = refined
    n = len(h1.vertices)
    arcs1, arcs2 = h1.arcs, h2.arcs
    candidates: dict[int, list[int]] = {}
    for i in range(n):
        candidates[i] = sorted(
            (j for j in range(n) if colors2[j] == colors1[i]),
            key=lambda j: _set_key(h2.vertices[j]),
        )
        if not candidates[i]:
            return None
    order = sorted(range(n), key=lambda i: (len(candidates[i]), _set_key(h1.vertices[i])))
    assignment: dict[int, int] = {}
    used = [False] * n

    def extend(k: int) -> bool:
        if k == n:
            return True
        i = order[k]
        for j in candidates[i]:
            if used[j]:
                continue
            ok = True
            for i2, j2 in assignment.items():
                if ((i, i2) in arcs1) != ((j, j2) in arcs2):
                    ok = False
                    break
                if ((i2, i) in arcs1) != ((j2, j) in arcs2):
                    ok = False
                    break
            if not ok:
                continue
            assignment[i] = j
            used[j] = True
            if extend(k + 1):
                return True
            del assignment[i]
            used[j] = False
        return False

    return assignment if extend(0) else None


def singleton_map(iso) -> dict[str, str]:
    """The point map of a diagram isomorphism read as member set -> member
    set, restricted to the one-point sets."""
    v1, v2 = iso.h1.vertices, iso.h2.vertices
    return {min(v1[i]): min(v2[j]) for i, j in iso.assignment.items() if len(v1[i]) == 1}


def verify_ball_preserving(x, y, mapping: dict[str, str]):
    """(True, None), or (False, (kind, ball, image)) for the first X-ball
    whose image, or else the first Y-ball whose preimage, is not a ball;
    balls in (size, sorted names) order. ``mapping`` must be a bijection."""
    x_balls = [members for members, _, _ in enumerate_balls(x)]
    y_balls = [members for members, _, _ in enumerate_balls(y)]
    inverse = {v: k for k, v in mapping.items()}
    sides = (("image", x_balls, y_balls, mapping), ("preimage", y_balls, x_balls, inverse))
    for kind, balls, others, to in sides:
        for ball in balls:
            image = frozenset(to[p] for p in ball)
            if image not in others:
                return (False, (kind, ball, image))
    return (True, None)


def shape_tree_assignment(h1, h2) -> dict[int, int] | None:
    """Vertex map of two reversed-tree diagrams whose vertex indices number
    them bottom-up, the whole space last, or None: each diagram laid out as
    an unlabeled ``RepTree`` (children in vertex-index order, leaves named
    by their singletons), the two trees paired by ``rooted_tree_iso_map``,
    and each position read back as the vertex that the layout put there."""
    trees, orders = [], []
    for h in (h1, h2):
        preds = [sorted(near) for near in _neighbors(h)[0]]
        n = len(preds)
        points = [None if preds[v] else min(h.vertices[v]) for v in range(n)]
        trees.append(RepTree.bottom_up([None] * n, points, preds, ()))
        order, stack = [], [n - 1]  # the layout's preorder
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(preds[v][::-1])
        orders.append(order)
    try:
        psi = rooted_tree_iso_map(*trees)
    except NotIsomorphicError:
        return None
    return {orders[0][a]: orders[1][b] for a, b in enumerate(psi)}


def image_sum_verify(bx, by, mapping: dict[str, str]):
    """``verify_ball_preserving`` of two balleans as one sum of member image
    bits per ball, every ball in ballean order, one-point balls included."""
    inverse = {v: k for k, v in mapping.items()}
    for kind, source, target, to in (("image", bx, by, mapping), ("preimage", by, bx, inverse)):
        pts, bit = source.space.points, dict(zip(target.space.points, target.bits))
        image_bit = [1 << bit[to[p]] for p in pts]
        masks = set(target.masks)
        for members in source.members:
            if sum(map(image_bit.__getitem__, members)) not in masks:
                ball = frozenset(map(pts.__getitem__, members))
                return (False, (kind, ball, frozenset(to[p] for p in ball)))
    return (True, None)


def two_pass_verify(bx, by, mapping: dict[str, str]):
    """``verify_ball_preserving`` as two chain folds: the image masks of X's
    balls of two or more points looked up among Y's masks, then the
    preimage masks of Y's among X's."""
    images = set(mapping.values())
    if set(mapping) != set(bx.space.points) or len(images) != len(mapping) or images != set(by.space.points):
        raise NotABijectionError("mapping keys/values do not biject the point sets")
    inverse = {v: k for k, v in mapping.items()}
    for kind, source, target, to in (("image", bx, by, mapping), ("preimage", by, bx, inverse)):
        pts, bit = source.space.points, dict(zip(target.space.points, target.bits))
        image_bit = [1 << bit[to[p]] for p in pts]
        folded = []
        for members, sizes in source.chains:
            prefix = [0, *accumulate((image_bit[p] for p in members), lambda a, b: a | b)]
            folded += (prefix[size] for size in sizes)
        masks = set(target.masks)
        found = [folded[k] in masks for k in source.places]
        if False in found:
            ball = frozenset(map(pts.__getitem__, source.members[len(pts) + found.index(False)]))
            return (False, (kind, ball, frozenset(to[p] for p in ball)))
    return (True, None)


def counter_profiles(ballean) -> tuple[tuple[int, ...], ...]:
    """Each point's ball profile, flat (size, count) runs in ballean order,
    counted by one ``Counter`` over the members of each run of one size."""
    runs: list[list[int]] = [[] for _ in ballean.bits]
    for size, group in groupby(ballean.members, len):
        for p, count in Counter(chain.from_iterable(group)).items():
            runs[p] += size, count
    return tuple(map(tuple, runs))


def loop_ballean(space) -> Ballean:
    """The ballean as the prefix loop builds it for any space: each centre's
    distance order, one OR per prefix, the first (centre, radius) of a mask
    its witness, each order cut after its centre's last new ball."""
    n = len(space.points)
    rank = {p: k for k, p in enumerate(sorted(space.points))}
    bits = tuple(n - 1 - rank[p] for p in space.points)
    one = [1 << b for b in bits]
    found, orders, chains, chained = {}, [], [], []
    for t, row in enumerate(space.ranks):
        order = sorted(range(n), key=row.__getitem__)
        mask, start, cut = 0, len(chained), 1
        for k, i in enumerate(order, 1):
            mask |= one[i]
            if (k == n or row[order[k]] != row[i]) and mask not in found:
                found[mask] = (t, row[i])
                if k > 1:
                    chained.append(mask)
                    cut = k
        del order[cut:]
        orders.append(order)
        if len(chained) > start:
            chains.append((order, list(map(int.bit_count, chained[start:]))))
    masks = tuple(sorted(sorted(found, reverse=True), key=int.bit_count))
    witnesses = tuple(map(found.__getitem__, masks))
    place = dict(zip(chained, range(len(chained))))
    return Ballean(space, bits, masks, witnesses, orders, chains, list(map(place.__getitem__, masks[n:])))


def fold_hasse(ballean) -> HasseDiagram:
    """The cover diagram as the fold builds it for any ballean: each ball's
    up-set, the AND of its members' ``through`` bitsets along each chain,
    complemented; the lowest remaining superset is a cover, and it and its
    supersets are then dropped."""
    masks, through, n = ballean.masks, ballean.through, len(ballean.bits)
    folded = []
    for members, sizes in ballean.chains:
        folded += map([0, *accumulate(map(through.__getitem__, members), and_)].__getitem__, sizes)
    ups = [through[t] for t, _ in ballean.witnesses[:n]] + [folded[k] for k in ballean.places]
    clear = [~up for up in ups]
    succs, preds = [], [[] for _ in masks]
    for i, off in enumerate(clear):
        rest = ~off ^ (1 << i)
        succs.append([])
        while rest:
            k = (rest & -rest).bit_length() - 1
            succs[i].append(k)
            preds[k].append(i)
            rest &= clear[k]
    return HasseDiagram(masks, succs, preds, ballean)
