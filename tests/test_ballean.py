import re
import time
import tracemalloc
from fractions import Fraction as F
from itertools import combinations

import pytest
from ballean_oracle import singleton_map
from wire_oracle import ballean_to_json, hasse_iso_to_json, hasse_to_dot, hasse_to_json

from umtk import (
    GenConfig,
    ball_preserving_bijection,
    balls,
    decide_weak_similarity,
    enumerate_balls,
    hasse_diagram,
    hasse_digraph_iso,
    random_semimetric,
    random_ultrametric,
    renamed_copy,
    reversed_is_rooted_tree,
    space_from_json,
    space_from_pairs,
    verify_ball_preserving,
)
from umtk.balls import HasseDiagram
from umtk.errors import NotABijectionError, VerificationFailedError


def test_ball_enumeration(ultra3, semi3):
    assert ballean_to_json(enumerate_balls(ultra3)) == {
        "balls": [["p"], ["q"], ["r"], ["q", "r"], ["p", "q", "r"]]
    }
    # b reaches both neighbours at radius 1, so its radius-1 ball is the
    # whole space and only six member sets remain
    assert ballean_to_json(enumerate_balls(semi3)) == {
        "balls": [["a"], ["b"], ["c"], ["a", "b"], ["b", "c"], ["a", "b", "c"]]
    }


def test_one_point_ballean():
    space = space_from_pairs(("o",), {})
    ballean = enumerate_balls(space)
    assert ballean_to_json(ballean) == {"balls": [["o"]]}
    diagram = hasse_diagram(ballean)
    assert diagram.arcs == frozenset()
    assert reversed_is_rooted_tree(diagram)


def _prefix_slices(space) -> dict[int, list[int]]:
    """Each ball's mask and members as the first prefix of a centre's
    distance order that gives it: centres in point order, prefixes by size."""
    n, bits = len(space.points), enumerate_balls(space).bits
    found: dict[int, list[int]] = {}
    for row in space.ranks:
        order = sorted(range(n), key=row.__getitem__)
        for k in range(1, n + 1):
            if k == n or row[order[k]] != row[order[k - 1]]:
                found.setdefault(sum(1 << bits[p] for p in order[:k]), order[:k])
    return found


@pytest.mark.parametrize("make, seed, n", [
    *((make, seed, n) for make in (random_semimetric, random_ultrametric) for seed in (1, 2, 3) for n in (1, 2, 5, 10)),
    (random_semimetric, 1, 128),
])
def test_members_are_prefixes_of_their_centres_orders(make, seed, n):
    x = make(GenConfig(seed=seed, n=n, spectrum_pool=tuple(F(k) for k in range(1, 49))))
    ballean = enumerate_balls(x)
    slices = _prefix_slices(x)
    assert sorted(slices) == sorted(ballean.masks)
    assert len(ballean.members) == len(ballean.masks)
    assert list(ballean.members) == list(map(slices.__getitem__, ballean.masks))
    # balls 0..n-1 are the one-point balls, each witnessed by its point
    centres = [t for t, _ in ballean.witnesses[:n]]
    assert sorted(centres) == list(range(n))
    assert all(ballean.masks[i] == 1 << ballean.bits[t] for i, t in enumerate(centres))
    assert all(ballean.members[i] == [t] for i, t in enumerate(centres))
    # each order is cut after the largest ball its centre witnesses: n^2 indices at most
    largest = [1] * n
    for mask, (t, _) in zip(ballean.masks, ballean.witnesses):
        largest[t] = max(largest[t], mask.bit_count())
    assert list(map(len, ballean.orders)) == largest
    assert sum(largest) <= n * n


def test_hasse_of_ultrametric_is_a_reversed_tree(ultra3):
    diagram = hasse_diagram(enumerate_balls(ultra3))
    assert hasse_to_json(diagram) == {
        "vertices": [["p"], ["q"], ["r"], ["q", "r"], ["p", "q", "r"]],
        "arcs": [[0, 4], [1, 3], [2, 3], [3, 4]],
    }
    assert reversed_is_rooted_tree(diagram)


def test_hasse_of_semi3_is_not_a_tree(semi3):
    diagram = hasse_diagram(enumerate_balls(semi3))
    assert len(diagram.vertices) == 6
    assert len(diagram.arcs) == 6
    assert not reversed_is_rooted_tree(diagram)
    b_index = diagram.vertices.index(frozenset({"b"}))
    assert diagram.out_degrees()[b_index] == 2


def test_zero_indegree_vertices_are_the_singletons():
    for seed in range(15):
        space = random_ultrametric(GenConfig(seed=seed, n=2 + seed % 5))
        diagram = hasse_diagram(enumerate_balls(space))
        indeg = [0] * len(diagram.vertices)
        for _, b in diagram.arcs:
            indeg[b] += 1
        for i, members in enumerate(diagram.vertices):
            assert (indeg[i] == 0) == (len(members) == 1)


def test_hasse_iso_cases(ultra3, ultra3_scaled, semi3):
    h1 = hasse_diagram(enumerate_balls(ultra3))
    h2 = hasse_diagram(enumerate_balls(ultra3_scaled))
    iso = hasse_digraph_iso(h1, h2)
    assert iso is not None
    assert hasse_iso_to_json(iso)["map"][0][0] == ["p"]

    renamed, _ = renamed_copy(semi3, seed=7)
    h3 = hasse_diagram(enumerate_balls(semi3))
    h4 = hasse_diagram(enumerate_balls(renamed))
    assert hasse_digraph_iso(h3, h4) is not None

    assert hasse_digraph_iso(h1, h3) is None


def test_verify_ball_preserving(ultra3, ultra3_scaled):
    ok, violation = verify_ball_preserving(
        enumerate_balls(ultra3), enumerate_balls(ultra3_scaled), {"p": "p", "q": "q", "r": "r"}
    )
    assert ok and violation is None

    witness = decide_weak_similarity(ultra3, ultra3_scaled)
    ok, _ = verify_ball_preserving(enumerate_balls(ultra3), enumerate_balls(ultra3_scaled), witness.phi)
    assert ok

    ok, violation = verify_ball_preserving(
        enumerate_balls(ultra3), enumerate_balls(ultra3_scaled), {"p": "q", "q": "p", "r": "r"}
    )
    assert not ok
    assert violation == ("image", frozenset({"q", "r"}), frozenset({"p", "r"}))


def test_verify_names_the_first_unhit_ball(ultra3):
    # every ball of an equilateral space maps onto a ball of ultra3, but
    # ultra3's ball {q, r} is no image: its preimage {p, r} is not a ball
    flat = space_from_pairs("pqr", dict.fromkeys(combinations("pqr", 2), F(1)))
    ok, violation = verify_ball_preserving(
        enumerate_balls(flat), enumerate_balls(ultra3), {"p": "q", "q": "p", "r": "r"}
    )
    assert not ok
    assert violation == ("preimage", frozenset({"q", "r"}), frozenset({"p", "r"}))


def test_verify_rejects_non_bijections(ultra3):
    with pytest.raises(NotABijectionError):
        verify_ball_preserving(enumerate_balls(ultra3), enumerate_balls(ultra3), {"p": "p", "q": "q", "r": "r", "s": "s"})
    with pytest.raises(NotABijectionError):
        verify_ball_preserving(enumerate_balls(ultra3), enumerate_balls(ultra3), {"p": "p", "q": "q"})
    with pytest.raises(NotABijectionError):
        verify_ball_preserving(enumerate_balls(ultra3), enumerate_balls(ultra3), {"p": "p", "q": "p", "r": "r"})
    with pytest.raises(NotABijectionError):
        verify_ball_preserving(enumerate_balls(ultra3), enumerate_balls(ultra3), {"p": "x", "q": "y", "r": "z"})


def test_ball_preserving_bijection(ultra3, ultra3_scaled, semi3):
    phi = ball_preserving_bijection(ultra3, ultra3_scaled)
    assert phi is not None
    assert verify_ball_preserving(enumerate_balls(ultra3), enumerate_balls(ultra3_scaled), phi)[0]
    # p is the lone point outside the small ball, so it is pinned
    assert phi["p"] == "p"

    assert ball_preserving_bijection(ultra3, semi3) is None

    identity_like = ball_preserving_bijection(semi3, semi3)
    assert identity_like is not None
    assert verify_ball_preserving(enumerate_balls(semi3), enumerate_balls(semi3), identity_like)[0]


def test_hasse_dot_output(ultra3):
    dot = hasse_to_dot(hasse_diagram(enumerate_balls(ultra3)))
    assert dot == (
        "digraph hasse {\n"
        '  b0 [label="{p}"];\n'
        '  b1 [label="{q}"];\n'
        '  b2 [label="{r}"];\n'
        '  b3 [label="{q,r}"];\n'
        '  b4 [label="{p,q,r}"];\n'
        "  b0 -> b4;\n"
        "  b1 -> b3;\n"
        "  b2 -> b3;\n"
        "  b3 -> b4;\n"
        "}\n"
    )


def _hasse_labels(space) -> dict[frozenset, str]:
    diagram = hasse_diagram(enumerate_balls(space))
    labels = re.findall(r'^  b\d+ \[label="(.*)"\];$', hasse_to_dot(diagram), flags=re.M)
    return dict(zip(diagram.vertices, labels))


def test_hasse_dot_labels_name_one_member_set():
    # the one-point ball of a point named "a,b" and the two-point ball of
    # points "a" and "b" once had the same label {a,b}
    joined = _hasse_labels(space_from_pairs(("a,b", "c"), {("a,b", "c"): F(1)}))
    apart = _hasse_labels(space_from_pairs(
        ("a", "b", "c"), {("a", "b"): F(1), ("a", "c"): F(2), ("b", "c"): F(2)}))
    assert joined[frozenset({"a,b"})] != apart[frozenset({"a", "b"})] == "{a,b}"
    odd = ("%", "{x}", "x,", "%2C")
    labels = _hasse_labels(space_from_pairs(odd, {(p, q): F(1) for i, p in enumerate(odd) for q in odd[i + 1 :]}))
    assert labels[frozenset({"%2C"})] == "{%252C}"
    every = {**joined, **apart, **labels}  # member set -> label
    assert len(set(every.values())) == len(every)


def test_ball_radii_range_over_spectrum(blocks4):
    ballean = enumerate_balls(blocks4)
    assert {b.radius for b in ballean.balls} <= {F(0), F(1), F(2), F(3)}
    member_sets = {b.members for b in ballean.balls}
    assert frozenset(blocks4.points) in member_sets
    for p in blocks4.points:
        assert frozenset({p}) in member_sets


def _second_walk_corrupted(monkeypatch, corrupt):
    """Make the tree branch's second ``balls._preorder`` call, the walk of
    the second diagram, return the real walk after ``corrupt(walk, first,
    ordered)`` has changed it in place, given the first diagram's walk and
    code-ordered children."""
    preorder, walks = balls._preorder, []

    def walked(ordered, root):
        walks.append(preorder(ordered, root))
        if len(walks) == 2:
            corrupt(walks[1], walks[0], ordered)
        return walks[-1]

    monkeypatch.setattr(balls, "_preorder", walked)


def test_tree_branch_re_checks_the_tree_map(blocks4, monkeypatch):
    diagram = hasse_diagram(enumerate_balls(blocks4))
    assert reversed_is_rooted_tree(diagram)

    def swap_leaves(walk, first, ordered):
        # the images of the first singleton and of the first singleton under
        # another parent swapped
        parent = {c: v for v, kids in enumerate(ordered) if kids for c in kids}
        leaves = [v for v, kids in enumerate(ordered) if not kids]
        a = first.index(leaves[0])
        b = first.index(next(v for v in leaves if parent[v] != parent[leaves[0]]))
        walk[a], walk[b] = walk[b], walk[a]

    _second_walk_corrupted(monkeypatch, swap_leaves)
    with pytest.raises(VerificationFailedError):
        hasse_digraph_iso(diagram, diagram)


def test_tree_branch_re_checks_that_the_map_is_a_bijection(blocks4, monkeypatch):
    diagram = hasse_diagram(enumerate_balls(blocks4))

    def repeat_leaf(walk, first, ordered):
        # the first singleton's image given to the next singleton too
        singles = [k for k, v in enumerate(first) if not ordered[v]]
        walk[singles[1]] = walk[singles[0]]

    _second_walk_corrupted(monkeypatch, repeat_leaf)
    with pytest.raises(VerificationFailedError, match="not a vertex bijection"):
        hasse_digraph_iso(diagram, diagram)


def test_search_branch_re_checks_that_the_map_is_a_bijection(semi3, monkeypatch):
    diagram = hasse_diagram(enumerate_balls(semi3))
    assert not reversed_is_rooted_tree(diagram)
    search = balls._search_assignment

    def short_search(h1, h2, succ2):
        # the real assignment without its last vertex
        assignment = search(h1, h2, succ2)
        del assignment[max(assignment)]
        return assignment

    monkeypatch.setattr(balls, "_search_assignment", short_search)
    with pytest.raises(VerificationFailedError, match="not a vertex bijection"):
        hasse_digraph_iso(diagram, diagram)


def test_a_tree_diagram_and_a_non_tree_diagram_are_not_isomorphic(monkeypatch):
    # five vertices and four arcs on both sides, but h2's {a} lies under two
    # covers and its {b} under none. A ballean's diagram cannot be so (each
    # ball but the whole space has a cover), so only of_sets builds the pair.
    # The shape codes and the refinement would say no as well; the tree test
    # says it first, before any code or search runs.
    sets = [frozenset(v) for v in ("a", "b", "ax", "by", "abxy")]
    h1 = HasseDiagram.of_sets(sets, [(0, 2), (1, 3), (2, 4), (3, 4)])
    sets = [frozenset(v) for v in ("a", "b", "ax", "ay", "abxy")]
    h2 = HasseDiagram.of_sets(sets, [(0, 2), (0, 3), (2, 4), (3, 4)])
    assert reversed_is_rooted_tree(h1) and not reversed_is_rooted_tree(h2)

    def ran(*args):
        raise AssertionError("a code or search ran")

    monkeypatch.setattr(balls, "_codes", ran)
    monkeypatch.setattr(balls, "_search_assignment", ran)
    assert hasse_digraph_iso(h1, h2) is None
    assert hasse_digraph_iso(h2, h1) is None


def _broken_iso(monkeypatch, a, b):
    """Make ``balls.hasse_digraph_iso`` return the real isomorphism with the
    images of vertices a and b swapped."""
    iso = balls.hasse_digraph_iso

    def swapped(h1, h2):
        found = iso(h1, h2)
        found.assignment[a], found.assignment[b] = found.assignment[b], found.assignment[a]
        return found

    monkeypatch.setattr(balls, "hasse_digraph_iso", swapped)


def test_extraction_re_checks_that_singletons_map_to_singletons(blocks4, monkeypatch):
    # blocks4's four points share one ball profile, so the Hasse route runs;
    # {a} (vertex 0) swapped with the whole space (vertex 6) meets a larger ball
    assert ball_preserving_bijection(blocks4, blocks4) is not None
    assert len(enumerate_balls(blocks4).masks) == 7
    _broken_iso(monkeypatch, 0, 6)
    with pytest.raises(VerificationFailedError, match="singleton ball mapped to a larger ball"):
        ball_preserving_bijection(blocks4, blocks4)


def test_extraction_re_checks_the_point_map(blocks4, monkeypatch):
    # the one-point balls of a and c swapped: a bijection of the points that
    # sends {a, b} to {b, c}, which is no ball
    _broken_iso(monkeypatch, 0, 2)
    with pytest.raises(VerificationFailedError, match="extracted bijection not ball-preserving"):
        ball_preserving_bijection(blocks4, blocks4)


def test_ball_preserving_search_deeper_than_the_recursion_limit():
    # the search assigns one diagram vertex per level, over 1000 of them
    pool = tuple(F(v) for v in range(1, 49))
    x = random_semimetric(GenConfig(seed=40, n=40, spectrum_pool=pool))
    y, _ = renamed_copy(x, seed=3)
    assert len(enumerate_balls(x).balls) > 1000
    start = time.perf_counter()
    phi = ball_preserving_bijection(x, y)
    assert time.perf_counter() - start < 5
    assert phi is not None
    assert verify_ball_preserving(enumerate_balls(x), enumerate_balls(y), phi)[0]


def test_hasse_search_deeper_than_the_recursion_limit():
    # the pair above has pairwise distinct ball profiles, so the decision
    # takes the forced map; the diagram search still assigns its 1000+
    # vertices one level each and restricts to that same map
    pool = tuple(F(v) for v in range(1, 49))
    x = random_semimetric(GenConfig(seed=40, n=40, spectrum_pool=pool))
    y, _ = renamed_copy(x, seed=3)
    hx, hy = hasse_diagram(enumerate_balls(x)), hasse_diagram(enumerate_balls(y))
    assert len(hx.masks) > 1000
    iso = hasse_digraph_iso(hx, hy)
    assert iso is not None
    assert singleton_map(iso) == ball_preserving_bijection(x, y)


def test_deep_chain_ballean_and_ball_preserving_map():
    # the binary chain d(p_i, p_j) = n - min(i, j) has 2n - 1 balls; a set
    # per (centre, prefix) made its ballean cubic in n, about 21 s here
    n = 1100
    rows = [["0" if a == b else str(n - min(a, b)) for b in range(n)] for a in range(n)]
    x = space_from_json({"points": [f"p{k}" for k in range(n)], "dist": rows})
    start = time.perf_counter()
    ballean = enumerate_balls(x)
    assert time.perf_counter() - start < 5
    assert len(ballean.balls) == 2 * n - 1
    y, _ = renamed_copy(x, seed=11)
    phi = ball_preserving_bijection(x, y)
    assert phi is not None
    assert verify_ball_preserving(enumerate_balls(x), enumerate_balls(y), phi) == (True, None)


def test_ball_preserving_route_makes_no_name_sets():
    # the decision runs on masks; name sets appear once something reads them
    x = random_semimetric(GenConfig(seed=5, n=12, spectrum_pool=tuple(F(v) for v in range(1, 49))))
    y, _ = renamed_copy(x, seed=5)
    assert ball_preserving_bijection(x, y) is not None
    assert "balls" not in vars(enumerate_balls(x)) and "balls" not in vars(enumerate_balls(y))
    iso = hasse_digraph_iso(hasse_diagram(enumerate_balls(x)), hasse_diagram(enumerate_balls(y)))
    assert "vertices" not in vars(iso.h1)
    sizes = sorted(len(iso.h1.vertices[i]) for i in iso.assignment)
    assert sizes == sorted(len(b.members) for b in enumerate_balls(x).balls)


def _nested_diagram(depth):
    """Nested sets {x0..xk} for k < depth, each over the singleton {xk} too:
    the reversed diagram is a rooted tree ``depth`` levels deep."""
    points = [f"x{k}" for k in range(depth)]
    singletons = [frozenset({p}) for p in points[1:]]
    nested = [frozenset(points[: k + 1]) for k in range(depth)]
    vertices = tuple(singletons + nested)
    first = len(singletons)
    arcs = set()
    for k in range(1, depth):
        arcs.add((first + k - 1, first + k))
        arcs.add((k - 1, first + k))
    return HasseDiagram.of_sets(vertices, frozenset(arcs))


def _listed_in(diagram, order):
    """The same diagram with vertex ``order[k]`` listed k-th."""
    at = {v: k for k, v in enumerate(order)}
    return HasseDiagram.of_sets(
        tuple(diagram.vertices[v] for v in order), frozenset((at[a], at[b]) for a, b in diagram.arcs)
    )


def test_deep_tree_diagram_without_recursion():
    diagram = _nested_diagram(3000)
    assert reversed_is_rooted_tree(diagram)
    iso = hasse_digraph_iso(diagram, diagram)
    assert iso is not None
    assert all(len(diagram.vertices[i]) == len(diagram.vertices[j]) for i, j in iso.assignment.items())


def test_tree_diagrams_listed_in_any_order():
    # of_sets takes the sets in any order: a reversed tree listed root first,
    # and the 3000-level nested sets listed in reverse, pair with themselves
    # and with their copies in size order, keeping every arc
    sets = (frozenset("abc"), frozenset("ab"), frozenset("a"), frozenset("b"), frozenset("c"))
    root_first = HasseDiagram.of_sets(sets, frozenset({(1, 0), (4, 0), (2, 1), (3, 1)}))
    by_size = _listed_in(root_first, [2, 3, 4, 1, 0])
    deep = _nested_diagram(3000)
    deep_reversed = _listed_in(deep, range(len(deep.masks) - 1, -1, -1))
    for h1, h2 in ((root_first, root_first), (root_first, by_size), (by_size, root_first),
                   (deep_reversed, deep_reversed), (deep_reversed, deep)):
        assert reversed_is_rooted_tree(h1) and reversed_is_rooted_tree(h2)
        iso = hasse_digraph_iso(h1, h2)
        assert iso is not None
        image = iso.assignment
        assert sorted(image) == sorted(image.values()) == list(range(len(h1.masks)))
        assert all((image[a], image[b]) in h2.arcs for a, b in h1.arcs)
        assert all(len(h1.vertices[a]) == len(h2.vertices[b]) for a, b in image.items())


def test_hasse_diagram_holds_one_bit_table():
    # one B-bit int per ball, its up-set complemented; a second such table
    # would put the peak past 2.25 B^2/8 bytes
    x = random_semimetric(GenConfig(seed=1, n=256, spectrum_pool=tuple(F(k) for k in range(1, 61))))
    ballean = enumerate_balls(x)
    size = len(ballean.masks)
    tracemalloc.start()
    try:
        diagram = hasse_diagram(ballean)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size > 15_000 and len(diagram.arcs) > size
    assert peak < 2.25 * size * size / 8
