"""Balls, balleans, Hasse diagrams of inclusion, and ball-preserving maps.

A ball B_r(t) is {x : d(x, t) <= r}. Sorting the points by their distance to
t lists every ball around t as a prefix that ends where the distance changes,
with that prefix's last distance as its radius (the smallest r that gives
it). Balls are identified by member set; the recorded (center, radius)
witness never participates in equality. The Hasse diagram has an arc for each
cover pair of the inclusion order (arcs point small -> large), read off
bitsets of the balls through each point. Deciding whether two balleans are
order-isomorphic is a digraph isomorphism problem; for ball structures of
ultrametric spaces the reversed diagram is a rooted tree and tree
canonization decides it, otherwise color refinement and the matching search
of ``search.match`` run. A Hasse isomorphism restricted to the zero-indegree
vertices (the one-point balls) always yields a ball-preserving point
bijection, which is re-verified before being returned.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import NotABijectionError, NotIsomorphicError, VerificationFailedError
from .reptree import RepTree
from .search import match
from .spaces import FiniteSemimetricSpace
from .treecanon import rooted_tree_iso_map


@dataclass(frozen=True, eq=False)
class Ball:
    members: frozenset[str]
    center: str
    radius: Fraction

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ball):
            return NotImplemented
        return self.members == other.members

    def __hash__(self) -> int:
        return hash(self.members)


def _set_key(members: frozenset[str]) -> tuple[int, tuple[str, ...]]:
    return (len(members), tuple(sorted(members)))


@dataclass(frozen=True)
class Ballean:
    """All distinct balls of a space, sorted by (size, member names)."""

    balls: tuple[Ball, ...]

    def member_sets(self) -> frozenset[frozenset[str]]:
        return frozenset(b.members for b in self.balls)


@lru_cache(maxsize=None)
def enumerate_balls(space: FiniteSemimetricSpace) -> Ballean:
    """Every ball of the space, deduplicated by member set.

    Always contains all singletons (r = 0) and the whole space (r = diam).
    A member set's witness is its first (center, radius) in point order, then
    radius order.
    """
    found: dict[frozenset[str], Ball] = {}
    pts = space.points
    n = len(pts)
    values = space.spectrum
    for t, row in zip(pts, space.ranks):
        order = sorted(range(n), key=row.__getitem__)
        prefix: list[str] = []
        for k, i in enumerate(order):
            prefix.append(pts[i])
            if k + 1 < n and row[order[k + 1]] == row[i]:
                continue
            members = frozenset(prefix)
            if members not in found:
                found[members] = Ball(members, t, values[row[i]])
    ordered = sorted(found.values(), key=lambda b: _set_key(b.members))
    return Ballean(tuple(ordered))


@dataclass(frozen=True)
class HasseDiagram:
    """Cover digraph of the inclusion order; arcs are vertex-index pairs."""

    vertices: tuple[frozenset[str], ...]
    arcs: frozenset[tuple[int, int]]

    def sorted_arcs(self) -> list[tuple[int, int]]:
        return sorted(self.arcs)

    def out_degrees(self) -> list[int]:
        degs = [0] * len(self.vertices)
        for a, _ in self.arcs:
            degs[a] += 1
        return degs


def hasse_diagram(ballean: Ballean) -> HasseDiagram:
    """Cover pairs B1 < B2 with no ball strictly between.

    Bit j of ``through[p]`` is set iff ball j contains p, so the AND over a
    ball's members gives its strict supersets. Balls are sorted by size, so
    the lowest remaining superset is a cover; the supersets of that cover are
    then not covers and are dropped. Each cover costs a few big-int
    operations on B-bit masks.
    """
    sets = tuple(b.members for b in ballean.balls)
    through: dict[str, int] = {}
    for j, members in enumerate(sets):
        bit = 1 << j
        for p in members:
            through[p] = through.get(p, 0) | bit
    above = []
    for i, members in enumerate(sets):
        mask = -1
        for p in members:
            mask &= through[p]
        above.append(mask & ~(1 << i))
    arcs = set()
    for i, rest in enumerate(above):
        while rest:
            k = (rest & -rest).bit_length() - 1
            arcs.add((i, k))
            rest &= ~(above[k] | (1 << k))
    return HasseDiagram(sets, frozenset(arcs))


def reversed_is_rooted_tree(diagram: HasseDiagram) -> bool:
    """True iff the arcs reversed (large -> small) form a rooted tree.

    Equivalent: exactly one vertex has no cover (the whole space) and every
    other vertex has exactly one. Cover relations are acyclic, so no extra
    cycle check is needed.
    """
    degs = diagram.out_degrees()
    roots = degs.count(0)
    return roots == 1 and all(d in (0, 1) for d in degs)


def _shape_tree(diagram: HasseDiagram) -> tuple[RepTree, list[int]]:
    """Unlabeled tree of a reversed-tree diagram, leaves = singletons, with
    the vertex index of each position; children in vertex-index order.
    Vertices are sorted by size, so every child ball comes before its parent
    and the whole space is last: the vertex indices number the tree bottom-up."""
    vertices = diagram.vertices
    children: list[list[int]] = [[] for _ in vertices]
    for a, b in diagram.sorted_arcs():
        children[b].append(a)
    points: list[str | None] = [None] * len(vertices)
    for i, kids in enumerate(children):
        if not kids:
            [points[i]] = vertices[i]  # a leaf is a one-point ball
    return RepTree.bottom_up([None] * len(vertices), points, children)


def _neighbors(h: HasseDiagram) -> tuple[list[list[int]], list[list[int]]]:
    """Predecessor and successor lists of every vertex."""
    preds: list[list[int]] = [[] for _ in h.vertices]
    succs: list[list[int]] = [[] for _ in h.vertices]
    for a, b in h.arcs:
        succs[a].append(b)
        preds[b].append(a)
    return preds, succs


def _joint_refine(h1: HasseDiagram, h2: HasseDiagram) -> tuple[list[int], list[int]] | None:
    """Color vertices of both diagrams together by iterated neighborhood
    refinement; returns None early if the color histograms diverge."""

    def heights(h: HasseDiagram, preds: list[list[int]]) -> list[int]:
        # longest path from a minimal vertex; vertices sorted by size are
        # already topological for inclusion.
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
        # A round keys every vertex by (own color, pred colors, succ colors)
        # and renames keys to small ints jointly across both diagrams, so the
        # ints stay comparable. Refinement only ever splits classes.
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


def hasse_digraph_iso(
    h1: HasseDiagram, h2: HasseDiagram
) -> dict[frozenset[str], frozenset[str]] | None:
    """Arc-preserving vertex bijection between Hasse diagrams, or None.

    Reversed-tree diagrams (the ultrametric case) are decided through rooted
    tree canonization; general diagrams through color refinement plus
    backtracking within color classes. The returned map is verified over all
    vertex pairs before being returned.
    """
    if len(h1.vertices) != len(h2.vertices) or len(h1.arcs) != len(h2.arcs):
        return None
    t1, t2 = reversed_is_rooted_tree(h1), reversed_is_rooted_tree(h2)
    if t1 != t2:
        return None
    if t1:
        shape1, index1 = _shape_tree(h1)
        shape2, index2 = _shape_tree(h2)
        try:
            psi = rooted_tree_iso_map(shape1, shape2, respect_labels=False)
        except NotIsomorphicError:
            return None
        assignment = {index1[a]: index2[b] for a, b in enumerate(psi)}
    else:
        assignment = _search_assignment(h1, h2)
        if assignment is None:
            return None
    if len(assignment) != len(h1.vertices) or len(set(assignment.values())) != len(assignment):
        raise VerificationFailedError("digraph iso is not a vertex bijection")
    for a, b in h1.arcs:
        if (assignment[a], assignment[b]) not in h2.arcs:
            raise VerificationFailedError("digraph iso failed arc re-check")
    return {h1.vertices[i]: h2.vertices[j] for i, j in assignment.items()}


def _search_assignment(h1: HasseDiagram, h2: HasseDiagram) -> dict[int, int] | None:
    """Vertex map of two general diagrams, or None: ``search.match`` over
    the refined colors, in ``_set_key`` order, testing a candidate against
    the assigned neighbours only."""
    refined = _joint_refine(h1, h2)
    if refined is None:
        return None
    pred1, succ1 = _neighbors(h1)
    pred2, succ2 = ([set(near) for near in lists] for lists in _neighbors(h2))

    def fits(i: int, j: int, image: list[int], used: list[bool]) -> bool:
        # The map is injective, so j's assigned neighbours are exactly the
        # images of i's once i's all land among j's and the counts agree.
        for near1, near2 in ((succ1[i], succ2[j]), (pred1[i], pred2[j])):
            count = 0
            for i2 in near1:
                j2 = image[i2]
                if j2 >= 0:
                    if j2 not in near2:
                        return False
                    count += 1
            if count != sum(used[j2] for j2 in near2):
                return False
        return True

    def by_key(h: HasseDiagram) -> list[int]:
        return sorted(range(len(h.vertices)), key=lambda v: _set_key(h.vertices[v]))

    return match(*refined, by_key(h1), by_key(h2), fits)


def verify_ball_preserving(
    x: FiniteSemimetricSpace, y: FiniteSemimetricSpace, mapping: dict[str, str]
) -> tuple[bool, tuple[str, frozenset[str], frozenset[str]] | None]:
    """Check images of X-balls are Y-balls and preimages of Y-balls X-balls.

    Returns (True, None) or (False, first violation) where the violation is
    ("image"|"preimage", ball members, offending image/preimage set).
    Raises NotABijectionError if the mapping is not a point bijection.
    """
    if set(mapping) != set(x.points) or len(set(mapping.values())) != len(mapping):
        raise NotABijectionError("mapping keys/values do not biject the point sets")
    if set(mapping.values()) != set(y.points):
        raise NotABijectionError("mapping keys/values do not biject the point sets")
    bx = enumerate_balls(x)
    by = enumerate_balls(y)
    x_sets = bx.member_sets()
    y_sets = by.member_sets()
    for ball in bx.balls:
        image = frozenset(mapping[p] for p in ball.members)
        if image not in y_sets:
            return (False, ("image", ball.members, image))
    inverse = {v: k for k, v in mapping.items()}
    for ball in by.balls:
        preimage = frozenset(inverse[p] for p in ball.members)
        if preimage not in x_sets:
            return (False, ("preimage", ball.members, preimage))
    return (True, None)


def ball_preserving_bijection(
    x: FiniteSemimetricSpace, y: FiniteSemimetricSpace
) -> dict[str, str] | None:
    """Point bijection whose ball images/preimages are balls, or None.

    Exists iff the Hasse diagrams are isomorphic; the map is read off a
    diagram isomorphism restricted to the zero-indegree vertices (the
    one-point balls) and then re-verified in full.
    """
    hx = hasse_diagram(enumerate_balls(x))
    hy = hasse_diagram(enumerate_balls(y))
    iso = hasse_digraph_iso(hx, hy)
    if iso is None:
        return None
    mapping: dict[str, str] = {}
    for bx_set, by_set in iso.items():
        if len(bx_set) == 1:
            if len(by_set) != 1:
                raise VerificationFailedError("singleton ball mapped to a larger ball")
            mapping[next(iter(bx_set))] = next(iter(by_set))
    ok, violation = verify_ball_preserving(x, y, mapping)
    if not ok:
        raise VerificationFailedError(f"extracted bijection not ball-preserving: {violation}")
    return mapping


# --- JSON / DOT wire formats --------------------------------------------------


def ballean_to_json(ballean: Ballean) -> dict:
    return {"balls": [sorted(b.members) for b in ballean.balls]}


def hasse_to_json(diagram: HasseDiagram) -> dict:
    return {
        "vertices": [sorted(v) for v in diagram.vertices],
        "arcs": [list(arc) for arc in diagram.sorted_arcs()],
    }


def hasse_iso_to_json(iso: dict[frozenset[str], frozenset[str]]) -> dict:
    pairs = sorted(iso.items(), key=lambda kv: _set_key(kv[0]))
    return {"map": [[sorted(a), sorted(b)] for a, b in pairs]}


def hasse_to_dot(diagram: HasseDiagram) -> str:
    lines = ["digraph hasse {"]
    for i, members in enumerate(diagram.vertices):
        text = "{" + ",".join(sorted(members)) + "}"
        lines.append(f'  b{i} [label="{text}"];')
    for a, b in diagram.sorted_arcs():
        lines.append(f"  b{a} -> b{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
