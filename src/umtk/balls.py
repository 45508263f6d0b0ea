"""Balls, balleans, Hasse diagrams of inclusion, and ball-preserving maps.

A ball B_r(t) is {x : d(x, t) <= r}. Sorting the points by their distance to
t lists every ball around t as a prefix that ends where the distance changes,
with that prefix's last distance as its radius (the smallest r that gives
it). Balls are identified by member set; the recorded (center, radius)
witness never participates in equality. Every layer works on point indices:
a ball is an int mask in which a point's bit is n - 1 - (rank of its name),
so (size, -mask) sorts like (size, sorted names), the order of every ballean
and diagram. Name sets are made only where they are read (``Ballean.balls``,
``HasseDiagram.vertices`` and a violation); a ``HasseIso`` maps vertex
indices, and the writers write each ball's names from its member indices.
No member list is stored per ball: a ball is the first |ball| points of its
witness centre's distance order, and the ballean keeps each centre's order,
cut after its last new ball (n^2 indices at most). The balls a centre
witnesses are prefixes of that one order, so an up-set or X's image masks
take one running fold per centre, and a point's bitset of the balls through
it gives its ball profile by bit counts.
An ultrametric space's balls are the leaf sets of its representing tree's
nodes, and its Hasse diagram is that tree with its arcs reversed: the
ballean is read off the cached ``build_tree``, with the witnesses and
orders that the prefix loop gives, and each cover is a node's parent.
Every other space takes the prefix loop and the running-AND cover fold.
X's image masks alone check a point bijection: distinct balls have distinct
images, so once all are balls, Y's balls that none hits fail as preimages.
The Hasse diagram has an arc for each cover pair of the inclusion order
(arcs point small -> large). For ultrametric spaces the
reversed diagram is a rooted tree: its shape codes are built straight from
each vertex's predecessors by ``reptree._codes``, and the preorders of the
two code orders (``reptree._preorder``), zipped, pair the two diagrams in
place. Otherwise color refinement and the matching search of
``search.match`` run. A Hasse isomorphism restricted to the zero-indegree
vertices (the one-point balls) always yields a ball-preserving point
bijection, which is re-verified before being returned. A point's ball
profile, the sizes of the balls that contain it, is kept by every
ball-preserving bijection; where the profiles of X are pairwise distinct
they force the one candidate, and the verifier decides the pair without
either diagram: the candidate if it holds, no map if it is refuted (never
for ultrametric spaces of two or more points: the leaves under the deepest
inner node share every ball).
"""
from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import accumulate, chain, compress, groupby, repeat
from operator import and_, itemgetter, or_

from .errors import NotABijectionError, VerificationFailedError
from .reptree import RepTree, _codes, _parents, _preorder, build_tree
from .search import match
from .spaces import FiniteSemimetricSpace, _entries, _pair, _quote, _Record, _Value, dot_string, is_ultrametric


class Ball(_Value):
    """A member set and the (center, radius) witness, which no ``==`` or hash reads."""

    __slots__ = _fields = ("members", "center", "radius")

    def __init__(self, members: frozenset[str], center: str, radius: Fraction) -> None:
        self._set(members, center, radius)

    def _key(self) -> tuple:
        return (self.members,)


class Ballean(_Record):
    """All distinct balls of a space, sorted by (size, member names): ball i
    is ``masks[i]`` over the point bits ``bits``, witnessed by ``witnesses[i]``
    (centre index, radius rank). Its members are a prefix of its centre's
    distance order, ``orders[t][:masks[i].bit_count()]`` for its centre t,
    which ``members[i]`` reads; no member list is stored per ball. Each order
    is cut after its centre's last new ball. The first n balls are the
    one-point balls, each witnessed by its point. A centre that witnesses a
    ball of two or more points has a chain: its order and those balls'
    sizes. Ball n + k is ball ``places[k]`` of the chains in turn. On an
    ultrametric space ball i < B - 1 has one cover, ``covers[i]``; else None."""

    _fields = ("space", "bits", "masks", "witnesses", "orders", "chains", "places", "covers")

    def __init__(self, space: FiniteSemimetricSpace, bits: tuple[int, ...], masks: tuple[int, ...],
                 witnesses: tuple[tuple[int, int], ...], orders: list[list[int]],
                 chains: list[tuple[list[int], list[int]]], places: list[int], covers: list[int] | None = None) -> None:
        self._set(space, bits, masks, witnesses, orders, chains, places, covers)

    @cached_property
    def members(self) -> _Members:
        """Ball i's point indices in its centre's distance order, as ``members[i]``."""
        return _Members(self)

    @cached_property
    def balls(self) -> tuple[Ball, ...]:
        pts, values = self.space.points, self.space.spectrum
        return tuple(Ball(frozenset(map(pts.__getitem__, members)), pts[t], values[r])
                     for members, (t, r) in zip(self.members, self.witnesses))

    @cached_property
    def through(self) -> list[int]:
        """Bit j of ``through[p]`` is set iff ball j contains point p."""
        n = len(self.bits)
        # the masks in binary after a leading 1, last ball first: every
        # (n + 3)-th character from n + 2 - b on is bit b of each ball
        text = "".join(map(bin, map(or_, reversed(self.masks), repeat(1 << n))))
        return [int(text[n + 2 - b :: n + 3], 2) for b in self.bits]

    @cached_property
    def profiles(self) -> tuple[tuple[int, ...], ...]:
        """Each point's ball profile: the sizes of the balls that contain it,
        in ballean order, as flat (size, count) runs: the set bits of its
        ``through`` bitset in each run of balls of one size."""
        sizes, widths = zip(*[(size, len(list(group))) for size, group in groupby(map(int.bit_count, self.masks))])
        runs = list(zip(accumulate(widths, initial=0), [(1 << w) - 1 for w in widths]))
        profiles = []
        for t in self.through:
            counts = [(t >> lo & mask).bit_count() for lo, mask in runs]
            profiles.append(tuple(chain.from_iterable(compress(zip(sizes, counts), counts))))
        return tuple(profiles)


class _Members(Sequence[list[int]]):
    """A read-only view of a ballean's member lists: item i is a new list,
    the first ``masks[i].bit_count()`` points of ball i's centre's order."""

    def __init__(self, ballean: Ballean) -> None:
        self._orders, self._witnesses, self._masks = ballean.orders, ballean.witnesses, ballean.masks

    def __len__(self) -> int:
        return len(self._masks)

    def __getitem__(self, i: int) -> list[int]:  # type: ignore[override]
        return self._orders[self._witnesses[i][0]][: self._masks[i].bit_count()]


def _fold(ballean: Ballean, values: Sequence[int], op: Callable[[int, int], int]) -> list[int]:
    """``op`` folded over the values of each ball's members, for the balls of
    two or more points in ballean order: one running fold along each chain."""
    folded: list[int] = []
    for members, sizes in ballean.chains:
        folded += map([0, *accumulate(map(values.__getitem__, members), op)].__getitem__, sizes)
    return list(map(folded.__getitem__, ballean.places))


@lru_cache(maxsize=None)
def enumerate_balls(space: FiniteSemimetricSpace) -> Ballean:
    """Every ball of the space, deduplicated by member set.

    Always contains all singletons (r = 0) and the whole space (r = diam).
    A member set's witness is its first (center, radius) in point order, then
    radius order, and each centre's order is cut after its last new ball.
    An ultrametric space's balls are read off its tree (``_tree_balls``);
    otherwise a prefix costs one OR, and a ball one dict lookup.
    """
    n = len(space.points)
    rank = {p: k for k, p in enumerate(sorted(space.points))}
    bits = tuple(n - 1 - rank[p] for p in space.points)
    one = [1 << b for b in bits]
    found: dict[int, tuple[int, int]] = {}
    orders: list[list[int]] = []
    chains: list[tuple[list[int], list[int]]] = []
    chained: list[int] = []  # the masks of the chains' balls in turn
    up: dict[int, int] | None = None  # each ball's cover by mask, on the tree route
    if is_ultrametric(space):
        up = _tree_balls(space, build_tree(space), one, found, orders, chains, chained)
    else:
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
    # by size, then by -mask: a stable sort by size of the masks sorted down
    masks = tuple(sorted(sorted(found, reverse=True), key=int.bit_count))
    witnesses = tuple(map(found.__getitem__, masks))
    place = dict(zip(chained, range(len(chained))))
    covers = None
    if up is not None:
        index = dict(zip(masks, range(len(masks))))
        covers = [index[up[mask]] for mask in masks[:-1]]
    return Ballean(space, bits, masks, witnesses, orders, chains, list(map(place.__getitem__, masks[n:])), covers)


def _tree_balls(space: FiniteSemimetricSpace, tree: RepTree, one: list[int], found: dict[int, tuple[int, int]],
                orders: list[list[int]], chains: list, chained: list[int]) -> dict[int, int]:
    """``enumerate_balls``' lists filled from the space's tree, one ball per
    node, and each ball's cover by mask: its node's parent's ball. Node v's
    leaves are the run ``leaf[start[v]:end[v]]`` of the leaf order. Its mask
    is folded up from the leaves, and its witness is its lowest point at v's
    label. A centre's order walks up from its leaf while the centre is the
    node's lowest point, adding each node's new leaves in index order."""
    kids, labels = tree.children, tree.labels
    at = dict(zip(space.points, range(len(one))))
    spots = [v for v, c in enumerate(kids) if not c]
    leaf = [at[tree.points[v]] for v in spots]
    start = list(accumulate([not c for c in kids], initial=0))  # leaves before each position
    end, low, mask = start[1:], [0] * len(kids), [0] * len(kids)
    for v in range(len(kids) - 1, -1, -1):  # in preorder, a node's subtree follows it
        c = kids[v]
        if c:
            end[v] = end[c[-1]]
            low[v] = min(map(low.__getitem__, c))
            mask[v] = reduce(or_, map(mask.__getitem__, c))
        else:
            low[v] = leaf[start[v]]
            mask[v] = one[low[v]]
        found[mask[v]] = (low[v], labels[v])
    parent, home = _parents(kids), dict(zip(leaf, spots))
    for t in range(len(one)):
        order, sizes, u = [t], [], home[t]
        while u and low[parent[u]] == t:
            a = parent[u]
            order += sorted(leaf[start[a] : start[u]] + leaf[end[u] : end[a]])
            sizes.append(len(order))
            chained.append(mask[a])
            u = a
        orders.append(order)
        if sizes:
            chains.append((order, sizes))
    return {mask[v]: mask[parent[v]] for v in range(1, len(kids))}


class HasseDiagram(_Record):
    """Cover digraph of the inclusion order; arcs are vertex-index pairs.

    Vertex v is the mask ``masks[v]``, one bit per point. Vertices are
    listed by (size, sorted names), so each comes after the vertices below
    it, and ``succs[v]``/``preds[v]`` are v's neighbours in ascending order.
    The name sets ``vertices``, read from ``ballean`` for a diagram of one,
    and the arc set ``arcs`` are made on first read.
    """

    _fields = ("masks", "succs", "preds", "ballean")

    def __init__(self, masks: Sequence[int], succs: list[list[int]], preds: list[list[int]],
                 ballean: Ballean | None = None) -> None:
        self._set(masks, succs, preds, ballean)

    @classmethod
    def of_sets(cls, vertices: Sequence[frozenset[str]], arcs: Iterable[tuple[int, int]]) -> HasseDiagram:
        """The diagram of the given member sets, in any order, and arcs
        between their indices: the sets relisted by (size, sorted names),
        the arcs renumbered to match."""
        names = sorted(frozenset().union(*vertices), reverse=True)
        one = {p: 1 << b for b, p in enumerate(names)}
        given = [sum(map(one.__getitem__, v)) for v in vertices]
        order = sorted(range(len(given)), key=lambda v: (len(vertices[v]), -given[v]))
        place = {v: k for k, v in enumerate(order)}
        succs: list[list[int]] = [[] for _ in order]
        preds: list[list[int]] = [[] for _ in order]
        for a, b in sorted((place[a], place[b]) for a, b in arcs):
            succs[a].append(b)
            preds[b].append(a)
        diagram = cls([given[v] for v in order], succs, preds)
        diagram.__dict__["vertices"] = tuple(vertices[v] for v in order)
        return diagram

    @cached_property
    def vertices(self) -> tuple[frozenset[str], ...]:
        return tuple(b.members for b in self.ballean.balls)  # type: ignore[union-attr]

    @cached_property
    def arcs(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.sorted_arcs())

    def sorted_arcs(self) -> list[tuple[int, int]]:
        return [(a, b) for a, near in enumerate(self.succs) for b in near]

    def out_degrees(self) -> list[int]:
        return [len(near) for near in self.succs]


def hasse_diagram(ballean: Ballean) -> HasseDiagram:
    """Cover pairs B1 < B2 with no ball strictly between.

    An ultrametric ballean lists them (``covers``). Otherwise bit j of
    ``through[p]`` is set iff ball j contains p, so the AND over a ball's
    members is the ball and its strict supersets: one running AND along each
    chain, and a one-point ball's is its point's ``through`` itself. Balls
    are sorted by size, so the lowest remaining superset is a cover; the
    cover and its supersets are then dropped. Each cover costs a few big-int
    operations on B-bit masks.
    """
    masks, covers = ballean.masks, ballean.covers
    if covers is not None:  # the tree's arcs
        preds: list[list[int]] = [[] for _ in masks]
        for i, k in enumerate(covers):
            preds[k].append(i)
        return HasseDiagram(masks, [[k] for k in covers] + [[]], preds, ballean)
    through, n = ballean.through, len(ballean.bits)
    # each ball's up-set complemented, the one B-bit table; ball i < n is
    # the one-point ball of its witness centre. Each up-set is inverted in
    # place, so the up-sets and their complements are never all held at once
    singles = map(through.__getitem__, map(itemgetter(0), ballean.witnesses[:n]))
    clear = [*singles, *_fold(ballean, through, and_)]
    for i, up in enumerate(clear):
        clear[i] = ~up
    succs: list[list[int]] = []
    preds = [[] for _ in masks]
    for i, off in enumerate(clear):
        rest = ~off ^ (1 << i)
        succs.append([])
        while rest:
            k = (rest & -rest).bit_length() - 1
            succs[i].append(k)
            preds[k].append(i)
            rest &= clear[k]
    return HasseDiagram(masks, succs, preds, ballean)


def reversed_is_rooted_tree(diagram: HasseDiagram) -> bool:
    """True iff the arcs reversed (large -> small) form a rooted tree.

    Equivalent: exactly one vertex has no cover (the whole space) and every
    other vertex has exactly one. Cover relations are acyclic, so no extra
    cycle check is needed.
    """
    degs = diagram.out_degrees()
    return degs.count(0) == 1 and degs.count(1) == len(degs) - 1


def _joint_refine(h1: HasseDiagram, h2: HasseDiagram) -> tuple[list[int], list[int]] | None:
    """Int colours of both diagrams' vertices by joint iterated neighbourhood
    refinement from (in-degree, out-degree); None as soon as the colour
    histograms diverge. Stops when a round splits no class or every class
    holds one vertex of each side. Height needs no key: equal stable colours
    have equal predecessor colours, so by induction equal heights."""
    keys = [list(zip(map(len, h.preds), map(len, h.succs))) for h in (h1, h2)]
    classes = 0
    while True:
        # keys (own colour, sorted predecessor colours, -1, sorted successor
        # colours) are renamed to small ints jointly across both diagrams, so
        # the ints stay comparable; refinement only ever splits classes
        palette: dict[tuple, int] = {}
        colors = [[palette.setdefault(key, len(palette)) for key in side] for side in keys]
        if sorted(colors[0]) != sorted(colors[1]):
            return None
        if len(palette) in (classes, len(colors[0])):
            return colors[0], colors[1]
        classes = len(palette)
        keys = [
            [(c, *sorted(map(color.__getitem__, p)), -1, *sorted(map(color.__getitem__, s)))
             for c, p, s in zip(color, h.preds, h.succs)]
            for color, h in zip(colors, (h1, h2))
        ]


class HasseIso(_Record):
    """Arc-preserving vertex bijection of ``h1`` onto ``h2`` as vertex
    indices, ``assignment``: vertex ``i`` of ``h1`` is the name set
    ``h1.vertices[i]``."""

    __slots__ = _fields = ("h1", "h2", "assignment")

    def __init__(self, h1: HasseDiagram, h2: HasseDiagram, assignment: dict[int, int]) -> None:
        self._set(h1, h2, assignment)


def hasse_digraph_iso(h1: HasseDiagram, h2: HasseDiagram) -> HasseIso | None:
    """Arc-preserving vertex bijection between Hasse diagrams, or None.

    Reversed-tree diagrams (the ultrametric case) are decided by the shape
    codes of their predecessor lists in index order and paired from the
    last vertices, the whole spaces; general diagrams through color
    refinement plus backtracking within color classes. The returned map is
    checked to be a bijection that keeps every arc before being returned.
    """
    if len(h1.masks) != len(h2.masks) or sum(h1.out_degrees()) != sum(h2.out_degrees()):
        return None
    t1, t2 = reversed_is_rooted_tree(h1), reversed_is_rooted_tree(h2)
    if t1 != t2:
        return None
    succ2 = [set(near) for near in h2.succs]  # read by the search and the arc re-check
    if t1:
        code1, ordered1 = _codes(h1.masks, h1.preds, None, range(len(h1.masks)))
        code2, ordered2 = _codes(h2.masks, h2.preds, None, range(len(h2.masks)))
        if code1 != code2:
            return None
        assignment = dict(zip(_preorder(ordered1, len(h1.masks) - 1), _preorder(ordered2, len(h2.masks) - 1)))
    else:
        assignment = _search_assignment(h1, h2, succ2)
        if assignment is None:
            return None
    if len(assignment) != len(h1.masks) or len(set(assignment.values())) != len(assignment):
        raise VerificationFailedError("digraph iso is not a vertex bijection")
    for a, near in enumerate(h1.succs):
        if any(assignment[b] not in succ2[assignment[a]] for b in near):
            raise VerificationFailedError("digraph iso failed arc re-check")
    return HasseIso(h1, h2, assignment)


def _search_assignment(h1: HasseDiagram, h2: HasseDiagram, succ2: list[set[int]]) -> dict[int, int] | None:
    """Vertex map of two general diagrams, or None: ``search.match`` over
    the refined colors, in index order. Each arc of h1 is tested once, when
    its second end is placed (``succ2``: h2's successor sets), so a complete
    map takes h1's arcs into h2's, and onto them: ``hasse_digraph_iso`` has
    checked that the arc counts are equal."""
    refined = _joint_refine(h1, h2)
    if refined is None:
        return None
    pred1, succ1 = h1.preds, h1.succs
    pred2 = [set(near) for near in h2.preds]

    def fits(i: int, j: int, image: list[int]) -> bool:
        for near1, near2 in ((succ1[i], succ2[j]), (pred1[i], pred2[j])):
            for i2 in near1:
                if image[i2] >= 0 and image[i2] not in near2:
                    return False
        return True

    return match(*refined, fits)


def verify_ball_preserving(
    bx: Ballean, by: Ballean, mapping: dict[str, str]
) -> tuple[bool, tuple[str, frozenset[str], frozenset[str]] | None]:
    """Check images of X-balls are Y-balls and preimages of Y-balls X-balls,
    given the balleans of X and Y.

    Returns (True, None) or (False, first violation) where the violation is
    ("image"|"preimage", ball members, offending image/preimage set).
    Raises NotABijectionError if the mapping is not a point bijection.
    A ball's image mask is the OR of its members' image bits, folded along
    the chains; a one-point ball's image is a one-point ball. Only X's balls
    are folded: a bijection sends distinct balls to distinct images, so once
    every image is a ball of Y, the balls of Y whose preimage is not a ball
    are those that no image hits, and there are some iff Y has more balls.
    """
    images = set(mapping.values())
    if set(mapping) != set(bx.space.points) or len(images) != len(mapping) or images != set(by.space.points):
        raise NotABijectionError("mapping keys/values do not biject the point sets")
    pts, bit, n = bx.space.points, dict(zip(by.space.points, by.bits)), len(bx.bits)
    image_masks = _fold(bx, [1 << bit[mapping[p]] for p in pts], or_)
    found = list(map(set(by.masks).__contains__, image_masks))
    if False in found:
        ball = frozenset(map(pts.__getitem__, bx.members[n + found.index(False)]))
        return (False, ("image", ball, frozenset(map(mapping.__getitem__, ball))))
    if len(by.masks) == len(bx.masks):  # every ball of Y is an image
        return (True, None)
    hit = set(image_masks)
    k = next(k for k, mask in enumerate(by.masks[n:], n) if mask not in hit)
    ball = frozenset(map(by.space.points.__getitem__, by.members[k]))
    return (False, ("preimage", ball, frozenset(p for p in pts if mapping[p] in ball)))


def ball_preserving_bijection(
    x: FiniteSemimetricSpace, y: FiniteSemimetricSpace
) -> dict[str, str] | None:
    """Point bijection whose ball images/preimages are balls, or None.

    Such a map keeps each point's ball profile, so when X's profiles are
    pairwise distinct and Y's are the same set, the one map that pairs equal
    profiles is the only candidate: it is returned if it verifies, and
    otherwise there is none. Every other pair has such a map iff its Hasse
    diagrams are isomorphic; it is read off a diagram isomorphism
    restricted to the zero-indegree vertices (the one-point balls) and then
    re-verified in full.
    """
    bx, by = enumerate_balls(x), enumerate_balls(y)
    if len(bx.masks) != len(by.masks):
        return None
    profiles = set(bx.profiles)
    if len(profiles) == len(x.points) == len(y.points) and profiles == set(by.profiles):
        at = dict(zip(by.profiles, y.points))
        forced = dict(zip(x.points, map(at.__getitem__, bx.profiles)))
        return forced if verify_ball_preserving(bx, by, forced)[0] else None
    hx, hy = hasse_diagram(bx), hasse_diagram(by)
    iso = hasse_digraph_iso(hx, hy)
    if iso is None:
        return None
    # the first len(points) balls are the one-point balls, each witnessed by its point
    mapping: dict[str, str] = {}
    for i, j in iso.assignment.items():
        if i < len(x.points):
            if j >= len(y.points):
                raise VerificationFailedError("singleton ball mapped to a larger ball")
            mapping[x.points[bx.witnesses[i][0]]] = y.points[by.witnesses[j][0]]
    ok, violation = verify_ball_preserving(bx, by, mapping)
    if not ok:
        raise VerificationFailedError(f"extracted bijection not ball-preserving: {violation}")
    return mapping


# --- JSON / DOT wire formats --------------------------------------------------
#
# Each writer yields its document as pieces, the JSON ones those of
# json.dumps(doc, indent=2) + "\n", one per ball, vertex, arc or map entry;
# each name is quoted once per ballean. A diagram is written from the
# ballean it was built from.


def _ball_names(ballean: Ballean, names: list[str]) -> Callable[[int], Iterator[str]]:
    """Ball i's members as ``names`` writes them, in name order: its centre's
    order sliced to its size, sorted by descending bit (ascending name)."""
    by_bit = [""] * len(names)
    for b, name in zip(ballean.bits, names):
        by_bit[b] = name
    bits, masks, orders, witnesses = ballean.bits, ballean.masks, ballean.orders, ballean.witnesses
    return lambda i: map(by_bit.__getitem__, sorted(
        map(bits.__getitem__, orders[witnesses[i][0]][: masks[i].bit_count()]), reverse=True))


def _ball_writer(ballean: Ballean, depth: int) -> Callable[[int], str]:
    """Ball i's member names, sorted, as the JSON array ``json.dumps(indent=2)``
    writes ``depth`` levels in: a one-point ball's from a table of the points,
    read at its witness centre, and a larger ball's in one ``str.join``."""
    inner = "\n" + "  " * (depth + 1)
    head, sep, tail = "[" + inner, "," + inner, inner[:-2] + "]"
    quoted = list(map(_quote, ballean.space.points))
    names, single = _ball_names(ballean, quoted), [head + name + tail for name in quoted]
    witnesses, n = ballean.witnesses, len(quoted)
    return lambda i: single[witnesses[i][0]] if i < n else head + sep.join(names(i)) + tail


def ballean_pieces(ballean: Ballean) -> Iterator[str]:
    """``{"balls": ...}``, each ball's sorted names, one piece per ball."""
    balls = map(_ball_writer(ballean, 2), range(len(ballean.masks)))
    return chain(['{\n  "balls": '], _entries("[]", balls), ["\n}\n"])


def hasse_pieces(diagram: HasseDiagram) -> Iterator[str]:
    """``{"vertices": ..., "arcs": ...}``, one piece per vertex and per arc."""
    vertices = map(_ball_writer(diagram.ballean, 2), range(len(diagram.masks)))
    arcs = (_pair(a, b) for a, near in enumerate(diagram.succs) for b in near)
    return chain(['{\n  "vertices": '], _entries("[]", vertices), [',\n  "arcs": '], _entries("[]", arcs), ["\n}\n"])


def hasse_iso_pieces(iso: HasseIso) -> Iterator[str]:
    """``{"map": ...}``, each vertex of ``h1`` and its image as name lists,
    one piece per map entry."""
    ball1, ball2 = _ball_writer(iso.h1.ballean, 3), _ball_writer(iso.h2.ballean, 3)
    pairs = (_pair(ball1(i), ball2(iso.assignment[i])) for i in range(len(iso.h1.masks)))
    return chain(['{\n  "map": '], _entries("[]", pairs), ["\n}\n"])


# "%", ",", "{" and "}" in a name are percent-encoded, so each label names one member set
_PERCENT = str.maketrans({"%": "%25", ",": "%2C", "{": "%7B", "}": "%7D"})


def dot_label_name(name: str) -> str:
    """A point name as it stands in a vertex label of ``hasse_dot_pieces``:
    percent-encoded, then escaped for a DOT quoted string."""
    return dot_string(name.translate(_PERCENT))[1:-1]


def hasse_dot_pieces(diagram: HasseDiagram) -> Iterator[str]:
    """The diagram in DOT, one piece per vertex line and per arc line."""
    ballean = diagram.ballean
    names = _ball_names(ballean, list(map(dot_label_name, ballean.space.points)))
    vertices = (f'\n  b{i} [label="{{{",".join(names(i))}}}"];' for i in range(len(diagram.masks)))
    arcs = (f"\n  b{a} -> b{b};" for a, near in enumerate(diagram.succs) for b in near)
    return chain(["digraph hasse {"], vertices, arcs, ["\n}\n"])
