"""Representing trees of finite ultrametric spaces.

A representing tree is a rooted tree whose leaves carry the points and whose
internal nodes carry positive rational labels that strictly decrease from
parent to child. The distance between two points equals the label of their
lowest common ancestor, which for strictly decreasing labels is also the
maximum label on the connecting path.

A ``RepTree`` is held as preorder arrays: position 0 is the root, and each
position has a label, a leaf point (None on internal nodes) and the positions
of its children; like a space, it carries its spectrum, and each label is an
int rank into it. It is the one form of a tree: every layer reads the
arrays, the decoder writes them directly, its labels ranked by
``spaces.read_literals`` like a space document's entries, and every producer
that makes nodes children first (``build_tree``, the generators) numbers
them bottom-up and has ``RepTree.bottom_up`` lay them out. ``RepNode`` is
only a read-only view of values, built on first use, for code that walks
nodes. The walks every tree consumer shares (``_preorder``, ``_inner_levels``,
``_parents``, ``_leaf_runs``) and the code pass ``_codes`` are here; they
take any child arrays (empty or None at a leaf) and never recurse.

``build_tree`` reads the tree off the leaf order that certifies
ultrametricity (``spaces.ultrametric_order``): the representing tree is the
single-linkage dendrogram of the space (Gower & Ross 1969). Every ball is a
run of that order, and one stack pass over its neighbour distances reads
the tree off: the runs that weight w separates inside a run of weights up to
w are the children of one internal node labeled w -- the ball of radius w
they span, whose diameter is w. Points are leaves labeled 0. A space that
is not ultrametric is named by the certificate's first failing T test.
Each node's canonical code, which orders it among its siblings, is built
once from its children's codes, so building costs O(n^2) like the
certificate. The paper's construction, which
splits a ball into the parts of its diametrical graph, gives the same tree;
``diametrical`` keeps it for the ``diametric`` command and the property suite.
"""
from __future__ import annotations

import json
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

from .errors import FormatError, InvalidTreeError, NotUltrametricError
from .spaces import (
    FiniteSemimetricSpace,
    _certify,
    check_point_names,
    dot_string,
    format_rational,
    read_literals,
    validate_semimetric,
)

# ``classify``'s class codes, here so that ``cli`` builds ``gen --class`` without it
CLASS_CODES = ("R", "Rtilde", "D", "T")


def _preorder(children: Sequence[Sequence[int] | None], root: int) -> list[int]:
    """The nodes under ``root`` depth first: a node, then its children's
    subtrees in the given order."""
    order: list[int] = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        kids = children[v]
        if kids:
            stack.extend(kids[::-1])
    return order


def _inner_levels(children: Sequence[Sequence[int]], root: int) -> list[list[int]]:
    """The internal nodes under ``root`` level by level, top down, each level
    in the given child order. The last entry, the deepest level, holds only
    leaves: it is empty."""
    levels: list[list[int]] = []
    level = [root]
    while level:
        inner = [v for v in level if children[v]]
        levels.append(inner)
        level = [c for v in inner for c in children[v]]
    return levels


def _parents(children: Sequence[Sequence[int]]) -> list[int]:
    """Each node's parent; 0 at a node without one."""
    parent = [0] * len(children)
    for v, kids in enumerate(children):
        for c in kids:
            parent[c] = v
    return parent


def _leaf_runs(children: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """Each node's leaves as the run ``start[v]:end[v]`` of the leaf order of
    preorder arrays, where a node's subtree follows it: one reverse pass."""
    start = list(accumulate([not kids for kids in children], initial=0))  # leaves before each position
    end = start[1:]  # one past each position's last leaf, set below for internal nodes
    for v in range(len(children) - 1, -1, -1):
        if children[v]:
            end[v] = end[children[v][-1]]
    return start, end


def _codes(
    labels: Sequence, children: Sequence[Sequence[int]], spectrum: Sequence | None, bottom_up: Iterable[int]
) -> tuple[bytes, list[list[int] | None]]:
    """Code of the last node of ``bottom_up``, and every internal node's
    children in code order (ties in child order; None at a leaf), indexed
    by node; shape codes if ``spectrum``, which ``labels`` rank into, is None
    (then ``labels`` only gives the node count).

    ``bottom_up`` lists the nodes, each after all of its descendants, so
    each code is built once from its children's codes and no Python
    recursion is needed at any depth. A code is dropped once its parent's
    is built, so a deep chain holds a few codes at a time rather than one
    per level. Each spectrum value is formatted once, into a head and a
    leaf code per rank, and a leaf's code is looked up, not built.
    """
    codes: list[bytes] = [b""] * len(labels)
    ordered: list[list[int] | None] = [None] * len(labels)
    code_of = codes.__getitem__
    heads = {r: b"(" + format_rational(v).encode() + b"|" for r, v in enumerate(spectrum or ())}
    leaves = {r: head + b")" for r, head in heads.items()}
    for v in bottom_up:
        kids = children[v]
        if not kids:
            code = codes[v] = b"()" if spectrum is None else leaves.get(labels[v])
            if code is not None:
                continue  # else the leaf has no head either, and raises below
        head = b"(" if spectrum is None else heads.get(labels[v])
        if head is None:
            raise InvalidTreeError("labeled code requested on an unlabeled node")
        order = ordered[v] = sorted(kids, key=code_of)
        codes[v] = head + b"".join(map(code_of, order)) + b")"
        for c in kids:
            codes[c] = b""
    return codes[v], ordered


class RepNode:
    """Read-only node view of a ``RepTree`` position: internal nodes have a
    label and children, leaves a point.

    ``label`` is the label's value, None on shape-only trees read from
    unlabeled documents. Nodes compare and hash by identity; trees are
    compared by their canonical codes or wire formats, not by ``==``.
    """

    __slots__ = ("label", "children", "point")

    def __init__(self, label: object, children: tuple["RepNode", ...] = (),
                 point: str | None = None) -> None:
        self.label = label
        self.children = children
        self.point = point

    @property
    def is_leaf(self) -> bool:
        return not self.children


class RepTree:
    """A rooted tree as preorder arrays.

    ``labels[v]``, ``points[v]`` and ``children[v]`` describe position v:
    position 0 is the root, a node comes before its children's subtrees,
    and ``children[v]`` lists the children's positions in order (empty at a
    leaf). A position with no children is a leaf. ``labels[v]`` is the rank
    of v's label in ``spectrum``, the tree's distinct label values and 0 in
    increasing order, or None on a node without a label. Trees are never
    changed once made, and trees may share arrays. The node view (``root``,
    ``nodes()``) is built on first use.
    """

    __slots__ = ("labels", "points", "children", "spectrum", "_nodes")

    def __init__(self, labels: list[int | None], points: list[str | None],
                 children: list[Sequence[int]], spectrum: tuple) -> None:
        self.labels, self.points, self.children, self.spectrum = labels, points, children, spectrum
        self._nodes: list[RepNode] | None = None

    @classmethod
    def bottom_up(cls, labels: list[int | None], points: list[str | None],
                  children: Sequence[Sequence[int] | None],
                  spectrum: tuple) -> "RepTree":
        """Lay out a tree whose nodes are numbered bottom-up, every child
        before its parent and the root last (a leaf's children are empty or
        None), as the preorder tree, each node's children in the given
        order."""
        order = _preorder(children, len(labels) - 1)
        at = [0] * len(labels)
        for p, v in enumerate(order):
            at[v] = p
        kids_at = [[at[c] for c in children[v]] if children[v] else () for v in order]
        return cls([labels[v] for v in order], [points[v] for v in order], kids_at, spectrum)

    def __len__(self) -> int:
        return len(self.labels)

    def nodes(self) -> list[RepNode]:
        """The node view, one ``RepNode`` per position, in preorder."""
        if self._nodes is None:
            value = dict(enumerate(self.spectrum)).get  # None stays None
            nodes = [RepNode(value(rank), (), point) for rank, point in zip(self.labels, self.points)]
            for node, kids in zip(nodes, self.children):
                if kids:
                    node.children = tuple([nodes[c] for c in kids])
            self._nodes = nodes
        return self._nodes

    @property
    def root(self) -> RepNode:
        return self.nodes()[0]

    def leaf_points(self) -> tuple[str, ...]:
        return tuple(p for p, kids in zip(self.points, self.children) if not kids)  # type: ignore[misc]


def validate_tree(tree: RepTree, labeled: bool = True) -> None:
    """Raise InvalidTreeError unless the tree satisfies the node invariants.

    Structural invariants always hold: leaves carry a point, internal nodes
    have >= 2 children and no point, and leaf points are pairwise distinct.
    With ``labeled=True`` the label invariants are enforced too: leaves are
    labeled 0 and internal labels are positive and strictly larger than every
    child label.

    One pass in preorder reports the first structural defect in preorder,
    and only then ``_check_labels``'s pass the first label defect.
    """
    points = tree.points
    seen: set[str] = set()
    for v, kids in enumerate(tree.children):
        if not kids:
            point = points[v]
            if point is None:
                raise InvalidTreeError("leaf without a point")
            if point in seen:
                raise InvalidTreeError(f"duplicate leaf point {point!r}")
            seen.add(point)
        elif points[v] is not None:
            raise InvalidTreeError("internal node carrying a point")
        elif len(kids) < 2:
            raise InvalidTreeError("internal node with fewer than 2 children")
    if labeled:
        _check_labels(tree)


def _check_labels(tree: RepTree) -> None:
    """Raise InvalidTreeError at the first label defect in preorder. Labels
    are ranks, so they are compared as ints."""
    ranks = tree.labels
    zero = tree.spectrum.index(0)
    for v, kids in enumerate(tree.children):
        top = ranks[v]
        if not kids:
            if top != zero:
                raise InvalidTreeError(f"leaf {tree.points[v]!r} must be labeled 0")
        elif top is None:
            raise InvalidTreeError("internal node without a label")
        elif top <= zero:
            raise InvalidTreeError("internal label must be positive")
        else:
            for c in kids:
                below = ranks[c]
                if below is None:
                    raise InvalidTreeError("internal node without a label")
                if below >= top:
                    raise InvalidTreeError("child label must be strictly smaller than parent label")


@lru_cache(maxsize=None)
def build_tree(space: FiniteSemimetricSpace) -> RepTree:
    """Representing tree of an ultrametric space (NotUltrametricError otherwise).

    Children are ordered by the labeled canonical code of their subtree (ties
    broken by leaf point names), so equal spaces yield identical trees.
    """
    path, violation = _certify(space)
    if path is None:
        raise NotUltrametricError(violation)
    # Every ball is a run of the leaf order, and each weight is the distance
    # between neighbours in it: the tree is the Cartesian tree of the
    # weights, equal weights in one node. Open nodes wait on a stack, and a
    # larger weight closes them. Numbered as they close, after the points
    # 0..n-1, every child comes before its parent. Each node keeps its
    # smallest leaf point, which orders disjoint leaf sets.
    order, weights = path
    n = len(space)
    labels: list[int | None] = [0] * n  # a space's spectrum starts at 0
    kids: list[Sequence[int]] = [()] * n
    low = list(space.points)
    stack: list[tuple[int, list[int]]] = []  # (label rank, children so far)

    def close(last: int) -> int:
        rank, members = stack.pop()
        members.append(last)
        members.sort(key=low.__getitem__)
        labels.append(rank)
        kids.append(members)
        low.append(low[members[0]])
        return len(labels) - 1

    last = order[0]  # the closed subtree that ends at the last point read
    for v, w in zip(order[1:], weights):
        while stack and stack[-1][0] < w:
            last = close(last)
        if stack and stack[-1][0] == w:
            stack[-1][1].append(last)
        else:
            stack.append((w, [last]))
        last = v
    while stack:
        last = close(last)
    # children are in smallest-point order, so code order breaks ties by it
    _, ordered = _codes(labels, kids, space.spectrum, range(len(labels)))
    names = list(space.points) + [None] * (len(labels) - n)
    return RepTree.bottom_up(labels, names, ordered, space.spectrum)


def space_from_tree(tree: RepTree) -> FiniteSemimetricSpace:
    """Ultrametric space realized by a fully labeled valid tree.

    Points appear in leaf order (depth-first). ``space_from_tree(build_tree(X))``
    reproduces X's distances exactly. The leaves below a node are one run of
    that order, so its label fills each leaf's row over the other children's
    runs, two slices per leaf: each pair is written once, at its lowest
    common ancestor, and no walk recurses.
    """
    validate_tree(tree, labeled=True)
    labels, children = tree.labels, tree.children
    points = tree.leaf_points()
    rows = [[0] * len(points) for _ in points]  # valid labels are positive, so 0 has rank 0
    start, end = _leaf_runs(children)
    for v, kids in enumerate(children):
        if kids:
            s, e = start[v], end[v]
            for c in kids:
                left, right = [labels[v]] * (start[c] - s), [labels[v]] * (e - end[c])
                for row in rows[start[c]:end[c]]:
                    row[s:start[c]] = left
                    row[end[c]:e] = right
    return validate_semimetric(points, rows, (tree.spectrum, rows))


# --- JSON / DOT wire formats -------------------------------------------------
#
# internal node: {"label": "2", "children": [...]} (label optional on shape
# documents); leaf: {"point": "p"}.


def tree_from_json(doc: object, labeled: bool = False) -> RepTree:
    """Decode a tree document and check its structure, and its labels too
    when ``labeled``.

    One preorder pass over the JSON objects fills the tree's arrays, labels
    as literals ("0" at a leaf and, ranked None, at a node without one), up
    to the first structural FormatError; ``read_literals`` ranks the labels
    read before that error is raised, so the first FormatError in preorder
    is reported. The pass notes a child list with one entry, and one set
    over the points finds a repeated one: only then does ``validate_tree``
    scan, to name the first structural defect in preorder, before
    ``_check_labels`` checks labels.
    Nothing recurses: the walk keeps one iterator per open child list,
    beside the list its positions join, so a leaf is read in place and only
    an internal node opens a list.
    """
    texts: list[object] = []
    unlabeled: list[int] = []  # the positions of internal nodes without a label
    points: list[str | None] = []
    children: list[Sequence[int]] = []
    stack = [(iter((doc,)), [])]  # (an open child list's iterator, its positions)
    defect = None
    single = False  # a child list with one entry was opened
    try:
        while stack:
            objs, mine = stack[-1]
            for obj in objs:
                mine.append(len(texts))
                if not isinstance(obj, dict):
                    raise FormatError("tree node must be a JSON object")
                if "point" in obj:
                    if "children" in obj or "label" in obj:
                        raise FormatError("leaf nodes carry only a point")
                    point = obj["point"]
                    if not isinstance(point, str):
                        raise FormatError("leaf point must be a string")
                    texts.append("0")
                    points.append(point)
                    children.append(())
                    continue
                if "children" not in obj:
                    raise FormatError('tree node needs "children" or "point"')
                kids = obj["children"]
                if not isinstance(kids, list) or not kids:
                    raise FormatError('"children" must be a non-empty list')
                if len(kids) == 1:
                    single = True
                if "label" not in obj:
                    unlabeled.append(len(texts))
                texts.append(obj.get("label", "0"))
                points.append(None)
                opened: list[int] = []
                children.append(opened)
                stack.append((iter(kids), opened))
                break
            else:
                stack.pop()
    except FormatError as err:
        defect = err
    spectrum, (ranks,) = read_literals((texts,))
    if defect is not None:
        raise defect
    check_point_names(filter(None, points))
    labels: list[int | None] = list(ranks)
    for k in unlabeled:
        labels[k] = None
    tree = RepTree(labels, points, children, spectrum)
    names = set(points)  # the leaves' points, and None for the internal nodes
    if single or len(names) - (None in names) != children.count(()):  # a leaf's children are ()
        validate_tree(tree, labeled=False)
    if labeled:
        _check_labels(tree)
    return tree


_COMMA, _CLOSE = -1, -2  # tree_to_text's stack markers


def tree_to_text(tree: RepTree) -> Iterator[str]:
    """The pieces of the tree document, in order: joined, they are
    ``json.dumps(doc, indent=2) + "\\n"``. They are made without recursion, so
    trees of any depth print, and one at a time, so the document, which grows
    with the square of a chain's depth, is never held whole."""
    labels, points, children = tree.labels, tree.points, tree.children
    text = [format_rational(v) for v in tree.spectrum]
    # (position, indent width), or a marker with the width of its text:
    # _COMMA before a later sibling, _CLOSE after a node's last child. Only
    # widths wait on the stack, and one indent string, pad, is held at a
    # time, so what waits grows linearly with a chain's depth.
    stack, pad = [(0, 0)], ""
    while stack:
        v, width = stack.pop()
        if len(pad) != width:
            pad = " " * width
        if v < 0:
            yield ",\n" + pad if v == _COMMA else f"\n{pad}  ]\n{pad}}}"
            continue
        kids = children[v]
        if not kids:
            yield f'{{\n{pad}  "point": {json.dumps(points[v])}\n{pad}}}'
            continue
        label = "" if labels[v] is None else f'{pad}  "label": "{text[labels[v]]}",\n'
        inner = width + 4
        yield f'{{\n{label}{pad}  "children": [\n{pad}    '
        stack.append((_CLOSE, width))
        for c in kids[:0:-1]:
            stack += [(c, inner), (_COMMA, inner)]
        stack.append((kids[0], inner))
    yield "\n"


def tree_to_dot(tree: RepTree) -> str:
    """Internal nodes show their label, leaves their point name (box shape).
    Nodes are numbered in preorder; a child's edge follows its subtree's."""
    labels, points, children = tree.labels, tree.points, tree.children
    text = [format_rational(v) for v in tree.spectrum]
    lines = ["digraph tree {"]
    for v, kids in enumerate(children):
        if not kids:
            lines.append(f"  n{v} [label={dot_string(points[v])}, shape=box];")
        else:
            label = "" if labels[v] is None else text[labels[v]]
            lines.append(f"  n{v} [label={dot_string(label)}];")
    # (position, parent); a complemented position is a child whose subtree is done
    stack = [(0, -1)]
    while stack:
        v, up = stack.pop()
        if v < 0:
            lines.append(f"  n{up} -> n{~v};")
            continue
        if up >= 0:
            stack.append((~v, up))
        stack.extend([(c, v) for c in children[v][::-1]])
    lines.append("}")
    return "\n".join(lines) + "\n"
