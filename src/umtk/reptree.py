"""Representing trees of finite ultrametric spaces.

A representing tree is a rooted tree whose leaves carry the points and whose
internal nodes carry positive rational labels that strictly decrease from
parent to child. The distance between two points equals the label of their
lowest common ancestor, which for strictly decreasing labels is also the
maximum label on the connecting path.

``build_tree`` reads the tree off the minimum spanning tree that certifies
ultrametricity (``spaces.ultrametric_mst``): the representing tree is the
single-linkage dendrogram of the space (Gower & Ross 1969). The spanning
tree's edges are merged in order of weight rank with union-find, and all
components joined at one weight w become the children of one internal node
labeled w -- the ball of radius w they span, whose diameter is w. Points are
leaves labeled 0. Each node's canonical code, which orders it among its
siblings, is built once from its children's codes, so building costs O(n^2)
like the certificate. The paper's construction, which
splits a ball into the parts of its diametrical graph, gives the same tree;
``diametrical`` keeps it for the ``diametric`` command and the property suite.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from operator import itemgetter

from .errors import FormatError, InvalidTreeError, NotUltrametricError
from .spaces import (
    FiniteSemimetricSpace,
    format_rational,
    parse_rational,
    ultrametric_mst,
    validate_semimetric,
)


class RepNode:
    """Tree node: internal nodes have a label and children, leaves a point.

    ``label`` is None on shape-only trees read from unlabeled documents.
    Nodes compare and hash by identity, so keying a dict by a node costs O(1)
    whatever the size of its subtree; trees are compared by their canonical
    codes or wire formats, not by ``==``. A slotted class, not a dataclass:
    a tree document builds one node per JSON object.
    """

    __slots__ = ("label", "children", "point")

    def __init__(self, label: Fraction | None, children: tuple["RepNode", ...] = (),
                 point: str | None = None) -> None:
        self.label = label
        self.children = children
        self.point = point

    @property
    def is_leaf(self) -> bool:
        return not self.children


# every leaf shares one zero label; Fractions are immutable
_ZERO = Fraction(0)


def leaf(point: str) -> RepNode:
    return RepNode(_ZERO, (), point)


def internal(label: object, children: tuple[RepNode, ...] | list[RepNode]) -> RepNode:
    lbl = label if isinstance(label, Fraction) else Fraction(label)  # type: ignore[arg-type]
    return RepNode(lbl, tuple(children), None)


@dataclass(frozen=True)
class RepTree:
    root: RepNode

    def nodes(self) -> list[RepNode]:
        """Every node in preorder: a node, then its children's subtrees in order."""
        order, stack = [], [self.root]
        while stack:
            node = stack.pop()
            order.append(node)
            if node.children:
                stack.extend(node.children[::-1])
        return order

    def leaves(self) -> tuple[RepNode, ...]:
        return tuple(n for n in self.nodes() if n.is_leaf)

    def leaf_points(self) -> tuple[str, ...]:
        return tuple(n.point for n in self.leaves())  # type: ignore[misc]


def validate_tree(tree: RepTree, labeled: bool = True, *, structure_first: bool = False) -> None:
    """Raise InvalidTreeError unless the tree satisfies the node invariants.

    Structural invariants always hold: leaves carry a point, internal nodes
    have >= 2 children and no point, and leaf points are pairwise distinct.
    With ``labeled=True`` the label invariants are enforced too: leaves are
    labeled 0 and internal labels are positive and strictly larger than every
    child label.

    One pass in preorder reports the first defect in preorder; with
    ``structure_first`` it reports the first structural defect, and the first
    label defect only if there is none. Labels are compared by rank: the
    distinct label objects (a decoded document shares one per literal) are
    sorted once, and equal values share a rank.
    """
    nodes = tree.nodes()
    rank: dict[int, int] = {}
    if labeled:
        values = {id(n.label): n.label for n in nodes if n.label is not None}
        values[id(_ZERO)] = _ZERO
        level = {v: r for r, v in enumerate(sorted(set(values.values())))}
        rank = {key: level[v] for key, v in values.items()}
    zero, rank_of = rank.get(id(_ZERO)), rank.get
    points: set[str] = set()
    defect = None  # the first label defect
    for node in nodes:
        kids = node.children
        if not kids:
            if node.point is None:
                raise InvalidTreeError("leaf without a point")
            if node.point in points:
                raise InvalidTreeError(f"duplicate leaf point {node.point!r}")
            points.add(node.point)
            if labeled and defect is None and rank_of(id(node.label)) != zero:
                defect = f"leaf {node.point!r} must be labeled 0"
        else:
            if node.point is not None:
                raise InvalidTreeError("internal node carrying a point")
            if len(kids) < 2:
                raise InvalidTreeError("internal node with fewer than 2 children")
            if labeled and defect is None:
                top = rank_of(id(node.label))
                if top is None:
                    defect = "internal node without a label"
                elif top <= zero:
                    defect = "internal label must be positive"
                else:
                    for child in kids:
                        below = rank_of(id(child.label))
                        if below is None:
                            defect = "internal node without a label"
                            break
                        if below >= top:
                            defect = "child label must be strictly smaller than parent label"
                            break
        if defect is not None and not structure_first:
            raise InvalidTreeError(defect)
    if defect is not None:
        raise InvalidTreeError(defect)


@lru_cache(maxsize=None)
def build_tree(space: FiniteSemimetricSpace) -> RepTree:
    """Representing tree of an ultrametric space (NotUltrametricError otherwise).

    Children are ordered by the labeled canonical code of their subtree (ties
    broken by leaf point names), so equal spaces yield identical trees.
    """
    violation, edges = ultrametric_mst(space)
    if violation is not None:
        raise NotUltrametricError(violation)
    from .treecanon import _codes  # local import: treecanon works on RepNode

    # Each component, keyed by its union-find root, carries its smallest leaf
    # point and its subtree. Leaf sets are disjoint, so comparing smallest
    # points is the same as comparing sorted leaf point tuples.
    comps = {i: (p, leaf(p)) for i, p in enumerate(space.points)}
    parent = list(range(len(space)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    weight = itemgetter(2)
    for rank, group in groupby(sorted(edges, key=weight), key=weight):
        label = space.spectrum[rank]
        pairs = [(a, b) for a, b, _ in group]
        joined = {find(i) for pair in pairs for i in pair}
        for a, b in pairs:
            parent[find(a)] = find(b)
        merged: dict[int, list[int]] = {}
        for r in joined:
            merged.setdefault(find(r), []).append(r)
        for root, members in merged.items():
            kids = sorted(comps.pop(r) for r in members)
            comps[root] = (kids[0][0], RepNode(label, tuple(node for _, node in kids)))
    [(_, root)] = comps.values()
    tree = RepTree(root)
    # children are in smallest-point order, so code order breaks ties by it
    ordered: dict[int, list[RepNode]] = {}
    _codes(tree, True, ordered)
    for node in tree.nodes():
        if node.children:
            node.children = tuple(ordered[id(node)])
    return tree


def space_from_tree(tree: RepTree) -> FiniteSemimetricSpace:
    """Ultrametric space realized by a fully labeled valid tree.

    Points appear in leaf order (depth-first). ``space_from_tree(build_tree(X))``
    reproduces X's distances exactly.
    """
    validate_tree(tree, labeled=True)
    leaves = tree.leaves()
    points = tuple(n.point for n in leaves)  # type: ignore[misc]
    index = {p: i for i, p in enumerate(points)}
    n = len(points)
    rows = [[Fraction(0)] * n for _ in range(n)]

    def fill(node: RepNode) -> list[int]:
        if node.is_leaf:
            return [index[node.point]]  # type: ignore[index]
        groups = [fill(c) for c in node.children]
        for gi in range(len(groups)):
            for gj in range(gi + 1, len(groups)):
                for a in groups[gi]:
                    for b in groups[gj]:
                        rows[a][b] = node.label  # type: ignore[assignment]
                        rows[b][a] = node.label  # type: ignore[assignment]
        return [i for g in groups for i in g]

    fill(tree.root)
    return validate_semimetric(points, tuple(tuple(r) for r in rows))


# --- JSON / DOT wire formats -------------------------------------------------
#
# internal node: {"label": "2", "children": [...]} (label optional on shape
# documents); leaf: {"point": "p"}.


def tree_to_json(tree: RepTree) -> dict:
    def enc(node: RepNode) -> dict:
        if node.is_leaf:
            return {"point": node.point}
        doc: dict = {}
        if node.label is not None:
            doc["label"] = format_rational(node.label)
        doc["children"] = [enc(c) for c in node.children]
        return doc

    return enc(tree.root)


def tree_from_json(doc: object, labeled: bool = False) -> RepTree:
    """Decode a tree document and check its structure, and its labels too
    when ``labeled``.

    One preorder pass over the JSON objects raises the first FormatError in
    preorder and parses each distinct label literal once; the nodes are built
    bottom-up, then one ``validate_tree`` pass checks them, reporting the
    first structural defect before any label defect. Nothing recurses.
    """
    labels: dict[str, Fraction] = {}
    decoded: list[tuple[Fraction | None, str | None, int]] = []  # preorder
    stack = [doc]
    while stack:
        obj = stack.pop()
        if not isinstance(obj, dict):
            raise FormatError("tree node must be a JSON object")
        if "point" in obj:
            if "children" in obj or "label" in obj:
                raise FormatError("leaf nodes carry only a point")
            if not isinstance(obj["point"], str):
                raise FormatError("leaf point must be a string")
            decoded.append((_ZERO, obj["point"], 0))
            continue
        if "children" not in obj:
            raise FormatError('tree node needs "children" or "point"')
        kids = obj["children"]
        if not isinstance(kids, list) or not kids:
            raise FormatError('"children" must be a non-empty list')
        text = obj.get("label")
        label = labels.get(text) if isinstance(text, str) else None
        if label is None and "label" in obj:
            label = labels[text] = parse_rational(text)  # no string is ever a key: it raises
        decoded.append((label, None, len(kids)))
        stack.extend(kids[::-1])
    # in reverse preorder a node's subtrees are done, its first child's on top
    built: list[RepNode] = []
    for label, point, count in reversed(decoded):
        kids = tuple(built[: -count - 1 : -1]) if count else ()
        del built[len(built) - count :]
        built.append(RepNode(label, kids, point))
    tree = RepTree(built[0])
    validate_tree(tree, labeled, structure_first=True)
    return tree


def tree_to_text(tree: RepTree) -> str:
    """``json.dumps(tree_to_json(tree), indent=2) + "\\n"``, written without
    recursion, so trees of any depth print."""
    out: list[str] = []
    stack: list = [(tree.root, "")]  # a node with its indent, or text to write
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, pad = item
        if not node.children:
            out.append(f'{{\n{pad}  "point": {json.dumps(node.point)}\n{pad}}}')
            continue
        label = "" if node.label is None else f'{pad}  "label": "{format_rational(node.label)}",\n'
        inner = pad + "    "
        out.append(f'{{\n{label}{pad}  "children": [\n{inner}')
        stack.append(f"\n{pad}  ]\n{pad}}}")
        for child in node.children[:0:-1]:
            stack += [(child, inner), ",\n" + inner]
        stack.append((node.children[0], inner))
    return "".join(out) + "\n"


def tree_to_dot(tree: RepTree) -> str:
    """Internal nodes show their label, leaves their point name (box shape).
    Nodes are numbered in preorder; a child's edge follows its subtree's."""
    lines = ["digraph tree {"]
    edges: list[str] = []
    # (node, parent id); an int in place of a node is a child whose subtree is done
    stack: list[tuple[RepNode | int, int]] = [(tree.root, -1)]
    while stack:
        node, parent = stack.pop()
        if isinstance(node, int):
            edges.append(f"  n{parent} -> n{node};")
            continue
        my_id = len(lines) - 1  # one line per node so far
        if node.is_leaf:
            lines.append(f'  n{my_id} [label="{node.point}", shape=box];')
        else:
            text = "" if node.label is None else format_rational(node.label)
            lines.append(f'  n{my_id} [label="{text}"];')
        if parent >= 0:
            stack.append((my_id, parent))
        stack.extend((child, my_id) for child in reversed(node.children))
    lines += edges
    lines.append("}")
    return "\n".join(lines) + "\n"
