"""Reference implementations that the tree-document path is tested against.

``tree_from_json``, ``validate_tree`` and ``check_iso_map`` are the
recursive versions as they stood before the decoder went iterative: each
JSON object is decoded by one recursive call that parses its own label, each
node is validated by comparing Fraction labels, and a map is re-checked by
comparing each node's mapped children with its image's children as sets.
``tree_distance`` and ``strip_labels`` are recursive helpers used only by
tests. ``rank_aligned_pairing`` is the shape witness's pairing as it stood
before the witness took the weak-similarity tree map: a top-down walk that
pairs leaves in point-name order and internal siblings by label rank. All of them recurse once per tree level, so callers keep the trees
shallow or raise the recursion limit. ``witness_from_unlabeled_iso`` is
the shape witness as it stood before it paired the trees first: both shape
codes, then the class hypotheses, then the rank-keeping tree map.
``tree_isometry`` is that tree map as ``umtk.similarity`` ran it before the
decision compared the canonical trees ``build_tree`` returns: Y's tree moved
onto X's spectrum, both trees coded again by ``rooted_tree_iso_map`` and
walked in pairs. ``pairs`` is the walk ``treecanon`` and ``balls`` paired
two trees with before they zipped the two trees' own preorders: one stack
per tree, popped in step. ``tree_from_prim`` is ``build_tree`` as it stood
before it read the sorted-row certificate: the same stack pass over the
edges of ``ultrametric_mst``, in Prim's join order. ``ultrametric_mst`` is
the Prim pass that certified ultrametricity, and named a violation, before
the sorted-row certificate took both jobs over.

They work on nested ``RepNode``s: ``leaf`` and ``internal`` build them by
hand, and ``tree_of`` lays a nested tree out as the preorder arrays of a
``RepTree``, ranking its label values into the tree's spectrum. ``tree_to_json`` is the reference encoder of tree documents that
``reptree.tree_to_text`` is compared with; it builds the document bottom-up,
so it does not recurse. ``tree_iso_text`` is the reference writer of the
``umtk tree-iso`` document: the map as one dict of dotted paths, encoded by
``json.dumps(..., indent=2)``. ``chain_doc`` builds a chain document of any
depth, and ``same_json`` compares two JSON values of any depth with a stack.
"""
from __future__ import annotations

import json
from fractions import Fraction

from umtk.classify import INAPPLICABLE, NOT_ISOMORPHIC_SHAPES, _classify_tree
from umtk.errors import (
    FormatError,
    InvalidTreeError,
    NotIsomorphicError,
    NotUltrametricError,
    UnknownPointError,
    VerificationFailedError,
)
from umtk.reptree import RepNode, RepTree, _codes, build_tree
from umtk.similarity import WeakSimWitness, verify_weak_similarity
from umtk.spaces import format_rational, parse_rational, rank_values
from umtk.treecanon import canon_code_unlabeled, rooted_tree_iso_map


def leaf(point: str) -> RepNode:
    return RepNode(Fraction(0), (), point)


def internal(label: object, children) -> RepNode:
    lbl = label if isinstance(label, Fraction) else Fraction(label)  # type: ignore[arg-type]
    return RepNode(lbl, tuple(children), None)


def tree_of(root: RepNode) -> RepTree:
    """The preorder arrays of a nested tree, valid or not."""
    labels: list = []
    points: list = []
    children: list = []
    stack = [(root, [])]  # a node and the child list its position joins
    while stack:
        node, slot = stack.pop()
        slot.append(len(labels))
        labels.append(node.label)
        points.append(node.point)
        mine: list[int] = []
        children.append(mine if node.children else ())
        stack.extend((c, mine) for c in reversed(node.children))
    spectrum, ranks = rank_values(labels)
    return RepTree(ranks, points, children, spectrum)


def tree_to_json(tree: RepTree) -> dict:
    """The tree document, built in reverse preorder without recursion."""
    labels, points, children = tree.labels, tree.points, tree.children
    docs: list = [None] * len(tree)
    for v in range(len(tree) - 1, -1, -1):
        kids = children[v]
        if not kids:
            docs[v] = {"point": points[v]}
            continue
        doc: dict = {}
        if labels[v] is not None:
            doc["label"] = format_rational(tree.spectrum[labels[v]])
        doc["children"] = [docs[c] for c in kids]
        docs[v] = doc
    return docs[0]


def chain_doc(depth: int, leaf_first: bool) -> dict:
    """A chain tree document of ``depth`` levels, built level by level: level
    k holds the leaf ``pk`` and the level below, leaf first or last."""
    node: dict = {"point": "p0"}
    for k in range(1, depth + 1):
        kids = [{"point": f"p{k}"}, node]
        node = {"label": str(k), "children": kids if leaf_first else kids[::-1]}
    return node


def same_json(a, b) -> bool:
    """``a == b`` for JSON values, walked with a stack instead of recursion."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if type(x) is not type(y):
            return False
        if isinstance(x, dict):
            if x.keys() != y.keys():
                return False
            stack += ((x[k], y[k]) for k in x)
        elif isinstance(x, list):
            if len(x) != len(y):
                return False
            stack += zip(x, y)
        elif x != y:
            return False
    return True


def node_paths(tree: RepTree) -> list[str]:
    """Dotted child-index path of every position ("" is the root)."""
    paths = [""] * len(tree)
    for v, kids in enumerate(tree.children):
        prefix = paths[v] + "." if v else ""
        for k, c in enumerate(kids):
            paths[c] = f"{prefix}{k}"
    return paths


def tree_iso_text(tree1: RepTree, tree2: RepTree, labeled: bool) -> str:
    """What ``umtk tree-iso`` prints for two isomorphic trees: the map in
    pairing order, as one dict handed to ``json.dumps``."""
    walk: list[int] = []
    psi = rooted_tree_iso_map(tree1, tree2, respect_labels=labeled, walk=walk)
    p1, p2 = node_paths(tree1), node_paths(tree2)
    doc = {"isomorphic": True, "labeled": labeled, "map": {p1[a]: p2[psi[a]] for a in walk}}
    return json.dumps(doc, indent=2) + "\n"


def validate_tree(tree: RepTree, labeled: bool = True) -> None:
    points: set[str] = set()

    def walk(node: RepNode) -> None:
        if node.is_leaf:
            if node.point is None:
                raise InvalidTreeError("leaf without a point")
            if node.point in points:
                raise InvalidTreeError(f"duplicate leaf point {node.point!r}")
            points.add(node.point)
            if labeled and node.label != 0:
                raise InvalidTreeError(f"leaf {node.point!r} must be labeled 0")
            return
        if node.point is not None:
            raise InvalidTreeError("internal node carrying a point")
        if len(node.children) < 2:
            raise InvalidTreeError("internal node with fewer than 2 children")
        if labeled:
            if node.label is None:
                raise InvalidTreeError("internal node without a label")
            if node.label <= 0:
                raise InvalidTreeError("internal label must be positive")
            for child in node.children:
                if child.label is None:
                    raise InvalidTreeError("internal node without a label")
                if child.label >= node.label:
                    raise InvalidTreeError(
                        "child label must be strictly smaller than parent label"
                    )
        for child in node.children:
            walk(child)

    walk(tree.root)


def tree_from_json(doc: object) -> RepTree:
    def dec(obj: object) -> RepNode:
        if not isinstance(obj, dict):
            raise FormatError("tree node must be a JSON object")
        if "point" in obj:
            if "children" in obj or "label" in obj:
                raise FormatError("leaf nodes carry only a point")
            if not isinstance(obj["point"], str):
                raise FormatError("leaf point must be a string")
            return leaf(obj["point"])
        if "children" not in obj:
            raise FormatError('tree node needs "children" or "point"')
        kids = obj["children"]
        if not isinstance(kids, list) or not kids:
            raise FormatError('"children" must be a non-empty list')
        label = parse_rational(obj["label"]) if "label" in obj else None
        return RepNode(label, tuple(dec(k) for k in kids), None)

    tree = tree_of(dec(doc))
    validate_tree(tree, labeled=False)
    return tree


def check_iso_map(tree1, tree2, mapping, respect_labels=False) -> bool:
    nodes1 = list(tree1.nodes())
    nodes2 = list(tree2.nodes())
    if len(mapping) != len(nodes1) or len(nodes1) != len(nodes2):
        return False
    if set(mapping.values()) != set(nodes2) or set(mapping) != set(nodes1):
        return False
    if mapping[tree1.root] != tree2.root:
        return False
    for node in nodes1:
        image = mapping[node]
        if respect_labels and node.label != image.label:
            return False
        if {mapping[c] for c in node.children} != set(image.children):
            return False
    return True


def _paths_to_leaves(tree: RepTree) -> dict[str, tuple[RepNode, ...]]:
    paths: dict[str, tuple[RepNode, ...]] = {}

    def walk(node: RepNode, trail: tuple[RepNode, ...]) -> None:
        trail = trail + (node,)
        if node.is_leaf:
            paths[node.point] = trail  # type: ignore[index]
        for child in node.children:
            walk(child, trail)

    walk(tree.root, ())
    return paths


def tree_distance(tree: RepTree, x: str, y: str) -> Fraction:
    """Label of the lowest common ancestor of the two leaves (0 if x == y)."""
    paths = _paths_to_leaves(tree)
    for name in (x, y):
        if name not in paths:
            raise UnknownPointError(name)
    if x == y:
        return Fraction(0)
    px, py = paths[x], paths[y]
    shared = 0
    while shared < min(len(px), len(py)) and px[shared] is py[shared]:
        shared += 1
    lca = px[shared - 1]
    assert lca.label is not None
    # Strictly decreasing labels make the LCA label the maximum over the
    # connecting path (LCA and everything below it on both sides).
    between = list(px[shared - 1 :]) + list(py[shared:])
    assert lca.label == max(n.label for n in between if not n.is_leaf)
    return lca.label


def strip_labels(tree: RepTree) -> RepTree:
    """Same shape and leaf points, every label erased (None)."""

    def strip(node: RepNode) -> RepNode:
        return RepNode(None, tuple(strip(c) for c in node.children), node.point)

    return tree_of(strip(tree.root))


def rank_aligned_pairing(tx: RepTree, ty: RepTree) -> dict[str, str]:
    """Pair the two trees top-down, aligning internal siblings by label rank.

    Leaf siblings are paired in point-name order; internal siblings in
    decreasing label order. Returns the induced leaf map. Requires matching
    child profiles at every step, which holds for isomorphic shapes in the
    classes the shape witness handles.
    """
    phi: dict[str, str] = {}
    stack = [(0, 0)]  # position pairs, depth first
    while stack:
        a, b = stack.pop()
        a_kids, b_kids = tx.children[a], ty.children[b]
        if bool(a_kids) != bool(b_kids):
            raise VerificationFailedError("shape pairing mismatch: leaf vs internal")
        if not a_kids:
            phi[tx.points[a]] = ty.points[b]
            continue
        a_leaves = sorted((c for c in a_kids if not tx.children[c]), key=tx.points.__getitem__)
        b_leaves = sorted((c for c in b_kids if not ty.children[c]), key=ty.points.__getitem__)
        a_inner = sorted((c for c in a_kids if tx.children[c]), key=tx.labels.__getitem__, reverse=True)
        b_inner = sorted((c for c in b_kids if ty.children[c]), key=ty.labels.__getitem__, reverse=True)
        if len(a_leaves) != len(b_leaves) or len(a_inner) != len(b_inner):
            raise VerificationFailedError("shape pairing mismatch: child profiles differ")
        for ca, cb in zip(a_leaves, b_leaves):
            phi[tx.points[ca]] = ty.points[cb]
        stack.extend(zip(a_inner[::-1], b_inner[::-1]))
    return phi


def pairs(ordered1, ordered2, root1: int, root2: int) -> tuple[list[int], list[int]]:
    """The pairing walk over two trees' children in code order, from roots
    with equal codes: the first tree's nodes depth first, a node and then its
    children, and at the same index each one's image, the child at the same
    place under its parent's image."""
    nodes1: list[int] = []
    nodes2: list[int] = []
    stack1, stack2 = [root1], [root2]
    while stack1:
        a, b = stack1.pop(), stack2.pop()
        nodes1.append(a)
        nodes2.append(b)
        if ordered1[a]:
            stack1 += ordered1[a][::-1]
            stack2 += ordered2[b][::-1]
    return nodes1, nodes2


def tree_isometry(tx: RepTree, ty: RepTree) -> dict[str, str] | None:
    """Unverified point map between two representing trees that sends the
    k-th label of TX to the k-th of TY, or None: TY moved onto TX's spectrum
    shares TY's arrays, and the pairing keeps label ranks."""
    if len(tx.spectrum) != len(ty.spectrum):
        return None
    ty = RepTree(ty.labels, ty.points, ty.children, tx.spectrum)
    try:
        psi = rooted_tree_iso_map(tx, ty, respect_labels=True)
    except NotIsomorphicError:
        return None
    return {tx.points[v]: ty.points[psi[v]] for v, kids in enumerate(tx.children) if not kids}


def witness_from_unlabeled_iso(x, y):
    """The shape witness with its four code passes: the two shape codes
    first, then the labeled codes inside the tree map."""
    tx, ty = build_tree(x), build_tree(y)
    if canon_code_unlabeled(tx) != canon_code_unlabeled(ty):
        return NOT_ISOMORPHIC_SHAPES
    cx, cy = _classify_tree(tx), _classify_tree(ty)
    applicable = cx.inner_chain or (
        cx.distinct_labels
        and cx.uniform_last_level
        and cy.distinct_labels
        and cy.uniform_last_level
    )
    if not applicable:
        return INAPPLICABLE
    phi = tree_isometry(tx, ty) or {}
    witness = WeakSimWitness(tuple(zip(x.spectrum, y.spectrum)), phi)
    if not verify_weak_similarity(x, y, witness):
        raise VerificationFailedError("shape-derived witness failed re-check")
    return witness


def ultrametric_mst(space):
    """One pass of Prim's algorithm that certifies ultrametricity.

    Returns ``(None, edges)`` for an ultrametric space, where ``edges`` are
    the minimum spanning tree's ``(parent, child, weight rank)`` index
    triples in the order Prim added them, and ``(violation, ())`` otherwise.

    The pass starts at the first point. Each step adds the lowest-indexed
    vertex v nearest to the tree, through its parent p, the first tree vertex
    to reach that weight w. Before v is added, d(v, u) = max(w, d(p, u)) is
    checked for every vertex u already in the tree, in the order they were
    added. By induction these equalities say that d is the minimax distance
    of its own minimum spanning tree -- its subdominant ultrametric -- and a
    space is ultrametric iff it equals its subdominant ultrametric. A failing
    check can only be d(v, u) > max(w, d(p, u)), so the triple is (v, u, p).
    """
    d = space.ranks
    n = len(d)
    best = list(d[0])  # distance rank from each vertex to the tree built so far
    via = [0] * n  # the tree vertex realizing it
    added = [0]
    rest = list(range(1, n))
    edges = []
    while rest:
        v = min(rest, key=best.__getitem__)
        w, p = best[v], via[v]
        dv, dp = d[v], d[p]
        for u in added:
            dpu = dp[u]
            if dv[u] != (dpu if dpu > w else w):
                return tuple(space.points[k] for k in (v, u, p)), ()
        added.append(v)
        rest.remove(v)
        edges.append((p, v, w))
        for u in rest:
            if dv[u] < best[u]:
                best[u] = dv[u]
                via[u] = v
    return None, tuple(edges)


def tree_from_prim(space) -> RepTree:
    """The representing tree of an ultrametric space, read off Prim's join
    order and join weights by the Cartesian-tree stack pass."""
    violation, edges = ultrametric_mst(space)
    if violation is not None:
        raise NotUltrametricError(violation)
    n = len(space)
    labels = [0] * n
    kids = [()] * n
    low = list(space.points)
    stack = []

    def close(last):
        rank, members = stack.pop()
        members.append(last)
        members.sort(key=low.__getitem__)
        labels.append(rank)
        kids.append(members)
        low.append(low[members[0]])
        return len(labels) - 1

    last = 0
    for _, v, w in edges:
        while stack and stack[-1][0] < w:
            last = close(last)
        if stack and stack[-1][0] == w:
            stack[-1][1].append(last)
        else:
            stack.append((w, [last]))
        last = v
    while stack:
        last = close(last)
    _, ordered = _codes(labels, kids, space.spectrum, range(len(labels)))
    names = list(space.points) + [None] * (len(labels) - n)
    return RepTree.bottom_up(labels, names, ordered, space.spectrum)
