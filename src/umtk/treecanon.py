"""Canonical codes and explicit isomorphisms for rooted trees.

Codes are computed bottom-up: a node's code is a bracketed concatenation of
its children's codes in sorted order, optionally prefixed with the node's
exact label. Two rooted trees are isomorphic (as rooted trees, leaf points
ignored) iff their codes are equal bytes; the labeled variant additionally
requires equal labels at matched nodes. Codes are plain byte strings built by
sorting, so identical trees give bitwise-identical codes on every run.
"""
from __future__ import annotations

from .errors import InvalidTreeError, NotIsomorphicError
from .reptree import RepNode, RepTree
from .spaces import format_rational


def _codes(tree: RepTree, labeled: bool, ordered: dict[int, list[RepNode]]) -> dict[int, bytes]:
    """Code of every node, keyed by ``id(node)``; ``ordered`` receives the
    children of every internal node in code order (ties in child-index order).

    One pass over the nodes in reverse preorder, which puts every node after
    all of its descendants, so each code is built once from its children's
    codes and no Python recursion is needed at any depth. Each distinct
    label object is formatted once.
    """
    codes: dict[int, bytes] = {}
    heads: dict[int, bytes] = {}  # id(label) -> b"(" + label + b"|"
    for node in reversed(tree.nodes()):
        head = heads.get(id(node.label)) if labeled else b"("
        if head is None:
            if node.label is None:
                raise InvalidTreeError("labeled code requested on an unlabeled node")
            head = heads[id(node.label)] = b"(" + format_rational(node.label).encode() + b"|"
        kids = node.children
        if not kids:
            codes[id(node)] = head + b")"
            continue
        pairs = sorted([(codes[id(c)], k) for k, c in enumerate(kids)])
        codes[id(node)] = head + b"".join([code for code, _ in pairs]) + b")"
        ordered[id(node)] = [kids[k] for _, k in pairs]
    return codes


def canon_code_unlabeled(tree: RepTree, ordered: dict[int, list[RepNode]] | None = None) -> bytes:
    """Shape-only canonical code; equal bytes iff rooted-tree isomorphic.
    A given ``ordered`` receives each internal node's children in code order."""
    return _codes(tree, False, {} if ordered is None else ordered)[id(tree.root)]


def canon_code_labeled(tree: RepTree, ordered: dict[int, list[RepNode]] | None = None) -> bytes:
    """Shape+label canonical code; leaf points never enter the code.
    A given ``ordered`` receives each internal node's children in code order."""
    return _codes(tree, True, {} if ordered is None else ordered)[id(tree.root)]


def rooted_tree_iso_map(
    tree1: RepTree, tree2: RepTree, respect_labels: bool = False
) -> dict[RepNode, RepNode]:
    """Explicit node bijection between isomorphic rooted trees.

    Children with equal canonical codes are paired in child-index order, so
    the map is deterministic. Its keys run depth first: a node, then its
    children in code order. Each tree's code is computed once, and the map
    walks the child orders it leaves. Raises NotIsomorphicError when the
    codes differ.
    """
    code = canon_code_labeled if respect_labels else canon_code_unlabeled
    ordered1: dict[int, list[RepNode]] = {}
    ordered2: dict[int, list[RepNode]] = {}
    if code(tree1, ordered1) != code(tree2, ordered2):
        raise NotIsomorphicError(
            "labeled codes differ" if respect_labels else "shape codes differ"
        )
    mapping: dict[RepNode, RepNode] = {}
    stack = [(tree1.root, tree2.root)]
    while stack:
        a, b = stack.pop()
        mapping[a] = b
        if a.children:
            # reversed, so the first pair in code order is popped first
            stack.extend(reversed(list(zip(ordered1[id(a)], ordered2[id(b)]))))
    return mapping


def check_iso_map(
    tree1: RepTree,
    tree2: RepTree,
    mapping: dict[RepNode, RepNode],
    respect_labels: bool = False,
) -> bool:
    """Verify a node bijection that maps root to root and keeps every
    parent (and, if asked, every label, compared as canonical text). For a
    bijection that fixes the roots, keeping parents is the same as mapping
    each node's children onto its image's children."""
    nodes1 = tree1.nodes()
    nodes2 = tree2.nodes()
    if len(mapping) != len(nodes1) or len(nodes1) != len(nodes2):
        return False
    if set(mapping.values()) != set(nodes2) or set(mapping) != set(nodes1):
        return False
    if mapping[tree1.root] is not tree2.root:
        return False
    parent2 = {id(c): node for node in nodes2 for c in node.children}
    if any(parent2.get(id(mapping[c])) is not mapping[p] for p in nodes1 for c in p.children):
        return False
    if not respect_labels:
        return True
    labels = {id(n.label): n.label for n in nodes1 + nodes2}  # each distinct label once
    text = {key: None if v is None else format_rational(v) for key, v in labels.items()}
    return all(text[id(a.label)] == text[id(b.label)] for a, b in mapping.items())
