"""Canonical codes and explicit isomorphisms for rooted trees.

Codes are computed bottom-up: a node's code is a bracketed concatenation of
its children's codes in sorted order, optionally prefixed with the node's
exact label. Two rooted trees are isomorphic (as rooted trees, leaf points
ignored) iff their codes are equal bytes; the labeled variant additionally
requires equal labels at matched nodes. Codes are plain byte strings built by
sorting, so identical trees give bitwise-identical codes on every run.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .errors import InvalidTreeError, NotIsomorphicError
from .reptree import RepNode, RepTree
from .spaces import format_rational


def node_code(label: Fraction | None, kid_codes: Iterable[bytes]) -> bytes:
    """Code of a node from its children's codes: the labeled code when a
    label is given, the shape-only code for None."""
    kids = b"".join(sorted(kid_codes))
    if label is None:
        return b"(" + kids + b")"
    return b"(" + format_rational(label).encode() + b"|" + kids + b")"


def _codes(tree: RepTree, labeled: bool) -> dict[int, bytes]:
    """Code of every node of the tree, keyed by ``id(node)``.

    One pass over the nodes in reverse depth-first order, which puts every
    node after all of its descendants, so each code is built once from its
    children's codes and no Python recursion is needed at any depth.
    """
    codes: dict[int, bytes] = {}
    for node in reversed(list(tree.nodes())):
        if labeled and node.label is None:
            raise InvalidTreeError("labeled code requested on an unlabeled node")
        kids = [codes[id(c)] for c in node.children]
        codes[id(node)] = node_code(node.label if labeled else None, kids)
    return codes


def canon_code_unlabeled(tree: RepTree) -> bytes:
    """Shape-only canonical code; equal bytes iff rooted-tree isomorphic."""
    return _codes(tree, False)[id(tree.root)]


def canon_code_labeled(tree: RepTree) -> bytes:
    """Shape+label canonical code; leaf points never enter the code."""
    return _codes(tree, True)[id(tree.root)]


def rooted_tree_iso_map(
    tree1: RepTree, tree2: RepTree, respect_labels: bool = False
) -> dict[RepNode, RepNode]:
    """Explicit node bijection between isomorphic rooted trees.

    Children with equal canonical codes are paired in child-index order, so
    the map is deterministic. Its keys run depth first: a node, then its
    children in code order. Raises NotIsomorphicError when the codes differ.
    """
    codes1 = _codes(tree1, respect_labels)
    codes2 = _codes(tree2, respect_labels)
    if codes1[id(tree1.root)] != codes2[id(tree2.root)]:
        raise NotIsomorphicError(
            "labeled codes differ" if respect_labels else "shape codes differ"
        )
    mapping: dict[RepNode, RepNode] = {}
    stack = [(tree1.root, tree2.root)]
    while stack:
        a, b = stack.pop()
        mapping[a] = b
        kids_a = sorted(a.children, key=lambda c: codes1[id(c)])
        kids_b = sorted(b.children, key=lambda c: codes2[id(c)])
        # reversed, so the first pair in code order is popped first
        stack.extend(reversed(list(zip(kids_a, kids_b))))
    return mapping


def check_iso_map(
    tree1: RepTree,
    tree2: RepTree,
    mapping: dict[RepNode, RepNode],
    respect_labels: bool = False,
) -> bool:
    """Verify a node bijection edge-by-edge (and label-by-label if asked)."""
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
