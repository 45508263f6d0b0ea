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


def _node_code(node: RepNode, labeled: bool) -> bytes:
    kids = [_node_code(c, labeled) for c in node.children]
    if labeled and node.label is None:
        raise InvalidTreeError("labeled code requested on an unlabeled node")
    return node_code(node.label if labeled else None, kids)


def canon_code_unlabeled(tree: RepTree) -> bytes:
    """Shape-only canonical code; equal bytes iff rooted-tree isomorphic."""
    return _node_code(tree.root, False)


def canon_code_labeled(tree: RepTree) -> bytes:
    """Shape+label canonical code; leaf points never enter the code."""
    return _node_code(tree.root, True)


def rooted_tree_iso_map(
    tree1: RepTree, tree2: RepTree, respect_labels: bool = False
) -> dict[RepNode, RepNode]:
    """Explicit node bijection between isomorphic rooted trees.

    Children with equal canonical codes are paired in child-index order, so
    the map is deterministic. Raises NotIsomorphicError when the codes differ.
    Within one valid tree all subtrees are structurally distinct (leaf point
    sets differ), so RepNode keys are unambiguous.
    """
    code1 = _node_code(tree1.root, respect_labels)
    code2 = _node_code(tree2.root, respect_labels)
    if code1 != code2:
        raise NotIsomorphicError(
            "labeled codes differ" if respect_labels else "shape codes differ"
        )
    mapping: dict[RepNode, RepNode] = {}

    def pair(a: RepNode, b: RepNode) -> None:
        mapping[a] = b
        ka = sorted(
            range(len(a.children)), key=lambda i: _node_code(a.children[i], respect_labels)
        )
        kb = sorted(
            range(len(b.children)), key=lambda i: _node_code(b.children[i], respect_labels)
        )
        for ia, ib in zip(ka, kb):
            pair(a.children[ia], b.children[ib])

    pair(tree1.root, tree2.root)
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
