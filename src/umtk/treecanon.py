"""Canonical codes and explicit isomorphisms for rooted trees.

Codes are computed bottom-up: a node's code is a bracketed concatenation of
its children's codes in sorted order, optionally prefixed with the node's
exact label, the text of its value in the tree's spectrum. Two rooted trees
are isomorphic (as rooted trees, leaf points ignored) iff their codes are
equal bytes; the labeled variant additionally requires equal labels at
matched nodes. Codes are plain byte strings built by
sorting, so identical trees give bitwise-identical codes on every run.
Everything here runs over a tree's preorder positions (``RepTree``), with
``reptree``'s code pass and walks. Two trees with equal codes are paired by
zipping the preorders of their code-ordered children.
"""
from __future__ import annotations

from .errors import NotIsomorphicError
from .reptree import RepTree, _codes, _parents, _preorder


def _tree_codes(tree: RepTree, labeled: bool, ordered: list | None) -> bytes:
    spectrum = tree.spectrum if labeled else None
    code, order = _codes(tree.labels, tree.children, spectrum, range(len(tree) - 1, -1, -1))
    if ordered is not None:
        ordered.extend(order)
    return code


def canon_code_unlabeled(tree: RepTree, ordered: list | None = None) -> bytes:
    """Shape-only canonical code; equal bytes iff rooted-tree isomorphic.
    A given list ``ordered`` is extended with each position's children in
    code order (None at a leaf)."""
    return _tree_codes(tree, False, ordered)


def canon_code_labeled(tree: RepTree, ordered: list | None = None) -> bytes:
    """Shape+label canonical code; leaf points never enter the code.
    A given list ``ordered`` is extended with each position's children in
    code order (None at a leaf)."""
    return _tree_codes(tree, True, ordered)


def rooted_tree_iso_map(
    tree1: RepTree, tree2: RepTree, respect_labels: bool = False, walk: list | None = None
) -> list[int]:
    """Explicit isomorphism between isomorphic rooted trees: the list that
    gives each position of ``tree1`` its image position in ``tree2``.

    Each tree's code is computed once, and children with equal codes are
    paired in child order, so the map is deterministic. A given list
    ``walk`` is extended with the positions of ``tree1`` in pairing order:
    depth first, a node and then its children in code order. Raises
    NotIsomorphicError when the codes differ.
    """
    code = canon_code_labeled if respect_labels else canon_code_unlabeled
    ordered1: list[list[int] | None] = []
    ordered2: list[list[int] | None] = []
    if code(tree1, ordered1) != code(tree2, ordered2):
        raise NotIsomorphicError(
            "labeled codes differ" if respect_labels else "shape codes differ"
        )
    # equal codes: the two preorders of the code orders are one walk, in step
    nodes1, nodes2 = _preorder(ordered1, 0), _preorder(ordered2, 0)
    image = [0] * len(ordered1)
    for a, b in zip(nodes1, nodes2):
        image[a] = b
    if walk is not None:
        walk.extend(nodes1)
    return image


def check_iso_map(
    tree1: RepTree,
    tree2: RepTree,
    mapping: list[int],
    respect_labels: bool = False,
) -> bool:
    """Verify a position map (``mapping[v]`` is the image of position v) that
    is a bijection, maps root to root and keeps every parent (and, if asked,
    every label: equal spectra, then equal ranks). For a bijection that fixes
    the roots, keeping parents is the same as mapping each node's children
    onto its image's children."""
    n = len(tree1)
    if len(mapping) != n or len(tree2) != n:
        return False
    if set(mapping) != set(range(n)):
        return False
    if mapping[0] != 0:
        return False
    parent1, parent2 = _parents(tree1.children), _parents(tree2.children)
    # mapping[parent1[c]] must be the parent of mapping[c], for every c but the root
    if list(map(mapping.__getitem__, parent1[1:])) != list(map(parent2.__getitem__, mapping[1:])):
        return False
    if not respect_labels:
        return True
    return tree1.spectrum == tree2.spectrum and (
        tree1.labels == list(map(tree2.labels.__getitem__, mapping))
    )
