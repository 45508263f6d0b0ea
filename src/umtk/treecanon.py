"""Canonical codes and explicit isomorphisms for rooted trees.

Codes are computed bottom-up: a node's code is a bracketed concatenation of
its children's codes in sorted order, optionally prefixed with the node's
exact label, the text of its value in the tree's spectrum. Two rooted trees
are isomorphic (as rooted trees, leaf points ignored) iff their codes are
equal bytes; the labeled variant additionally requires equal labels at
matched nodes. Codes are plain byte strings built by
sorting, so identical trees give bitwise-identical codes on every run.
Everything here runs over a tree's preorder positions (``RepTree``), but
``_codes`` and ``_pairs`` take any child arrays: the Hasse tree branch too.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from .errors import InvalidTreeError, NotIsomorphicError
from .reptree import RepTree
from .spaces import format_rational


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


def _pairs(ordered1: Sequence, ordered2: Sequence, root1: int, root2: int) -> tuple[list[int], list[int]]:
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
    nodes1, nodes2 = _pairs(ordered1, ordered2, 0, 0)
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
    parents = []
    for tree in (tree1, tree2):
        parent = [0] * n
        for v, kids in enumerate(tree.children):
            for c in kids:
                parent[c] = v
        parents.append(parent)
    parent1, parent2 = parents
    # mapping[parent1[c]] must be the parent of mapping[c], for every c but the root
    if list(map(mapping.__getitem__, parent1[1:])) != list(map(parent2.__getitem__, mapping[1:])):
        return False
    if not respect_labels:
        return True
    return tree1.spectrum == tree2.spectrum and (
        tree1.labels == list(map(tree2.labels.__getitem__, mapping))
    )
