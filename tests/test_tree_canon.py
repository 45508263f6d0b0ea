import random
import time
from fractions import Fraction as F

import pytest

from umtk import (
    GenConfig,
    build_tree,
    canon_code_labeled,
    canon_code_unlabeled,
    check_iso_map,
    enumerate_balls,
    hasse_diagram,
    random_relabeled,
    random_ultrametric,
    renamed_copy,
    rooted_tree_iso_map,
    space_from_pairs,
    tree_from_json,
)
from umtk.errors import NotIsomorphicError
from umtk.reptree import _codes, _preorder

from tree_oracle import chain_doc, internal, leaf, pairs, tree_of, tree_to_json


def test_point_order_does_not_affect_codes(ultra3):
    permuted = space_from_pairs(
        ("r", "q", "p"),
        {("p", "q"): F(2), ("p", "r"): F(2), ("q", "r"): F(1)},
    )
    assert canon_code_unlabeled(build_tree(ultra3)) == canon_code_unlabeled(
        build_tree(permuted)
    )
    assert canon_code_labeled(build_tree(ultra3)) == canon_code_labeled(
        build_tree(permuted)
    )


def test_different_shapes_different_codes(ultra3, blocks4):
    assert canon_code_unlabeled(build_tree(ultra3)) != canon_code_unlabeled(
        build_tree(blocks4)
    )


def test_single_nodes_share_a_code():
    assert canon_code_unlabeled(tree_of(leaf("x"))) == canon_code_unlabeled(
        tree_of(leaf("y"))
    )


def test_labeled_codes(ultra3, ultra3_scaled, blocks4, blocks4_swapped):
    assert canon_code_labeled(build_tree(ultra3)) != canon_code_labeled(
        build_tree(ultra3_scaled)
    )
    # same shape, same spectrum: swapping which part carries which label
    # produces the same labeled tree up to isomorphism
    assert canon_code_labeled(build_tree(blocks4)) == canon_code_labeled(
        build_tree(blocks4_swapped)
    )
    stretched = space_from_pairs(
        ("a", "b", "c", "d"),
        {
            ("a", "b"): F(1),
            ("c", "d"): F(2),
            ("a", "c"): F(4),
            ("a", "d"): F(4),
            ("b", "c"): F(4),
            ("b", "d"): F(4),
        },
    )
    assert canon_code_labeled(build_tree(blocks4)) != canon_code_labeled(
        build_tree(stretched)
    )


def test_iso_map_matches_relabeled_tree(ultra3, ultra3_scaled):
    t1 = build_tree(ultra3)
    t2 = build_tree(ultra3_scaled)
    psi = rooted_tree_iso_map(t1, t2, respect_labels=False)
    assert check_iso_map(t1, t2, psi, respect_labels=False)
    inner1 = t1.labels.index(t1.spectrum.index(F(1)))
    assert t2.spectrum[t2.labels[psi[inner1]]] == F(10)
    with pytest.raises(NotIsomorphicError):
        rooted_tree_iso_map(t1, t2, respect_labels=True)


def test_identity_map_on_any_tree(blocks4):
    tree = build_tree(blocks4)
    psi = rooted_tree_iso_map(tree, tree, respect_labels=True)
    assert psi == list(range(len(tree)))
    assert check_iso_map(tree, tree, psi, respect_labels=True)


def test_check_iso_map_catches_tampering(ultra3, ultra3_scaled):
    t1 = build_tree(ultra3)
    t2 = build_tree(ultra3_scaled)
    psi = rooted_tree_iso_map(t1, t2, respect_labels=False)
    # the lone depth-1 leaf and a depth-2 leaf sit under different parents,
    # so exchanging their images breaks the child relation
    shallow = next(c for c in t1.children[0] if not t1.children[c])
    deep = next(v for v, kids in enumerate(t1.children) if not kids and v != shallow)
    swapped = list(psi)
    swapped[shallow], swapped[deep] = psi[deep], psi[shallow]
    assert not check_iso_map(t1, t2, swapped, respect_labels=False)


def test_codes_agree_with_iso_maps():
    for seed in range(20):
        x = random_ultrametric(GenConfig(seed=seed, n=2 + seed % 6))
        y = random_relabeled(x, seed + 1)
        z = random_ultrametric(GenConfig(seed=seed + 1000, n=2 + (seed + 3) % 6))
        for other in (y, z):
            tx, to = build_tree(x), build_tree(other)
            equal = canon_code_unlabeled(tx) == canon_code_unlabeled(to)
            try:
                psi = rooted_tree_iso_map(tx, to, respect_labels=False)
                found = check_iso_map(tx, to, psi, respect_labels=False)
            except NotIsomorphicError:
                found = False
            assert equal == found


def test_deep_chain_codes_and_map_without_recursion():
    def chain(depth, prefix, leaf_first):
        node = leaf(f"{prefix}0")
        for k in range(1, depth + 1):
            kids = [leaf(f"{prefix}{k}"), node]
            node = internal(k, kids if leaf_first else kids[::-1])
        return tree_of(node)

    t1, t2 = chain(2000, "x", True), chain(2000, "y", False)
    start = time.perf_counter()
    assert canon_code_labeled(t1) == canon_code_labeled(t2)
    psi = rooted_tree_iso_map(t1, t2, respect_labels=True)
    assert check_iso_map(t1, t2, psi, respect_labels=True)
    assert time.perf_counter() - start < 1.0


def _shuffled(tree, rng):
    """The same tree laid out again with every child list shuffled."""
    doc = tree_to_json(tree)
    stack = [doc]
    while stack:
        node = stack.pop()
        if "children" in node:
            rng.shuffle(node["children"])
            stack += node["children"]
    return tree_from_json(doc, labeled=True)


def _code_ordered_pairs():
    """(children in code order, root) of both sides of pairs with equal
    codes: seeded trees against a shuffled layout of themselves (labeled
    codes) or of a relabeled copy (shape codes), and the reversed Hasse
    trees of seeded ultrametric spaces against a renamed copy's."""
    rng = random.Random(30)
    for seed in range(30):
        x = random_ultrametric(GenConfig(seed=seed, n=2 + seed % 14))
        tx = build_tree(x)
        for code, other in ((canon_code_labeled, x), (canon_code_unlabeled, random_relabeled(x, seed))):
            ordered1, ordered2 = [], []
            assert code(tx, ordered1) == code(_shuffled(build_tree(other), rng), ordered2)
            yield ordered1, ordered2, 0, 0
        h1, h2 = (hasse_diagram(enumerate_balls(s)) for s in (x, renamed_copy(x, seed)[0]))
        code1, ordered1 = _codes(h1.masks, h1.preds, None, range(len(h1.masks)))
        code2, ordered2 = _codes(h2.masks, h2.preds, None, range(len(h2.masks)))
        assert code1 == code2
        yield ordered1, ordered2, len(h1.masks) - 1, len(h2.masks) - 1


def test_zipped_preorders_pair_like_the_reference_walk(recursion_headroom):
    laid_out = 0
    for ordered1, ordered2, root1, root2 in _code_ordered_pairs():
        zipped = _preorder(ordered1, root1), _preorder(ordered2, root2)
        assert zipped == pairs(ordered1, ordered2, root1, root2)
        laid_out += zipped[0] != zipped[1]
    assert laid_out >= 30  # most pairs lay their trees out differently
    t1, t2 = tree_from_json(chain_doc(10_000, True)), tree_from_json(chain_doc(10_000, False))
    ordered1, ordered2 = [], []
    assert canon_code_labeled(t1, ordered1) == canon_code_labeled(t2, ordered2)
    with recursion_headroom(40):
        zipped = _preorder(ordered1, 0), _preorder(ordered2, 0)
    assert zipped == pairs(ordered1, ordered2, 0, 0)
    assert zipped[0] != zipped[1] and len(zipped[0]) == 20_001
