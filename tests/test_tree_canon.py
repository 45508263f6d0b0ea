import time
from fractions import Fraction as F

import pytest

from umtk import (
    GenConfig,
    build_tree,
    canon_code_labeled,
    canon_code_unlabeled,
    check_iso_map,
    random_relabeled,
    random_ultrametric,
    rooted_tree_iso_map,
    space_from_pairs,
)
from umtk.errors import NotIsomorphicError

from tree_oracle import internal, leaf, tree_of


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
