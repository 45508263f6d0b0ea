import random
import time
from fractions import Fraction as F

import pytest

from umtk import (
    GenConfig,
    build_tree,
    random_ultrametric,
    space_from_pairs,
    space_from_tree,
    spectrum,
    tree_from_json,
    ultrametric_violation,
    validate_semimetric,
    validate_tree,
)
from umtk.errors import (
    FormatError,
    InvalidTreeError,
    NotUltrametricError,
    UnknownPointError,
)
from umtk.reptree import tree_to_dot, tree_to_text

from diametrical_oracle import diametrical_tree
from tree_oracle import internal, leaf, strip_labels, tree_distance, tree_of, tree_to_json


def test_tree_of_ultra3(ultra3):
    assert tree_to_json(build_tree(ultra3)) == {
        "label": "2",
        "children": [
            {"point": "p"},
            {"label": "1", "children": [{"point": "q"}, {"point": "r"}]},
        ],
    }


def test_tree_of_one_point_space():
    space = space_from_pairs(("x",), {})
    tree = build_tree(space)
    assert tree.root.is_leaf and tree.root.point == "x"
    assert tree.root.label == 0
    assert space_from_tree(tree) == space


def test_tree_of_blocks4(blocks4):
    doc = tree_to_json(build_tree(blocks4))
    assert doc["label"] == "3"
    assert [child["label"] for child in doc["children"]] == ["1", "2"]
    assert doc["children"][0]["children"] == [{"point": "a"}, {"point": "b"}]


def test_tree_distance(ultra3, blocks4):
    t3 = build_tree(ultra3)
    assert tree_distance(t3, "q", "r") == F(1)
    assert tree_distance(t3, "p", "p") == F(0)
    assert tree_distance(build_tree(blocks4), "a", "c") == F(3)
    with pytest.raises(UnknownPointError):
        tree_distance(t3, "q", "missing")


def test_round_trip_identical_matrix(ultra3):
    assert space_from_tree(build_tree(ultra3)) == ultra3


def test_space_from_hand_built_tree():
    tree = tree_of(internal(F(5), [leaf("u"), leaf("v")]))
    space = space_from_tree(tree)
    assert space.points == ("u", "v")
    assert space.distance("u", "v") == F(5)


def test_non_ultrametric_rejected(semi3):
    with pytest.raises(NotUltrametricError) as info:
        build_tree(semi3)
    # a and its nearest point b differ above d(a, b) = 1 at c: d(a, c) = 3 > max(1, d(b, c))
    assert info.value.violation == ("a", "c", "b")


def test_strip_labels(ultra3):
    bare = strip_labels(build_tree(ultra3))
    assert all(node.label is None for node in bare.nodes())
    assert sorted(bare.leaf_points()) == ["p", "q", "r"]
    validate_tree(bare, labeled=False)
    with pytest.raises(InvalidTreeError):
        validate_tree(bare, labeled=True)


def test_tree_validation_rejects_bad_shapes():
    with pytest.raises(InvalidTreeError):  # internal node with a single child
        validate_tree(tree_of(internal(F(2), [leaf("u")])))
    with pytest.raises(InvalidTreeError):  # labels must strictly decrease
        validate_tree(
            tree_of(internal(F(1), [leaf("u"), internal(F(1), [leaf("v"), leaf("w")])]))
        )
    with pytest.raises(InvalidTreeError):  # duplicate leaf point
        validate_tree(tree_of(internal(F(2), [leaf("u"), leaf("u")])))


def test_internal_labels_cover_spectrum(blocks4):
    labels = sorted(
        node.label for node in build_tree(blocks4).nodes() if not node.is_leaf
    )
    assert labels == [F(1), F(2), F(3)]
    assert set(labels) == set(spectrum(blocks4)) - {F(0)}


def test_tree_json_round_trip(blocks4):
    tree = build_tree(blocks4)
    assert tree_to_json(tree_from_json(tree_to_json(tree))) == tree_to_json(tree)


def test_unlabeled_tree_document_is_accepted():
    doc = {"children": [{"point": "u"}, {"point": "v"}]}
    tree = tree_from_json(doc)
    assert tree.root.label is None
    assert tree_to_json(tree) == doc


@pytest.mark.parametrize(
    "doc",
    [
        42,
        {},
        {"point": 3},
        {"label": "2"},  # internal node without children
        {"label": "2", "children": []},
        {"point": "u", "children": [{"point": "v"}]},
        {"label": "1.5", "children": [{"point": "u"}, {"point": "v"}]},
    ],
)
def test_bad_tree_documents(doc):
    with pytest.raises((FormatError, InvalidTreeError)):
        tree_from_json(doc)


def test_tree_dot_output(ultra3):
    dot = tree_to_dot(build_tree(ultra3))
    assert dot.startswith("digraph tree {")
    assert 'label="p"' in dot and "shape=box" in dot
    assert 'label="2"' in dot


def test_random_round_trips():
    for seed in range(25):
        space = random_ultrametric(GenConfig(seed=seed, n=1 + seed % 9))
        back = space_from_tree(build_tree(space))
        assert back.restrict(space.points) == space


@pytest.mark.parametrize("shape", [None, "R", "Rtilde", "D", "T"])
def test_tree_matches_diametrical_oracle(shape):
    # A small pool repeats labels across branches; a large one allows long
    # binary chains (class R needs n - 1 distinct labels). With two values
    # nearly every join ties, and only class R stays at 3 points.
    cases = [
        (pool, seed, min(1 + seed * 3, len(pool) + 1))
        for pool in (tuple(F(k) for k in range(1, 7)), tuple(F(k, 3) for k in range(1, 41)))
        for seed in range(8)
    ]
    cases += [((F(1), F(2)), seed, 1 + seed * 3 if shape != "R" else min(1 + seed * 3, 3))
              for seed in range(8)]
    cases.append((tuple(F(k, 3) for k in range(1, 64)), 8, 64))
    for pool, seed, n in cases:
        space = random_ultrametric(
            GenConfig(seed=seed, n=n, spectrum_pool=pool, force_class=shape)
        )
        order = list(space.points)
        random.Random(seed).shuffle(order)
        for sample in (space, space.restrict(order)):
            tree, expected = build_tree(sample), diametrical_tree(sample)
            assert "".join(tree_to_text(tree)) == "".join(tree_to_text(expected))
            assert tree_to_dot(tree) == tree_to_dot(expected)


def test_binary_chain_checks_and_builds_fast():
    # p_k hangs off chain level k, so d(p_i, p_j) = n - min(i, j); points in
    # shuffled order.
    n = 401
    ks = list(range(n))
    random.Random(3).shuffle(ks)
    rows = [[F(0) if a == b else F(n - min(a, b)) for b in ks] for a in ks]
    space = validate_semimetric(tuple(f"p{k}" for k in ks), rows)
    start = time.perf_counter()
    assert ultrametric_violation(space) is None
    tree = build_tree(space)
    assert time.perf_counter() - start < 10
    internal_labels = [node.label for node in tree.nodes() if not node.is_leaf]
    assert internal_labels == [F(n - k) for k in range(n - 1)]
