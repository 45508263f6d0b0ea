"""The point-isometry search gives the reference witnesses and verdicts."""
import random
from fractions import Fraction as F

import isometry_oracle as oracle
from tree_oracle import tree_of
from validation_oracle import distances

from umtk import (
    GenConfig,
    build_tree,
    decide_isometry,
    decide_weak_similarity,
    forced_scaling,
    is_ultrametric,
    oracle_isometry,
    oracle_weak_similarity,
    random_semimetric,
    random_ultrametric,
    rank_relabel,
    renamed_copy,
    space_from_tree,
    spectrum,
    validate_semimetric,
)
from umtk.reptree import RepNode

POOLS = (
    tuple(F(v) for v in range(1, 49)),
    (F(1), F(2), F(3)),
    (F(1), F(2)),
)


def _items(witness):
    return None if witness is None else list(witness.phi.items())


def _oracle_weak_similarity(x, y):
    scaling = forced_scaling(x, y)
    if scaling is None:
        return None
    return oracle.decide_isometry(rank_relabel(x, [b for _, b in scaling]), y)


def _multiset(space):
    return sorted(v for row in distances(space) for v in row)


def test_witnesses_match_the_recursive_search():
    checked = 0
    for seed in range(40):
        n = 1 + seed % 12
        for k, pool in enumerate(POOLS):
            x = random_semimetric(GenConfig(seed=seed, n=n, spectrum_pool=pool))
            copy, _ = renamed_copy(x, seed)
            stretched, _ = renamed_copy(rank_relabel(x, [3 * v for v in spectrum(x)]), seed + 1)
            other = random_semimetric(GenConfig(seed=seed + 1000 * (k + 1), n=n, spectrum_pool=pool))
            for y in (copy, stretched, other):
                assert _items(decide_isometry(x, y)) == _items(oracle.decide_isometry(x, y))
                assert _items(decide_weak_similarity(x, y)) == _items(_oracle_weak_similarity(x, y))
                checked += 1
    assert checked == 40 * len(POOLS) * 3


def test_search_deeper_than_the_recursion_limit(recursion_headroom):
    # the search assigns one point per level, 200 of them
    x = random_semimetric(GenConfig(seed=7, n=200, spectrum_pool=POOLS[0]))
    y, names = renamed_copy(x, seed=8)
    with recursion_headroom(100):
        witness = decide_isometry(x, y)
    assert witness is not None and witness.phi == names


def _moved_label(space, rng):
    """Same tree with one internal label moved strictly between its old value
    and its parent's label (or above it, at the root): still a valid tree."""
    nodes, parent = [], {}
    stack = [build_tree(space).root]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            nodes.append(node)
        for child in node.children:
            parent[child] = node
            stack.append(child)
    target = rng.choice(nodes)
    upper = parent[target].label if target in parent else target.label + 1
    moved = (target.label + upper) / 2

    def rebuild(node):
        if node.is_leaf:
            return node
        label = moved if node is target else node.label
        return RepNode(label, tuple(rebuild(c) for c in node.children))

    return space_from_tree(tree_of(rebuild(build_tree(space).root)))


def _agree(x, y):
    assert len(x) == len(y) and _multiset(x) != _multiset(y)
    assert decide_isometry(x, y) is None
    assert oracle_isometry(x, y) is None
    assert (decide_weak_similarity(x, y) is None) == (oracle_weak_similarity(x, y) is None)


def test_ultrametric_negatives_with_a_moved_label():
    rng = random.Random(3)
    for seed in range(40):
        x = random_ultrametric(GenConfig(seed=seed, n=2 + seed % 6))
        y, _ = renamed_copy(_moved_label(x, rng), seed)
        assert is_ultrametric(y)
        _agree(x, y)


def test_semimetric_negatives_with_one_distance_changed():
    rng = random.Random(4)
    for seed in range(60):
        n = 2 + seed % 6
        pool = POOLS[seed % len(POOLS)]
        x = random_semimetric(GenConfig(seed=seed, n=n, spectrum_pool=pool))
        rows = [list(row) for row in distances(x)]
        i, j = rng.sample(range(n), 2)
        rows[i][j] = rows[j][i] = rng.choice([v for v in pool if v != rows[i][j]])
        y, _ = renamed_copy(validate_semimetric(x.points, tuple(map(tuple, rows))), seed)
        _agree(x, y)


def test_mixed_negative(ultra3, semi3):
    assert is_ultrametric(ultra3) and not is_ultrametric(semi3)
    _agree(ultra3, semi3)
    _agree(semi3, ultra3)
