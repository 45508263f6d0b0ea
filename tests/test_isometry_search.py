"""The point-isometry search gives the reference witnesses and verdicts."""
import random
from collections import Counter
from fractions import Fraction as F

import pytest

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
from umtk import similarity
from umtk.reptree import RepNode
from umtk.search import match
from umtk.spaces import FiniteSemimetricSpace, _rank_rows, space_from_pairs

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


# pools 1..3 and 1..8 tie many row sums; 1..48 ties few
COLOR_POOLS = tuple(tuple(F(v) for v in range(1, k + 1)) for k in (3, 8, 48))


def _swapped(space, a, b, c):
    """``space`` with d(a, b) and d(a, c) traded, in both triangles: rows b
    and c change, row a and the distance multiset do not."""
    rows = [list(row) for row in space.ranks]
    rows[a][b], rows[a][c] = rows[b][a], rows[c][a] = rows[a][c], rows[a][b]
    return FiniteSemimetricSpace(space.points, space.spectrum, _rank_rows(rows, len(space.spectrum)))


def _color_pairs():
    """Seeded spaces at n = 1..40 against a renamed copy, a renamed copy with
    two entries swapped and a fresh space of the same pool."""
    for k, pool in enumerate(COLOR_POOLS):
        for n in range(1, 41):
            seed = 100 * k + n
            x = random_semimetric(GenConfig(seed=seed, n=n, spectrum_pool=pool))
            yield x, renamed_copy(x, seed)[0]
            yield x, random_semimetric(GenConfig(seed=seed + 5000, n=n, spectrum_pool=pool))
            if n >= 3:
                yield x, renamed_copy(_swapped(x, *random.Random(seed).sample(range(n), 3)), seed)[0]


def _parts(colors):
    """The partition of the indices by equal colour."""
    parts = {}
    for i, color in enumerate(colors):
        parts.setdefault(color, []).append(i)
    return sorted(parts.values())


def test_row_sum_colours_give_the_sorted_row_maps(monkeypatch):
    # The colours part each space as its sorted rank rows do, so wherever
    # a rank isometry exists the map and the forced flag are the sorted-row
    # colouring's. On a negative the sum colours may pair points whose sums
    # agree and rows do not, and force a map the one check refutes where the
    # sorted rows left nothing to force; either way there is no map.
    seen = []

    def recording(colors1, colors2, fits):
        seen.append((colors1, colors2))
        return match(colors1, colors2, fits)

    monkeypatch.setattr(similarity, "match", recording)
    kinds = Counter()
    for x, y in _color_pairs():
        seen.clear()
        got, want = similarity._backtrack_isometry(x, y), oracle.sorted_row_isometry(x, y)
        rows_x, rows_y = ([tuple(sorted(row)) for row in space.ranks] for space in (x, y))
        positive = want[0] is not None and similarity._preserves_ranks(x, y, want[0])
        if positive:
            assert (list(got[0].items()), got[1]) == (list(want[0].items()), want[1])
        elif got != want:
            assert want == (None, False) and got[1] and not similarity._preserves_ranks(x, y, got[0])
        if got[1]:
            assert len(set(rows_x)) == len(x)
        for colors1, colors2 in seen:
            assert _parts(colors1) == _parts(rows_x) and _parts(colors2) == _parts(rows_y)
            if positive:
                assert all((c1 == c2) == (r1 == r2) for c1, r1 in zip(colors1, rows_x)
                           for c2, r2 in zip(colors2, rows_y))
        summed = sorted(map(sum, x.ranks)) == sorted(map(sum, y.ranks))
        kinds["positive" if positive else "negative" if summed else "sums differ"] += 1
        kinds["forced" if got[1] else "searched" if seen else "no search"] += 1
        kinds["sum-forced, rows refuse"] += got != want
    assert kinds["positive"] >= 120 and kinds["negative"] > 0 and kinds["sums differ"] > 100
    assert kinds["forced"] > 0 and kinds["searched"] > 0 and kinds["sum-forced, rows refuse"] > 0


@pytest.mark.parametrize("decide", [decide_isometry, decide_weak_similarity])
def test_row_sum_colours_give_the_sorted_row_witnesses(decide, monkeypatch):
    pairs = list(_color_pairs())
    got = [decide(x, y) for x, y in pairs]
    monkeypatch.setattr(similarity, "_backtrack_isometry", oracle.sorted_row_isometry)
    want = [decide(x, y) for x, y in pairs]
    assert [_items(w) for w in got] == [_items(w) for w in want]
    assert got == want and sum(w is not None for w in got) >= 120


def _four_points(ab, ac, ad, bc, bd, cd):
    return space_from_pairs("abcd", {("a", "b"): F(ab), ("a", "c"): F(ac), ("a", "d"): F(ad),
                                     ("b", "c"): F(bc), ("b", "d"): F(bd), ("c", "d"): F(cd)})


def test_equal_row_sums_with_different_sorted_rows(monkeypatch):
    calls = []

    def counting(colors1, colors2, fits):
        def counted(*args):
            calls.append(args)
            return fits(*args)

        return match(colors1, colors2, counted)

    monkeypatch.setattr(similarity, "match", counting)
    # sums 4, 5, 6, 7 on both sides, one point each: the sums force a map,
    # which the one check refutes; X's row (0, 2, 2, 3) is not one of Y's
    x, y = _four_points(1, 1, 2, 2, 2, 3), _four_points(1, 1, 2, 3, 1, 3)
    phi, forced = similarity._backtrack_isometry(x, y)
    assert forced and not similarity._preserves_ranks(x, y, phi)
    assert oracle.sorted_row_isometry(x, y) == (None, False)
    # sums 5, 5, 6, 6 on both sides: the tied rows are sorted, and the
    # colours' counts differ, so the search stops before a fit test
    u, v = _four_points(1, 1, 3, 3, 1, 2), _four_points(1, 2, 2, 2, 3, 1)
    assert similarity._backtrack_isometry(u, v) == (None, False) == oracle.sorted_row_isometry(u, v)
    for a, b in ((x, y), (u, v)):
        assert a.spectrum == b.spectrum
        assert sorted(map(sum, a.ranks)) == sorted(map(sum, b.ranks))
        assert sorted(tuple(sorted(row)) for row in a.ranks) != sorted(tuple(sorted(row)) for row in b.ranks)
        assert decide_weak_similarity(a, b) is None and decide_isometry(a, b) is None
        assert oracle_weak_similarity(a, b) is None
    assert calls == []


def test_unequal_row_sums_are_a_no_without_a_search(monkeypatch):
    # X's sorted rows tie, so the sorted-row colouring searched here
    x = random_semimetric(GenConfig(seed=1, n=6, spectrum_pool=COLOR_POOLS[0]))
    y = _swapped(x, 0, 1, 2)
    assert len({tuple(sorted(row)) for row in x.ranks}) < len(x)
    assert sorted(map(sum, x.ranks)) != sorted(map(sum, y.ranks)) and x.spectrum == y.spectrum

    def no_search(*args):
        raise AssertionError("search ran")

    monkeypatch.setattr(similarity, "match", no_search)
    assert similarity._backtrack_isometry(x, y) == (None, False)
    assert decide_weak_similarity(x, y) is None and decide_isometry(x, y) is None
    assert oracle_weak_similarity(x, y) is None


def test_unequal_colour_counts_make_no_fit_test():
    # 9 a + b against 8 a + 2 b: without the count test the search would try
    # every placement of the a's, 219 202 fit tests
    calls = []

    def fits(*args):
        calls.append(args)
        return True

    assert match(["a"] * 9 + ["b"], ["a"] * 8 + ["b"] * 2, fits) is None
    assert calls == []
    assert match(["a"] * 9 + ["b"], ["b"] + ["a"] * 9, fits) == {9: 0, **{i: i + 1 for i in range(9)}}
