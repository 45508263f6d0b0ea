"""The sorted-row certificate of ultrametricity, ``spaces.ultrametric_order``,
against the Prim pass of ``tree_oracle.ultrametric_mst`` and against a scan
of every triple, its named violations against a replay of the naming rule
(``diametrical_oracle.sorted_row_violating_triple``), and ``build_tree``
against the tree read off Prim's join order (``tree_oracle.tree_from_prim``).
The certificate is the T tests alone, on the order that sorts the rank
rows: a census of every small rank matrix
(``certificate_census.disagreements``) checks that they pass exactly on
ultrametrics, that the order they pass is a path and that each rejected
matrix is named as the replay names it, and that each accepted one's
ballean and Hasse covers, read off its tree, are the prefix loop's and the
cover fold's. Every T can pass on an unsorted order that is no path."""
import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from umtk import GenConfig, build_tree, random_ultrametric
from umtk import spaces
from umtk.errors import NotUltrametricError
from umtk.spaces import (
    _max_with,
    is_ultrametric,
    ultrametric_order,
    ultrametric_violation,
    validate_semimetric,
)

from certificate_census import disagreements, is_path
from diametrical_oracle import sorted_row_violating_triple
from tree_oracle import tree_from_prim, ultrametric_mst

CLASSES = (None, "R", "Rtilde", "D", "T")
WIDE_POOL = tuple(F(k) for k in range(1, 300))


def _tie_space(rng: random.Random, n: int, top: int):
    rows = [[0] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        rows[i][j] = rows[j][i] = rng.randint(1, top)
    return validate_semimetric([f"p{i}" for i in range(n)], rows)


def _agrees_with_prim(space) -> bool:
    """The certificate's verdict is Prim's; a certified order is a path whose
    neighbour distances are its weights, and a rejected space is named by
    the oracle's triple, which is a violation."""
    path = ultrametric_order(space)
    violation, _ = ultrametric_mst(space)
    named = ultrametric_violation(space)
    if named != sorted_row_violating_triple(space):
        return False
    if path is None:
        x, y, z = named
        valid = space.distance(x, y) > max(space.distance(x, z), space.distance(z, y))
        return violation is not None and valid and not is_ultrametric(space)
    order, weights = path
    return violation is None and is_path(space.ranks, order, weights) and named is None


def test_certificate_accepts_exactly_where_prim_finds_no_violation():
    # many ties: n = 2..7, distances 1..2 or 1..3
    rng = random.Random("ties")
    verdicts = []
    for _ in range(50_000):
        space = _tie_space(rng, rng.randint(2, 7), rng.randint(2, 3))
        assert _agrees_with_prim(space), space.ranks
        verdicts.append(is_ultrametric(space))
    assert 10_000 < sum(verdicts) < 40_000


@pytest.mark.parametrize("force_class", CLASSES)
def test_certificate_on_ultrametrics_with_one_entry_changed(force_class):
    rng = random.Random(f"perturbed:{force_class}")
    still = 0
    for seed in range(300):
        n = rng.randint(3, 40)
        pool = WIDE_POOL[: rng.choice((3, 8, 60))] if force_class in (None, "Rtilde") else WIDE_POOL
        x = random_ultrametric(GenConfig(seed=seed, n=n, spectrum_pool=pool, force_class=force_class))
        assert _agrees_with_prim(x)
        rows = [list(map(x.spectrum.__getitem__, row)) for row in x.ranks]
        i, j = rng.sample(range(n), 2)
        rows[i][j] = rows[j][i] = rng.choice(x.spectrum[1:] + (x.spectrum[-1] + 1,))
        space = validate_semimetric(x.points, rows)
        assert _agrees_with_prim(space), (force_class, seed)
        still += is_ultrametric(space)
    assert 0 < still < 300


@pytest.mark.parametrize("n, top", [(5, 3), (6, 2)])
def test_census_of_small_rank_matrices(n, top):
    # every symmetric rank matrix of n points over distances 1..top: the
    # certificate accepts exactly where no triple is violated, its order is
    # a path and the tree's ballean and covers are the loop's and the fold's
    # (tests/certificate_census.py takes n = 7 and n = 5 over 1..4)
    assert list(disagreements(n, top)) == []


def test_a_path_can_pass_every_t_check_and_fail_n():
    # d(x, y) = d(y, z) = 2 > d(x, z) = 1, in the order x, y, z: the rows
    # agree above each neighbour distance, but d(x, z) < max(2, 2), so the
    # order passes every T check and is no path. The T's are sound only on
    # the sorted order, here x, z, y, which is a path
    space = validate_semimetric("xyz", [[0, 2, 1], [2, 0, 2], [1, 2, 0]])
    rows = list(map(bytes, space.ranks))
    assert all(rows[p].translate(_max_with(2)) == rows[q].translate(_max_with(2)) for p, q in ((0, 1), (1, 2)))
    assert not is_path(space.ranks, [0, 1, 2], [2, 2])
    assert ultrametric_order(space) == ([0, 2, 1], [1, 2])


@pytest.mark.parametrize("force_class", CLASSES)
def test_build_tree_equals_the_tree_read_off_prim(force_class):
    for seed in range(60):
        n = 2 + (seed * 37) % 127  # 2..128
        pool = WIDE_POOL[:6] if seed % 3 == 0 and force_class in (None, "Rtilde") else WIDE_POOL
        x = random_ultrametric(GenConfig(seed=seed, n=n, spectrum_pool=pool, force_class=force_class))
        tree, reference = build_tree.__wrapped__(x), tree_from_prim(x)
        assert (tree.labels, tree.points, tree.children) == (reference.labels, reference.points, reference.children)


def test_one_and_two_points():
    one = validate_semimetric(["a"], [[0]])
    two = validate_semimetric(["b", "a"], [[0, 3], [3, 0]])
    assert ultrametric_order(one) == ([0], [])
    assert ultrametric_order(two) == ([0, 1], [1])
    for space in (one, two):
        tree, reference = build_tree.__wrapped__(space), tree_from_prim(space)
        assert (tree.labels, tree.points, tree.children) == (reference.labels, reference.points, reference.children)


def _tuple_tests(monkeypatch):
    """The row pairs the tuple route's T test runs on."""
    calls = []

    def counted(r, s, a):
        calls.append((r, s, a))
        return apart(r, s, a)

    apart = spaces._apart
    monkeypatch.setattr(spaces, "_apart", counted)
    return calls


@pytest.mark.parametrize("values", [256, 257])
def test_spectra_of_256_and_257_values(values, monkeypatch):
    # a binary chain of n leaves has n - 1 distinct labels: n distance values.
    # 256 values are the most a byte row holds; 257 take the tuple rows, and
    # both routes give the reference tree
    x = random_ultrametric(GenConfig(seed=1, n=values, spectrum_pool=WIDE_POOL, force_class="R"))
    assert len(x.spectrum) == values
    reference = tree_from_prim(x)
    calls = _tuple_tests(monkeypatch)
    tree = build_tree.__wrapped__(x)
    # tuple rows take the nearest-neighbour test and one per neighbour pair;
    # byte rows take none
    assert len(calls) == (0 if values <= 256 else values)
    assert (tree.labels, tree.points, tree.children) == (reference.labels, reference.points, reference.children)
    # the chain's closest pair moved above the diameter, which keeps the
    # number of values: by either route the triple named is the oracle's
    rows = [list(map(x.spectrum.__getitem__, row)) for row in x.ranks]
    u = next(i for i, row in enumerate(x.ranks) if 1 in row)
    v = x.ranks[u].index(1)
    rows[u][v] = rows[v][u] = x.spectrum[-1] + 1
    space = validate_semimetric(x.points, rows)
    assert len(space.spectrum) == values
    with pytest.raises(NotUltrametricError) as raised:
        build_tree.__wrapped__(space)
    assert raised.value.violation == ultrametric_violation(space) == sorted_row_violating_triple(space)
    a, b, c = raised.value.violation
    assert space.distance(a, b) > max(space.distance(a, c), space.distance(c, b))
    assert not is_ultrametric(space)
