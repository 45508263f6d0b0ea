"""The rank rows' type at the spectrum-size boundary.

A space of at most 256 spectrum values holds its rank rows as ``bytes`` and
a larger one as tuples of ints, whichever constructor made it. Spaces that
different routes build from the same distances must be equal and hash
equal, since ``==`` and the hash compare the rows, and every space's rows
must hold the ranks of ``validation_oracle``'s Fraction rows. The decisions
read those rows: their verdicts and witnesses are checked against the
oracle's rows too.
"""
from __future__ import annotations

import json
from fractions import Fraction as F
from itertools import combinations

import pytest

import validation_oracle as oracle
from umtk import (
    GenConfig,
    build_tree,
    decide_isometry,
    decide_weak_similarity,
    random_semimetric,
    random_ultrametric,
    rank_relabel,
    space_from_json,
    space_from_pairs,
    space_from_tree,
    space_to_json,
    ultrametric_violation,
    validate_semimetric,
)
from umtk.generators import renamed_copy
from umtk.spaces import _rank_rows

SIZES = (255, 256, 257)


def _row_type(size: int) -> type:
    return bytes if size <= 256 else tuple


def _oracle_rows(space):
    """The space's Fraction rows as the oracle validates them from its
    distances, and the ranks of those rows in their own spectrum."""
    _, rows = oracle.validate_semimetric(space.points, oracle.distances(space))
    values = sorted({F(0), *(d for row in rows for d in row)})
    rank = {v: k for k, v in enumerate(values)}
    return rows, tuple(tuple(map(rank.__getitem__, row)) for row in rows)


def _check_rows(space, size: int) -> None:
    """``space`` has ``size`` spectrum values, rows of the type that size
    gives, and the oracle's ranks in them."""
    assert len(space.spectrum) == size
    assert all(type(row) is _row_type(size) for row in space.ranks)
    assert tuple(map(tuple, space.ranks)) == _oracle_rows(space)[1]


def _same(a, b) -> None:
    assert a == b and hash(a) == hash(b)
    assert type(a.ranks[0]) is type(b.ranks[0])


def _chain(size: int):
    """The strictly binary chain of ``size`` points: ``size`` spectrum values."""
    pool = tuple(map(F, range(1, size)))
    return random_ultrametric(GenConfig(seed=size, n=size, spectrum_pool=pool, force_class="R"))


def _semimetric(size: int):
    """80 points with entries drawn from ``size - 1`` values: this draw uses
    them all, so the spectrum has ``size`` values."""
    pool = tuple(map(F, range(1, size)))
    return random_semimetric(GenConfig(seed=size, n=80, spectrum_pool=pool))


def _stretched(size: int) -> tuple[F, ...]:
    """An increasing target of ``size`` values from 0, not the identity."""
    return tuple(F(k * k, 3) for k in range(size))


def _check_map(x, y, scaling, phi) -> None:
    """Every pair of X, through the oracle's Fraction rows, keeps its
    distance under the scaling and the point map."""
    dx, dy = _oracle_rows(x)[0], _oracle_rows(y)[0]
    f = dict(scaling)
    image = [y.points.index(phi[p]) for p in x.points]
    assert all(f[dx[i][j]] == dy[image[i]][image[j]] for i, j in combinations(range(len(x)), 2))


def _swap(space, a: int, b: int, c: int):
    """``space`` with d(a, b) and d(a, c) traded, through the oracle's rows."""
    rows = [list(row) for row in oracle.distances(space)]
    rows[a][b], rows[a][c] = rows[b][a], rows[c][a] = rows[a][c], rows[a][b]
    return validate_semimetric(space.points, rows)


def test_the_row_helper_switches_at_256_values():
    rows = [[0, 1, 255], [1, 0, 2], [255, 2, 0]]
    for size in SIZES:
        made = _rank_rows(rows, size)
        assert made == tuple(map(_row_type(size), rows))
        assert tuple(map(tuple, made)) == tuple(map(tuple, rows))
    assert _rank_rows([[0]], 256) == (b"\0",)
    assert _rank_rows([[0]], 257) == ((0,),)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("make", [_chain, _semimetric], ids=["ultrametric", "semimetric"])
def test_every_constructor_gives_the_rows_of_its_spectrum_size(make, size):
    x = make(size)
    _check_rows(x, size)
    d = oracle.distances(x)
    pairs = {(x.points[i], x.points[j]): d[i][j] for i, j in combinations(range(len(x)), 2)}
    routes = [
        space_from_json(json.loads(json.dumps(space_to_json(x)))),
        space_from_pairs(x.points, pairs),
        validate_semimetric(x.points, oracle.distances(x)),
        x.restrict(x.points),
    ]
    for space in routes:
        _check_rows(space, size)
        _same(space, x)
    # reordered points, a stretched spectrum, a renamed copy: each against
    # the same space read from its distances
    backwards = x.restrict(x.points[::-1])
    relabeled = rank_relabel(x, _stretched(size))
    renamed, _ = renamed_copy(x, seed=size)
    for space in (backwards, relabeled, renamed):
        _check_rows(space, size)
        _same(space, validate_semimetric(space.points, oracle.distances(space)))
    # a subspace of fewer values holds bytes rows
    few = x.restrict(x.points[:3])
    _check_rows(few, len(few.spectrum))
    assert type(few.ranks[0]) is bytes


@pytest.mark.parametrize("size", SIZES)
def test_the_tree_route_gives_the_rows_of_its_spectrum_size(size):
    x = _chain(size)
    assert ultrametric_violation(x) is None
    back = space_from_tree(build_tree(x))
    _check_rows(back, size)
    _same(back, x.restrict(back.points))


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("make", [_chain, _semimetric], ids=["ultrametric", "semimetric"])
def test_decisions_on_both_row_types_match_the_oracle_rows(make, size):
    x = make(size)
    # Y is coded on X's spectrum inside the decision
    y, _ = renamed_copy(rank_relabel(x, _stretched(size)), seed=size + 1)
    witness = decide_weak_similarity(x, y)
    assert witness is not None
    _check_map(x, y, witness.scaling, witness.phi)
    copy, _ = renamed_copy(x, seed=size + 2)
    iso = decide_isometry(x, copy)
    assert iso is not None
    _check_map(x, copy, zip(x.spectrum, x.spectrum), iso.phi)
    # d(y0, y1) traded with the first other entry of row y0 that differs:
    # the multisets of sorted oracle rank rows differ, so no map keeps ranks
    row = y.ranks[0]
    z = _swap(y, 0, 1, next(c for c in range(2, len(y)) if row[c] != row[1]))
    assert len(z.spectrum) == size
    rows_y, rows_z = (sorted(tuple(sorted(row)) for row in _oracle_rows(s)[1]) for s in (y, z))
    assert rows_y != rows_z
    assert decide_weak_similarity(x, z) is None and decide_weak_similarity(y, z) is None
