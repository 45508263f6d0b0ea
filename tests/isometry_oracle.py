"""Reference implementation that the point-isometry search is tested against.

``decide_isometry`` is the decision as it stood with a recursive search: a
comparison of the sorted distance multisets first, then the labeled tree
codes for ultrametric pairs, and otherwise ``backtrack_isometry``, which
recurses once per point and checks each candidate against every assigned
point. It is slow and exists only to check ``umtk.similarity``.

``sorted_row_isometry`` is ``similarity._backtrack_isometry`` as it stood
before row sums coloured the points: every point's colour is its sorted
rank row, the colours force the map where X's are pairwise distinct and
Y's the same set, and ``search.match`` runs otherwise.
"""
from __future__ import annotations

from umtk.reptree import build_tree
from umtk.search import match
from umtk.similarity import IsometryWitness
from umtk.spaces import is_ultrametric

from tree_oracle import tree_isometry
from validation_oracle import distances


def backtrack_isometry(x, y) -> IsometryWitness | None:
    """Points with equal sorted distance rows are candidates for each
    other; the rarest points are assigned first. Recurses once per point, so
    callers raise the recursion limit for large spaces."""
    n = len(x)
    dx, dy = distances(x), distances(y)

    def sig(d, i):
        return tuple(sorted(d[i][k] for k in range(n) if k != i))

    sig_y = {}
    for j in range(n):
        sig_y.setdefault(sig(dy, j), []).append(j)
    pools = []
    for i in range(n):
        pool = sig_y.get(sig(dx, i))
        if not pool:
            return None
        pools.append(pool)

    order = sorted(range(n), key=lambda i: len(pools[i]))
    assignment: dict[int, int] = {}
    used = [False] * n

    def extend(k: int) -> bool:
        if k == n:
            return True
        i = order[k]
        for j in pools[i]:
            if used[j]:
                continue
            if any(dx[i][i2] != dy[j][j2] for i2, j2 in assignment.items()):
                continue
            assignment[i] = j
            used[j] = True
            if extend(k + 1):
                return True
            del assignment[i]
            used[j] = False
        return False

    if not extend(0):
        return None
    return IsometryWitness({x.points[i]: y.points[j] for i, j in assignment.items()})


def decide_isometry(x, y) -> IsometryWitness | None:
    if len(x) != len(y):
        return None
    dx, dy = distances(x), distances(y)
    if sorted(v for row in dx for v in row) != sorted(v for row in dy for v in row):
        return None
    ux, uy = is_ultrametric(x), is_ultrametric(y)
    if ux != uy:
        return None
    if ux:
        phi = tree_isometry(build_tree(x), build_tree(y))
        return None if phi is None else IsometryWitness(phi)
    return backtrack_isometry(x, y)


def sorted_row_isometry(x, y) -> tuple[dict[str, str] | None, bool]:
    """Unverified point map, or None, and whether the sorted rank rows
    force it."""
    dx, dy = x.ranks, y.ranks
    colors1, colors2 = ([tuple(sorted(row)) for row in d] for d in (dx, dy))
    distinct = set(colors1)
    if len(distinct) == len(colors1) and distinct == set(colors2):
        at = dict(zip(colors2, y.points))
        return {p: at[c] for p, c in zip(x.points, colors1)}, True

    def fits(i, j, image):
        return all(j2 < 0 or d == dy[j][j2] for d, j2 in zip(dx[i], image))

    assignment = match(colors1, colors2, fits)
    if assignment is None:
        return None, False
    return {x.points[i]: y.points[j] for i, j in assignment.items()}, False
