"""Reference implementation that the point-isometry search is tested against.

``decide_isometry`` is the decision as it stood with a recursive search: a
comparison of the sorted distance multisets first, then the labeled tree
codes for ultrametric pairs, and otherwise ``backtrack_isometry``, which
recurses once per point and checks each candidate against every assigned
point. It is slow and exists only to check ``umtk.similarity``.
"""
from __future__ import annotations

from umtk.reptree import build_tree
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
