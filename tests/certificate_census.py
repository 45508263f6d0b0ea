"""Every symmetric rank matrix of a few small sizes against the sorted-row
certificate of ultrametricity, ``umtk.spaces.ultrametric_order``, and the
violation it names, ``umtk.spaces.ultrametric_violation``.

    python3 tests/certificate_census.py

The certificate must accept every matrix in which a scan of every triple
finds no violation and reject every matrix in which it finds one; each
order P it returns, with its weights a, must satisfy
d(P_i, P_j) = max(a_i..a_{j-1}) for all i < j, and each triple it names on
a rejected matrix must be a violation and the one that a replay of the
naming rule (``diametrical_oracle.named_triple``) finds. One private pass,
``umtk.spaces._certify``, gives both answers. On each matrix it accepts,
the ballean and Hasse covers that ``umtk.balls`` reads off the space's
tree must equal, field for field, those of the prefix loop and the cover
fold (``ballean_oracle.loop_ballean`` and ``fold_hasse``). The script runs every matrix
with n = 7 over distances 1..2 and n = 5 over 1..4, prints one line per
census and exits 1 on any disagreement. Tier-1 runs the smaller censuses
of n = 5 over 1..3 and n = 6 over 1..2 through ``disagreements``.
"""
from __future__ import annotations

import os
import sys
from fractions import Fraction
from itertools import combinations, product
from typing import Iterator

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src")]

from umtk.balls import enumerate_balls, hasse_diagram  # noqa: E402
from umtk.spaces import FiniteSemimetricSpace, _certify, _rank_rows  # noqa: E402

from ballean_oracle import fold_hasse, loop_ballean  # noqa: E402
from diametrical_oracle import named_triple  # noqa: E402

FIELDS = ("bits", "masks", "witnesses", "orders", "chains", "places", "profiles")

CENSUSES = ((7, 2), (5, 4))


def violated(d: tuple[tuple[int, ...], ...]) -> bool:
    """True iff some triple's largest distance is attained once."""
    for i, j, k in combinations(range(len(d)), 3):
        a, b, c = d[i][j], d[i][k], d[j][k]
        if a > b and a > c or b > a and b > c or c > a and c > b:
            return True
    return False


def is_path(d: tuple[tuple[int, ...], ...], order: list[int], weights: list[int]) -> bool:
    """True iff d(P_i, P_j) = max(a_i..a_{j-1}) for all i < j."""
    n = len(d)
    if sorted(order) != list(range(n)) or len(weights) != n - 1:
        return False
    for i in range(n):
        row, top = d[order[i]], 0
        for j in range(i + 1, n):
            top = max(top, weights[j - 1])
            if row[order[j]] != top:
                return False
    return True


def names_a_violation(d: tuple[tuple[int, ...], ...], points: tuple[str, ...], triple) -> bool:
    """True iff ``triple`` is (x, y, z) with d(x,y) > max(d(x,z), d(z,y))."""
    x, y, z = map(points.index, triple)
    return d[x][y] > max(d[x][z], d[z][y])


def tree_ballean_agrees(space: FiniteSemimetricSpace) -> bool:
    """True iff the ballean and covers read off the space's tree are the
    prefix loop's and the cover fold's."""
    ballean, reference = enumerate_balls(space), loop_ballean(space)
    if ballean.covers is None or any(getattr(ballean, f) != getattr(reference, f) for f in FIELDS):
        return False
    diagram, folded = hasse_diagram(ballean), fold_hasse(reference)
    return diagram.succs == folded.succs and diagram.preds == folded.preds


def disagreements(n: int, top: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The rank matrices of n points over distances 1..top on which the
    certificate and the triple scan disagree, whose certified order is no
    path, whose named triple is no violation or not the replay's, or whose
    tree ballean is not the loop's (``tree_ballean_agrees``). The
    spectrum is 0..top whether or not each value occurs: the certificate
    reads it only for its size."""
    points = tuple(f"p{i}" for i in range(n))
    spectrum = tuple(map(Fraction, range(top + 1)))
    pairs = list(combinations(range(n), 2))
    rows = [[0] * n for _ in range(n)]
    for values in product(range(1, top + 1), repeat=len(pairs)):
        for (i, j), v in zip(pairs, values):
            rows[i][j] = rows[j][i] = v
        d = tuple(map(tuple, rows))
        space = FiniteSemimetricSpace(points, spectrum, _rank_rows(d, len(spectrum)))
        path, named = _certify(space)
        if violated(d):
            agrees = path is None and names_a_violation(d, points, named) and named == named_triple(d, points)
        else:
            agrees = path is not None and is_path(d, *path) and tree_ballean_agrees(space)
        if not agrees:
            yield d


def main() -> int:
    failed = False
    for n, top in CENSUSES:
        found = list(disagreements(n, top))
        print(f"n = {n} over 1..{top}: {top ** (n * (n - 1) // 2)} matrices, {len(found)} disagreements")
        for d in found[:5]:
            print(f"  {d}")
        failed |= bool(found)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
