"""Finite semimetric spaces with exact rational distances.

A space is a tuple of distinct point names plus a symmetric distance matrix
with zero diagonal and positive off-diagonal entries. No triangle inequality
of any kind is assumed; the strong (ultrametric) inequality is a property one
can test, not an axiom. Every distance is a ``fractions.Fraction`` and every
comparison in the package is exact -- floats are rejected at the boundary.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable, Mapping, Sequence

from .errors import (
    DuplicatePointNameError,
    EmptySpaceError,
    FormatError,
    MatrixShapeError,
    NegativeDistanceError,
    NonSymmetricError,
    NonZeroDiagonalError,
    SpectrumSizeMismatchError,
    TargetNotIncreasingError,
    TargetNotStartingAtZeroError,
    UnknownPointError,
    ZeroOffDiagonalError,
)

Rational = Fraction

# ASCII digits only: ``\d`` would admit every Unicode decimal digit.
_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational literal of the form ``"a"`` or ``"a/b"`` (b > 0).

    The whole string must match: no whitespace, no trailing newline, ASCII
    digits only. A literal longer than Python's int-string limit is a
    FormatError like any other malformed literal.
    """
    if not isinstance(text, str):
        raise FormatError(f"rational literal must be a string, got {type(text).__name__}")
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
        raise FormatError(f"not a rational literal: {text!r}")
    try:
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) else 1
    except ValueError:
        raise FormatError(f"rational literal too long ({len(text)} characters)") from None
    if den == 0:
        raise FormatError(f"zero denominator in {text!r}")
    return Fraction(num, den)


def format_rational(value: Fraction) -> str:
    """Canonical wire form: ``"a"`` for integers, ``"a/b"`` in lowest terms otherwise."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _as_rational(value: object) -> Fraction:
    # ints are welcome in hand-built matrices; floats never are.
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise FormatError(f"distances must be Fraction or int, got {type(value).__name__}")


@dataclass(frozen=True)
class FiniteSemimetricSpace:
    """Immutable point tuple + exact distance matrix. Hashable, so cacheable."""

    points: tuple[str, ...]
    dist: tuple[tuple[Fraction, ...], ...]

    def __hash__(self) -> int:
        # Every cache lookup hashes the space; hash its n^2 entries only once.
        # The value lives outside the fields, so == and repr are unchanged.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.points, self.dist))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __len__(self) -> int:
        return len(self.points)

    def index(self, point: str) -> int:
        try:
            return self.points.index(point)
        except ValueError:
            raise UnknownPointError(point) from None

    def distance(self, x: str, y: str) -> Fraction:
        return self.dist[self.index(x)][self.index(y)]

    def restrict(self, subset: Sequence[str]) -> "FiniteSemimetricSpace":
        """Subspace on ``subset`` in the given order (also used to reorder points)."""
        idx = [self.index(p) for p in subset]
        rows = tuple(tuple(self.dist[i][j] for j in idx) for i in idx)
        return validate_semimetric(tuple(subset), rows)


def validate_semimetric(
    points: Sequence[str], matrix: Sequence[Sequence[object]]
) -> FiniteSemimetricSpace:
    """Check all semimetric axioms and return the immutable space.

    Raises EmptySpaceError, DuplicatePointNameError, MatrixShapeError,
    NegativeDistanceError, NonZeroDiagonalError, NonSymmetricError or
    ZeroOffDiagonalError. The input is never mutated.
    """
    pts = tuple(points)
    if not pts:
        raise EmptySpaceError()
    seen: set[str] = set()
    for p in pts:
        if not isinstance(p, str):
            raise MatrixShapeError("point names must be strings")
        if p in seen:
            raise DuplicatePointNameError(p)
        seen.add(p)
    n = len(pts)
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise MatrixShapeError(f"distance matrix must be {n}x{n}")
    rows = tuple(tuple(_as_rational(v) for v in row) for row in matrix)
    # Each unordered pair is tested once, from row i at column j > i. An
    # entry below the diagonal that breaks an axiom breaks one at its mirror
    # too, which the scan reaches first, so the reported error is the same as
    # from a scan over every ordered pair.
    for i in range(n):
        if rows[i][i] != 0:
            raise NonZeroDiagonalError(i)
        for j in range(i + 1, n):
            if rows[i][j] < 0:
                raise NegativeDistanceError(i, j)
            if rows[i][j] != rows[j][i]:
                raise NonSymmetricError(i, j)
            if rows[i][j] == 0:
                raise ZeroOffDiagonalError(i, j)
    return FiniteSemimetricSpace(pts, rows)


def space_from_pairs(
    points: Sequence[str], distances: Mapping[tuple[str, str], object]
) -> FiniteSemimetricSpace:
    """Convenience builder: symmetric closure of ``{(x, y): d}`` over ``points``."""
    pts = tuple(points)
    lut: dict[tuple[str, str], Fraction] = {}
    for (a, b), v in distances.items():
        q = _as_rational(v)
        lut[(a, b)] = q
        lut[(b, a)] = q
    rows = []
    for a in pts:
        row = []
        for b in pts:
            if a == b:
                row.append(Fraction(0))
            else:
                try:
                    row.append(lut[(a, b)])
                except KeyError:
                    raise MatrixShapeError(f"missing distance for ({a!r}, {b!r})") from None
        rows.append(tuple(row))
    return validate_semimetric(pts, tuple(rows))


@lru_cache(maxsize=None)
def spectrum(space: FiniteSemimetricSpace) -> tuple[Fraction, ...]:
    """All distance values, strictly increasing, always starting at 0."""
    return tuple(sorted({v for row in space.dist for v in row}))


def diameter(space: FiniteSemimetricSpace) -> Fraction:
    """Largest distance; 0 exactly for the one-point space."""
    return spectrum(space)[-1]


Violation = tuple[str, str, str]
MstEdge = tuple[int, int, Fraction]


def _first_violating_triple(space: FiniteSemimetricSpace) -> Violation | None:
    d = space.dist
    pts = space.points
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            dij = d[i][j]
            for k in range(n):
                if k == i or k == j:
                    continue
                if dij > max(d[i][k], d[k][j]):
                    return (pts[i], pts[j], pts[k])
    return None


@lru_cache(maxsize=None)
def ultrametric_mst(
    space: FiniteSemimetricSpace,
) -> tuple[Violation | None, tuple[MstEdge, ...]]:
    """One pass of Prim's algorithm that certifies ultrametricity.

    Returns ``(None, edges)`` for an ultrametric space, where ``edges`` are
    the minimum spanning tree's ``(parent, child, weight)`` index triples in
    the order Prim added them, and ``(violation, ())`` otherwise, with the
    triple ``ultrametric_violation`` documents.

    Prim adds each vertex v through its tree parent p at weight w. Before v
    is added, d(v, u) = max(w, d(p, u)) is checked for every vertex u added
    so far. By induction these equalities say that d(v, u) is the largest
    weight on the tree path from v to u, i.e. that d is the minimax distance
    of its own minimum spanning tree -- its subdominant ultrametric -- and a
    space is ultrametric iff it equals its subdominant ultrametric. Both the
    pass and the check cost O(n^2).
    """
    d = space.dist
    n = len(d)
    # Fractions compare about 30 times slower than ints, so the pass compares
    # numerators over one common denominator. Only the denominators are read
    # up front; a row is converted when its vertex joins the tree, so a pass
    # that fails early converts few rows.
    scale = lcm(*{v.denominator for row in d for v in row})

    def scaled(i: int) -> list[int]:
        return [v.numerator * (scale // v.denominator) for v in d[i]]

    rows = [scaled(0)] + [None] * (n - 1)
    best = list(rows[0])  # distance from each vertex to the tree built so far
    via = [0] * n  # the tree vertex realizing it
    added = [0]
    rest = list(range(1, n))
    edges = []
    while rest:
        v = min(rest, key=best.__getitem__)
        w, p = best[v], via[v]
        rows[v] = dv = scaled(v)
        dp = rows[p]
        for u in added:
            dpu = dp[u]
            if dv[u] != (dpu if dpu > w else w):
                return _first_violating_triple(space), ()
        added.append(v)
        rest.remove(v)
        edges.append((p, v, d[p][v]))
        for u in rest:
            if dv[u] < best[u]:
                best[u] = dv[u]
                via[u] = v
    return None, tuple(edges)


def ultrametric_violation(space: FiniteSemimetricSpace) -> Violation | None:
    """First triple (x, y, z) with d(x,y) > max(d(x,z), d(z,y)), or None.

    Ultrametricity is certified in O(n^2) by the Prim pass of
    ``ultrametric_mst``. Only when that pass fails is the triple searched for,
    in point order (pairs i<j, then z), so the witness is deterministic; that
    scan stops at the first violating triple and costs O(n^3) at worst.
    """
    return ultrametric_mst(space)[0]


def is_ultrametric(space: FiniteSemimetricSpace) -> bool:
    return ultrametric_violation(space) is None


def rank_relabel(
    space: FiniteSemimetricSpace, target: Iterable[object]
) -> FiniteSemimetricSpace:
    """Send the k-th smallest spectrum value to the k-th target value.

    ``target`` must be strictly increasing, start at 0 and have exactly
    ``len(spectrum(space))`` entries; the result has the same points and the
    order-isomorphic spectrum. A strictly increasing relabeling commutes with
    max, so it preserves (and reflects) the ultrametric property.
    """
    tgt = tuple(_as_rational(v) for v in target)
    if not tgt or tgt[0] != 0:
        raise TargetNotStartingAtZeroError()
    if any(tgt[i] >= tgt[i + 1] for i in range(len(tgt) - 1)):
        raise TargetNotIncreasingError()
    sp = spectrum(space)
    if len(sp) != len(tgt):
        raise SpectrumSizeMismatchError(len(sp), len(tgt))
    f = dict(zip(sp, tgt))
    rows = tuple(tuple(f[v] for v in row) for row in space.dist)
    return FiniteSemimetricSpace(space.points, rows)


# --- JSON wire format -------------------------------------------------------
#
# {"points": ["p", "q"], "dist": [["0", "2"], ["2", "0"]]}
# with every entry an exact rational string.


def space_to_json(space: FiniteSemimetricSpace) -> dict:
    return {
        "points": list(space.points),
        "dist": [[format_rational(v) for v in row] for row in space.dist],
    }


def space_from_json(doc: object) -> FiniteSemimetricSpace:
    if not isinstance(doc, dict):
        raise FormatError("space document must be a JSON object")
    try:
        points = doc["points"]
        dist = doc["dist"]
    except (KeyError, TypeError):
        raise FormatError('space document needs "points" and "dist"') from None
    if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
        raise FormatError('"points" must be a list of strings')
    if not isinstance(dist, list) or not all(isinstance(row, list) for row in dist):
        raise FormatError('"dist" must be a list of rows')
    rows = tuple(tuple(parse_rational(v) for v in row) for row in dist)
    return validate_semimetric(tuple(points), rows)


def space_to_text(space: FiniteSemimetricSpace) -> str:
    return json.dumps(space_to_json(space), indent=2) + "\n"


def space_from_text(text: str) -> FiniteSemimetricSpace:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from None
    return space_from_json(doc)
