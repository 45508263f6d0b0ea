"""Reference implementation that space parsing and validation are tested against.

``space_from_json`` and ``validate_semimetric`` here are the Fraction-matrix
versions: every literal is parsed where it stands, in row-major order, and
the axioms are tested on the Fractions themselves, each unordered pair once
from row i at column j > i. They return ``(points, rows)`` and exist only to
check the rank-based code in ``umtk.spaces``.
"""
from __future__ import annotations

from umtk.errors import (
    DuplicatePointNameError,
    EmptySpaceError,
    FormatError,
    MatrixShapeError,
    NegativeDistanceError,
    NonSymmetricError,
    NonZeroDiagonalError,
    ZeroOffDiagonalError,
)
from umtk.spaces import _as_rational, parse_rational


def distances(space):
    """The distance matrix of a space, its ranks read through its spectrum."""
    value = space.spectrum.__getitem__
    return tuple(tuple(map(value, row)) for row in space.ranks)


def validate_semimetric(points, matrix):
    pts = tuple(points)
    if not pts:
        raise EmptySpaceError()
    seen = set()
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
    return pts, rows


def space_from_json(doc):
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
