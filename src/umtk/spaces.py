"""Finite semimetric spaces with exact rational distances.

A space is a tuple of distinct point names plus a symmetric distance matrix
with zero diagonal and positive off-diagonal entries. No triangle inequality
of any kind is assumed; the strong (ultrametric) inequality is a property one
can test, not an axiom. Every distance is a ``fractions.Fraction`` and every
comparison in the package is exact -- floats are rejected at the boundary.

A space is stored as its spectrum (its distinct distances, increasing from
0) plus the n x n matrix of distance ranks into it. Ranks keep equality and
order, so all checks and searches compare small ints, and a strictly
increasing relabeling of the distances swaps the spectrum and keeps the
ranks: weak similarity is isometry of rank matrices. So the points and
ranks fix a space up to such a relabeling, and a space hashes only them.
A rank row is ``bytes`` up to 256 spectrum values, so the axiom tests, the
hash, ``==`` and the certificate run in C, and a tuple of ints above.
Every rational literal read -- a space's entries, a tree's labels, a
generator's pool -- goes through ``read_literals``: one dict probe an entry
finds the distinct literals, checked in one pass and ranked at once, as ints
when all are integers and by ``rank_values`` of their halves' ints
otherwise, and a document's rows are cut from the ranks it joins; input
that fails is scanned for its first bad one.
"""
from __future__ import annotations

import json
import re
from collections import defaultdict
from fractions import Fraction
from itertools import chain, compress, count, repeat
from operator import attrgetter, eq, floordiv, getitem, itemgetter, lshift, ne
from typing import Iterable, Iterator, Mapping, Sequence

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

_ZERO = Fraction(0)

# ASCII digits only: ``\d`` would admit every Unicode decimal digit.
_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_LITERAL_LINES_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?(?:\n-?[0-9]+(?:/[0-9]+)?)*")


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
    num, den = m.groups()
    try:
        # an integer is already in lowest terms: no gcd to take
        return Fraction(int(num)) if den is None else Fraction(int(num), int(den))
    except ValueError:
        raise FormatError(f"rational literal too long ({len(text)} characters)") from None
    except ZeroDivisionError:
        raise FormatError(f"zero denominator in {text!r}") from None


def format_rational(value: Fraction) -> str:
    """Canonical wire form: ``"a"`` for integers, ``"a/b"`` in lowest terms otherwise."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def dot_string(text: str) -> str:
    """``text`` as a DOT quoted string: ``\\`` and ``"`` are escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


# The layout helpers of the piece writers in ``balls`` and ``similarity``,
# which write their documents as the pieces of json.dumps(doc, indent=2) + "\n".
# A str as json.dumps writes it under its default ensure_ascii, in C; spectrum
# values (format_rational's digits, "-" and "/") and ints need no escaping.
_quote = json.encoder.encode_basestring_ascii


def _entries(brackets: str, entries: Iterable[str]) -> Iterator[str]:
    """The JSON array or object ``brackets`` ("[]" or "{}") of the written
    ``entries`` as ``json.dumps(indent=2)`` lays out a top-level key's value:
    one piece per entry, each on its own line after the opening bracket or a
    comma, then the closing bracket; with no entries, ``brackets``."""
    lead = brackets[0] + "\n    "
    for entry in entries:
        yield lead + entry
        lead = ",\n    "
    yield "\n  " + brackets[1] if lead[0] == "," else brackets


# An entry of ``_entries("[]", ...)`` that is an array of two written values.
_pair = "[\n      {},\n      {}\n    ]".format


def _as_rational(value: object) -> Fraction:
    # ints are welcome in hand-built matrices; floats never are.
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise FormatError(f"distances must be Fraction or int, got {type(value).__name__}")


class _Record:
    """Base of the request path's plain classes: read-only ``_fields``, set once by ``_set``
    (a ``cached_property`` writes ``__dict__`` itself), and the repr a dataclass writes
    of them. It compares by identity."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values: object) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot set or delete {name!r}: a {type(self).__name__} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:  # pickle and copy rebuild it through __init__, then restore its __dict__
        return type(self), tuple(map(self.__getattribute__, self._fields)), getattr(self, "__dict__", None)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{k}={getattr(self, k)!r}' for k in self._fields)})"


class _Value(_Record):
    """A ``_Record`` that compares and hashes by ``_key()``: its fields, unless a class narrows it."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())


# a Fraction's (numerator, denominator), read from its slots in C: no Fraction.__eq__ per value
_ratio = attrgetter("_numerator", "_denominator")


class FiniteSemimetricSpace(_Record):
    """Read-only point tuple, spectrum and rank matrix. Hashable, so cacheable.

    ``ranks[i][j]`` is the index of d(points[i], points[j]) in ``spectrum``;
    a row is ``bytes`` up to 256 spectrum values and a tuple of ints above
    (``_rank_rows``), so equal spectra mean one row type. The hash runs over
    the points and ranks only: spaces that differ only in their spectra
    share it, and ``==`` tells them apart, comparing the spectra last, as
    int pairs.
    """

    __slots__ = _fields = ("points", "spectrum", "ranks")

    def __init__(self, points: tuple[str, ...], spectrum: tuple[Fraction, ...],
                 ranks: tuple[bytes, ...] | tuple[tuple[int, ...], ...]) -> None:
        self._set(points, spectrum, ranks)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.points == other.points and self.ranks == other.ranks
                and list(map(_ratio, self.spectrum)) == list(map(_ratio, other.spectrum)))

    def __hash__(self) -> int:
        return hash((self.points, self.ranks))

    def __len__(self) -> int:
        return len(self.points)

    def index(self, point: str) -> int:
        try:
            return self.points.index(point)
        except ValueError:
            raise UnknownPointError(point) from None

    def distance(self, x: str, y: str) -> Fraction:
        return self.spectrum[self.ranks[self.index(x)][self.index(y)]]

    def restrict(self, subset: Sequence[str]) -> "FiniteSemimetricSpace":
        """Subspace on ``subset`` in the given order (also used to reorder points)."""
        idx = [self.index(p) for p in subset]
        pick = itemgetter(*idx) if len(idx) > 1 else lambda row: [row[i] for i in idx]  # one index: no tuple
        rows = list(map(pick, map(self.ranks.__getitem__, idx)))
        used = sorted(set(chain(*rows)))
        spectrum = tuple(map(self.spectrum.__getitem__, used))
        return validate_semimetric(subset, rows, (spectrum, dict(zip(used, range(len(used))))))


def _rank_rows(rows: Iterable[Iterable[int]], size: int) -> tuple[bytes, ...] | tuple[tuple[int, ...], ...]:
    """Rank rows as a space of ``size`` spectrum values holds them: ``bytes``
    up to 256 values, tuples above. Every space's rows are made here or cut
    from ``read_literals``' bytes, as a ``bytes`` row never equals a tuple
    row of the same ranks."""
    return tuple(map(bytes if size <= len(_IDENTITY) else tuple, rows))


def rank_values(values: Iterable[Fraction | None]) -> tuple[tuple[Fraction, ...], list[int | None]]:
    """The spectrum of some values -- the distinct ones and 0, increasing,
    each the first object seen for its value -- and each value's rank in it
    (None stays None). Every space and every labeled tree is ranked here or,
    from a document of integer literals, by ``read_literals``."""
    values = list(values)
    given = [v for v in values if v is not None]
    dens = [v.denominator for v in given]
    # Distinct rationals with denominators <= D differ by at least 1/D^2 > 2^-shift,
    # so the int floor(v * 2^shift) keeps their order and is equal exactly for
    # equal values. Unlike a common denominator, it has at most 2 * bits(D)
    # bits more than the numerator, however many distinct denominators there are.
    shift = 2 * max(dens, default=1).bit_length()
    keys = iter(map(floordiv, map(lshift, [v.numerator for v in given], repeat(shift)), dens))
    keys = [None if v is None else next(keys) for v in values]
    firsts = {0: _ZERO, **dict(zip(reversed(keys), reversed(values)))}  # each key's first value
    order = sorted(firsts.keys() - {None})
    rank = dict(zip(order, range(len(order))))
    return tuple(map(firsts.__getitem__, order)), list(map(rank.get, keys))


def read_literals(rows: Sequence[Sequence[object]]) -> tuple[tuple[Fraction, ...], bytes | list[int]]:
    """The spectrum of rows of rational literals, as ``rank_values`` ranks
    them, and every entry's rank, the rows joined: ``bytes`` when the ids and
    the spectrum fit a byte, else a list. One dict probe an entry gives each
    distinct literal a first-sight id; one match checks them, integers are
    their own keys, a set with a fraction goes through ``rank_values``, each
    value made from the ints of its text's two halves, and ids that fit a
    byte become ranks by one ``bytes.translate``. Failing that, the first
    bad literal in row order raises its FormatError."""
    ids = defaultdict(count().__next__)
    try:
        try:  # itemgetter of one key returns the entry itself, and of none fails
            id_rows = [bytes(itemgetter(*row)(ids) if len(row) > 1 else map(ids.__getitem__, row)) for row in rows]
        except ValueError:  # an id past a byte: more than 256 distinct literals
            id_rows = [list(map(ids.__getitem__, chain.from_iterable(rows)))]
        literals = list(ids)
        del ids  # freed before the ranking, which sets a wide document's peak
        text = "\n".join(literals)
        # one line per literal: then no literal holds a newline
        if text.count("\n") != len(literals) - 1 or _LITERAL_LINES_RE.fullmatch(text) is None:
            raise ValueError("not a set of rational literals")
        if "/" in text:  # the match has checked each half
            halves = (literal.partition("/") for literal in literals)
            spectrum, ranks = rank_values(Fraction(int(a), int(b)) if b else Fraction(int(a)) for a, _, b in halves)
        else:
            keys = list(map(int, literals))
            order = sorted({0, *keys})
            rank = dict(zip(order, range(len(order))))
            spectrum, ranks = tuple(map(Fraction, order)), list(map(rank.__getitem__, keys))
    except (TypeError, ValueError, ZeroDivisionError):
        values = {lit: parse_rational(lit) for lit in chain.from_iterable(rows)}
        spectrum, ranks = rank_values(values.values())  # no literal at all: the rows are empty
        return spectrum, list(map(dict(zip(values, ranks)).__getitem__, chain.from_iterable(rows)))
    if len(ranks) <= len(_IDENTITY) >= len(spectrum):
        return spectrum, b"".join(id_rows).translate(bytes(ranks).ljust(len(_IDENTITY), b"\0"))
    return spectrum, list(map(ranks.__getitem__, chain.from_iterable(id_rows)))


def validate_semimetric(
    points: Sequence[str],
    matrix: Sequence[Sequence[object]],
    ranked: tuple[Sequence[Fraction], Mapping[object, int] | range | bytes | list[int]] | None = None,
) -> FiniteSemimetricSpace:
    """Check all semimetric axioms and return the immutable space.

    Entries are Fractions or ints; ranks into another spectrum, when
    ``ranked`` is a spectrum (the entries' values and 0, increasing) and a
    mapping or range from each entry to its rank; or literals, with ``ranked``
    their ``read_literals``, whose joined ranks are cut into rows. Raises
    EmptySpaceError, DuplicatePointNameError, MatrixShapeError, FormatError
    (the first entry of another type, in row-major order),
    NegativeDistanceError, NonZeroDiagonalError, NonSymmetricError or
    ZeroOffDiagonalError. The input is never mutated.

    The axioms are tested on ranks (with z the rank of 0, negative means a
    rank below z). A valid matrix passes a few whole-matrix tests, C calls
    on ``bytes`` rows; otherwise a scan tests each unordered pair once, from
    row i at column j > i, which reports the same first defect as a scan
    over every ordered pair.
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
    keys: Iterable[Iterable[object]] = matrix
    if ranked is None:
        # Entries are keyed by identity (hand-built matrices share their
        # Fractions, and ids hash fast); ``rows`` keeps them alive meanwhile.
        rows = [tuple(row) for row in matrix]
        firsts = dict(zip(map(id, chain.from_iterable(rows)), chain.from_iterable(rows)))
        spectrum, key_ranks = rank_values(map(_as_rational, firsts.values()))
        ranked = spectrum, dict(zip(firsts, key_ranks))
        keys = [map(id, row) for row in rows]
    spectrum, rank = ranked
    if isinstance(rank, (bytes, list)):  # ``read_literals``' joined ranks: the rows are slices
        ranks = tuple([rank[k:k + n] for k in range(0, n * n, n)])
        ranks = ranks if type(rank) is bytes else _rank_rows(ranks, len(spectrum))
    else:  # one C call ranks a whole row; with one key, itemgetter returns the value itself
        ranks = [itemgetter(*row)(rank) for row in keys]
        ranks = _rank_rows(ranks if n > 1 else [ranks], len(spectrum))
    if type(ranks[0]) is bytes:  # with a zero diagonal, n zeros are one a row; m joins the rows
        m = b"".join(ranks)
        valid = not any(m[:: n + 1]) and m.count(0) == n and m == b"".join([m[j::n] for j in range(n)])
    else:
        valid = all(ranks[i][i] == 0 for i in range(n)) and all(row.count(0) == 1 for row in ranks)
        valid = valid and all(map(eq, ranks, zip(*ranks)))
    if not (spectrum[0] == 0 and valid):
        z = spectrum.index(0)  # with no 0 entry, the diagonal fails at once
        for i in range(n):
            row = ranks[i]
            if row[i] != z:
                raise NonZeroDiagonalError(i)
            for j in range(i + 1, n):
                if row[j] < z:
                    raise NegativeDistanceError(i, j)
                if row[j] != ranks[j][i]:
                    raise NonSymmetricError(i, j)
                if row[j] == z:
                    raise ZeroOffDiagonalError(i, j)
    return FiniteSemimetricSpace(pts, spectrum, ranks)


def space_from_pairs(
    points: Sequence[str], distances: Mapping[tuple[str, str], object]
) -> FiniteSemimetricSpace:
    """Convenience builder: symmetric closure of ``{(x, y): d}`` over ``points``.

    A pair naming a point outside ``points`` raises UnknownPointError, a
    nonzero ``(a, a)`` entry NonZeroDiagonalError, and ``(a, b)`` and
    ``(b, a)`` with different values NonSymmetricError.
    """
    pts = tuple(points)
    index = {p: i for i, p in enumerate(pts)}
    lut: dict[tuple[str, str], Fraction] = {}
    for (a, b), v in distances.items():
        for p in (a, b):
            if p not in index:
                raise UnknownPointError(p)
        d = _as_rational(v)
        if a == b and d != 0:
            raise NonZeroDiagonalError(index[a])
        if lut.get((a, b), d) != d:  # set by an earlier (b, a)
            raise NonSymmetricError(index[a], index[b])
        lut[(a, b)] = lut[(b, a)] = d
    try:
        rows = [[Fraction(0) if a == b else lut[(a, b)] for b in pts] for a in pts]
    except KeyError as missing:
        a, b = missing.args[0]
        raise MatrixShapeError(f"missing distance for ({a!r}, {b!r})") from None
    return validate_semimetric(pts, rows)


def spectrum(space: FiniteSemimetricSpace) -> tuple[Fraction, ...]:
    """All distance values, strictly increasing, always starting at 0."""
    return space.spectrum


def diameter(space: FiniteSemimetricSpace) -> Fraction:
    """Largest distance; 0 exactly for the one-point space."""
    return space.spectrum[-1]


Violation = tuple[str, str, str]

# every byte value in order; the certificate's translate tables are cut from it
_IDENTITY = bytes(range(256))


def _max_with(a: int) -> bytes:
    """The ``bytes.translate`` table of x -> max(a, x)."""
    return bytes((a,)) * a + _IDENTITY[a:]


def _apart(r: Sequence[int], s: Sequence[int], a: int) -> bool:
    """True iff rows r and s differ after t -> max(a, t): some column where
    they differ holds an entry above a."""
    diff = list(map(ne, r, s))
    return max(compress(r, diff), default=0) > a or max(compress(s, diff), default=0) > a


def _bytes_apart(r: bytes, s: bytes, a: int) -> bool:
    """``_apart`` for ``bytes`` rows, by one ``bytes.translate`` a row."""
    up = _max_with(a)
    return r.translate(up) != s.translate(up)


def _named(space: FiniteSemimetricSpace, x: int, z: int, a: int) -> Violation:
    """The triple of rows x and z, a = d(x, z), at the first column c where
    they differ after t -> max(a, t): (x, c, z), x the row with the larger
    entry at c."""
    r, s = space.ranks[x], space.ranks[z]
    c = next(c for c in compress(count(), map(ne, r, s)) if r[c] > a or s[c] > a)
    if r[c] < s[c]:
        x, z = z, x
    return space.points[x], space.points[c], space.points[z]


def _certify(
    space: FiniteSemimetricSpace,
) -> tuple[tuple[list[int], list[int]], None] | tuple[None, Violation]:
    """``(ultrametric_order(space), None)``, or ``(None, violation)`` named by
    the first T test that fails (see ``ultrametric_order`` and
    ``ultrametric_violation``): the one pass that certifies, orders and
    names."""
    d = space.ranks
    n = len(d)
    wide = len(space.spectrum) > len(_IDENTITY)
    if n > 2:
        row = d[0]
        a = min(row[1:])
        z = row.index(a)
        if (_apart if wide else _bytes_apart)(row, d[z], a):
            return None, _named(space, 0, z, a)
    order = sorted(range(n), key=d.__getitem__)
    ordered = list(map(d.__getitem__, order))
    adjacent = list(map(getitem, ordered, order[1:]))
    if wide:
        fails = map(_apart, ordered, ordered[1:], adjacent)
    else:
        tables = {a: _max_with(a) for a in set(adjacent)}
        ups = list(map(tables.__getitem__, adjacent))
        fails = map(ne, map(bytes.translate, ordered, ups), map(bytes.translate, ordered[1:], ups))
    i = next(compress(count(), fails), None)
    if i is None:
        return (order, adjacent), None
    return None, _named(space, order[i], order[i + 1], adjacent[i])


def ultrametric_order(space: FiniteSemimetricSpace) -> tuple[list[int], list[int]] | None:
    """A leaf order P of an ultrametric space and the ranks
    ``a[i] = d(P[i], P[i+1])`` of its neighbours' distances; None iff the
    space is not ultrametric. Then ``d(P[i], P[j]) = max(a[i:j])`` for all
    i < j: the representing tree is the Cartesian tree of a over P.

    P sorts the points by their rank rows, and one C-level pass checks
    T_i: rows P[i] and P[i+1] are equal after x -> max(a[i], x). With at
    most 256 spectrum values the rows are ``bytes`` and T_i is one
    ``bytes.translate`` per row; above that the rows are tuples and T_i
    holds iff no column where they differ holds an entry above a[i].
    A T test on the first point and its nearest neighbour (the lowest
    index at that distance) runs before the sort: most spaces that are not
    ultrametric fail it at once.

    Every ultrametric passes, in any order: with a = d(x, y), the strong
    triangle inequalities d(x, c) <= max(a, d(y, c)) and
    d(y, c) <= max(a, d(x, c)) make max(a, d(x, c)) = max(a, d(y, c)) for
    every point c. The sort is what makes the converse hold.

    A space whose sorted order passes is ultrametric. The T's give
    d(P[i], P[j]) <= max(a[i:j]), by induction on j - i. For >=, cut P into
    r-runs at the gaps a[i] > r. Inside a run, each T_i keeps every entry
    above r, so a column is at most r on the whole run or one value above r
    on it. So two runs are either all within r of each other or all farther
    than r apart, and adjacent runs are farther. Suppose two runs are within
    r. Take the largest such r, and among those pairs, R before S, the one
    whose segment, from R's first point x to S's last point y, has end rows
    that first differ at the smallest column w. The sorted rows between
    agree with both before w, so along P the segment's entries in column w
    never decrease.

    - If w lies in the segment, its own entry 0 is the least there, so w is
      x. Then the run after R, farther than r from w, comes before S,
      within r of w, and column w would decrease.
    - If v0 = d(x, w) > r, then d(y, w) > v0. Yet x and y lie in one v0-run,
      as d(x, y) <= r < v0 and r is the largest, and column w holds v0 at
      x, so it is at most v0 on that run.
    - Otherwise w's run W is within r of R. The segment of R and W holds x
      and w, whose entries in column w differ, so its end rows differ at or
      before w: the choice of w, or the first case, rules it out.

    So no two r-runs are within r. For r = max(a[i:j]) - 1, P[i] and P[j]
    lie in different r-runs, so d(P[i], P[j]) >= max(a[i:j]).
    """
    return _certify(space)[0]


def ultrametric_violation(space: FiniteSemimetricSpace) -> Violation | None:
    """A triple (x, y, z) with d(x,y) > max(d(x,z), d(z,y)), or None.

    It is named by the first T test of ``ultrametric_order`` that fails,
    the nearest-neighbour test first: rows x and z, a = d(x, z), differ
    after t -> max(a, t), and c is the first column where they do. The row
    with the larger entry there is x; that entry is above a and above the
    other row's, so d(x,c) > max(d(x,z), d(z,c)), and the triple is
    (x, c, z). It is deterministic.
    """
    return _certify(space)[1]


def is_ultrametric(space: FiniteSemimetricSpace) -> bool:
    return _certify(space)[0] is not None


def rank_relabel(
    space: FiniteSemimetricSpace, target: Iterable[object]
) -> FiniteSemimetricSpace:
    """Send the k-th smallest spectrum value to the k-th target value.

    ``target`` must be strictly increasing, start at 0 and have exactly
    ``len(spectrum(space))`` entries; the result has the same points and the
    order-isomorphic spectrum. A strictly increasing relabeling commutes with
    max, so it preserves (and reflects) the ultrametric property. It swaps
    the spectrum and shares the rank matrix.
    """
    tgt = tuple(_as_rational(v) for v in target)
    if not tgt or tgt[0] != 0:
        raise TargetNotStartingAtZeroError()
    if any(tgt[i] >= tgt[i + 1] for i in range(len(tgt) - 1)):
        raise TargetNotIncreasingError()
    if len(space.spectrum) != len(tgt):
        raise SpectrumSizeMismatchError(len(space.spectrum), len(tgt))
    return FiniteSemimetricSpace(space.points, tgt, space.ranks)


# --- JSON wire format -------------------------------------------------------
#
# {"points": ["p", "q"], "dist": [["0", "2"], ["2", "0"]]}
# with every entry an exact rational string.


def space_to_json(space: FiniteSemimetricSpace) -> dict:
    text = [format_rational(v) for v in space.spectrum].__getitem__
    return {
        "points": list(space.points),
        "dist": [list(map(text, row)) for row in space.ranks],
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
    check_point_names(points)
    if not isinstance(dist, list) or not all(isinstance(row, list) for row in dist):
        raise FormatError('"dist" must be a list of rows')
    return validate_semimetric(tuple(points), dist, read_literals(dist))


def check_point_names(names: Iterable[str]) -> None:
    """FormatError unless every name can be written out: a JSON escape can
    spell a lone surrogate, which no UTF-8 output can hold. One encode of
    the joined names checks them all."""
    try:
        "".join(names).encode()
    except UnicodeEncodeError:
        raise FormatError("point names must not contain lone surrogates") from None
