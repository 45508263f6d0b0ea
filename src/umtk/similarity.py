"""Isometry and weak-similarity decisions with verified witnesses.

A weak similarity X ~ Y is a point bijection phi together with a strictly
increasing bijection f between the spectra such that
f(d(x, y)) = rho(phi(x), phi(y)) for all pairs. Between finite spectra of
equal size exactly one strictly increasing bijection exists (the rank map),
so weak similarity is isometry of rank matrices, and isometry is that plus
equal spectra. For ultrametric inputs it reduces to equal canonical trees,
X's and Y's on X's spectrum, whose leaves pair by position. For general
semimetric inputs, unequal multisets of rank-row sums are a no; otherwise
each point is coloured by its row sum, and by its sorted rank row too
where sums tie, and points of equal colour are paired, by the one map the
colours force where X's are pairwise distinct, and otherwise by
``search.match``. The distance multisets themselves are not compared. Every
witness returned by this module is verified once, over all pairs, by the
one rank verifier behind ``verify_isometry`` and ``verify_weak_similarity``;
a refuted forced map means no, any other refuted map is a defect.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import itemgetter

from .errors import NotUltrametricError, VerificationFailedError
from .reptree import build_tree
from .search import match
from .spaces import FiniteSemimetricSpace, _entries, _pair, _quote, format_rational

Scaling = tuple[tuple[Fraction, Fraction], ...]


@dataclass(frozen=True)
class IsometryWitness:
    phi: dict[str, str]


@dataclass(frozen=True)
class WeakSimWitness:
    """Graph of the spectrum scaling plus the point bijection."""

    scaling: Scaling
    phi: dict[str, str]


def forced_scaling(
    x: FiniteSemimetricSpace, y: FiniteSemimetricSpace
) -> Scaling | None:
    """The unique strictly increasing bijection Sp(X) -> Sp(Y), or None.

    It exists iff the spectra have equal size, and then it is the rank map.
    """
    sx, sy = x.spectrum, y.spectrum
    if len(sx) != len(sy):
        return None
    return tuple(zip(sx, sy))


def _preserves_ranks(
    x: FiniteSemimetricSpace, y: FiniteSemimetricSpace, phi: dict[str, str]
) -> bool:
    """True iff phi is a bijection X -> Y that keeps the rank of every
    distance. Each row is compared whole with its image's as X's row type."""
    if set(phi) != set(x.points) or set(phi.values()) != set(y.points) or len(phi) != len(y):
        return False
    index = {p: k for k, p in enumerate(y.points)}
    image = [index[phi[p]] for p in x.points]
    pick = itemgetter(*image, image[0])  # one extra index: a tuple even for n = 1
    row_type = type(x.ranks[0])
    return all(row_type(pick(y.ranks[yi])[:-1]) == row_x for row_x, yi in zip(x.ranks, image))


def verify_isometry(
    x: FiniteSemimetricSpace, y: FiniteSemimetricSpace, phi: dict[str, str]
) -> bool:
    """True iff phi is a distance-preserving bijection X -> Y: equal spectra
    and equal ranks at every pair."""
    return x.spectrum == y.spectrum and _preserves_ranks(x, y, phi)


def verify_weak_similarity(
    x: FiniteSemimetricSpace, y: FiniteSemimetricSpace, witness: WeakSimWitness
) -> bool:
    """Check the scaling is the strictly increasing spectrum bijection with
    f(0) = 0 and that f(d(x1, x2)) = rho(phi(x1), phi(x2)) for every pair.
    Spectra are sorted, so that bijection pairs their k-th values, and f
    keeps ranks."""
    if tuple(a for a, _ in witness.scaling) != x.spectrum:
        return False
    if tuple(b for _, b in witness.scaling) != y.spectrum:
        return False
    return _preserves_ranks(x, y, witness.phi)


def _backtrack_isometry(
    x: FiniteSemimetricSpace, y: FiniteSemimetricSpace
) -> tuple[dict[str, str] | None, bool]:
    """Unverified point map, or None, and whether the colours force it. A
    rank-preserving map keeps each point's rank row as a multiset, so it
    keeps the row's sum and its sorted row. Unequal multisets of row sums
    are a no at once. Otherwise a point's colour is ``(sum, sorted row)``
    where another point of X shares its sum and ``(sum, ())`` elsewhere,
    which parts each space as its sorted rows do, sorting only the rows
    whose sums tie. If X's colours are pairwise distinct and Y's the same
    set, only the map pairing equal colours can be one. Otherwise the
    matching search runs, and a candidate must keep the distance ranks to
    the assigned points."""
    dx, dy = x.ranks, y.ranks
    sums1, sums2 = list(map(sum, dx)), list(map(sum, dy))
    ordered = sorted(sums1)
    if ordered != sorted(sums2):
        return None, False
    tied = {s for s, t in zip(ordered, ordered[1:]) if s == t}
    colors1, colors2 = (
        [(s, tuple(sorted(row)) if s in tied else ()) for s, row in zip(sums, d)]
        for sums, d in ((sums1, dx), (sums2, dy))
    )
    distinct = set(colors1)
    if len(distinct) == len(colors1) and distinct == set(colors2):
        at = dict(zip(colors2, y.points))
        return dict(zip(x.points, map(at.__getitem__, colors1))), True

    def fits(i: int, j: int, image: list[int]) -> bool:
        row_y = dy[j]
        return all(j2 < 0 or d == row_y[j2] for d, j2 in zip(dx[i], image))

    assignment = match(colors1, colors2, fits)
    if assignment is None:
        return None, False
    return {x.points[i]: y.points[j] for i, j in assignment.items()}, False


def decide_isometry(
    x: FiniteSemimetricSpace, y: FiniteSemimetricSpace
) -> IsometryWitness | None:
    """Verified isometry witness, or None: a weak similarity of equal spectra."""
    witness = decide_weak_similarity(x, y) if x.spectrum == y.spectrum else None
    return None if witness is None else IsometryWitness(witness.phi)


def decide_weak_similarity(
    x: FiniteSemimetricSpace, y: FiniteSemimetricSpace
) -> WeakSimWitness | None:
    """Verified weak-similarity witness, or None.

    The scaling is forced (rank map), so the decision is whether the rank
    matrices are isometric. Ultrametric pairs compare canonical trees (X's
    and Y's on X's spectrum), everything else goes through
    ``_backtrack_isometry``. A strictly increasing relabeling keeps every
    metric property, so a mixed ultrametric/non-ultrametric pair is a no.
    Equal trees, like a complete rank-preserving assignment, imply equal
    rank multisets, so these are not compared. A refuted map means no if
    the colours forced it, and is a defect if the tree route or the search
    gave it.
    """
    scaling = forced_scaling(x, y)
    if scaling is None or len(x) != len(y):
        return None
    trees = []
    for space in (x, FiniteSemimetricSpace(y.points, x.spectrum, y.ranks)):  # Y coded with X's texts
        try:
            trees.append(build_tree(space))
        except NotUltrametricError:
            pass
    if len(trees) == 1:
        return None
    if trees:  # canonical layouts are equal iff the labeled codes are; leaves pair by position
        tx, ty = trees
        if tx.labels != ty.labels or tx.children != ty.children:
            return None
        phi, forced = dict(zip(tx.leaf_points(), ty.leaf_points())), False
    else:
        phi, forced = _backtrack_isometry(x, y)
    if phi is None:
        return None
    witness = WeakSimWitness(scaling, phi)
    if not verify_weak_similarity(x, y, witness):
        if forced:
            return None
        raise VerificationFailedError("weak-similarity witness failed re-check")
    return witness


# --- JSON wire format ---------------------------------------------------------
#
# {"scaling": [["0", "0"], ["1", "10"]], "phi": {"p": "p1"}}
# phi keys follow X's point order; isometry witnesses carry only "phi". Each
# writer yields the pieces of json.dumps(doc, indent=2) + "\n": one piece per
# phi entry and per scaling pair.


def _phi_entries(phi: dict[str, str], points: tuple[str, ...]) -> Iterator[str]:
    """``_entries`` of the object ``phi``, one piece per point, in ``points`` order."""
    return _entries("{}", (f"{_quote(p)}: {_quote(phi[p])}" for p in points))


def phi_pieces(phi: dict[str, str], points: tuple[str, ...]) -> Iterator[str]:
    """``{"phi": ...}``, the witness of ``isometric`` and ``ballpreserving``."""
    return chain(['{\n  "phi": '], _phi_entries(phi, points), ["\n}\n"])


def weak_sim_pieces(witness: WeakSimWitness, points: tuple[str, ...]) -> Iterator[str]:
    """``{"scaling": ..., "phi": ...}``, the witness of ``weaksim``."""
    scaling = (_pair(f'"{format_rational(a)}"', f'"{format_rational(b)}"') for a, b in witness.scaling)
    return chain(['{\n  "scaling": '], _entries("[]", scaling), [',\n  "phi": '], _phi_entries(witness.phi, points),
                 ["\n}\n"])
