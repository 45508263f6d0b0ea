"""Isometry and weak-similarity decisions with verified witnesses.

A weak similarity X ~ Y is a point bijection phi together with a strictly
increasing bijection f between the spectra such that
f(d(x, y)) = rho(phi(x), phi(y)) for all pairs. Between finite spectra of
equal size exactly one strictly increasing bijection exists (the rank map),
so deciding weak similarity reduces to one isometry test after rank
relabeling. For ultrametric inputs isometry itself reduces to equality of
labeled canonical tree codes; for general semimetric inputs ``search.match``
pairs points with equal sorted distance rows. No distance multisets are
compared first. Every witness returned by this module has been re-verified
over all pairs.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import FormatError, VerificationFailedError
from .reptree import RepTree, build_tree
from .search import match
from .spaces import (
    FiniteSemimetricSpace,
    format_rational,
    is_ultrametric,
    parse_rational,
    rank_relabel,
    spectrum,
)
from .treecanon import canon_code_labeled, rooted_tree_iso_map

Scaling = tuple[tuple[Fraction, Fraction], ...]


@dataclass(frozen=True)
class IsometryWitness:
    phi: dict[str, str]


@dataclass(frozen=True)
class WeakSimWitness:
    """Graph of the spectrum scaling plus the point bijection."""

    scaling: Scaling
    phi: dict[str, str]

    def scaling_map(self) -> dict[Fraction, Fraction]:
        return dict(self.scaling)


def forced_scaling(
    x: FiniteSemimetricSpace, y: FiniteSemimetricSpace
) -> Scaling | None:
    """The unique strictly increasing bijection Sp(X) -> Sp(Y), or None.

    It exists iff the spectra have equal size, and then it is the rank map.
    """
    sx, sy = spectrum(x), spectrum(y)
    if len(sx) != len(sy):
        return None
    return tuple(zip(sx, sy))


def _paired_distances(
    x: FiniteSemimetricSpace, y: FiniteSemimetricSpace, phi: dict[str, str]
) -> Iterator[tuple[Fraction, Fraction]]:
    """(d(x1, x2), rho(phi(x1), phi(x2))) for every pair of X's points.

    phi must map X's points into Y's. Y's point indices are looked up once,
    so walking all pairs costs O(n^2).
    """
    index = {p: k for k, p in enumerate(y.points)}
    image = [index[phi[p]] for p in x.points]
    for i, yi in enumerate(image):
        row_x, row_y = x.dist[i], y.dist[yi]
        for j in range(i + 1, len(image)):
            yield row_x[j], row_y[image[j]]


def verify_isometry(
    x: FiniteSemimetricSpace, y: FiniteSemimetricSpace, phi: dict[str, str]
) -> bool:
    """True iff phi is a distance-preserving bijection X -> Y."""
    if set(phi) != set(x.points) or len(set(phi.values())) != len(phi):
        return False
    if set(phi.values()) != set(y.points):
        return False
    return all(d == rho for d, rho in _paired_distances(x, y, phi))


def verify_weak_similarity(
    x: FiniteSemimetricSpace, y: FiniteSemimetricSpace, witness: WeakSimWitness
) -> bool:
    """Check the scaling is the strictly increasing spectrum bijection with
    f(0) = 0 and that f(d(x1, x2)) = rho(phi(x1), phi(x2)) for every pair."""
    sx, sy = spectrum(x), spectrum(y)
    firsts = tuple(a for a, _ in witness.scaling)
    seconds = tuple(b for _, b in witness.scaling)
    if firsts != sx or tuple(sorted(seconds)) != sy:
        return False
    if any(seconds[i] >= seconds[i + 1] for i in range(len(seconds) - 1)):
        return False
    if witness.scaling and witness.scaling[0] != (Fraction(0), Fraction(0)):
        return False
    f = dict(witness.scaling)
    phi = witness.phi
    if set(phi) != set(x.points) or set(phi.values()) != set(y.points):
        return False
    if len(set(phi.values())) != len(phi):
        return False
    return all(f[d] == rho for d, rho in _paired_distances(x, y, phi))


def _leaf_map(psi: dict, tx: RepTree) -> dict[str, str]:
    return {n.point: psi[n].point for n in tx.nodes() if n.is_leaf}


def _tree_isometry(
    x: FiniteSemimetricSpace, y: FiniteSemimetricSpace
) -> IsometryWitness | None:
    tx, ty = build_tree(x), build_tree(y)
    if canon_code_labeled(tx) != canon_code_labeled(ty):
        return None
    psi = rooted_tree_iso_map(tx, ty, respect_labels=True)
    phi = _leaf_map(psi, tx)
    if not verify_isometry(x, y, phi):
        raise VerificationFailedError("tree-derived isometry failed re-check")
    return IsometryWitness(phi)


def _backtrack_isometry(
    x: FiniteSemimetricSpace, y: FiniteSemimetricSpace
) -> IsometryWitness | None:
    """A point's color is its sorted distance row; a candidate must keep the
    distances to the assigned points. Distances are compared as ranks in the
    union of both spectra: ints compare far faster than Fractions."""
    rank = {v: k for k, v in enumerate(sorted(set(spectrum(x)) | set(spectrum(y))))}
    dx, dy = ([[rank[v] for v in row] for row in s.dist] for s in (x, y))

    def fits(i: int, j: int, image: list[int], used: list[bool]) -> bool:
        row_y = dy[j]
        return all(j2 < 0 or d == row_y[j2] for d, j2 in zip(dx[i], image))

    colors1, colors2 = ([tuple(sorted(row)) for row in d] for d in (dx, dy))
    assignment = match(colors1, colors2, range(len(x)), range(len(y)), fits)
    if assignment is None:
        return None
    phi = {x.points[i]: y.points[j] for i, j in assignment.items()}
    if not verify_isometry(x, y, phi):
        raise VerificationFailedError("backtracking isometry failed re-check")
    return IsometryWitness(phi)


def decide_isometry(
    x: FiniteSemimetricSpace, y: FiniteSemimetricSpace
) -> IsometryWitness | None:
    """Verified isometry witness, or None.

    Ultrametric pairs go through labeled tree canonization (polynomial);
    everything else through the matching search. Isometric spaces share
    every metric property, so mixed ultrametric/non-ultrametric pairs are
    rejected immediately. Equal codes, like a complete distance-preserving
    assignment, imply equal distance multisets, so these are not compared.
    """
    if len(x) != len(y):
        return None
    ux, uy = is_ultrametric(x), is_ultrametric(y)
    if ux != uy:
        return None
    if ux and uy:
        return _tree_isometry(x, y)
    return _backtrack_isometry(x, y)


def decide_weak_similarity(
    x: FiniteSemimetricSpace, y: FiniteSemimetricSpace
) -> WeakSimWitness | None:
    """Verified weak-similarity witness, or None.

    The scaling is forced (rank map), so the decision is: relabel X's
    spectrum onto Y's and test isometry.
    """
    scaling = forced_scaling(x, y)
    if scaling is None:
        return None
    relabeled = rank_relabel(x, [b for _, b in scaling])
    iso = decide_isometry(relabeled, y)
    if iso is None:
        return None
    witness = WeakSimWitness(scaling, iso.phi)
    if not verify_weak_similarity(x, y, witness):
        raise VerificationFailedError("weak-similarity witness failed re-check")
    return witness


# --- JSON wire format ---------------------------------------------------------
#
# {"scaling": [["0", "0"], ["1", "10"]], "phi": {"p": "p1"}}
# phi keys follow X's point order; isometry witnesses carry only "phi".


def weak_sim_witness_to_json(witness: WeakSimWitness, point_order: tuple[str, ...]) -> dict:
    return {
        "scaling": [[format_rational(a), format_rational(b)] for a, b in witness.scaling],
        "phi": {p: witness.phi[p] for p in point_order},
    }


def weak_sim_witness_from_json(doc: object) -> WeakSimWitness:
    if not isinstance(doc, dict) or "scaling" not in doc or "phi" not in doc:
        raise FormatError('witness document needs "scaling" and "phi"')
    try:
        scaling = tuple(
            (parse_rational(a), parse_rational(b)) for a, b in doc["scaling"]
        )
        phi = {str(k): str(v) for k, v in doc["phi"].items()}
    except (TypeError, ValueError):
        raise FormatError("malformed witness document") from None
    return WeakSimWitness(scaling, phi)


def witness_to_text(witness: WeakSimWitness, point_order: tuple[str, ...]) -> str:
    return json.dumps(weak_sim_witness_to_json(witness, point_order), indent=2) + "\n"
