"""Seeded instance generators and brute-force oracles.

Random ultrametric spaces are produced by sampling a random valid labeled
tree and converting it with ``space_from_tree`` -- never by rejection
sampling on matrices. Everything is driven by ``random.Random`` with a string
seed derived from the config, so identical configs give bitwise-identical
space documents. The oracles decide isometry / weak similarity /
ball-preservation by exhausting point bijections behind a hard size guard.
The weak-similarity oracle shares the forced spectrum scaling (unique anyway)
and ``verify_weak_similarity``; the ball-preserving one runs
``ball_preserving_bijection``'s ``enumerate_balls`` and
``verify_ball_preserving``, so ``tests/ballean_oracle.py`` is the
independent reference for those two.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .balls import enumerate_balls, verify_ball_preserving
from .classify import CLASS_CODES
from .errors import InfeasibleConstraintsError, TooLargeError, VerificationFailedError
from .reptree import RepTree, _inner_levels, _parents, build_tree, space_from_tree
from .similarity import (
    IsometryWitness,
    WeakSimWitness,
    forced_scaling,
    verify_weak_similarity,
)
from .spaces import (
    FiniteSemimetricSpace,
    _rank_rows,
    rank_relabel,
    rank_values,
    validate_semimetric,
)

DEFAULT_POOL: tuple[Fraction, ...] = tuple(Fraction(k) for k in range(1, 7))

_ZERO = Fraction(0)

FORCE_CHOICES = (None, *CLASS_CODES)


@dataclass(frozen=True)
class GenConfig:
    """Deterministic generation parameters.

    ``spectrum_pool`` is the set of candidate distance values; only its
    positive members are used for labels. ``force_class`` is None or one of
    ``classify.CLASS_CODES``.
    """

    seed: int = 0
    n: int = 5
    spectrum_pool: tuple[Fraction, ...] = DEFAULT_POOL
    force_class: str | None = None


def _positive_pool(config: GenConfig) -> list[Fraction]:
    pool = sorted({Fraction(v) for v in config.spectrum_pool if v > 0})
    if config.n >= 2 and not pool:
        raise InfeasibleConstraintsError("need at least one positive pool value")
    return pool


class _Points:
    """Numbers tree nodes as they are made, each child before its parent, in
    arrays for ``RepTree.bottom_up``; leaves are named p0, p1, ... in
    construction order."""

    def __init__(self) -> None:
        self.count = 0
        self.labels: list[Fraction] = []
        self.points: list[str | None] = []
        self.children: list[list[int]] = []

    def next(self) -> int:
        self.count += 1
        return self.join(_ZERO, [], f"p{self.count - 1}")

    def join(self, label: Fraction, children: list[int], point: str | None = None) -> int:
        """Make a node over already made children; returns its number."""
        self.labels.append(label)
        self.points.append(point)
        self.children.append(children)
        return len(self.labels) - 1

    def tree(self) -> RepTree:
        """The tree whose root is the node made last."""
        spectrum, ranks = rank_values(self.labels)
        return RepTree.bottom_up(ranks, self.points, self.children, spectrum)


def _free_tree(rng: random.Random, n: int, max_rank: int, pool: list[Fraction], pts: _Points) -> int:
    # rank bounds the recursion depth: children recurse with rank - 1, so a
    # node at rank 1 can only have leaf children. The label may sit anywhere
    # in pool[rank - 1:max_rank]; descendants stay strictly below pool[rank - 1].
    rank = rng.randint(1, max_rank)
    label = pool[rng.randint(rank, max_rank) - 1]
    if rank == 1:
        sizes = [1] * n
    else:
        # keep one part of size >= 2 so only rank 1 yields all-leaf stars
        k = rng.randint(2, max(2, n - 1))
        sizes = [1] * k
        for _ in range(n - k):
            sizes[rng.randrange(k)] += 1
    children = []
    for size in sizes:
        if size == 1:
            children.append(pts.next())
        else:
            children.append(_free_tree(rng, size, rank - 1, pool, pts))
    return pts.join(label, children)


def _chain_tree(rng: random.Random, n: int, pool: list[Fraction], pts: _Points, m: int | None = None) -> int:
    # One internal node per level, m of them (drawn when not given); every
    # chain node keeps >= 1 leaf sibling for its inner child, the bottom node
    # holds >= 2 leaves. With m = n - 1 it is the strictly binary chain.
    if m is None:
        m = rng.randint(1, min(n - 1, len(pool)))
    labels = sorted(rng.sample(pool, m), reverse=True)
    counts = [1] * (m - 1) + [2]
    for _ in range(n - (m + 1)):
        counts[rng.randrange(m)] += 1
    node = pts.join(labels[m - 1], [pts.next() for _ in range(counts[m - 1])])
    for level in range(m - 2, -1, -1):
        node = pts.join(labels[level], [pts.next() for _ in range(counts[level])] + [node])
    return node


def _distinct_relabel(root: int, rng: random.Random, pool: list[Fraction], pts: _Points) -> int:
    """Give every internal node below ``root`` a distinct pool label,
    decreasing with depth."""
    order = [v for level in _inner_levels(pts.children, root) for v in level]
    if len(order) > len(pool):
        raise InfeasibleConstraintsError(
            f"{len(order)} internal nodes but only {len(pool)} distinct pool labels"
        )
    for v, label in zip(order, sorted(rng.sample(pool, len(order)), reverse=True)):
        pts.labels[v] = label
    return root


def _uniform_fan_tree(rng: random.Random, n: int, pool: list[Fraction], pts: _Points) -> int:
    """Chain of single internal nodes with equal-sized leaf fans at the end.

    A plain chain below four points or three pool values, and otherwise with
    probability 0.3; both layouts have a uniform last internal level and
    distinct labels. The fan layout's c <= min(n - 3, len(pool) - 2) chain
    nodes always leave room for two fans.
    """
    can_fan = n >= 4 and len(pool) >= 3
    if not can_fan or rng.random() < 0.3:
        return _distinct_relabel(_chain_tree(rng, n, pool, pts), rng, pool, pts)
    c = rng.randint(1, min(len(pool) - 2, n - 3, 4))
    m = rng.randint(2, min((n - (c - 1)) // 2, len(pool) - c))
    s = rng.randint(2, (n - (c - 1)) // m)
    counts = [1] * (c - 1) + [0]  # leaf children per chain node
    for _ in range(n - m * s - (c - 1)):
        counts[rng.randrange(c)] += 1
    labels = sorted(rng.sample(pool, c + m), reverse=True)
    fans = [
        pts.join(labels[c + i], [pts.next() for _ in range(s)]) for i in range(m)
    ]
    node = pts.join(labels[c - 1], fans + [pts.next() for _ in range(counts[c - 1])])
    for level in range(c - 2, -1, -1):
        node = pts.join(labels[level], [pts.next() for _ in range(counts[level])] + [node])
    return node


def random_ultrametric(config: GenConfig) -> FiniteSemimetricSpace:
    """Random ultrametric space with ``config.n`` points named p0..p{n-1}."""
    if config.n < 1:
        raise InfeasibleConstraintsError("n must be >= 1")
    if config.force_class not in FORCE_CHOICES:
        raise InfeasibleConstraintsError(f"unknown class {config.force_class!r}")
    rng = random.Random(f"ultra:{config.seed}:{config.n}:{config.force_class}")
    if config.n == 1:
        return validate_semimetric(("p0",), ((Fraction(0),),))
    pool = _positive_pool(config)
    pts = _Points()
    if config.force_class is None:
        _free_tree(rng, config.n, len(pool), pool, pts)
    elif config.force_class == "Rtilde":
        _chain_tree(rng, config.n, pool, pts)
    elif config.force_class == "R":
        m = config.n - 1
        if m > len(pool):
            raise InfeasibleConstraintsError(
                f"a strictly binary chain with {config.n} leaves needs {m} distinct labels"
            )
        _chain_tree(rng, config.n, pool, pts, m)
    elif config.force_class == "D":
        # free trees can carry more internal nodes than the pool has labels;
        # retry a few times, then fall back to a chain (always in D)
        for _ in range(8):
            pts = _Points()
            candidate = _free_tree(rng, config.n, len(pool), pool, pts)
            try:
                _distinct_relabel(candidate, rng, pool, pts)
                break
            except InfeasibleConstraintsError:
                continue
        else:
            pts = _Points()
            _distinct_relabel(_chain_tree(rng, config.n, pool, pts), rng, pool, pts)
    else:  # "T"
        _uniform_fan_tree(rng, config.n, pool, pts)
    return space_from_tree(pts.tree())


def random_semimetric(config: GenConfig) -> FiniteSemimetricSpace:
    """Random semimetric space: off-diagonal entries drawn from the pool."""
    if config.n < 1:
        raise InfeasibleConstraintsError("n must be >= 1")
    rng = random.Random(f"semi:{config.seed}:{config.n}")
    n = config.n
    pool = _positive_pool(config)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.choice(pool)
            rows[i][j] = rows[j][i] = v
    return validate_semimetric(
        tuple(f"p{i}" for i in range(n)), tuple(tuple(r) for r in rows)
    )


def random_relabeled(
    space: FiniteSemimetricSpace, seed: int, distinct: bool = False
) -> FiniteSemimetricSpace:
    """Same tree shape and points as ``space``, fresh random valid labels.

    Labels are rescaled top-down (each child label a random proper fraction
    of its parent's), so the unlabeled tree shape is preserved exactly. With
    ``distinct=True`` the new labeling is injective.
    """
    tree = build_tree(space)
    rng = random.Random(f"relabel:{seed}")
    used: set[Fraction] = set()

    def pick(upper: Fraction | None) -> Fraction:
        if upper is None:
            value = Fraction(rng.randint(40, 400))
        else:
            value = upper * Fraction(rng.randint(1, 9), 10)
        while distinct and value in used:
            value = (value + (upper if upper is not None else value * 2)) / 2
        used.add(value)
        return value

    # one draw per internal node in preorder, each under its parent's new label
    labels = [_ZERO] * len(tree)
    parent = _parents(tree.children)
    for v, kids in enumerate(tree.children):
        if kids:
            labels[v] = pick(labels[parent[v]] if v else None)
    spectrum, ranks = rank_values(labels)
    return space_from_tree(RepTree(ranks, tree.points, tree.children, spectrum))


def renamed_copy(
    space: FiniteSemimetricSpace, seed: int
) -> tuple[FiniteSemimetricSpace, dict[str, str]]:
    """Isometric copy with shuffled point order and fresh names q0, q1, ....

    Returns the copy plus the renaming map (old name -> new name).
    """
    rng = random.Random(f"rename:{seed}")
    order = list(range(len(space)))
    rng.shuffle(order)
    names = {space.points[pi]: f"q{i}" for i, pi in enumerate(order)}
    pts = tuple(f"q{i}" for i in range(len(space)))
    rows = _rank_rows((map(space.ranks[i].__getitem__, order) for i in order), len(space.spectrum))
    return FiniteSemimetricSpace(pts, space.spectrum, rows), names


def oracle_isometry(
    x: FiniteSemimetricSpace, y: FiniteSemimetricSpace
) -> IsometryWitness | None:
    """Exhaustive isometry search over all point bijections (n <= 8)."""
    if len(x) != len(y):
        return None
    if len(x) > 8:
        raise TooLargeError(f"oracle_isometry guard: n = {len(x)} > 8")
    if x.spectrum != y.spectrum:
        return None
    n = len(x)
    for perm in itertools.permutations(range(n)):
        ok = True
        for i in range(n):
            for j in range(i + 1, n):
                if x.ranks[i][j] != y.ranks[perm[i]][perm[j]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return IsometryWitness(
                {x.points[i]: y.points[perm[i]] for i in range(n)}
            )
    return None


def oracle_weak_similarity(
    x: FiniteSemimetricSpace, y: FiniteSemimetricSpace
) -> WeakSimWitness | None:
    """Exhaustive weak-similarity search (n <= 8).

    The spectrum scaling is unique when it exists, so exhausting point
    bijections of the rank-relabeled space settles the question.
    """
    scaling = forced_scaling(x, y)
    if scaling is None:
        return None
    relabeled = rank_relabel(x, [b for _, b in scaling])
    iso = oracle_isometry(relabeled, y)
    if iso is None:
        return None
    witness = WeakSimWitness(scaling, iso.phi)
    if not verify_weak_similarity(x, y, witness):
        raise VerificationFailedError("oracle weak-similarity witness failed re-check")
    return witness


def oracle_ball_preserving(
    x: FiniteSemimetricSpace, y: FiniteSemimetricSpace
) -> dict[str, str] | None:
    """Exhaustive search for a ball-preserving bijection (n <= 6)."""
    if len(x) != len(y):
        return None
    if len(x) > 6:
        raise TooLargeError(f"oracle_ball_preserving guard: n = {len(x)} > 6")
    bx, by = enumerate_balls(x), enumerate_balls(y)
    for perm in itertools.permutations(y.points):
        mapping = dict(zip(x.points, perm))
        ok, _ = verify_ball_preserving(bx, by, mapping)
        if ok:
            return mapping
    return None
