"""Self-checking property suites behind ``umtk check``.

Each suite replays a deterministic seeded instance stream and cross-validates
a decision procedure against an independent brute-force oracle or a structural
invariant. Suites never share mutable state: a suite that revisits another's
instances regenerates the stream from the same seed, so they can run in any
order (or concurrently) and aggregate order-independently.

One harness, ``_suite``, makes every suite: each is called as
``suite(seed=0, trials=None, max_n=None)`` and returns a ``SuiteResult``.
Its ``_suite`` line gives its default trial count, taken when ``trials`` is
None, and its point cap; a ``trials`` below 1 is 1, and a ``max_n`` below
the cap lowers it. No suite makes a space of more points than the cap. A
part whose smallest space does not fit is skipped and draws no trials: the
shape-witness chains and fans need two points, the chain converse's
off-class trees four, the fixed non-tree Hasse example three, and the two
fixed refuted-forced pairs five.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

from .balls import (
    ball_preserving_bijection,
    enumerate_balls,
    hasse_diagram,
    hasse_digraph_iso,
    reversed_is_rooted_tree,
    verify_ball_preserving,
)
from .classify import (
    CLASS_CODES,
    WeakSimWitness,
    adversarial_relabeling,
    classify_space,
    witness_from_unlabeled_iso,
)
from .diametrical import MultipartitePartition, diametrical_graph, multipartite_parts
from .errors import SpaceTooSmallError
from .generators import (
    GenConfig,
    oracle_ball_preserving,
    oracle_isometry,
    oracle_weak_similarity,
    random_relabeled,
    random_semimetric,
    random_ultrametric,
    renamed_copy,
)
from .reptree import build_tree, space_from_tree
from .similarity import (
    decide_isometry,
    decide_weak_similarity,
    verify_isometry,
    verify_weak_similarity,
)
from .spaces import (
    FiniteSemimetricSpace,
    is_ultrametric,
    rank_relabel,
    space_from_pairs,
)
from .treecanon import canon_code_labeled, canon_code_unlabeled

MAX_REPORTED_FAILURES = 5


@dataclass
class SuiteResult:
    name: str
    passed: bool
    trials: int
    seconds: float
    failures: list[str] = field(default_factory=list)

    def line(self) -> str:
        verdict = "ok" if self.passed else "FAIL"
        text = f"{self.name:<24} {verdict:<4} {self.trials:>5} trials  {self.seconds:7.2f}s"
        if self.failures:
            text += "  " + self.failures[0]
        return text

    def tick(self) -> None:
        self.trials += 1

    def fail(self, message: str) -> None:
        self.passed = False
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append(message)
        elif len(self.failures) == MAX_REPORTED_FAILURES:
            self.failures.append("...")

    def check(self, condition: bool, message: str) -> bool:
        if not condition:
            self.fail(message)
        return condition


def _suite(name: str, default_trials: int, cap: int):
    """Make ``body(rec, seed, count, top)`` the suite ``name``, called as
    ``suite(seed=0, trials=None, max_n=None)``. The body draws ``count``
    trials of at most ``top`` points each and ticks and checks them into
    ``rec``, the suite's result, which the harness times and returns."""

    def wrap(body):
        def suite(seed: int = 0, trials: int | None = None, max_n: int | None = None) -> SuiteResult:
            rec = SuiteResult(name, True, 0, 0.0)
            start = time.perf_counter()
            count = default_trials if trials is None else max(1, trials)
            body(rec, seed, count, cap if max_n is None else min(max_n, cap))
            rec.seconds = time.perf_counter() - start
            return rec

        suite.__name__ = suite.__qualname__ = body.__name__
        suite.__doc__ = body.__doc__
        return suite

    return wrap


def _seed_for(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def _random_space(iseed: int, n: int, ultra: bool, force: str | None = None) -> FiniteSemimetricSpace:
    config = GenConfig(seed=iseed, n=n, force_class=force)
    return random_ultrametric(config) if ultra else random_semimetric(config)


def _forced_class(rng: random.Random, n: int) -> str | None:
    force = rng.choice((None, None, *CLASS_CODES))
    if force == "R" and n - 1 > len(GenConfig().spectrum_pool):
        force = "Rtilde"  # a strictly binary chain cannot fit this many leaves
    return force


def _stretched_target(sp: tuple[Fraction, ...], rng: random.Random) -> tuple[Fraction, ...]:
    """Strictly increasing spectrum of the same size, starting at 0."""
    target = [Fraction(0)]
    for _ in sp[1:]:
        target.append(target[-1] + Fraction(rng.randint(1, 9), rng.randint(1, 3)))
    return tuple(target)


def _ultra_stream(seed: int, trials: int, max_n: int, tag: str):
    for i in range(trials):
        rng = random.Random(f"{seed}:{tag}:{i}")
        n = rng.randint(1, max_n)
        yield i, _random_space(_seed_for(seed, i), n, True, _forced_class(rng, n))


def _mixed_pairs(seed: int, trials: int, max_n: int, tag: str, ultra_only: bool = False):
    """Pairs mixing ultrametric/semimetric inputs with engineered relations.

    Modes: unrelated draws; a renamed copy (always positive for every
    relation); a rank-relabeled renamed copy (weakly similar, not isometric
    unless the stretch is trivial); a same-shape relabeling (ultrametric
    inputs only). With ``ultra_only`` every space is ultrametric, and the
    coin flips that pick the kind of space are not drawn.
    """
    for i in range(trials):
        rng = random.Random(f"{seed}:{tag}:{i}")
        n = rng.randint(1, max_n)
        iseed = _seed_for(seed, i)
        ultra = ultra_only or rng.random() < 0.5
        base = _random_space(iseed, n, ultra)
        mode = rng.choice(("unrelated", "copy", "rank-relabel", "shape-relabel"))
        if mode == "unrelated":
            other = _random_space(iseed + 7919, rng.randint(1, max_n), ultra_only or rng.random() < 0.5)
        elif mode == "copy":
            other, _ = renamed_copy(base, iseed)
        elif mode == "rank-relabel":
            stretched = rank_relabel(base, _stretched_target(base.spectrum, rng))
            other, _ = renamed_copy(stretched, iseed)
        else:
            same_shape = random_relabeled(base, iseed) if is_ultrametric(base) else base
            other, _ = renamed_copy(same_shape, iseed)
        yield i, base, other


def _weaksim_pairs(seed: int, trials: int, max_n: int):
    """The "weaksim" ``_mixed_pairs`` with each pair's decision. A stream
    that yields no weakly similar pair ends with one more: a renamed copy of
    its first base, weakly similar by construction."""
    first = None
    positive = False
    for i, x, y in _mixed_pairs(seed, trials, max_n, "weaksim"):
        witness = decide_weak_similarity(x, y)
        positive = positive or witness is not None
        first = x if first is None else first
        yield i, x, y, witness
    if not positive:
        copy, _ = renamed_copy(first, _seed_for(seed, trials))
        yield trials, first, copy, decide_weak_similarity(first, copy)


def _refuted_forced_pair(seeds: tuple[int, int], pool_top: int, max_n: int):
    """The n = 5 semimetric pair of ``seeds`` over the pool 1..``pool_top``
    as trial "fixed", if ``max_n`` allows: a pair whose point colours force
    a refuted map, which no seeded stream at n <= 6 draws."""
    if max_n < 5:
        return
    pool = tuple(map(Fraction, range(1, pool_top + 1)))
    x, y = (random_semimetric(GenConfig(seed=s, n=5, spectrum_pool=pool)) for s in seeds)
    yield "fixed", x, y


def _check_shape_witness(rec: SuiteResult, i: int, x: FiniteSemimetricSpace, y: FiniteSemimetricSpace) -> None:
    """Check that the unlabeled shapes of X and Y give a weak similarity and
    that it verifies."""
    outcome = witness_from_unlabeled_iso(x, y)
    if rec.check(
        isinstance(outcome, WeakSimWitness),
        f"trial {i}: no witness from the unlabeled shape ({outcome})",
    ):
        rec.check(
            verify_weak_similarity(x, y, outcome),
            f"trial {i}: shape-derived witness does not verify",
        )


# --- the ten suites -----------------------------------------------------------


@_suite("tree-roundtrip", 500, 12)
def tree_roundtrip_suite(rec: SuiteResult, seed: int, count: int, top: int) -> None:
    """Rebuilding a space from its representing tree reproduces the matrix."""
    for i, space in _ultra_stream(seed, count, top, "roundtrip"):
        rec.tick()
        back = space_from_tree(build_tree(space))
        if not rec.check(
            set(back.points) == set(space.points),
            f"trial {i}: round-trip changed the point set",
        ):
            continue
        aligned = back.restrict(space.points)
        rec.check(
            aligned == space,
            f"trial {i}: round-trip changed the matrix",
        )


def rebuild_edges(partition: MultipartitePartition) -> frozenset[frozenset[str]]:
    """Edge set of the complete multipartite graph with the given parts."""
    parts = partition.parts
    pairs = ((a, b) for i, pa in enumerate(parts) for pb in parts[i + 1 :] for a in pa for b in pb)
    return frozenset(map(frozenset, pairs))


@_suite("diametrical-partition", 500, 12)
def diametrical_partition_suite(rec: SuiteResult, seed: int, count: int, top: int) -> None:
    """Diametrical graphs of the round-trip stream are complete multipartite."""
    for i, space in _ultra_stream(seed, count, top, "roundtrip"):
        rec.tick()
        if len(space) < 2:
            try:
                diametrical_graph(space)
            except SpaceTooSmallError:
                continue
            rec.fail(f"trial {i}: one-point space must be rejected")
            continue
        graph = diametrical_graph(space)
        parts = multipartite_parts(graph)
        rec.check(
            rebuild_edges(parts) == graph.edges,
            f"trial {i}: partition does not rebuild the edge set",
        )


@_suite("isometry-oracle", 200, 7)
def isometry_agreement_suite(rec: SuiteResult, seed: int, count: int, top: int) -> None:
    """decide_isometry == exhaustive oracle == labeled canonical-code equality."""
    for i, x, y in _mixed_pairs(seed, count, top, "iso", ultra_only=True):
        rec.tick()
        witness = decide_isometry(x, y)
        oracle = oracle_isometry(x, y)
        if not rec.check(
            (witness is None) == (oracle is None),
            f"trial {i}: decide_isometry disagrees with the oracle",
        ):
            continue
        codes_equal = canon_code_labeled(build_tree(x)) == canon_code_labeled(build_tree(y))
        rec.check(
            codes_equal == (witness is not None),
            f"trial {i}: labeled canonical codes disagree with the decision",
        )
        if witness is not None:
            rec.check(
                verify_isometry(x, y, witness.phi),
                f"trial {i}: returned isometry does not verify",
            )


@_suite("weaksim-oracle", 200, 6)
def weak_similarity_agreement_suite(rec: SuiteResult, seed: int, count: int, top: int) -> None:
    """decide_weak_similarity matches the oracle; witnesses re-verify. A
    fixed pair whose rank rows force a refuted map is one more trial."""
    positives = 0
    fixed = ((i, x, y, decide_weak_similarity(x, y)) for i, x, y in _refuted_forced_pair((21, 690), 3, top))
    for i, x, y, witness in chain(_weaksim_pairs(seed, count, top), fixed):
        rec.tick()
        oracle = oracle_weak_similarity(x, y)
        rec.check(
            (witness is None) == (oracle is None),
            f"trial {i}: decide_weak_similarity disagrees with the oracle",
        )
        if witness is not None:
            positives += 1
            rec.check(
                verify_weak_similarity(x, y, witness),
                f"trial {i}: returned weak-similarity witness does not verify",
            )
    rec.check(positives > 0, "stream produced no weakly similar pairs")


@_suite("chain-shape-witness", 100, 10)
def chain_shape_witness_suite(rec: SuiteResult, seed: int, count: int, top: int) -> None:
    """Single-inner-node-per-level trees: any relabeling stays weakly similar,
    recoverable from the unlabeled shape alone. Every other tree has fewer
    levels L than internal nodes m, so its labels by level and by preorder
    give L + 1 and m + 1 spectrum values; one is not X's, and that
    relabeling keeps the shape but breaks weak similarity."""
    # a part whose smallest space does not fit under the cap is skipped:
    # the chains have two or more points, the off-class trees four or more
    for i in range(count if top >= 2 else 0):
        rng = random.Random(f"{seed}:chainfwd:{i}")
        n = rng.randint(2, top)
        iseed = _seed_for(seed, i)
        x = random_ultrametric(GenConfig(seed=iseed, n=n, force_class="Rtilde"))
        rec.tick()
        if not rec.check(
            classify_space(x).inner_chain, f"trial {i}: generator left the class"
        ):
            continue
        y, _ = renamed_copy(random_relabeled(x, iseed), iseed)
        _check_shape_witness(rec, i, x, y)
    for i in range(count if top >= 4 else 0):
        rng = random.Random(f"{seed}:chainconv:{i}")
        iseed = _seed_for(seed, i) + 104_729
        candidates = (
            random_ultrametric(GenConfig(seed=iseed + attempt, n=rng.randint(4, top)))
            for attempt in range(50)
        )
        x = next((space for space in candidates if not classify_space(space).inner_chain), None)
        rec.tick()
        if x is None:
            rec.fail(f"converse {i}: found no off-class space")
            continue
        y = adversarial_relabeling(x)
        rec.check(
            canon_code_unlabeled(build_tree(x)) == canon_code_unlabeled(build_tree(y)),
            f"converse {i}: relabeling changed the unlabeled shape",
        )
        rec.check(
            decide_weak_similarity(x, y) is None,
            f"converse {i}: adversarial relabeling is still weakly similar",
        )


@_suite("fan-shape-witness", 100, 12)
def fan_shape_witness_suite(rec: SuiteResult, seed: int, count: int, top: int) -> None:
    """Injectively labeled trees with uniform last level: shape isomorphism
    already forces weak similarity, and the derived witness verifies. That
    witness is the general decision's own, so the decision runs once."""
    for i in range(count if top >= 2 else 0):  # the fan trees have two or more points
        rng = random.Random(f"{seed}:fan:{i}")
        n = rng.randint(2, top)
        iseed = _seed_for(seed, i)
        x = random_ultrametric(GenConfig(seed=iseed, n=n, force_class="T"))
        rec.tick()
        report = classify_space(x)
        if not rec.check(
            report.distinct_labels and report.uniform_last_level,
            f"trial {i}: generator left the class",
        ):
            continue
        y, _ = renamed_copy(random_relabeled(x, iseed, distinct=True), iseed)
        ry = classify_space(y)
        rec.check(
            ry.distinct_labels and ry.uniform_last_level,
            f"trial {i}: relabeling left the class",
        )
        _check_shape_witness(rec, i, x, y)


@_suite("weaksim-hasse", 200, 6)
def weaksim_hasse_suite(rec: SuiteResult, seed: int, count: int, top: int) -> None:
    """Weakly similar pairs always have isomorphic Hasse diagrams."""
    positives = 0
    for i, x, y, witness in _weaksim_pairs(seed, count, top):
        if witness is None:
            continue
        positives += 1
        rec.tick()
        hx = hasse_diagram(enumerate_balls(x))
        hy = hasse_diagram(enumerate_balls(y))
        rec.check(
            hasse_digraph_iso(hx, hy) is not None,
            f"trial {i}: weakly similar pair with non-isomorphic diagrams",
        )
    rec.check(positives > 0, "stream produced no weakly similar pairs")


@_suite("ballpreserving-oracle", 150, 6)
def ball_preserving_agreement_suite(rec: SuiteResult, seed: int, count: int, top: int) -> None:
    """ball_preserving_bijection == exhaustive oracle == Hasse isomorphism;
    where X's ball profiles are pairwise distinct, the returned map is the
    isomorphism's restriction to the one-point balls. A fixed pair whose
    ball profiles force a refuted map is one more trial."""
    for i, x, y in chain(_mixed_pairs(seed, count, top, "ballpres"), _refuted_forced_pair((4, 195), 4, top)):
        rec.tick()
        fast = ball_preserving_bijection(x, y)
        slow = oracle_ball_preserving(x, y)
        rec.check(
            (fast is None) == (slow is None),
            f"trial {i}: ball_preserving_bijection disagrees with the oracle",
        )
        bx, by = enumerate_balls(x), enumerate_balls(y)
        iso = hasse_digraph_iso(hasse_diagram(bx), hasse_diagram(by))
        rec.check(
            (fast is None) == (iso is None),
            f"trial {i}: decision does not coincide with Hasse isomorphism",
        )
        if fast is not None:
            ok, violation = verify_ball_preserving(bx, by, fast)
            rec.check(ok, f"trial {i}: returned bijection violates {violation}")
            if iso is not None and len(set(bx.profiles)) == len(x.points):
                rec.check(
                    fast == {x.points[bx.members[u][0]]: y.points[by.members[v][0]]
                             for u, v in iso.assignment.items() if len(bx.members[u]) == 1},
                    f"trial {i}: forced map is not the Hasse isomorphism's on one-point balls",
                )


@_suite("witness-ballpreserving", 200, 8)
def witness_ball_preserving_suite(rec: SuiteResult, seed: int, count: int, top: int) -> None:
    """Weak-similarity witnesses are ball-preserving; for ultrametric pairs
    unlabeled-shape equality coincides with ball-preserving existence."""
    positives = 0  # the weakly similar pairs have at most 6 points, the ultrametric ones 8
    for i, x, y, witness in _weaksim_pairs(seed, count, min(top, 6)):
        if witness is None:
            continue
        positives += 1
        rec.tick()
        ok, violation = verify_ball_preserving(enumerate_balls(x), enumerate_balls(y), witness.phi)
        rec.check(ok, f"trial {i}: weak-similarity witness violates {violation}")
    rec.check(positives > 0, "stream produced no weakly similar pairs")
    for i in range(count):
        rng = random.Random(f"{seed}:canonballs:{i}")
        n = rng.randint(1, top)
        iseed = _seed_for(seed, i) + 15_485_863
        x = _random_space(iseed, n, True, _forced_class(rng, n))
        if rng.random() < 0.5:
            y, _ = renamed_copy(random_relabeled(x, iseed), iseed)
        else:
            m = rng.randint(1, top)
            y = _random_space(iseed + 7919, m, True, _forced_class(rng, m))
        rec.tick()
        codes_equal = canon_code_unlabeled(build_tree(x)) == canon_code_unlabeled(
            build_tree(y)
        )
        bijection = ball_preserving_bijection(x, y)
        rec.check(
            codes_equal == (bijection is not None),
            f"ultra trial {i}: unlabeled shape equality vs ball preservation",
        )
        if bijection is not None and len(x) <= 6:
            rec.check(
                oracle_ball_preserving(x, y) is not None,
                f"ultra trial {i}: oracle finds no ball-preserving bijection",
            )


@_suite("hasse-tree-shape", 200, 9)
def hasse_tree_shape_suite(rec: SuiteResult, seed: int, count: int, top: int) -> None:
    """Ultrametric balleans order into a rooted tree; the fixed three-point
    non-ultrametric example does not (one singleton is covered twice). That
    example is skipped under a cap of fewer than three points."""
    for i, space in _ultra_stream(seed, count, top, "hasseshape"):
        rec.tick()
        diagram = hasse_diagram(enumerate_balls(space))
        rec.check(
            reversed_is_rooted_tree(diagram),
            f"trial {i}: ultrametric Hasse diagram is not a reversed tree",
        )
    if top < 3:
        return
    fixed = space_from_pairs(
        ("a", "b", "c"),
        {("a", "b"): Fraction(1), ("b", "c"): Fraction(1), ("a", "c"): Fraction(3)},
    )
    diagram = hasse_diagram(enumerate_balls(fixed))
    rec.tick()
    rec.check(
        not reversed_is_rooted_tree(diagram),
        "fixed example unexpectedly orders into a tree",
    )
    b_index = diagram.vertices.index(frozenset({"b"}))
    rec.check(
        diagram.out_degrees()[b_index] == 2,
        "fixed example: the shared point is not covered twice",
    )


ALL_SUITES = (
    tree_roundtrip_suite,
    diametrical_partition_suite,
    isometry_agreement_suite,
    weak_similarity_agreement_suite,
    chain_shape_witness_suite,
    fan_shape_witness_suite,
    weaksim_hasse_suite,
    ball_preserving_agreement_suite,
    witness_ball_preserving_suite,
    hasse_tree_shape_suite,
)


def run_all(
    seed: int = 0, trials: int | None = None, max_n: int | None = None
) -> list[SuiteResult]:
    return [suite(seed, trials, max_n) for suite in ALL_SUITES]
