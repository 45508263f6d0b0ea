import hashlib
import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umtk import (
    GenConfig,
    adversarial_relabeling,
    classify_space,
    decide_isometry,
    enumerate_balls,
    is_ultrametric,
    oracle_ball_preserving,
    oracle_isometry,
    oracle_weak_similarity,
    random_relabeled,
    random_semimetric,
    random_ultrametric,
    rank_relabel,
    renamed_copy,
    space_to_json,
    spectrum,
    validate_semimetric,
    verify_ball_preserving,
    verify_isometry,
)
from umtk import generators
from umtk.errors import InfeasibleConstraintsError, TooLargeError, UmtkError, VerificationFailedError
from umtk.generators import DEFAULT_POOL
from umtk.similarity import IsometryWitness, decide_weak_similarity
from umtk.treecanon import canon_code_unlabeled
from umtk.reptree import build_tree
from validation_oracle import distances


def test_generation_is_bitwise_deterministic():
    cfg = GenConfig(seed=42, n=7)
    a = random_ultrametric(cfg)
    b = random_ultrametric(cfg)
    assert space_to_json(a) == space_to_json(b)
    assert space_to_json(random_semimetric(cfg)) == space_to_json(random_semimetric(cfg))
    # a different seed must eventually differ
    c = random_ultrametric(GenConfig(seed=43, n=7))
    assert space_to_json(a) != space_to_json(c)


def test_outputs_are_valid_ultrametrics():
    for seed in range(30):
        space = random_ultrametric(GenConfig(seed=seed, n=1 + seed % 8))
        validate_semimetric(space.points, distances(space))
        assert is_ultrametric(space)
        assert space.points == tuple(f"p{i}" for i in range(len(space)))
        assert set(spectrum(space)) - {F(0)} <= set(DEFAULT_POOL)


def test_forced_classes_hold():
    for seed in range(25):
        for code in ("R", "Rtilde", "D", "T"):
            n = 6 if code == "R" else 8
            space = random_ultrametric(GenConfig(seed=seed, n=n, force_class=code))
            assert code in classify_space(space).codes(), (seed, code)


def test_infeasible_configs_are_rejected():
    with pytest.raises(InfeasibleConstraintsError):
        # a binary chain with 9 leaves needs 8 distinct labels; pool has 6
        random_ultrametric(GenConfig(seed=0, n=9, force_class="R"))
    with pytest.raises(InfeasibleConstraintsError):
        random_ultrametric(GenConfig(seed=0, n=2, spectrum_pool=(F(0),)))
    with pytest.raises(InfeasibleConstraintsError):
        random_semimetric(GenConfig(seed=0, n=3, spectrum_pool=()))
    # one point needs no distances at all
    assert len(random_ultrametric(GenConfig(seed=0, n=1, spectrum_pool=()))) == 1


def test_semimetric_pool_is_respected():
    seen = set()
    for seed in range(40):
        space = random_semimetric(GenConfig(seed=seed, n=3, spectrum_pool=(F(1), F(3))))
        dist = distances(space)
        validate_semimetric(space.points, dist)
        entries = tuple(
            sorted(dist[i][j] for i in range(3) for j in range(i + 1, 3))
        )
        assert set(entries) <= {F(1), F(3)}
        seen.add(entries)
    # the pool is small enough that the non-ultrametric pattern 1,1,3 shows up
    assert (F(1), F(1), F(3)) in seen


def test_random_relabeled_keeps_the_shape(blocks4):
    for seed in range(10):
        y = random_relabeled(blocks4, seed)
        assert is_ultrametric(y)
        assert canon_code_unlabeled(build_tree(y)) == canon_code_unlabeled(
            build_tree(blocks4)
        )
    z = random_relabeled(blocks4, 3, distinct=True)
    assert classify_space(z).distinct_labels


def test_renamed_copy_is_isometric(blocks5):
    copy, names = renamed_copy(blocks5, seed=9)
    assert sorted(copy.points) != sorted(blocks5.points)
    assert all(new.startswith("q") for new in names.values())
    assert verify_isometry(blocks5, copy, names)


def test_oracles(ultra3, ultra3_scaled, semi3):
    renamed, names = renamed_copy(ultra3, seed=1)
    witness = oracle_isometry(ultra3, renamed)
    assert witness is not None and verify_isometry(ultra3, renamed, witness.phi)
    assert oracle_isometry(ultra3, ultra3_scaled) is None
    assert oracle_isometry(ultra3, semi3) is None

    ws = oracle_weak_similarity(ultra3, ultra3_scaled)
    assert ws is not None
    assert ws.scaling == ((F(0), F(0)), (F(1), F(10)), (F(2), F(20)))

    bp = oracle_ball_preserving(ultra3, ultra3_scaled)
    assert bp is not None and verify_ball_preserving(enumerate_balls(ultra3), enumerate_balls(ultra3_scaled), bp)[0]
    assert oracle_ball_preserving(ultra3, semi3) is None


def test_oracle_weak_similarity_re_checks_its_witness(ultra3, ultra3_scaled, monkeypatch):
    # the exhaustive search's map with the images of two points swapped: p is
    # the one point at rank 2 from both others, so the swap breaks a distance
    search = generators.oracle_isometry

    def swapped(x, y):
        phi = dict(search(x, y).phi)
        first, second = list(phi)[:2]
        phi[first], phi[second] = phi[second], phi[first]
        return IsometryWitness(phi)

    monkeypatch.setattr(generators, "oracle_isometry", swapped)
    with pytest.raises(VerificationFailedError, match="oracle weak-similarity witness"):
        oracle_weak_similarity(ultra3, ultra3_scaled)


def test_oracle_size_guards():
    big = random_ultrametric(GenConfig(seed=0, n=9))
    with pytest.raises(TooLargeError):
        oracle_isometry(big, big)
    with pytest.raises(TooLargeError):
        oracle_weak_similarity(big, big)
    seven = random_ultrametric(GenConfig(seed=0, n=7))
    with pytest.raises(TooLargeError):
        oracle_ball_preserving(seven, seven)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 7))
def test_generated_spaces_survive_the_deciders(seed, n):
    x = random_ultrametric(GenConfig(seed=seed, n=n))
    y = random_relabeled(x, seed + 1)
    # per-node relabeling may split equal labels, so only the shape is kept
    assert canon_code_unlabeled(build_tree(y)) == canon_code_unlabeled(build_tree(x))
    stretched = rank_relabel(x, tuple(v * 3 + (F(1) if v else F(0)) for v in spectrum(x)))
    assert decide_weak_similarity(x, stretched) is not None
    renamed, _ = renamed_copy(x, seed + 2)
    assert decide_isometry(x, renamed) is not None


# SHA-256 of every generator output below, one line per output, taken before
# the generators built their trees as arrays; any changed byte changes them.
# The adversarial_relabeling digest was retaken when the converse came to
# label by level or by preorder count
GOLDEN_DIGESTS = {
    "random_ultrametric": "b609ec6e872cc5640d20ed33be9b1b6240af77fbaeb6e9c3cff2479b85e9df1a",
    "random_relabeled": "d2f8d161ea63dc7e16e1c140af8ac6a48292df72103486eb54e6d0c8083a5353",
    "random_relabeled distinct": "6d09c440f03e11de80b9c18426539494d6b4877ee0c5236a30ecbf7299fae6d2",
    "adversarial_relabeling": "0bd11ee6abd61067ea6c10568f59b5da1296692da4e2a6043faf11da96163481",
    "classify_space": "803c3b0a1dcae66e81c49c22e8db2335096f0db3ccece5563a1214bd42143766",
}


def _line(make):
    """The output as one JSON line, or the error it raised."""
    try:
        return json.dumps(make(), sort_keys=True)
    except UmtkError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_generator_outputs_match_pinned_digests():
    pools = (tuple(F(k) for k in range(1, 5)), tuple(F(k, 3) for k in range(1, 61)))
    lines = {kind: [] for kind in GOLDEN_DIGESTS}
    for pool in pools:
        for seed in range(8):
            for code in (None, "R", "Rtilde", "D", "T"):
                for n in (1, 2, 3, 4, 6, 9, 14, 22, 34):
                    cfg = GenConfig(seed=seed, n=n, spectrum_pool=pool, force_class=code)
                    try:
                        x = random_ultrametric(cfg)
                    except InfeasibleConstraintsError as exc:
                        lines["random_ultrametric"].append(f"{type(exc).__name__}: {exc}")
                        continue
                    lines["random_ultrametric"].append(json.dumps(space_to_json(x)))
                    for kind, make in (
                        ("random_relabeled", lambda: space_to_json(random_relabeled(x, seed))),
                        ("random_relabeled distinct",
                         lambda: space_to_json(random_relabeled(x, seed, distinct=True))),
                        ("adversarial_relabeling", lambda: space_to_json(adversarial_relabeling(x))),
                        ("classify_space", lambda: classify_space(x).to_json()),
                    ):
                        lines[kind].append(_line(make))
    digests = {
        kind: hashlib.sha256("".join(f"{line}\n" for line in out).encode()).hexdigest()
        for kind, out in lines.items()
    }
    assert digests == GOLDEN_DIGESTS
