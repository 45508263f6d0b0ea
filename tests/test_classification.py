from collections import Counter
from itertools import combinations
from fractions import Fraction as F

import pytest

from umtk import (
    INAPPLICABLE,
    NOT_ISOMORPHIC_SHAPES,
    GenConfig,
    WeakSimWitness,
    adversarial_relabeling,
    build_tree,
    canon_code_unlabeled,
    classify_space,
    decide_weak_similarity,
    random_relabeled,
    random_ultrametric,
    renamed_copy,
    space_from_pairs,
    spectrum,
    verify_weak_similarity,
    witness_from_unlabeled_iso,
)
from umtk import classify, reptree, treecanon
from umtk.errors import (
    InapplicableError,
    InfeasibleConstraintsError,
    NotUltrametricError,
    VerificationFailedError,
)
from umtk.spaces import FiniteSemimetricSpace

import tree_oracle as oracle
from tree_oracle import rank_aligned_pairing


def test_three_point_chain_is_in_every_class(ultra3):
    report = classify_space(ultra3)
    assert report.binary_chain
    assert report.inner_chain
    assert report.distinct_labels
    assert report.uniform_last_level
    assert report.codes() == ("R", "Rtilde", "D", "T")
    assert report.inner_per_level == (1, 1, 0)
    assert report.internal_labels == (F(1), F(2))


def test_two_blocks_classification(blocks4, blocks5):
    report = classify_space(blocks4)
    # two internal nodes share level 1, so neither chain class applies
    assert not report.binary_chain
    assert not report.inner_chain
    assert report.distinct_labels
    assert report.uniform_last_level
    assert report.codes() == ("D", "T")

    # unequal fan sizes at the last level
    assert not classify_space(blocks5).uniform_last_level
    assert classify_space(blocks5).distinct_labels


def test_single_point_space():
    space = space_from_pairs(("o",), {})
    report = classify_space(space)
    assert report.codes() == ("R", "Rtilde", "D", "T")
    assert report.inner_per_level == (0,)
    assert report.internal_labels == ()


def test_class_inclusions_hold_on_random_spaces():
    for seed in range(40):
        force = (None, "R", "Rtilde", "D", "T")[seed % 5]
        n = 3 + seed % 6
        if force == "R":
            n = min(n, 7)  # a binary chain burns one pool label per level
        cfg = GenConfig(seed=seed, n=n, force_class=force)
        report = classify_space(random_ultrametric(cfg))
        if report.binary_chain:
            assert report.inner_chain
        if report.inner_chain:
            assert report.distinct_labels
        if force is not None:
            assert force in report.codes()


def test_classify_requires_ultrametric(semi3):
    with pytest.raises(NotUltrametricError):
        classify_space(semi3)


def test_shape_witness_for_chains(ultra3):
    other = space_from_pairs(
        ("p", "q", "r"),
        {("p", "q"): F(7), ("p", "r"): F(7), ("q", "r"): F(4)},
    )
    witness = witness_from_unlabeled_iso(ultra3, other)
    assert isinstance(witness, WeakSimWitness)
    assert witness.scaling == ((F(0), F(0)), (F(1), F(4)), (F(2), F(7)))
    assert verify_weak_similarity(ultra3, other, witness)


def test_shape_witness_for_uniform_fans(blocks4, blocks4_swapped):
    witness = witness_from_unlabeled_iso(blocks4, blocks4_swapped)
    assert isinstance(witness, WeakSimWitness)
    assert {witness.phi["a"], witness.phi["b"]} == {"c", "d"}
    assert verify_weak_similarity(blocks4, blocks4_swapped, witness)


def test_shape_witness_pairs_like_the_rank_aligned_reference():
    # X of class Rtilde or T; Y a renamed relabeling of X. Under either
    # hypothesis the witness is the top-down rank-aligned pairing.
    checked = 0
    for seed in range(100):
        for force in ("Rtilde", "T"):
            x = random_ultrametric(GenConfig(seed=seed, n=3 + seed % 12, force_class=force))
            for distinct in (False, True):
                relabeled = random_relabeled(x, seed=seed, distinct=distinct)
                y, _ = renamed_copy(relabeled, seed=seed + 1)
                witness = witness_from_unlabeled_iso(x, y)
                if witness is INAPPLICABLE:
                    # a repeated label in Y, below a T space that branches
                    assert force == "T" and not distinct
                    continue
                assert witness.phi == rank_aligned_pairing(build_tree(x), build_tree(y))
                checked += 1
    assert checked >= 300


def test_shape_witness_matches_the_four_pass_reference():
    # seeds 0-499, n 2-31, every class, and three partners each: a renamed
    # copy, a relabeling and another space of the same class
    pool = tuple(F(k) for k in range(1, 49))
    outcomes = Counter()
    for seed in range(500):
        force = (None, "R", "Rtilde", "D", "T")[seed % 5]
        x = random_ultrametric(GenConfig(seed=seed, n=2 + seed % 30, spectrum_pool=pool, force_class=force))
        other = random_ultrametric(GenConfig(seed=seed + 1, n=2 + seed % 30, spectrum_pool=pool, force_class=force))
        for y in (renamed_copy(x, seed=seed)[0], random_relabeled(x, seed=seed), other):
            got, want = witness_from_unlabeled_iso(x, y), oracle.witness_from_unlabeled_iso(x, y)
            if isinstance(want, WeakSimWitness):
                assert got.scaling == want.scaling
                assert list(got.phi.items()) == list(want.phi.items())
                outcomes["witness"] += 1
            else:
                assert got is want
                outcomes[want] += 1
    assert min(outcomes.values()) >= 100 and len(outcomes) == 3


def test_a_positive_shape_witness_codes_each_tree_once(monkeypatch):
    x = random_ultrametric(GenConfig(seed=3, n=20, force_class="Rtilde"))
    y, _ = renamed_copy(random_relabeled(x, seed=4), seed=5)
    # warm, so build_tree's own code passes are not counted: X, Y, and Y
    # on X's spectrum, the tree the decision compares with X's
    build_tree(x), build_tree(y), build_tree(FiniteSemimetricSpace(y.points, x.spectrum, y.ranks))
    calls = []
    codes = reptree._codes

    def counted(*args):
        calls.append(args)
        return codes(*args)

    # the code pass, where build_tree and where the canonical codes call it
    monkeypatch.setattr(reptree, "_codes", counted)
    monkeypatch.setattr(treecanon, "_codes", counted)
    assert isinstance(witness_from_unlabeled_iso(x, y), WeakSimWitness)
    # the decision compares the canonical trees build_tree returned, and a
    # positive needs no shape codes: nothing is coded again
    assert calls == []


def test_shape_witness_re_checks_the_tree_map(blocks4, blocks4_swapped, leaf_swapping_build_tree):
    assert isinstance(witness_from_unlabeled_iso(blocks4, blocks4_swapped), WeakSimWitness)
    leaf_swapping_build_tree(blocks4_swapped)
    with pytest.raises(VerificationFailedError):
        witness_from_unlabeled_iso(blocks4, blocks4_swapped)


def test_shape_witness_sentinels(ultra3, blocks4, blocks5):
    assert witness_from_unlabeled_iso(ultra3, blocks4) is NOT_ISOMORPHIC_SHAPES
    relabeled = random_relabeled(blocks5, seed=2, distinct=True)
    assert classify_space(relabeled).distinct_labels
    # same shape but neither chains nor uniform fans: out of scope
    assert witness_from_unlabeled_iso(blocks5, relabeled) is INAPPLICABLE


def test_adversarial_relabeling_collapses_blocks(blocks4):
    # |Sp| = 4 = m + 1 for m = 3 internal nodes, so the L = 2 levels label
    # them: both blocks 1, the root 2
    y = adversarial_relabeling(blocks4)
    assert spectrum(y) == (F(0), F(1), F(2))
    assert y.distance("a", "b") == F(1) and y.distance("c", "d") == F(1)
    assert all(y.distance(p, q) == F(2) for p in "ab" for q in "cd")
    assert canon_code_unlabeled(build_tree(y)) == canon_code_unlabeled(
        build_tree(blocks4)
    )
    assert decide_weak_similarity(blocks4, y) is None


def test_adversarial_relabeling_splits_equal_labels():
    x = space_from_pairs(
        ("a", "b", "c", "d"),
        {
            ("a", "b"): F(1),
            ("c", "d"): F(1),
            ("a", "c"): F(3),
            ("a", "d"): F(3),
            ("b", "c"): F(3),
            ("b", "d"): F(3),
        },
    )
    assert len(spectrum(x)) == 3
    y = adversarial_relabeling(x)
    assert len(spectrum(y)) == 4
    assert canon_code_unlabeled(build_tree(y)) == canon_code_unlabeled(build_tree(x))
    assert decide_weak_similarity(x, y) is None


def test_adversarial_relabeling_re_checks_the_spectrum_size(blocks4, monkeypatch):
    # a relabeling that gives X back keeps X's spectrum size: a raise, not
    # an assert, so the check holds under python -O too
    monkeypatch.setattr(classify, "space_from_tree", lambda tree: blocks4)
    with pytest.raises(VerificationFailedError, match="kept the spectrum size"):
        adversarial_relabeling(blocks4)


def test_adversarial_relabeling_re_checks_the_tree_shape(blocks4, monkeypatch):
    # a star of four points has another shape and another spectrum size than
    # blocks4, so only the shape check can refuse it
    star = space_from_pairs("abcd", dict.fromkeys(combinations("abcd", 2), F(1)))
    monkeypatch.setattr(classify, "space_from_tree", lambda tree: star)
    with pytest.raises(VerificationFailedError, match="changed the tree shape"):
        adversarial_relabeling(blocks4)


def test_shape_witness_raises_where_the_decision_says_no(blocks4, blocks4_swapped, monkeypatch):
    # uniform fans of one shape: the hypotheses promise a witness, so a no
    # from the decision is a defect, not an answer
    monkeypatch.setattr(classify, "decide_weak_similarity", lambda x, y: None)
    with pytest.raises(VerificationFailedError, match="shape-isomorphic pair is not weakly similar"):
        witness_from_unlabeled_iso(blocks4, blocks4_swapped)


def test_adversarial_relabeling_needs_a_branch(ultra3):
    with pytest.raises(InapplicableError):
        adversarial_relabeling(ultra3)


def test_adversarial_relabeling_counts_levels_or_nodes():
    # over the pinned-digest family at 30 seeds: for m internal nodes on L
    # levels, Y keeps X's unlabeled shape and labels by level (spectrum
    # 0..L) where |Sp(X)| = m + 1, else by preorder (0..m); it is not weakly
    # similar to X, and a second call gives it again; every chain raises
    pools = (tuple(F(k) for k in range(1, 5)), tuple(F(k, 3) for k in range(1, 61)))
    taken = Counter()
    for pool in pools:
        for seed in range(30):
            for code in (None, "R", "Rtilde", "D", "T"):
                for n in (1, 2, 3, 4, 6, 9, 14, 22, 34):
                    try:
                        x = random_ultrametric(GenConfig(seed=seed, n=n, spectrum_pool=pool, force_class=code))
                    except InfeasibleConstraintsError:
                        continue
                    report = classify_space(x)
                    if report.inner_chain:
                        with pytest.raises(InapplicableError, match="at most one internal node"):
                            adversarial_relabeling(x)
                        taken["chain"] += 1
                        continue
                    m, levels = sum(report.inner_per_level), len(report.inner_per_level) - 1
                    branch = "level" if len(spectrum(x)) == m + 1 else "preorder"
                    y = adversarial_relabeling(x)
                    size = levels if branch == "level" else m
                    assert spectrum(y) == tuple(map(F, range(size + 1)))
                    assert canon_code_unlabeled(build_tree(y)) == canon_code_unlabeled(build_tree(x))
                    assert decide_weak_similarity(x, y) is None
                    assert adversarial_relabeling(x) == y
                    taken[branch] += 1
    assert taken["level"] > 0 and taken["preorder"] > 0 and taken["chain"] > 0, taken


def test_adversarial_relabeling_on_random_branching_spaces():
    produced = 0
    for seed in range(60):
        x = random_ultrametric(GenConfig(seed=seed, n=5 + seed % 4))
        if classify_space(x).inner_chain:
            continue
        y = adversarial_relabeling(x)
        produced += 1
        assert len(spectrum(y)) != len(spectrum(x))
        assert canon_code_unlabeled(build_tree(y)) == canon_code_unlabeled(
            build_tree(x)
        )
        assert decide_weak_similarity(x, y) is None
    assert produced >= 10
