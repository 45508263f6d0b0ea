import json
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umtk import (
    GenConfig,
    WeakSimWitness,
    decide_isometry,
    decide_weak_similarity,
    forced_scaling,
    oracle_isometry,
    oracle_weak_similarity,
    random_relabeled,
    random_semimetric,
    random_ultrametric,
    rank_relabel,
    renamed_copy,
    space_from_pairs,
    spectrum,
    verify_isometry,
    verify_weak_similarity,
)
from umtk import reptree, similarity, spaces
from umtk.errors import InfeasibleConstraintsError, VerificationFailedError
from umtk.generators import DEFAULT_POOL

import tree_oracle
from wire_oracle import weak_sim_witness_to_json


def test_forced_scaling_is_the_rank_map(ultra3, ultra3_scaled, blocks4):
    assert forced_scaling(ultra3, ultra3_scaled) == (
        (F(0), F(0)),
        (F(1), F(10)),
        (F(2), F(20)),
    )
    # spectra of different sizes: no strictly increasing bijection
    assert forced_scaling(ultra3, blocks4) is None
    assert forced_scaling(ultra3, ultra3) == ((F(0), F(0)), (F(1), F(1)), (F(2), F(2)))


def test_isometry_of_renamed_copy(ultra3):
    copy, names = renamed_copy(ultra3, seed=5)
    witness = decide_isometry(ultra3, copy)
    assert witness is not None
    assert verify_isometry(ultra3, copy, witness.phi)
    # the relation is symmetric even though the witness need not invert names
    assert decide_isometry(copy, ultra3) is not None
    assert names.keys() == set(ultra3.points)


def test_scaled_space_is_not_isometric(ultra3, ultra3_scaled):
    assert decide_isometry(ultra3, ultra3_scaled) is None


def test_isometry_pins_the_center_point(semi3, semi3_variant):
    # in both spaces exactly one point sits at distance 1 from the others,
    # so every isometry must match those two points up
    witness = decide_isometry(semi3, semi3_variant)
    assert witness is not None
    assert witness.phi["b"] == "w"
    assert verify_isometry(semi3, semi3_variant, witness.phi)


def test_weak_similarity_of_scaled_space(ultra3, ultra3_scaled):
    witness = decide_weak_similarity(ultra3, ultra3_scaled)
    assert witness is not None
    assert witness.scaling == ((F(0), F(0)), (F(1), F(10)), (F(2), F(20)))
    assert verify_weak_similarity(ultra3, ultra3_scaled, witness)


def test_weak_similarity_negative_and_reflexive(ultra3, blocks4):
    assert decide_weak_similarity(ultra3, blocks4) is None
    witness = decide_weak_similarity(ultra3, ultra3)
    assert witness is not None
    assert dict(witness.scaling) == {F(0): F(0), F(1): F(1), F(2): F(2)}


def test_ultrametric_route_agrees_with_oracle(ultra3, ultra3_scaled, blocks4):
    witness = decide_weak_similarity(ultra3, ultra3_scaled)
    oracle = oracle_weak_similarity(ultra3, ultra3_scaled)
    assert witness is not None and oracle is not None
    assert witness.scaling == oracle.scaling
    assert decide_weak_similarity(ultra3, blocks4) is None


def test_weak_similarity_on_swapped_blocks(blocks4, blocks4_swapped):
    witness = decide_weak_similarity(blocks4, blocks4_swapped)
    assert witness is not None
    # the small-distance pair of one space must land on the small-distance
    # pair of the other: {a, b} -> {c, d}
    assert {witness.phi["a"], witness.phi["b"]} == {"c", "d"}
    assert verify_weak_similarity(blocks4, blocks4_swapped, witness)


def test_mixed_ultrametric_pairs_are_not_weakly_similar(semi3, ultra3, blocks4):
    assert decide_weak_similarity(semi3, ultra3) is None
    assert decide_weak_similarity(ultra3, semi3) is None
    # same spectrum and same distance multiset as blocks4, but a, b, c form
    # a 1, 2, 3 triangle, so the ultrametric test is what tells them apart
    path = space_from_pairs(
        ("a", "b", "c", "d"),
        {("a", "b"): F(1), ("b", "c"): F(2), ("a", "c"): F(3),
         ("a", "d"): F(3), ("b", "d"): F(3), ("c", "d"): F(3)},
    )
    assert spectrum(path) == spectrum(blocks4)
    assert decide_weak_similarity(path, blocks4) is None
    assert decide_weak_similarity(blocks4, path) is None


def test_verify_rejects_tampering(ultra3, ultra3_scaled):
    witness = decide_weak_similarity(ultra3, ultra3_scaled)
    assert witness is not None
    bad_phi = dict(witness.phi)
    ks = list(bad_phi)
    bad_phi[ks[0]], bad_phi[ks[1]] = bad_phi[ks[1]], bad_phi[ks[0]]
    tampered = WeakSimWitness(witness.scaling, bad_phi)
    # ultra3 has a unique point at spectrum rank 2 from both others, so any
    # transposition of phi breaks some distance
    assert not verify_weak_similarity(ultra3, ultra3_scaled, tampered)
    wrong_scaling = WeakSimWitness(
        ((F(0), F(0)), (F(1), F(20)), (F(2), F(10))), witness.phi
    )
    assert not verify_weak_similarity(ultra3, ultra3_scaled, wrong_scaling)
    not_zero = WeakSimWitness(
        ((F(0), F(1)), (F(1), F(10)), (F(2), F(20))), witness.phi
    )
    assert not verify_weak_similarity(ultra3, ultra3_scaled, not_zero)


def _equilateral(names):
    return space_from_pairs(tuple(names), {pair: F(1) for pair in combinations(names, 2)})


@pytest.mark.parametrize(
    "x, y, phi",
    [
        pytest.param(_equilateral("pqr"), _equilateral("pqr"), {"p": "p", "q": "q"}, id="missing-point"),
        pytest.param(_equilateral("pqr"), _equilateral("pqr"), {"p": "p", "q": "q", "r": "r", "zz": "p"},
                     id="extra-key"),
        pytest.param(_equilateral("pqr"), _equilateral("pqr"), {"p": "p", "q": "q", "r": "q"}, id="repeated-image"),
        pytest.param(_equilateral("pq"), _equilateral("pqr"), {"p": "p", "q": "q"}, id="image-misses-a-point"),
    ],
)
def test_verify_rejects_a_phi_that_is_not_a_bijection(x, y, phi):
    # every distance is 1 on both sides, so only the bijection test can say no
    witness = WeakSimWitness(((F(0), F(0)), (F(1), F(1))), phi)
    assert verify_isometry(x, y, phi) is False
    assert verify_weak_similarity(x, y, witness) is False


def test_verify_checks_the_second_column_of_the_scaling(ultra3, ultra3_scaled):
    # phi keeps every rank and the first column is X's spectrum: only the
    # image of 2, 21 where Y has 20, is wrong
    phi = {p: p for p in ultra3.points}
    good = WeakSimWitness(((F(0), F(0)), (F(1), F(10)), (F(2), F(20))), phi)
    assert verify_weak_similarity(ultra3, ultra3_scaled, good)
    off = WeakSimWitness(((F(0), F(0)), (F(1), F(10)), (F(2), F(21))), phi)
    assert verify_weak_similarity(ultra3, ultra3_scaled, off) is False


def test_verify_checks_the_first_column_of_the_scaling(ultra3, ultra3_scaled):
    # phi keeps every rank and the second column is Y's spectrum: only the
    # preimage of 20, 3 where X has 2, is wrong
    phi = {p: p for p in ultra3.points}
    off = WeakSimWitness(((F(0), F(0)), (F(1), F(10)), (F(3), F(20))), phi)
    assert verify_weak_similarity(ultra3, ultra3_scaled, off) is False


def test_witness_json_round_trip(ultra3, ultra3_scaled):
    witness = decide_weak_similarity(ultra3, ultra3_scaled)
    doc = weak_sim_witness_to_json(witness, ultra3.points)
    assert doc["scaling"] == [["0", "0"], ["1", "10"], ["2", "20"]]
    assert list(doc["phi"]) == list(ultra3.points)
    assert json.loads(json.dumps(doc)) == doc


def _certificate_calls(decide, monkeypatch):
    """A fresh n = 64 ultrametric pair, and the spaces the ultrametric
    certificate runs on while ``decide`` finds it positive."""
    x = random_ultrametric(GenConfig(seed=5, n=64))
    y, _ = renamed_copy(x, seed=6)
    if decide is decide_weak_similarity:
        y = rank_relabel(y, tuple(v * 7 for v in spectrum(y)))
    calls = []

    def counted(space):
        calls.append(space)
        return certify(space)

    certify = spaces._certify
    for module in (spaces, reptree):
        monkeypatch.setattr(module, "_certify", counted)
    reptree.build_tree.cache_clear()
    assert decide(x, y) is not None
    return x, y, calls


def _shares_y(space, x, y):
    """True iff ``space`` is Y on X's spectrum: Y's own point and rank
    tuples, with X's spectrum."""
    return space.points is y.points and space.ranks is y.ranks and space.spectrum == x.spectrum


@pytest.mark.parametrize("decide", [decide_weak_similarity, decide_isometry])
def test_certificate_runs_once_per_space(decide, monkeypatch):
    # the decision asks build_tree whether X and Y on X's spectrum are
    # ultrametric and compares the trees it gets, so the certificate, the
    # one pass that orders, certifies and names, runs once for each space
    x, y, calls = _certificate_calls(decide, monkeypatch)
    assert len(calls) == 2 and calls[0] is x and _shares_y(calls[1], x, y)


@pytest.mark.parametrize("decide", [decide_weak_similarity, decide_isometry])
def test_decisions_do_not_lean_on_the_tree_cache(decide, monkeypatch):
    # with build_tree uncached, each space's tree is still built only once
    monkeypatch.setattr(similarity, "build_tree", reptree.build_tree.__wrapped__)
    x, y, calls = _certificate_calls(decide, monkeypatch)
    assert len(calls) == 2 and calls[0] is x and _shares_y(calls[1], x, y)


@pytest.mark.parametrize("decide", [decide_isometry, decide_weak_similarity])
def test_a_wrong_search_map_fails_the_re_check(decide, semi3, semi3_variant, image_swapping_match, monkeypatch):
    assert decide(semi3, semi3_variant) is not None
    monkeypatch.setattr(similarity, "match", image_swapping_match)
    with pytest.raises(VerificationFailedError):
        decide(semi3, semi3_variant)


def test_a_refuted_forced_map_is_a_no(monkeypatch):
    # sorted rank rows pairwise distinct, the same row set and the same
    # spectrum, and yet not weakly similar
    pool = (F(1), F(2), F(3))
    x, y = (random_semimetric(GenConfig(seed=seed, n=5, spectrum_pool=pool)) for seed in (21, 690))
    rows = [{tuple(sorted(row)) for row in space.ranks} for space in (x, y)]
    assert len(rows[0]) == 5 and rows[0] == rows[1] and x.spectrum == y.spectrum
    phi, forced = similarity._backtrack_isometry(x, y)
    assert forced and not verify_isometry(x, y, phi)
    assert oracle_weak_similarity(x, y) is None

    def no_search(*args):
        raise AssertionError("search ran")

    monkeypatch.setattr(similarity, "match", no_search)
    assert decide_weak_similarity(x, y) is None and decide_isometry(x, y) is None
    # a renamed copy gets the forced map, and it verifies
    copy, names = renamed_copy(y, seed=5)
    assert similarity._backtrack_isometry(y, copy) == (names, True)
    assert decide_weak_similarity(y, copy).phi == names == decide_isometry(y, copy).phi


def test_tree_map_between_spectra_of_different_sizes_is_none(monkeypatch):
    # Y's ranks run past X's spectrum: both decisions say no, both ways,
    # before Y is put on X's spectrum, also where the point counts agree
    far = dict.fromkeys(combinations("pqrs", 2), F(3))
    y = space_from_pairs("pqrs", {**far, ("p", "q"): F(1), ("r", "s"): F(2)})
    x3 = space_from_pairs("abc", {("a", "b"): F(1), ("a", "c"): F(2), ("b", "c"): F(2)})
    x4 = space_from_pairs("abcd", {**dict.fromkeys(combinations("abcd", 2), F(2)), ("a", "b"): F(1)})
    built = []

    def counted(space):
        built.append(space)
        return build_tree(space)

    build_tree = similarity.build_tree
    monkeypatch.setattr(similarity, "build_tree", counted)
    for x in (x3, x4):
        for a, b in ((x, y), (y, x)):
            assert decide_weak_similarity(a, b) is None and decide_isometry(a, b) is None
    assert built == []


def _tree_route_pairs():
    """Seeded ultrametric pairs for the tree route, (x, y, kind): a renamed
    copy, a renamed rank-stretched copy, and a same-shape relabeled copy
    (plain and renamed), for classes free, Rtilde, T and D. The second pool
    sorts 10 < 100 < 11 < 9 as text, the order the tree codes compare."""
    pools = (DEFAULT_POOL, (F(9), F(10), F(11), F(100)))
    for n in (*range(1, 20), 32, 64, 128):
        for force in (None, "Rtilde", "T", "D"):
            for k, pool in enumerate(pools):
                seed = 1000 * n + 10 * len(force or "") + k
                try:
                    x = random_ultrametric(GenConfig(seed=seed, n=n, spectrum_pool=pool, force_class=force))
                except InfeasibleConstraintsError:
                    continue
                stretched = rank_relabel(x, tuple(v * 3 for v in x.spectrum))
                relabeled = random_relabeled(x, seed)
                yield x, renamed_copy(x, seed)[0], force
                yield x, renamed_copy(stretched, seed + 1)[0], force
                yield x, relabeled, force
                yield x, renamed_copy(relabeled, seed + 2)[0], force


def test_tree_route_witness_is_the_reference_tree_map():
    # the decision reads phi off the canonical trees build_tree returns; the
    # reference moves Y's tree onto X's spectrum, codes both trees again and
    # walks them in pairs. Same answer, same items in the same order.
    positives, negatives, classes = 0, 0, set()
    for x, y, force in _tree_route_pairs():
        expected = tree_oracle.tree_isometry(reptree.build_tree(x), reptree.build_tree(y))
        witness = decide_weak_similarity(x, y)
        if expected is None:
            assert witness is None
            negatives += 1
            continue
        assert list(witness.phi.items()) == list(expected.items())
        iso = decide_isometry(x, y)
        assert (iso is None) == (x.spectrum != y.spectrum)
        assert iso is None or list(iso.phi.items()) == list(expected.items())
        positives += 1
        classes.add(force)
    assert classes == {None, "Rtilde", "T", "D"}
    assert positives >= 400 and negatives >= 50


def test_isometry_is_weak_similarity_between_equal_spectra(ultra3, ultra3_scaled, monkeypatch):
    calls = []
    decide = similarity.decide_weak_similarity

    def counted(x, y):
        calls.append((x, y))
        return decide(x, y)

    monkeypatch.setattr(similarity, "decide_weak_similarity", counted)
    copy, _ = renamed_copy(ultra3, seed=3)
    assert decide_isometry(ultra3, copy).phi == decide(ultra3, copy).phi
    assert calls == [(ultra3, copy)]
    # unequal spectra: no decision runs
    assert decide_isometry(ultra3, ultra3_scaled) is None
    assert len(calls) == 1


def test_backtracking_handles_non_ultrametric(semi3):
    copy, _ = renamed_copy(semi3, seed=11)
    witness = decide_isometry(semi3, copy)
    assert witness is not None
    assert verify_isometry(semi3, copy, witness.phi)


@pytest.mark.parametrize("ultrametric", [True, False])
def test_each_decision_verifies_its_witness_once(ultrametric, monkeypatch):
    make = random_ultrametric if ultrametric else random_semimetric
    x = make(GenConfig(seed=7, n=9))
    y, _ = renamed_copy(rank_relabel(x, tuple(v * 3 for v in spectrum(x))), seed=8)
    calls = []

    def counted(*args):
        calls.append(args)
        return preserves_ranks(*args)

    preserves_ranks = similarity._preserves_ranks
    monkeypatch.setattr(similarity, "_preserves_ranks", counted)
    assert decide_weak_similarity(x, y) is not None
    assert len(calls) == 1 and calls[0][0] is x
    calls.clear()
    assert decide_isometry(x, x) is not None
    assert len(calls) == 1


def test_weak_similarity_is_transitive_here():
    x = random_ultrametric(GenConfig(seed=3, n=6))
    y, _ = renamed_copy(rank_relabel(x, tuple(v * 5 for v in spectrum(x))), seed=4)
    z, _ = renamed_copy(rank_relabel(x, tuple(v * 9 for v in spectrum(x))), seed=5)
    wxy = decide_weak_similarity(x, y)
    wyz = decide_weak_similarity(y, z)
    wxz = decide_weak_similarity(x, z)
    assert wxy is not None and wyz is not None and wxz is not None
    composed = {p: wyz.phi[wxy.phi[p]] for p in x.points}
    f = dict(wxy.scaling)
    g = dict(wyz.scaling)
    glued = WeakSimWitness(tuple((a, g[f[a]]) for a, _ in wxy.scaling), composed)
    assert verify_weak_similarity(x, z, glued)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 6))
def test_decisions_match_oracles(seed, n):
    x = random_ultrametric(GenConfig(seed=seed, n=n))
    y = random_ultrametric(GenConfig(seed=seed + 1, n=n))
    assert (decide_isometry(x, y) is None) == (oracle_isometry(x, y) is None)
    assert (decide_weak_similarity(x, y) is None) == (
        oracle_weak_similarity(x, y) is None
    )
