import json
import pickle
import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from umtk import (
    Ball,
    Ballean,
    DiametricalGraph,
    FiniteSemimetricSpace,
    GenConfig,
    HasseDiagram,
    IsometryWitness,
    MultipartitePartition,
    WeakSimWitness,
    build_tree,
    diameter,
    enumerate_balls,
    format_rational,
    hasse_diagram,
    is_ultrametric,
    parse_rational,
    random_semimetric,
    random_ultrametric,
    rank_relabel,
    space_from_json,
    space_from_pairs,
    space_to_json,
    spectrum,
    ultrametric_violation,
    validate_semimetric,
)
from umtk.balls import HasseIso
from umtk.errors import (
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
from umtk.spaces import rank_values

from diametrical_oracle import first_violating_triple, sorted_row_violating_triple
from validation_oracle import distances
from wire_oracle import space_to_text


def test_one_point_space():
    space = validate_semimetric(("p",), ((F(0),),))
    assert len(space) == 1
    assert spectrum(space) == (F(0),)
    assert diameter(space) == 0
    assert is_ultrametric(space)


def test_validation_rejects_bad_matrices():
    with pytest.raises(NonSymmetricError):
        validate_semimetric(("p", "q"), ((F(0), F(2)), (F(3), F(0))))
    with pytest.raises(NonZeroDiagonalError):
        validate_semimetric(("p", "q"), ((F(1), F(2)), (F(2), F(0))))
    with pytest.raises(ZeroOffDiagonalError):
        validate_semimetric(("p", "q"), ((F(0), F(0)), (F(0), F(0))))
    with pytest.raises(NegativeDistanceError):
        validate_semimetric(("p", "q"), ((F(0), F(-1)), (F(-1), F(0))))
    with pytest.raises(DuplicatePointNameError):
        validate_semimetric(("p", "p"), ((F(0), F(1)), (F(1), F(0))))
    with pytest.raises(EmptySpaceError):
        validate_semimetric((), ())
    with pytest.raises(MatrixShapeError):
        validate_semimetric(("p", "q"), ((F(0), F(1)),))


@pytest.mark.parametrize(
    "rows, error, indices",
    [
        # below the diagonal: -1 at (2, 0) against 1 at (0, 2)
        (((0, 1, 1), (1, 0, 1), (-1, 1, 0)), NonSymmetricError, (0, 2)),
        # zero at (0, 1) and its mirror, negative pair at (1, 2) and (2, 1)
        (((0, 0, 1), (0, 0, -1), (1, -1, 0)), ZeroOffDiagonalError, (0, 1)),
        # asymmetric (1, 0) is reached before the bad diagonal entry (2, 2)
        (((0, 3, 1), (5, 0, 1), (1, 1, 1)), NonSymmetricError, (0, 1)),
        # bad diagonal entry (1, 1) before the asymmetric (2, 1) / (1, 2)
        (((0, 1, 1), (1, 7, 1), (1, -1, 0)), NonZeroDiagonalError, (1,)),
        (((0, -1, 1), (-1, 0, 1), (1, 1, 0)), NegativeDistanceError, (0, 1)),
        # zero pair (1, 2) / (2, 1) after an asymmetric pair (0, 2) / (2, 0)
        (((0, 1, 2), (1, 0, 0), (4, 0, 0)), NonSymmetricError, (0, 2)),
    ],
)
def test_validation_reports_the_first_defect(rows, error, indices):
    matrix = tuple(tuple(F(v) for v in row) for row in rows)
    with pytest.raises(error) as caught:
        validate_semimetric(("p", "q", "r"), matrix)
    got = (caught.value.i,) if error is NonZeroDiagonalError else (caught.value.i, caught.value.j)
    assert got == indices


def test_floats_are_rejected():
    with pytest.raises(FormatError):
        validate_semimetric(("p", "q"), ((0, 0.5), (0.5, 0)))


def test_spectrum_and_diameter(ultra3, semi3):
    assert spectrum(ultra3) == (F(0), F(1), F(2))
    assert spectrum(semi3) == (F(0), F(1), F(3))
    assert diameter(ultra3) == F(2)
    assert diameter(semi3) == F(3)


def test_ultrametric_check(ultra3, semi3):
    assert is_ultrametric(ultra3)
    assert ultrametric_violation(ultra3) is None
    violation = ultrametric_violation(semi3)
    # the nearest-neighbour test fails: a's nearest point is b at 1, and
    # their rows first differ above 1 at c, where a's entry 3 is the larger
    assert violation == ("a", "c", "b")
    x, y, z = violation
    assert semi3.distance(x, y) > max(semi3.distance(x, z), semi3.distance(z, y))


def test_two_point_spaces_are_ultrametric():
    space = space_from_pairs(("x", "y"), {("x", "y"): F(7, 3)})
    assert is_ultrametric(space)


def test_rank_relabel(ultra3):
    scaled = rank_relabel(ultra3, (F(0), F(10), F(20)))
    assert scaled.distance("p", "q") == F(20)
    assert scaled.distance("p", "r") == F(20)
    assert scaled.distance("q", "r") == F(10)
    assert spectrum(scaled) == (F(0), F(10), F(20))

    unchanged = rank_relabel(ultra3, spectrum(ultra3))
    assert distances(unchanged) == distances(ultra3)

    with pytest.raises(SpectrumSizeMismatchError):
        rank_relabel(ultra3, (F(0), F(1)))
    with pytest.raises(TargetNotStartingAtZeroError):
        rank_relabel(ultra3, (F(1), F(2), F(3)))
    with pytest.raises(TargetNotIncreasingError):
        rank_relabel(ultra3, (F(0), F(5), F(5)))


def test_rank_relabel_preserves_ultrametricity(ultra3, semi3):
    assert is_ultrametric(rank_relabel(ultra3, (F(0), F(1, 3), F(1, 2))))
    assert not is_ultrametric(rank_relabel(semi3, (F(0), F(2), F(9))))


def test_distance_lookup(ultra3):
    assert ultra3.distance("q", "q") == 0
    assert ultra3.distance("q", "r") == F(1)
    with pytest.raises(UnknownPointError):
        ultra3.distance("q", "nope")


def test_restrict_reorders_and_subsets(ultra3):
    sub = ultra3.restrict(("r", "q"))
    assert sub.points == ("r", "q")
    assert sub.distance("q", "r") == F(1)
    with pytest.raises(UnknownPointError):
        ultra3.restrict(("p", "zzz"))


@given(st.integers(-10**9, 10**9), st.integers(1, 10**6))
def test_rational_text_round_trip(num, den):
    value = F(num, den)
    assert parse_rational(format_rational(value)) == value


@pytest.mark.parametrize("bad", ["", "1.5", "2/0", "1/-2", "a", "1/2/3", " 1"])
def test_parse_rational_rejects(bad):
    with pytest.raises(FormatError):
        parse_rational(bad)


def test_json_document_round_trip(ultra3):
    doc = space_to_json(ultra3)
    assert doc == {
        "points": ["p", "q", "r"],
        "dist": [["0", "2", "2"], ["2", "0", "1"], ["2", "1", "0"]],
    }
    assert space_from_json(doc) == ultra3
    text = space_to_text(ultra3)
    assert space_to_text(space_from_json(json.loads(text))) == text


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {"points": ["p"]},
        {"points": ["p"], "dist": [[0]]},  # numbers must be strings
        {"points": ["p", "q"], "dist": [["0", "x"], ["x", "0"]]},
    ],
)
def test_bad_space_documents(doc):
    with pytest.raises(FormatError):
        space_from_json(doc)


def test_spaces_are_hashable_values(ultra3):
    again = space_from_pairs(
        ("p", "q", "r"),
        {("p", "q"): F(2), ("p", "r"): F(2), ("q", "r"): F(1)},
    )
    assert again == ultra3
    assert hash(again) == hash(ultra3)
    assert isinstance(again, FiniteSemimetricSpace)


def test_hashing_a_space_hashes_no_fraction(monkeypatch):
    # the same values in other literal forms, the first space's hash not yet cached
    points = ["p", "q", "r"]
    a = space_from_json({"points": points, "dist": [["0", "1/2", "3"], ["2/4", "0", "7/3"], ["6/2", "14/6", "0"]]})
    b = space_from_json({"points": points, "dist": [["-0", "1/2", "3/1"], ["3/6", "0/9", "7/3"], ["3", "7/3", "0"]]})
    calls = []
    fraction_hash = F.__hash__

    def counting(value):
        calls.append(value)
        return fraction_hash(value)

    monkeypatch.setattr(F, "__hash__", counting)
    hash(F(1, 3))
    assert len(calls) == 1  # the counter is in place
    calls.clear()
    assert a == b and hash(a) == hash(b)
    assert calls == []


def test_spaces_apart_only_in_spectrum_share_a_hash(ultra3):
    # the same points and ranks: one hash, but unequal, so each content-keyed
    # cache hands back a result that carries its own space's spectrum
    tripled = rank_relabel(ultra3, [3 * v for v in ultra3.spectrum])
    assert (tripled.points, tripled.ranks) == (ultra3.points, ultra3.ranks)
    assert hash(tripled) == hash(ultra3) and tripled != ultra3
    for space in (ultra3, tripled, ultra3):
        assert build_tree(space).spectrum == space.spectrum
        assert enumerate_balls(space).space.spectrum == space.spectrum


def test_the_request_path_classes_keep_their_operations(ultra3):
    # plain classes, not dataclasses: the constructor by position or keyword,
    # ==, hash and the repr a dataclass writes, each as it was
    copy = FiniteSemimetricSpace(points=ultra3.points, spectrum=tuple(map(F, ultra3.spectrum)), ranks=ultra3.ranks)
    assert copy == ultra3 and hash(copy) == hash(ultra3) and copy != (ultra3.points, ultra3.spectrum, ultra3.ranks)
    assert repr(copy) == f"FiniteSemimetricSpace(points={ultra3.points!r}, spectrum={ultra3.spectrum!r}, ranks={ultra3.ranks!r})"
    assert "__hash__" in vars(FiniteSemimetricSpace)  # where the benchmark's span tracer wraps it
    assert pickle.loads(pickle.dumps(copy)) == copy
    for attempt in (lambda: setattr(copy, "points", ()), lambda: delattr(copy, "ranks"), lambda: setattr(copy, "x", 1)):
        with pytest.raises(AttributeError):  # a space is read-only
            attempt()
    # a ball is its member set: the (center, radius) witness is neither compared nor hashed
    ball = Ball(frozenset("pq"), "p", F(2))
    assert ball == Ball(frozenset("qp"), center="q", radius=F(1)) and hash(ball) == hash(Ball(frozenset("pq"), "r", F(3)))
    assert ball != Ball(frozenset("p"), "p", F(2)) and ball != frozenset("pq")
    assert repr(ball) == f"Ball(members={frozenset('pq')!r}, center='p', radius=Fraction(2, 1))"
    graph = DiametricalGraph(("p", "q"), (2, 1))
    assert graph == DiametricalGraph(vertices=("p", "q"), near=(2, 1)) != DiametricalGraph(("p", "q"), (0, 0))
    assert hash(graph) == hash(DiametricalGraph(("p", "q"), (2, 1))) and graph.edges == {frozenset("pq")}
    assert repr(graph) == "DiametricalGraph(vertices=('p', 'q'), near=(2, 1))"
    parts = MultipartitePartition((("p",), ("q",)))
    assert parts == MultipartitePartition(parts=(("p",), ("q",))) and hash(parts) == hash(MultipartitePartition(parts.parts))
    witness = WeakSimWitness(((F(0), F(0)),), {"p": "q"})
    assert witness == WeakSimWitness(scaling=((F(0), F(0)),), phi={"p": "q"}) != WeakSimWitness((), {"p": "q"})
    assert IsometryWitness({"p": "q"}) == IsometryWitness(phi={"p": "q"}) != IsometryWitness({"p": "p"})
    assert repr(IsometryWitness({"p": "q"})) == "IsometryWitness(phi={'p': 'q'})"
    with pytest.raises(TypeError):  # a witness holds a dict: it has no hash
        hash(witness)
    # a ballean, a Hasse diagram and a Hasse map compare by identity: a copy of the same fields is unequal
    ballean = enumerate_balls(ultra3)
    diagram = hasse_diagram(ballean)
    fields = ("space", "bits", "masks", "witnesses", "orders", "chains", "places", "covers")
    assert ballean == ballean != Ballean(*(getattr(ballean, k) for k in fields))
    assert diagram == diagram != HasseDiagram(diagram.masks, diagram.succs, diagram.preds, ballean=ballean)
    iso = HasseIso(diagram, diagram, {})
    assert iso == iso != HasseIso(diagram, diagram, {}) and repr(iso).startswith("HasseIso(h1=HasseDiagram(masks=")
    # every one is read-only, as a frozen dataclass was: a value's hash cannot change under a set that holds it
    for record, name in ((ball, "members"), (graph, "near"), (parts, "parts"), (witness, "scaling"),
                         (IsometryWitness({}), "phi"), (ballean, "masks"), (diagram, "succs"), (iso, "assignment")):
        for attempt in (lambda: setattr(record, name, ()), lambda: delattr(record, name)):
            with pytest.raises(AttributeError, match="read-only"):
                attempt()
    assert ballean.balls and "balls" in vars(ballean)  # a cached property is still written
    # and each pickles: slotted ones through the constructor, the others with their cached properties
    assert pickle.loads(pickle.dumps(ball)).center == "p" and pickle.loads(pickle.dumps(parts)) == parts
    sets = HasseDiagram.of_sets([frozenset("p"), frozenset("pq")], [(0, 1)])
    assert pickle.loads(pickle.dumps(sets)).vertices == sets.vertices


def _rank_oracle(values):
    spectrum = sorted({v for v in values if v is not None} | {F(0)})
    return tuple(spectrum), [None if v is None else spectrum.index(v) for v in values]


def _farey_neighbours(rng):
    """a/b < c/d with b, d near 10^12 and bc - ad = 1: they differ by 1/(bd)."""
    while True:
        b, d = rng.randrange(10**12 - 10**6, 10**12), rng.randrange(10**12 - 10**6, 10**12)
        if gcd(b, d) == 1:
            break
    c = pow(b, -1, d) + rng.randrange(-3, 4) * d
    a = (b * c - 1) // d
    return F(a, b), F(c, d)


def test_rank_values_is_exact():
    rng = random.Random(18)
    cases = [[], [None], [None, None], [F(0)], [F(5), F(-5)], [F(-1, 3), None, F(-1, 2)]]
    for _ in range(300):
        lo, hi = _farey_neighbours(rng)
        assert hi - lo == F(1, lo.denominator * hi.denominator)
        pool = [lo, hi, -lo, -hi, (lo + hi) / 2, lo + 1, F(0), F(1), F(-2, 3)]
        values = [rng.choice(pool) for _ in range(rng.randint(0, 12))]
        # equal values as separate objects, not only repeats of one object
        values += [F(v.numerator, v.denominator) for v in rng.sample(values, rng.randint(0, len(values)))]
        values += [None] * rng.randint(0, 2)
        rng.shuffle(values)
        cases.append(values)
    for values in cases:
        spectrum, ranks = rank_values(values)
        assert (spectrum, ranks) == _rank_oracle(values), values
        for value in spectrum:  # the first object seen for each value is kept
            first = next((v for v in values if v is not None and v == value), value)
            assert value is first
    assert any(F(0) not in values for values in cases)
    assert any(any(v is None for v in values) for values in cases)


PQ = {("p", "q"): 1}


def test_pairs_naming_an_unknown_point_are_rejected():
    with pytest.raises(UnknownPointError, match="'z'"):
        space_from_pairs(("p", "q"), {**PQ, ("q", "z"): 2})


def test_pairs_with_a_nonzero_diagonal_are_rejected():
    assert space_from_pairs(("p", "q"), {**PQ, ("q", "q"): 0}) == space_from_pairs(("p", "q"), PQ)
    with pytest.raises(NonZeroDiagonalError) as err:
        space_from_pairs(("p", "q"), {**PQ, ("q", "q"): 1})
    assert str(err.value) == "d[1][1] != 0"


def test_pairs_that_disagree_are_rejected():
    assert space_from_pairs(("p", "q"), {**PQ, ("q", "p"): F(1)}) == space_from_pairs(("p", "q"), PQ)
    with pytest.raises(NonSymmetricError) as err:
        space_from_pairs(("p", "q"), {**PQ, ("q", "p"): 2})
    assert str(err.value) == "d[1][0] != d[0][1]"


def test_violation_matches_triple_scan():
    rng = random.Random(11)
    for seed in range(60):
        n = 2 + seed % 11
        cases = [random_semimetric(GenConfig(seed=seed, n=n))]
        # an ultrametric with one entry moved, in a shuffled point order
        ultra = random_ultrametric(GenConfig(seed=seed, n=n))
        rows = [list(row) for row in distances(ultra)]
        i, j = rng.sample(range(n), 2)
        rows[i][j] = rows[j][i] = rows[i][j] + rng.choice((F(-1, 2), F(1, 2), F(1)))
        order = list(ultra.points)
        rng.shuffle(order)
        cases.append(validate_semimetric(ultra.points, rows).restrict(order))
        for space in cases:
            violation = ultrametric_violation(space)
            assert (violation is None) == (first_violating_triple(space) is None)
            assert violation == sorted_row_violating_triple(space)
            if violation is not None:
                x, y, z = violation
                assert space.distance(x, y) > max(space.distance(x, z), space.distance(z, y))


@pytest.mark.parametrize("bad", ["1\n", "1/2\n", "٣", "١/٢", "1/٢"])
def test_parse_rational_is_ascii_and_anchored(bad):
    with pytest.raises(FormatError):
        parse_rational(bad)


def test_parse_rational_rejects_overlong_literals():
    with pytest.raises(FormatError):
        parse_rational("7" * 5000)
    with pytest.raises(FormatError):
        parse_rational("1/" + "7" * 5000)
