"""Rank-based parsing and validation against the Fraction-matrix oracle.

Random 1-5-point documents mix literal forms of equal values ("1/2" and
"2/4", "0", "-0" and "0/7"), so a pair can be symmetric in value but not in
text, and carry planted defects: negative, zero, asymmetric or nonzero
diagonal entries, bad literals and non-string entries, ragged rows, and bad
point lists. Both implementations must agree on the error class, message and
indices, or on the distance matrix.
"""
import random
import sys
from fractions import Fraction as F

import validation_oracle as oracle
from umtk import cli, reptree, spaces
from umtk.errors import UmtkError
from umtk.reptree import tree_from_json
from umtk.spaces import parse_rational, rank_values, space_from_json, validate_semimetric

# the values, and the literal forms of each, by value index
VALUES = (F(0), F(1, 2), F(1), F(2), F(3), F(-1))
FORMS = (("0", "-0", "0/7"), ("1/2", "2/4"), ("1", "3/3"), ("2", "4/2", "6/3"), ("3",), ("-1", "-2/2"))
VALUE_OF = {form: VALUES[k] for k, forms in enumerate(FORMS) for form in forms}
POSITIVE = (1, 2, 3, 4)
# the last five get past int() ("+1", "1_0", "1\n", "١") or a pattern that is
# not anchored to the whole string ("1\n2"); the literal grammar takes none
NOT_LITERALS = (
    "x", "1/0", "1.5", " 1", "", 1, 0.5, None, True, [1], {"a": "1"},
    "+1", "1_0", "1\n", "1\n2", "\u0661",
)


def _outcome(build, *args):
    try:
        result = build(*args)
    except UmtkError as exc:
        return (type(exc), str(exc), getattr(exc, "i", None), getattr(exc, "j", None))
    if isinstance(result, tuple):  # the oracle's (points, rows)
        return result
    return result.points, oracle.distances(result)


def _random_rows(rng, n):
    """A matrix of value indices: symmetric and valid, then up to two
    entries set to any value, half of them with their mirror."""
    values = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            values[i][j] = values[j][i] = rng.choice(POSITIVE)
    for _ in range(rng.choice((0, 0, 1, 1, 2))):
        i, j = rng.randrange(n), rng.randrange(n)
        values[i][j] = rng.randrange(len(VALUES))
        if rng.random() < 0.5:
            values[j][i] = values[i][j]
    return values


def _literals(rng, values):
    return [[rng.choice(FORMS[v]) for v in row] for row in values]


def _document(rng, values):
    dist = _literals(rng, values)
    n = len(values)
    roll = rng.random()
    if roll < 0.08:
        dist[rng.randrange(n)][rng.randrange(n)] = rng.choice(NOT_LITERALS)
    elif roll < 0.11:
        dist[rng.randrange(n)].append("1")
    elif roll < 0.13:
        dist.append(["0"] * n)
    elif roll < 0.14:
        dist.pop()
    points = [f"p{k}" for k in range(n)]
    roll = rng.random()
    if roll < 0.02:
        points[rng.randrange(n)] = points[rng.randrange(n)]
    elif roll < 0.03:
        points = []
    return {"points": points, "dist": dist}


def _hand_built(rng, doc):
    """The document's matrix with Fraction or int entries, other entries kept."""
    rows = []
    for row in doc["dist"]:
        out = []
        for v in row:
            if isinstance(v, str) and v in VALUE_OF:
                q = VALUE_OF[v]
                out.append(int(q) if q.denominator == 1 and rng.random() < 0.5 else q)
            else:
                out.append(v)
        rows.append(out)
    return rows


def test_rank_validation_matches_the_fraction_scan():
    rng = random.Random(2024)
    kinds = {}
    previous = None
    for _ in range(100_000):
        values = _random_rows(rng, rng.randint(1, 5))
        doc = _document(rng, values)
        want = _outcome(oracle.space_from_json, doc)
        assert _outcome(space_from_json, doc) == want, doc
        kind = "valid" if len(want) == 2 else want[0].__name__
        kinds[kind] = kinds.get(kind, 0) + 1
        if rng.random() < 0.25:
            rows = _hand_built(rng, doc)
            assert _outcome(validate_semimetric, doc["points"], rows) == _outcome(
                oracle.validate_semimetric, doc["points"], rows
            ), rows
        if kind != "valid":
            continue
        space = space_from_json(doc)
        # the same values in other literal forms: an equal space
        twin = space_from_json({"points": doc["points"], "dist": _literals(rng, values)})
        dist = oracle.distances(space)
        assert oracle.distances(twin) == dist and twin == space and hash(twin) == hash(space)
        if previous is not None:
            same = previous.points == space.points and oracle.distances(previous) == dist
            assert (previous == space) == same
            if same:
                assert hash(previous) == hash(space)
        previous = space
    # every outcome occurs often enough to be tested
    for kind in (
        "valid",
        "FormatError",
        "MatrixShapeError",
        "NegativeDistanceError",
        "NonSymmetricError",
        "NonZeroDiagonalError",
        "ZeroOffDiagonalError",
        "DuplicatePointNameError",
        "EmptySpaceError",
    ):
        assert kinds.get(kind, 0) >= 100, kinds


# Python's int-string limit; a literal with more digits is a FormatError
LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
# document matrices by the distinct literals they use, read by space_from_json
# through the one-pass literal ranking and by the oracle literal by literal
LITERAL_SETS = (
    ("007", "-0", "0/7", "3", "03"),
    ("1/2", "2/4", "3/6", "1", "0"),
    ("1/3", "2/7", "5", "10/4", "5/2", "0"),
    (f"1/{10**40}", f"2/{2 * 10**40 + 1}", f"{10**40}/{10**40 + 1}", "1", "0"),
    ("9" * LIMIT, "1" + "0" * (LIMIT - 1), "1/" + "9" * LIMIT, "0"),
    ("9" * (LIMIT + 1), "1", "0"),
    ("1/" + "9" * (LIMIT + 1), "1", "0"),
    ("1/0", "1", "0"),
    ("-1", "1", "0"),
    ("1", "0", None),
    ("1", "0", "1\n2"),
    ("1/2\n3", "5", "0"),
)


def _spectrum_and_ranks(rows):
    spectrum = sorted({F(0), *(d for row in rows for d in row)})
    return tuple(spectrum), tuple(tuple(map(spectrum.index, row)) for row in rows)


def test_one_pass_literal_ranking_matches_the_literal_scan():
    rng = random.Random(27)
    for literals in LITERAL_SETS:
        for n in (2, 3, 5):
            # a symmetric matrix with zero diagonal, off-diagonal entries
            # drawn from the set, every literal used somewhere when n allows
            off = [literals[(i * n + j) % len(literals)] for i in range(n) for j in range(i + 1, n)]
            rng.shuffle(off)
            dist = [["0"] * n for _ in range(n)]
            for (i, j), lit in zip(((i, j) for i in range(n) for j in range(i + 1, n)), off):
                dist[i][j] = dist[j][i] = lit
            doc = {"points": [f"p{k}" for k in range(n)], "dist": dist}
            want = _outcome(oracle.space_from_json, doc)
            assert _outcome(space_from_json, doc) == want, doc
            if len(want) == 2:
                space = space_from_json(doc)
                assert (space.spectrum, tuple(map(tuple, space.ranks))) == _spectrum_and_ranks(want[1])
    # no 0 among the literals: the spectrum still holds 0, and the diagonal fails
    for diagonal in ("1/2", "1"):
        doc = {"points": ["p", "q"], "dist": [[diagonal, "2"], ["2", diagonal]]}
        assert _outcome(space_from_json, doc) == _outcome(oracle.space_from_json, doc)
    # the ranking itself, against rank_values of the parsed literals
    for literals in LITERAL_SETS[:5]:
        ranked = spaces.read_literals([literals])
        spectrum, ranks = rank_values(map(parse_rational, literals))
        assert ranked == (spectrum, dict(zip(literals, ranks)))


def test_spaces_trees_and_the_generator_pool_share_one_literal_reader(monkeypatch, tmp_path):
    calls, parses = [], []

    def counted_read(rows):
        calls.append(rows)
        return read(rows)

    def counted_parse(text):
        parses.append(text)
        return parse(text)

    read, parse = spaces.read_literals, spaces.parse_rational
    for module in (spaces, reptree, cli):
        monkeypatch.setattr(module, "read_literals", counted_read)
    monkeypatch.setattr(spaces, "parse_rational", counted_parse)
    space_from_json({"points": ["p", "q", "r"], "dist": [["0", "1/2", "2"], ["2/4", "0", "2"], ["2", "2", "0"]]})
    assert len(calls) == 1
    # a valid tree document, with fraction labels and an unlabeled node, is never parsed literal by literal
    doc = {"label": "3/2", "children": [{"point": "u"}, {"children": [{"point": "v"}, {"point": "w"}]}]}
    tree = tree_from_json(doc)
    assert len(calls) == 2 and parses == []
    assert tree.labels == [1, 0, None, 0, 0]
    assert cli.main(["gen", "--seed", "1", "--n", "4", "--pool", "1/2,1,3", "--out", str(tmp_path / "g.json")]) == 0
    assert len(calls) == 3 and calls[-1] == (["1/2", "1", "3"],)
