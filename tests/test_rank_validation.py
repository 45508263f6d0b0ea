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
from collections import Counter
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
    # the ranking itself, against rank_values of the parsed literals: each
    # row's ranks, as bytes for these small spectra
    for literals in LITERAL_SETS[:5]:
        ranked = spaces.read_literals([literals, literals[::-1]])
        spectrum, ranks = rank_values(map(parse_rational, literals))
        assert ranked == (spectrum, [bytes(ranks), bytes(ranks[::-1])])


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


def _spelled(values, forms):
    """A document of a matrix of values, each entry spelled by
    ``forms(value, k)`` for the k-th entry of that value in row order, so
    an entry and its mirror may differ in text but not in value."""
    seen = Counter()

    def spell(v):
        seen[v] += 1
        return forms(v, seen[v] - 1)

    return {"points": [f"p{i}" for i in range(len(values))], "dist": [list(map(spell, row)) for row in values]}


def _pairs(n, count):
    """An n-point value matrix whose off-diagonal pairs take 1..count in
    turn (every value used when n(n-1)/2 >= count), with zero diagonal."""
    values = [[0] * n for _ in range(n)]
    for k, (i, j) in enumerate((i, j) for i in range(n) for j in range(i + 1, n)):
        values[i][j] = values[j][i] = 1 + k % count
    return values


def _check_against_the_fraction_scan(doc):
    """The oracle's outcome, and for a valid document the space the Fraction
    rows build: equal, hash equal and with that space's row type."""
    want = _outcome(oracle.space_from_json, doc)
    assert _outcome(space_from_json, doc) == want, doc
    if len(want) == 2:
        space, built = space_from_json(doc), validate_semimetric(*want)
        assert space == built and hash(space) == hash(built)
        assert {type(row) for row in space.ranks} == {bytes if len(space.spectrum) <= 256 else tuple}
    return want


def test_the_one_probe_reader_at_its_boundaries():
    # 300 forms ("k" and "2k/2", "3k/3" for some) of 100 values: the row
    # type follows the spectrum size, never the literal count
    forms = (lambda v, k: str(v), lambda v, k: f"{2 * v}/2", lambda v, k: f"{3 * v}/3")
    doc = _spelled(_pairs(25, 99), lambda v, k: forms[k % 3](v, k) if v else "0")
    assert len({x for row in doc["dist"] for x in row}) == 1 + 3 * 99
    space = space_from_json(doc)
    assert len(space.spectrum) == 100 and type(space.ranks[0]) is bytes
    _check_against_the_fraction_scan(doc)
    # 256 and 257 values, with a "0" literal (a valid space of 256 or 257
    # spectrum values) and without one (the diagonal spelled "1/2": 257 or
    # 258 values, and a nonzero diagonal); each in one form and in two
    for count in (255, 256):
        for two_forms in (False, True):
            spell = (lambda v, k: f"{2 * v}/2" if k % 2 else str(v)) if two_forms else (lambda v, k: str(v))
            doc = _spelled(_pairs(24, count), spell)
            assert len(_check_against_the_fraction_scan(doc)[1]) == 24
            assert len(space_from_json(doc).spectrum) == count + 1
            zero_free = _spelled(_pairs(24, count), lambda v, k: spell(v, k) if v else "1/2")
            assert _check_against_the_fraction_scan(zero_free)[0] is spaces.NonZeroDiagonalError
    # a fraction literal beside an equal integer literal ("10/5" and "2") or
    # an equal fraction, each value made from its text's two ints: a
    # negative value, a leading zero, a reducible fraction, and a zero
    # denominator, which the row-order scan names
    for literal, equal in (("-3/6", "-1/2"), ("04/8", "1/2"), ("10/5", "2"), ("1/0", "1/0")):
        for dist in ([["0", literal, "2"], [equal, "0", "2"], ["2", "2", "0"]],
                     [["0", "1", literal], ["1", "0", "1"], [equal, "1", "0"]]):
            want = _check_against_the_fraction_scan({"points": list("abc"), "dist": dist})
            if literal == "1/0":
                assert want[:2] == (spaces.FormatError, "zero denominator in '1/0'")
    # n = 1 and n = 2: itemgetter of one key returns the entry itself
    for dist in ([["0"]], [["-0"]], [["0/5"]], [["1"]], [["x"]], [[0]]):
        _check_against_the_fraction_scan({"points": ["a"], "dist": dist})
    for dist in ([["0", "1/2"], ["2/4", "0"]], [["0", "1"], ["2", "0"]], [["0", "3"], ["3"]], [["0"], ["0"]]):
        _check_against_the_fraction_scan({"points": ["a", "b"], "dist": dist})
    # a one-entry row and an empty row in a larger matrix, and a bad
    # literal after them: literal errors come before shape errors
    valid = _spelled(_pairs(4, 3), lambda v, k: str(v))["dist"]
    for short in (["5"], ["0"], []):
        for tail in ("1", "x"):
            dist = [list(row) for row in valid]
            dist[1] = short
            dist[3][2] = tail
            _check_against_the_fraction_scan({"points": list("abcd"), "dist": dist})
    # JSON values that are not strings, beside the literals they equal or
    # hash like (true == 1, and 1 != "1"), and strings int() takes but the
    # literal grammar does not
    for odd in (True, 1, 1.5, None, [], {}, False, 0, "+1", "1_0", " 1"):
        for place in ((0, 1), (1, 0), (2, 2)):
            dist = [["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"]]
            dist[place[0]][place[1]] = odd
            _check_against_the_fraction_scan({"points": list("abc"), "dist": dist})
    _check_against_the_fraction_scan({"points": list("abc"), "dist": [["0", 1, True], [True, "0", 1], ["1", 1, "0"]]})
    # no rows, one empty row and a one-entry row; a bad literal, found by the
    # fallback scan, alone and past 256 literals; 257 literals over 129 and
    # over 256 values, read as lists and typed as bytes by the validator
    assert spaces.read_literals([]) == ((F(0),), [])
    assert spaces.read_literals([[]]) == ((F(0),), [[]])
    assert spaces.read_literals([["0"]]) == ((F(0),), [b"\0"])
    for points, dist in (([], []), ([], [[]]), (["a"], [[]]), (["a"], [["0"]]), (["a"], [["1"]])):
        _check_both_routes({"points": points, "dist": dist})
    for bad in ("x", "1/0", "1\n2"):
        want = _check_both_routes({"points": list("ab"), "dist": [["0", bad], [bad, "0"]]})
        assert want[0] is spaces.FormatError
        wide = _spelled(_pairs(24, 255), lambda v, k: f"{2 * v}/2" if k % 2 else str(v))
        wide["dist"][5][17] = bad
        assert _check_both_routes(wide)[0] is spaces.FormatError
    for count, spell in ((128, lambda v, k: f"{2 * v}/2" if v and k % 2 else str(v)),
                         (255, lambda v, k: "2/2" if (v, k) == (1, 1) else str(v))):
        doc = _spelled(_pairs(24, count), spell)
        assert len({x for row in doc["dist"] for x in row}) == 257
        assert all(type(row) is list for row in spaces.read_literals(doc["dist"])[1])
        assert len(_check_both_routes(doc)[1]) == 24
        assert len(space_from_json(doc).spectrum) == count + 1
    # a restriction re-ranks into the values its points use: to one point,
    # and to subsets that drop spectrum values, from bytes and tuple rows
    for count in (20, 300):
        space = space_from_json(_spelled(_pairs(30, count), lambda v, k: str(v)))
        for subset in (["p7"], ["p3", "p0", "p9"], [f"p{i}" for i in range(19, -1, -1)]):
            sub = space.restrict(subset)
            built = validate_semimetric(subset, [[space.distance(a, b) for b in subset] for a in subset])
            assert sub == built and hash(sub) == hash(built) and sub.points == tuple(subset)
            assert {type(row) for row in sub.ranks} == {bytes if len(sub.spectrum) <= 256 else tuple}
            assert len(sub.spectrum) <= 1 + len(subset) * (len(subset) - 1) // 2
    # the last: 20 points of 300 values, whose tuple rows restrict to bytes rows
    assert len(space.spectrum) == 301 and type(space.ranks[0]) is tuple and type(sub.ranks[0]) is bytes
    assert space.restrict(["p4"]).ranks == (b"\0",)


def _check_both_routes(doc):
    """``_check_against_the_fraction_scan``, and ``validate_semimetric`` of
    the document's ``read_literals`` rows: the same outcome and, for a valid
    document, the same space, rows typed by the spectrum size."""
    def read_and_validate(points, dist):
        return validate_semimetric(points, dist, spaces.read_literals(dist))

    want = _check_against_the_fraction_scan(doc)
    assert _outcome(read_and_validate, doc["points"], doc["dist"]) == want
    if len(want) == 2:
        space = read_and_validate(doc["points"], doc["dist"])
        assert space == space_from_json(doc)
        assert {type(row) for row in space.ranks} == {bytes if len(space.spectrum) <= 256 else tuple}
    return want


def test_tree_labels_past_256_forms_and_without_labels():
    # a chain of 450 internal nodes, two in three labeled with one of 150
    # values in two forms: one reader row of 300 label forms with ABSENT
    # entries, ranked as rank_values ranks the parsed labels in preorder
    texts = [(None, str(k // 3 + 1), f"{2 * (k // 3 + 1)}/2")[k % 3] for k in range(450)]
    assert len(set(texts)) == 301
    node = {"point": "leaf"}
    for k in reversed(range(450)):
        node = {"children": [node, {"point": f"leaf{k}"}], **({} if texts[k] is None else {"label": texts[k]})}
    tree = tree_from_json(node)
    spectrum, ranks = rank_values([None if t is None else parse_rational(t) for t in texts] + [F(0)] * 451)
    assert tree.spectrum == spectrum and len(spectrum) == 151
    assert tree.labels == ranks
