"""Any JSON document given as a space or a tree gets a verdict or exit 2,
never exit 3 and never a traceback; bad entries are reported as the
Fraction-matrix parser reported them."""
import contextlib
import io
import json
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import validation_oracle as oracle
from umtk.cli import _loads, main
from umtk.errors import FormatError
from umtk.spaces import space_from_json

ZEROS = st.sampled_from(["0", "-0", "0/7"])
POSITIVE = st.sampled_from(["1", "1/2", "2/4", "2", "3", "6/3"])
LITERALS = ZEROS | POSITIVE | st.sampled_from(["-1", "1/0", "x", "", " 1", "1.5", "7" * 5000])
JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4)
    | LITERALS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def near_spaces(draw):
    """A valid space document, often with a few entries, rows or names
    replaced by arbitrary JSON."""
    n = draw(st.integers(1, 4))
    dist = [[None] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = draw(ZEROS)
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = draw(POSITIVE)
    points = [f"p{k}" for k in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        where = draw(st.sampled_from(("entry", "row", "name")))
        if where == "entry" and isinstance(dist[i], list) and j < len(dist[i]):
            dist[i][j] = draw(JSON)
        elif where == "row":
            dist[i] = draw(JSON)
        else:
            points[i] = draw(JSON)
    return {"points": points, "dist": dist}


DOCUMENTS = JSON | st.fixed_dictionaries({"points": JSON, "dist": JSON}) | near_spaces()

# tree documents, often well formed, with arbitrary JSON in any place
NEAR_TREES = st.recursive(
    st.fixed_dictionaries({"point": st.sampled_from(["a", "b", "c", "d"])}) | JSON,
    lambda inner: st.fixed_dictionaries(
        {"children": st.lists(inner, max_size=4) | JSON},
        optional={"label": POSITIVE | LITERALS | JSON, "point": JSON},
    ),
    max_leaves=10,
)


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(a=DOCUMENTS, b=DOCUMENTS)
def test_any_space_document_gets_a_verdict_or_an_input_error(a, b):
    with tempfile.TemporaryDirectory() as tmp:
        pa, pb = os.path.join(tmp, "a.json"), os.path.join(tmp, "b.json")
        for path, doc in ((pa, a), (pb, b)):
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
        reports = (["validate"], ["spectrum"], ["tree"], ["tree", "--dot"], ["classify"],
                   ["ballean"], ["hasse"], ["hasse", "--dot"], ["diametric", "--dot"])
        runs = [([*cmd, pa], (0, 2)) for cmd in reports]
        runs.append((["diametric", pa], (0, 1, 2)))
        decisions = ("isometric", "weaksim", "ballpreserving", "hasse-iso", "tree-iso")
        runs += [([cmd, pa, pb], (0, 1, 2)) for cmd in decisions]
        _check_runs(runs)


def _check_runs(runs):
    for argv, allowed in runs:
        code, err = _run(argv)
        assert code in allowed, (argv[0], code, err)
        assert "Traceback" not in err
        assert code != 2 or err.startswith("error: ")


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(a=NEAR_TREES | near_spaces(), b=NEAR_TREES)
def test_any_tree_document_gets_a_verdict_or_an_input_error(a, b):
    with tempfile.TemporaryDirectory() as tmp:
        pa, pb = os.path.join(tmp, "a.json"), os.path.join(tmp, "b.json")
        for path, doc in ((pa, a), (pb, b)):
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
        _check_runs([(["tree-iso", *flag, x, y], (0, 1, 2)) for flag in ([], ["--labeled"])
                     for x, y in ((pa, pb), (pb, pa), (pb, pb))])


# any bytes at all, and documents as UTF-8 text cut short or not
BYTES = st.binary(max_size=200) | st.tuples(
    (JSON | near_spaces() | NEAR_TREES).map(lambda doc: json.dumps(doc, ensure_ascii=False).encode()),
    st.none() | st.integers(0, 200),
).map(lambda pair: pair[0][: pair[1]])


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(a=BYTES, b=BYTES)
def test_any_bytes_get_a_verdict_or_an_input_error(a, b):
    with tempfile.TemporaryDirectory() as tmp:
        pa, pb = os.path.join(tmp, "a.json"), os.path.join(tmp, "b.json")
        for path, data in ((pa, a), (pb, b)):
            with open(path, "wb") as handle:
                handle.write(data)
        _check_runs([(["validate", pa], (0, 2)), (["weaksim", pa, pb], (0, 1, 2)),
                     (["tree-iso", pa, pb], (0, 1, 2))])


# --pool values: well-formed pools, arbitrary text, and comma-joined
# literals with malformed ones among them
POOLS = (
    st.lists(ZEROS | POSITIVE | st.integers(1, 60).map(str), min_size=1, max_size=8).map(",".join)
    | st.text(max_size=12)
    | st.lists(LITERALS | st.text(max_size=3), max_size=6).map(",".join)
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.integers(1, 40),
    pool=POOLS,
    force=st.sampled_from(["R", "Rtilde", "D", "T", "any"]),
    semimetric=st.booleans(),
    seed=st.integers(),
)
def test_any_gen_flags_give_a_space_or_an_input_error(n, pool, force, semimetric, seed):
    # ``--flag=value`` hands values that start with "-" to the flag
    argv = ["gen", f"--n={n}", f"--pool={pool}", f"--class={force}", f"--seed={seed}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--semimetric"] * semimetric)
    assert code in (0, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert len(space_from_json(json.loads(out.getvalue()))) == n
    else:
        assert err.getvalue().startswith("error: ")


def _not_a_long_run(text):
    # a --trials value that int() reads as more than 3 would only make the run slow
    try:
        return int(text) <= 3
    except ValueError:
        return text != "default"


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    trials=st.integers(1, 3).map(str) | st.text(max_size=6).filter(_not_a_long_run),
    max_n=st.integers(-3, 6),
    seed=st.integers(),
)
def test_any_check_flags_pass_or_give_an_input_error(trials, max_n, seed):
    argv = ["check", f"--trials={trials}", f"--max-n={max_n}", f"--seed={seed}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), (argv, code, out.getvalue(), err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ") and out.getvalue() == ""


@pytest.mark.parametrize(
    "dist",
    [
        [[[1]]],
        [[{"a": "1"}]],
        [["0", [1]], ["1", "0"]],
        [["0", "x"], [[1], "0"]],
        [["0", [1]], ["x", "0"]],
        [["0", "1"], ["1", "0"], ["y"]],  # a bad literal before the shape error
        [["0", "1"], ["1"]],
        [["0", "1/0", "2"], ["1/0", "0"]],
        [["0", "2/4", None], ["1/2", "0"]],
    ],
)
def test_bad_entries_are_reported_like_the_fraction_parser(dist, tmp_path):
    doc = {"points": ["p", "q"], "dist": dist}
    with pytest.raises(Exception) as want:
        oracle.space_from_json(doc)
    with pytest.raises(type(want.value)) as got:
        space_from_json(doc)
    assert str(got.value) == str(want.value)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, err = _run(["validate", str(path)])
    assert code == 2
    assert err == f"error: {type(want.value).__name__}: {want.value}\n"


def test_unhashable_entries_are_format_errors():
    with pytest.raises(FormatError, match="got list"):
        space_from_json({"points": ["p"], "dist": [[[1]]]})


# JSON texts, written by hand so that they hold what json.dumps never writes:
# NaN and the infinities, duplicate keys ("a" and "\u0061" are one key), lone
# surrogates, and ints on either side of Python's 4 300-digit limit
SCALAR_TEXTS = (
    st.sampled_from(["null", "true", "false", "NaN", "Infinity", "-Infinity", "-0", "1e400", "-2.5E-3", '"\\ud800"'])
    | st.integers().map(str)
    | st.floats().map(json.dumps)
    | st.text(max_size=4).map(json.dumps)
    | st.text(max_size=4).map(lambda s: json.dumps(s, ensure_ascii=False))
    | st.tuples(st.sampled_from(["", "-"]), st.integers(4290, 4310)).map(lambda pair: pair[0] + "7" * pair[1])
)
KEY_TEXTS = st.sampled_from(['"a"', '"\\u0061"', '"b"', '""'])
JSON_TEXTS = st.recursive(
    SCALAR_TEXTS,
    lambda inner: st.lists(inner, max_size=3).map(lambda items: "[" + ", ".join(items) + "]")
    | st.lists(st.tuples(KEY_TEXTS, inner), max_size=3).map(
        lambda pairs: "{" + ", ".join(f"{key}: {value}" for key, value in pairs) + "}"),
    max_leaves=8,
)
# a character taken from the text, put in, or put in its place: JSON's own
# characters, controls, an escape, and digits that are not ASCII
STRAYS = st.sampled_from(list('[]{}",:.-+eE07 \t\n\\utNIx\x00\x1f\u0661\uff11\ud800'))


@st.composite
def corrupted_texts(draw):
    text = draw(JSON_TEXTS)
    at = draw(st.integers(0, len(text)))
    cut = draw(st.integers(0, 1)) if at < len(text) else 0
    return text[:at] + draw(st.just("") | STRAYS) + text[at + cut :]


def _decoded(loads, text):
    """The value's repr (NaN equals itself there), or the exception's type and message."""
    try:
        return repr(loads(text))
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=JSON_TEXTS | corrupted_texts())
def test_the_pure_python_retry_decodes_as_json_loads(text):
    # json.loads failing for depth, as it does from 3.12 on past a fixed depth,
    # leaves every text to the reader's pure-Python retry. (A leading BOM is
    # not tried: json.loads rejects it before decoding, so it never retries.)
    loads = json.loads
    with mock.patch.object(json, "loads", side_effect=RecursionError):
        assert _decoded(_loads, text) == _decoded(loads, text)
