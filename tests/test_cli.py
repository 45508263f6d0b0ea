import gc
import inspect
import json
import os
import random
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import tree_oracle as oracle
from umtk import cli, renamed_copy, similarity, space_from_json, space_to_text, suites
from umtk.cli import main
from umtk.reptree import tree_from_json
from umtk.treecanon import rooted_tree_iso_map


@pytest.fixture(autouse=True)
def plain_diagnostics(monkeypatch):
    monkeypatch.setenv("UMTK_COLOR", "never")


@pytest.fixture
def paths(tmp_path, ultra3, ultra3_scaled, semi3, blocks4):
    spaces = {
        "ultra3": ultra3,
        "ultra3_scaled": ultra3_scaled,
        "semi3": semi3,
        "blocks4": blocks4,
    }
    out = {}
    for name, space in spaces.items():
        p = tmp_path / f"{name}.json"
        p.write_text(space_to_text(space))
        out[name] = str(p)
    return out


def test_validate(paths, capsys):
    assert main(["validate", paths["ultra3"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"valid": True, "points": 3, "ultrametric": True, "diameter": "2"}

    assert main(["validate", paths["semi3"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ultrametric"] is False and doc["diameter"] == "3"


def test_spectrum_output_is_exact(paths, capsys):
    assert main(["spectrum", paths["ultra3_scaled"]]) == 0
    assert capsys.readouterr().out == (
        '{\n  "spectrum": [\n    "0",\n    "10",\n    "20"\n  ]\n}\n'
    )


def test_diametric(paths, capsys):
    assert main(["diametric", paths["ultra3"]]) == 0
    assert json.loads(capsys.readouterr().out) == {"parts": [["p"], ["q", "r"]]}

    # diametrical graph of semi3 is a single edge on three vertices
    assert main(["diametric", paths["semi3"]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: NotMultipartite")

    assert main(["diametric", "--dot", paths["ultra3"]]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("graph diametrical {")
    assert '"p" -- "q";' in dot


def test_tree_and_dot(paths, capsys):
    assert main(["tree", paths["ultra3"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["label"] == "2"

    assert main(["tree", "--dot", paths["ultra3"]]) == 0
    assert capsys.readouterr().out.startswith("digraph tree {")

    assert main(["tree", paths["semi3"]]) == 2
    assert "NotUltrametric" in capsys.readouterr().err


def test_tree_iso(paths, tmp_path, capsys):
    assert main(["tree-iso", paths["ultra3"], paths["ultra3_scaled"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["isomorphic"] is True and doc["labeled"] is False
    assert doc["map"][""] == ""
    assert set(doc["map"]) == {"", "0", "1", "1.0", "1.1"}

    assert main(["tree-iso", "--labeled", paths["ultra3"], paths["ultra3_scaled"]]) == 1
    assert "not isomorphic" in capsys.readouterr().err

    # a raw labeled tree document is accepted directly
    main(["tree", paths["ultra3"], "--out", str(tmp_path / "t.json")])
    capsys.readouterr()
    assert main(["tree-iso", "--labeled", str(tmp_path / "t.json"), paths["ultra3"]]) == 0
    capsys.readouterr()

    # unlabeled documents cannot be compared with --labeled
    stripped = json.loads((tmp_path / "t.json").read_text())

    def drop_labels(node):
        node.pop("label", None)
        for child in node.get("children", ()):
            drop_labels(child)

    drop_labels(stripped)
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(stripped))
    assert main(["tree-iso", str(bare), paths["ultra3"]]) == 0
    capsys.readouterr()
    assert main(["tree-iso", "--labeled", str(bare), paths["ultra3"]]) == 2
    assert "error:" in capsys.readouterr().err


# Two-level trees whose children are not in code order, so the map's key
# order shows the pairing order: a node, then its children in code order.
GOLDEN_A = {"label": "5", "children": [
    {"label": "2", "children": [{"point": "a"}, {"point": "b"}, {"point": "c"}]},
    {"point": "d"},
    {"label": "1", "children": [{"point": "e"}, {"point": "f"}]},
]}
GOLDEN_B = {"label": "5", "children": [
    {"label": "1", "children": [{"point": "u"}, {"point": "v"}]},
    {"label": "2", "children": [{"point": "w"}, {"point": "x"}, {"point": "y"}]},
    {"point": "z"},
]}
GOLDEN_SHAPE_MAP = (
    '{\n  "isomorphic": true,\n  "labeled": false,\n  "map": {\n'
    '    "": "",\n    "0": "1",\n    "0.0": "1.0",\n    "0.1": "1.1",\n'
    '    "0.2": "1.2",\n    "2": "0",\n    "2.0": "0.0",\n    "2.1": "0.1",\n'
    '    "1": "2"\n  }\n}\n'
)
GOLDEN_LABELED_MAP = (
    '{\n  "isomorphic": true,\n  "labeled": true,\n  "map": {\n'
    '    "": "",\n    "1": "2",\n    "2": "0",\n    "2.0": "0.0",\n'
    '    "2.1": "0.1",\n    "0": "1",\n    "0.0": "1.0",\n    "0.1": "1.1",\n'
    '    "0.2": "1.2"\n  }\n}\n'
)


def test_tree_iso_output_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(GOLDEN_A))
    b.write_text(json.dumps(GOLDEN_B))
    assert main(["tree-iso", str(a), str(b)]) == 0
    assert capsys.readouterr().out == GOLDEN_SHAPE_MAP
    assert main(["tree-iso", "--labeled", str(a), str(b)]) == 0
    assert capsys.readouterr().out == GOLDEN_LABELED_MAP


def _random_tree_doc(rng, label, width, names):
    """A tree document whose labels decrease strictly downwards; a child
    drawn label 0 is a leaf."""
    if label == 0:
        return {"point": next(names)}
    kids = [_random_tree_doc(rng, rng.randrange(label), width, names) for _ in range(rng.randint(2, width))]
    return {"label": str(label), "children": kids}


def _shuffled(rng, doc, prefix):
    """An isomorphic copy of a tree document: children in a random order,
    each point renamed with ``prefix``."""
    if "point" in doc:
        return {"point": prefix + doc["point"]}
    kids = [_shuffled(rng, kid, prefix) for kid in doc["children"]]
    rng.shuffle(kids)
    return {"label": doc["label"], "children": kids}


def test_tree_iso_writes_the_reference_bytes(tmp_path, capsys):
    rng = random.Random(19)
    names = (f"p{k}" for k in range(10**6))
    docs = [{"point": "p"}]  # the map {"": ""}
    docs += [_random_tree_doc(rng, rng.randint(1, 5), 4, names) for _ in range(12)]
    big = {"label": "9", "children": [_random_tree_doc(rng, 8, 8, names) for _ in range(3)]}
    docs.append(big)
    assert len(tree_from_json(big, True)) > cli._BATCH  # written in more than one batch
    a, b, out = (tmp_path / f"{name}.json" for name in "abo")
    for doc in docs:
        other = _shuffled(rng, doc, "q")
        a.write_text(json.dumps(doc))
        b.write_text(json.dumps(other))
        for labeled in (False, True):
            want = oracle.tree_iso_text(tree_from_json(doc, labeled), tree_from_json(other, labeled), labeled)
            flags = ["--labeled"] * labeled
            assert main(["tree-iso", *flags, str(a), str(b)]) == 0
            assert capsys.readouterr().out == want
            assert main(["tree-iso", *flags, "--out", str(out), str(a), str(b)]) == 0
            assert out.read_bytes() == want.encode()


def test_tree_iso_re_checks_the_map(paths, leaf_swapping_iso_map, monkeypatch, capsys):
    monkeypatch.setattr(cli, "rooted_tree_iso_map", leaf_swapping_iso_map)
    assert main(["tree-iso", paths["blocks4"], paths["blocks4"]]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: VerificationFailed")


def _repeating_walk_map(tree1, tree2, respect_labels=False, walk=None):
    """The real map, with its pairing order listing the root twice and the
    last position not at all."""
    psi = rooted_tree_iso_map(tree1, tree2, respect_labels, walk)
    walk[-1] = walk[0]
    return psi


@pytest.mark.parametrize("broken, message", [
    ("leaf_swapping", "tree isomorphism failed re-check"),
    ("repeating_walk", "tree isomorphism pairing order does not hold each node once"),
])
def test_tree_iso_checks_before_it_writes(broken, message, leaf_swapping_iso_map, tmp_path, monkeypatch, capsys):
    broken_map = leaf_swapping_iso_map if broken == "leaf_swapping" else _repeating_walk_map
    monkeypatch.setattr(cli, "rooted_tree_iso_map", broken_map)
    a, b, out = (tmp_path / f"{name}.json" for name in "abo")
    a.write_text(json.dumps(GOLDEN_A))
    b.write_text(json.dumps(GOLDEN_B))
    for argv in (["tree-iso", str(a), str(b)], ["tree-iso", "--out", str(out), str(a), str(b)]):
        assert main(argv) == 3
        assert capsys.readouterr() == ("", f"error: VerificationFailed: {message}\n")
    assert not out.exists()


def test_weaksim_re_checks_the_tree_map(
    tmp_path, blocks4, blocks4_swapped, leaf_swapping_build_tree, capsys
):
    # the weak-similarity check is the only one the tree-derived point map
    # gets, so it must catch a bad one
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(space_to_text(blocks4))
    b.write_text(space_to_text(blocks4_swapped))
    assert main(["weaksim", str(a), str(b)]) == 0
    capsys.readouterr()
    leaf_swapping_build_tree(blocks4_swapped)
    assert main(["weaksim", str(a), str(b)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: VerificationFailed")


@pytest.mark.parametrize("command", ["isometric", "weaksim"])
def test_pair_decisions_re_check_the_search_map(
    command, tmp_path, semi3, semi3_variant, image_swapping_match, monkeypatch, capsys
):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(space_to_text(semi3))
    b.write_text(space_to_text(semi3_variant))
    assert main([command, str(a), str(b)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(similarity, "match", image_swapping_match)
    assert main([command, str(a), str(b)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: VerificationFailed")


@pytest.mark.parametrize("command", ["isometric", "weaksim"])
def test_a_refuted_forced_map_exits_1(command, tmp_path, capsys):
    # pairwise distinct sorted rank rows, the same rows on both sides: the
    # one map they force is refuted, so the answer is no, not a defect
    a, b, c = (tmp_path / f"{name}.json" for name in "abc")
    for seed, path in ((21, a), (690, b)):
        argv = ["gen", "--semimetric", "--n", "5", "--pool", "1,2,3", "--seed", str(seed), "--out", str(path)]
        assert main(argv) == 0
    c.write_text(space_to_text(renamed_copy(space_from_json(json.loads(b.read_text())), seed=5)[0]))
    capsys.readouterr()
    assert main([command, str(a), str(b)]) == 1
    assert capsys.readouterr().out == ""
    assert main([command, str(b), str(c)]) == 0
    assert json.loads(capsys.readouterr().out)["phi"]


@pytest.mark.parametrize("command, a, b, message", [
    ("isometric", "ultra3", "ultra3_scaled", "spaces are not isometric"),
    ("weaksim", "ultra3", "blocks4", "spaces are not weakly similar"),
    ("hasse-iso", "ultra3", "semi3", "Hasse diagrams are not isomorphic"),
    ("ballpreserving", "ultra3", "semi3", "no ball-preserving bijection exists"),
])
def test_pair_command_negatives(command, a, b, message, paths, tmp_path, capsys):
    out = tmp_path / "out.json"
    for argv in ([command, paths[a], paths[b]], [command, "--out", str(out), paths[a], paths[b]]):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["validate", "ultra3"],
    ["spectrum", "ultra3"],
    ["diametric", "ultra3"],
    ["diametric", "--dot", "semi3"],
    ["tree", "blocks4"],
    ["tree", "--dot", "blocks4"],
    ["tree-iso", "blocks4", "blocks4"],
    ["tree-iso", "--labeled", "ultra3", "ultra3"],
    ["isometric", "blocks4", "blocks4"],
    ["weaksim", "ultra3", "ultra3_scaled"],
    ["classify", "blocks4"],
    ["ballean", "semi3"],
    ["hasse", "semi3"],
    ["hasse", "--dot", "semi3"],
    ["hasse-iso", "semi3", "semi3"],
    ["ballpreserving", "blocks4", "blocks4"],
    ["gen", "--seed", "1", "--n", "6"],
])
def test_stdout_and_out_get_the_same_bytes(argv, paths, tmp_path, capsys):
    out = tmp_path / "out.txt"
    args = [paths.get(a, a) for a in argv]
    assert main(args) == 0
    written = capsys.readouterr().out
    assert written
    assert main([*args, "--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_bytes() == written.encode()


def test_emit_writes_every_piece(tmp_path, capsys):
    # the second batch is all empty pieces, of a run longer than a batch, and
    # the pieces fill their last batch: neither ends the document early or late
    batch = cli._BATCH
    pieces = ["{", *map(str, range(batch - 1)), *[""] * (batch + 1), *map(str, range(batch - 2)), "}"]
    assert len(pieces) == 3 * batch and not any(pieces[batch:2 * batch])
    out = tmp_path / "out.txt"
    cli._emit(iter(pieces), None)
    cli._emit(iter(pieces), str(out))
    assert capsys.readouterr().out == out.read_text() == "".join(pieces)


def test_isometric(paths, capsys):
    assert main(["isometric", paths["ultra3"], paths["ultra3"]]) == 0
    assert json.loads(capsys.readouterr().out)["phi"] == {"p": "p", "q": "q", "r": "r"}

    assert main(["isometric", paths["ultra3"], paths["ultra3_scaled"]]) == 1
    assert "not isometric" in capsys.readouterr().err


def test_weaksim_witness_format(paths, capsys):
    assert main(["weaksim", paths["ultra3"], paths["ultra3_scaled"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "scaling": [["0", "0"], ["1", "10"], ["2", "20"]],
        "phi": {"p": "p", "q": "q", "r": "r"},
    }

    assert main(["weaksim", paths["ultra3"], paths["blocks4"]]) == 1
    assert "not weakly similar" in capsys.readouterr().err


def test_classify(paths, capsys):
    assert main(["classify", paths["blocks4"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["classes"] == ["D", "T"]
    assert doc["internal_labels"] == ["1", "2", "3"]

    assert main(["classify", paths["semi3"]]) == 2


def test_ballean_and_hasse(paths, capsys):
    assert main(["ballean", paths["semi3"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["balls"] == [["a"], ["b"], ["c"], ["a", "b"], ["b", "c"], ["a", "b", "c"]]

    assert main(["hasse", paths["ultra3"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["arcs"] == [[0, 4], [1, 3], [2, 3], [3, 4]]

    assert main(["hasse", "--dot", paths["ultra3"]]) == 0
    assert capsys.readouterr().out.startswith("digraph hasse {")


def test_hasse_iso_and_ballpreserving(paths, capsys):
    assert main(["hasse-iso", paths["ultra3"], paths["ultra3_scaled"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["map"][0] == [["p"], ["p"]]

    assert main(["hasse-iso", paths["ultra3"], paths["semi3"]]) == 1
    capsys.readouterr()

    assert main(["ballpreserving", paths["ultra3"], paths["ultra3_scaled"]]) == 0
    assert json.loads(capsys.readouterr().out)["phi"]["p"] == "p"

    assert main(["ballpreserving", paths["ultra3"], paths["semi3"]]) == 1
    assert "no ball-preserving bijection" in capsys.readouterr().err


GOLDEN = Path(__file__).parent / "golden"


BALLEAN_GOLDEN = [
    (["ballean", "semi4_a.json"], "ballean.out"),
    (["hasse", "semi4_a.json"], "hasse.out"),
    (["hasse", "--dot", "semi4_a.json"], "hasse_dot.out"),
    (["hasse-iso", "semi4_a.json", "semi4_b.json"], "hasse_iso.out"),
    (["ballpreserving", "semi4_a.json", "semi4_b.json"], "ballpreserving.out"),
]
TREE_GOLDEN = [
    (["tree", "--dot", "ultra8_a.json"], "tree_dot.out"),
    (["tree-iso", "ultra8_a.json", "ultra8_b.json"], "tree_iso.out"),
    (["weaksim", "semi4_a.json", "semi4_b.json"], "weaksim.out"),
]


@pytest.mark.parametrize("argv, expected", BALLEAN_GOLDEN)
def test_ballean_commands_output_bytes(argv, expected, capsys):
    # semi4_b is semi4_a renamed, reordered and scaled by 10; its Hasse
    # diagram is not a tree, so the maps come from the backtracking search
    args = [str(GOLDEN / a) if a.endswith(".json") else a for a in argv]
    assert main(args) == 0
    assert capsys.readouterr().out == (GOLDEN / expected).read_text()


@pytest.mark.parametrize("argv, expected", TREE_GOLDEN)
def test_tree_and_weaksim_output_bytes(argv, expected, capsys):
    # ultra8_b is ultra8_a renamed and reordered; the weaksim witness comes
    # from the matching search, since semi4 is not ultrametric
    args = [str(GOLDEN / a) if a.endswith(".json") else a for a in argv]
    assert main(args) == 0
    assert capsys.readouterr().out == (GOLDEN / expected).read_text()


def _chain_doc(path, prefix, order):
    """Binary-chain ultrametric space, d(p_i, p_j) = n - min(i, j), with its
    points listed in ``order``: its representing tree is n - 1 levels deep."""
    n = len(order)
    dist = [["0" if a == b else str(n - min(a, b)) for b in order] for a in order]
    path.write_text(json.dumps({"points": [f"{prefix}{a}" for a in order], "dist": dist}))
    return str(path)


def test_trees_deeper_than_the_recursion_limit(tmp_path, capsys, recursion_headroom):
    n = 300
    order = list(range(n))
    random.Random(5).shuffle(order)
    a = _chain_doc(tmp_path / "a.json", "a", list(range(n)))
    b = _chain_doc(tmp_path / "b.json", "b", order)
    outputs = []
    with recursion_headroom(100):
        for argv in (["tree-iso", a, b], ["tree-iso", "--labeled", a, b], ["tree", "--dot", a]):
            outputs.append((main(argv), capsys.readouterr().out))
    assert [code for code, _ in outputs] == [0, 0, 0]
    shape, labeled = (json.loads(out) for _, out in outputs[:2])
    dot = outputs[2][1]
    assert len(shape["map"]) == len(labeled["map"]) == 2 * n - 1
    deepest = ".".join(["1"] * (n - 2))
    assert labeled["map"][deepest] == deepest
    # the edge to each child is listed once its subtree is done, so the
    # chain's edges run from the bottom up
    assert dot.count(" -> ") == 2 * n - 2
    assert dot.rstrip().splitlines()[-2:] == ["  n0 -> n2;", "}"]


def test_gen_is_deterministic(capsys):
    assert main(["gen", "--seed", "7", "--n", "6"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--seed", "7", "--n", "6"]) == 0
    assert capsys.readouterr().out == first
    doc = json.loads(first)
    assert len(doc["points"]) == 6

    assert main(["gen", "--seed", "1", "--n", "4", "--class", "R"]) == 0
    capsys.readouterr()
    assert main(["gen", "--seed", "1", "--n", "3", "--semimetric", "--pool", "1,3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    values = {v for row in doc["dist"] for v in row}
    assert values <= {"0", "1", "3"}

    assert main(["gen", "--n", "9", "--class", "R"]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_runs_all_suites(capsys):
    assert main(["check", "--trials", "5"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 11
    assert all(" ok " in line for line in out[:-1])
    assert out[-1].startswith("all 10 suites passed")

    assert main(["check", "--trials", "nope"]) == 2
    capsys.readouterr()
    assert main(["check", "--trials", "0"]) == 2
    assert capsys.readouterr() == ("", "error: --trials must be positive\n")


@pytest.mark.parametrize("max_n", [None, "2", "3"])
def test_one_trial_check_passes(max_n, capsys):
    # a one-trial stream may hold no weakly similar pair; the suites then add one
    argv = ["check", "--trials", "1"] + (["--max-n", max_n] if max_n else [])
    assert main(argv) == 0, capsys.readouterr().out
    assert capsys.readouterr().out.splitlines()[-1].startswith("all 10 suites passed")


@pytest.mark.parametrize("max_n", ["0", "-3"])
def test_max_n_below_one_is_an_input_error(max_n, capsys):
    assert main(["check", f"--max-n={max_n}"]) == 2
    assert capsys.readouterr() == ("", "error: --max-n must be positive\n")


@pytest.fixture
def space_sizes(monkeypatch):
    """The point counts of the spaces the suites draw or build, in order."""
    sizes = []

    def recorded(make):
        def call(*args, **kwargs):
            space = make(*args, **kwargs)
            sizes.append(len(space))
            return space

        return call

    for name in ("random_ultrametric", "random_semimetric", "space_from_pairs"):
        monkeypatch.setattr(suites, name, recorded(getattr(suites, name)))
    return sizes


@pytest.mark.parametrize("max_n", [1, 2, 3])
def test_max_n_caps_every_space_the_suites_make(max_n, space_sizes, capsys):
    # every space the suites draw or build has at most --max-n points; a
    # part of a suite whose smallest space does not fit is skipped
    assert main(["check", "--trials", "3", "--max-n", str(max_n)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("all 10 suites passed")
    assert max(space_sizes) == max_n


def test_a_failing_suite_exits_3(monkeypatch, capsys):
    failed = suites.SuiteResult("planted", False, 1, 0.0, ["trial 0: planted failure"])
    monkeypatch.setattr(cli, "run_all", lambda **kwargs: [failed])
    assert main(["check", "--trials", "1"]) == 3
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("planted") and "FAIL" in out[0]
    assert out[-1] == "1 of 1 suites FAILED (1 trials)"


CHECK_GOLDEN = [
    (["--seed", "0"], "check_seed0.out"),
    (["--seed", "1"], "check_seed1.out"),
    (["--seed", "2"], "check_seed2.out"),
    (["--trials", "1", "--max-n", "2"], "check_trials1_maxn2.out"),
    (["--trials", "3", "--max-n", "5"], "check_trials3_maxn5.out"),
]


@pytest.mark.parametrize("argv, expected", CHECK_GOLDEN)
def test_check_reports_match_the_goldens(argv, expected, capsys):
    # every suite's verdict and trial count; the seconds column is masked
    assert main(["check", *argv]) == 0
    out = re.sub(r"trials +[0-9.]+s", "trials", capsys.readouterr().out)
    assert out == (GOLDEN / expected).read_text()


# the largest space each suite makes on seed 0 at its defaults: its point cap
DEFAULT_CAPS = {
    "tree-roundtrip": 12,
    "diametrical-partition": 12,
    "isometry-oracle": 7,
    "weaksim-oracle": 6,
    "chain-shape-witness": 10,
    "fan-shape-witness": 12,
    "weaksim-hasse": 6,
    "ballpreserving-oracle": 6,
    "witness-ballpreserving": 8,
    "hasse-tree-shape": 9,
}


@pytest.mark.parametrize("suite", suites.ALL_SUITES, ids=lambda suite: suite.__name__)
def test_suite_library_call_forms(suite, space_sizes):
    def key(result):
        return result.name, result.passed, result.trials, result.failures

    default = key(suite())
    assert default[1] and max(space_sizes) == DEFAULT_CAPS[default[0]]
    assert key(suite(0, None, None)) == default == key(suite(seed=0, trials=None, max_n=None))
    assert key(suite(5, 3, 4)) == key(suite(seed=5, trials=3, max_n=4))
    assert key(suite(trials=0)) == key(suite(trials=1))  # fewer than one trial is one
    parameters = inspect.signature(suite).parameters.values()
    assert [(p.name, p.default) for p in parameters] == [("seed", 0), ("trials", None), ("max_n", None)]
    assert getattr(suites, suite.__name__) is suite and suite.__qualname__ == suite.__name__


def test_each_suite_keeps_its_own_docstring():
    docs = [suite.__doc__ for suite in suites.ALL_SUITES]
    assert all(docs) and len(set(docs)) == len(docs)


def test_out_flag_writes_file(paths, tmp_path, capsys):
    target = tmp_path / "spectrum-out.json"
    assert main(["spectrum", paths["ultra3"], "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text()) == {"spectrum": ["0", "1", "2"]}


def test_usage_errors(tmp_path, capsys):
    assert main(["spectrum", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["spectrum", str(bad)]) == 2
    assert "invalid JSON" in capsys.readouterr().err

    not_a_space = tmp_path / "wrong.json"
    not_a_space.write_text('{"pts": []}')
    assert main(["spectrum", str(not_a_space)]) == 2
    capsys.readouterr()

    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_overlong_distance_literal_is_an_input_error(tmp_path, capsys):
    doc = tmp_path / "long.json"
    doc.write_text(json.dumps({"points": ["p", "q"], "dist": [["0", "9" * 5000], ["9" * 5000, "0"]]}))
    assert main(["validate", str(doc)]) == 2
    assert capsys.readouterr().err.startswith("error: FormatError")


@pytest.mark.parametrize(
    "data, message",
    [
        (b'{"points": ["p\xff"], "dist": [["0"]]}', "document is not UTF-8 text (invalid start byte at byte 14)"),
        (b'{"points": ["p"], "dist": [[' + b"7" * 5000 + b"]]}", "JSON number too long to read"),
        (b'{"children": [{"point": "a"}, {"point": "b"}], "label": ' + b"7" * 5000 + b"}",
         "JSON number too long to read"),
    ],
    ids=["bad-utf8", "long-number", "long-label"],
)
@pytest.mark.parametrize("command", [["validate"], ["tree-iso"]])
def test_undecodable_documents_are_input_errors(data, message, command, tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_bytes(data)
    argv = [*command, str(doc)] + [str(doc)] * (command == ["tree-iso"])
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: FormatError: {message}\n"


SURROGATE_SPACE = '{"points": ["\\ud800", "q"], "dist": [["0", "1"], ["1", "0"]]}'
SURROGATE_TREE = '{"label": "1", "children": [{"point": "\\ud800"}, {"point": "q"}]}'


@pytest.mark.parametrize("argv", [["tree", "--dot"], ["hasse", "--dot"], ["diametric", "--dot"]])
def test_lone_surrogate_point_names_are_input_errors(argv, tmp_path):
    # valid JSON, but no UTF-8 output can hold the name
    doc = tmp_path / "doc.json"
    doc.write_text(SURROGATE_SPACE)
    run = subprocess.run([sys.executable, "-m", "umtk.cli", *argv, str(doc)], capture_output=True,
                         env=_fresh_env(UMTK_COLOR="never", PYTHONIOENCODING="utf-8"))
    assert run.returncode == 2 and run.stdout == b""
    assert run.stderr == b"error: FormatError: point names must not contain lone surrogates\n"


# a quote, a backslash, a trailing backslash and a newline
DOT_NAMES = ('a"b', "c\\d", "e\\", "f\ng")
# a DOT quoted string: any character but a quote or backslash, or a backslash pair
_DOT_QUOTED = re.compile(r'"((?:[^"\\]|\\.)*)"', re.DOTALL)


@pytest.mark.parametrize("argv", [["tree", "--dot"], ["hasse", "--dot"], ["diametric", "--dot"]])
def test_dot_writers_escape_point_names(argv, tmp_path, capsys):
    a, b, c, d = DOT_NAMES
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"points": DOT_NAMES, "dist": [
        ["0", "1", "2", "2"], ["1", "0", "2", "2"], ["2", "2", "0", "2"], ["2", "2", "2", "0"]]}))
    assert main([*argv, str(doc)]) == 0
    dot = capsys.readouterr().out
    # every quote opens or closes a quoted string
    assert '"' not in _DOT_QUOTED.sub("", dot)
    strings = {re.sub(r"\\(.)", r"\1", text, flags=re.DOTALL) for text in _DOT_QUOTED.findall(dot)}
    expected = {
        "tree": {*DOT_NAMES, "1", "2"},
        "hasse": {"{" + ",".join(ball) + "}" for ball in ([a], [b], [c], [d], sorted([a, b]), sorted(DOT_NAMES))},
        "diametric": set(DOT_NAMES),
    }
    assert strings == expected[argv[0]]


def test_lone_surrogate_leaf_points_are_input_errors(tmp_path, capsys):
    doc = tmp_path / "tree.json"
    doc.write_text(SURROGATE_TREE)
    assert main(["tree-iso", str(doc), str(doc)]) == 2
    assert capsys.readouterr().err == "error: FormatError: point names must not contain lone surrogates\n"


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    doc = tmp_path / "deep.json"
    doc.write_text("[" * 100000)
    assert main(["validate", str(doc)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def _chain_text(levels, leaf_first):
    """A chain tree document of ``levels`` levels, written without json's
    recursion: each level one object and its children list, then the leaf."""
    heads, tails = [], []
    for k in range(levels, 0, -1):
        leaf = f'{{"point": "p{k}"}}'
        heads.append(f'{{"label": "{k}", "children": [' + (f"{leaf}, " if leaf_first else ""))
        tails.append("]}" if leaf_first else f", {leaf}]}}")
    return "".join(heads) + '{"point": "p0"}' + "".join(reversed(tails))


# the umtk calls a command makes through cli: reads, decisions, checks
_COMMAND_CALLS = ("tree_from_json", "space_from_json", "rooted_tree_iso_map", "check_iso_map",
                  "decide_weak_similarity", "ball_preserving_bijection", "hasse_digraph_iso", "run_all")


@pytest.mark.parametrize("collecting", [True, False])
def test_documents_are_read_with_the_collector_paused(collecting, tmp_path, monkeypatch, capsys, ultra3, semi3):
    states = []  # gc.isenabled() at each recorded call

    def recorded(call):
        def wrapper(*args, **kwargs):
            states.append(gc.isenabled())
            return call(*args, **kwargs)
        return wrapper

    for name in _COMMAND_CALLS:
        monkeypatch.setattr(cli, name, recorded(getattr(cli, name)))
    docs = {
        "tree": json.dumps(GOLDEN_A),
        "space": space_to_text(ultra3),
        "semi": space_to_text(semi3),
        "bad_tree": '{"label": "1", "children": []}',
        "bad_space": '{"points": ["p"], "dist": [["1"]]}',
        "not_json": "{",
        "too_deep": _chain_text(5001, True),
    }
    for name, text in docs.items():
        (tmp_path / name).write_text(text)
    cases = [  # argv, exit code, recorded calls
        (["tree-iso", "tree", "tree"], 0, 4),
        (["tree-iso", "space", "space"], 0, 4),
        (["validate", "space"], 0, 1),
        (["weaksim", "space", "space"], 0, 3),
        (["ballpreserving", "space", "space"], 0, 3),
        (["hasse-iso", "space", "space"], 0, 3),
        (["tree-iso", "tree", "space"], 1, 3),
        (["weaksim", "space", "semi"], 1, 3),
        (["tree-iso", "bad_tree", "tree"], 2, 1),
        (["validate", "bad_space"], 2, 1),
        (["tree-iso", "not_json", "tree"], 2, 0),
        (["validate", "not_json"], 2, 0),
        (["tree-iso", "too_deep", "tree"], 2, 0),
        (["check", "--trials", "1", "--max-n", "3"], 0, 1),
    ]
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        for argv, code, calls in cases:
            states.clear()
            args = [tmp_path / name if name in docs else name for name in argv[1:]]
            assert main([argv[0], *map(str, args)]) == code
            assert (states, gc.isenabled()) == ([False] * calls, collecting)
        # a map that fails its re-check exits 3
        monkeypatch.setattr(cli, "check_iso_map", recorded(lambda *args, **kwargs: False))
        states.clear()
        assert main(["tree-iso", str(tmp_path / "tree"), str(tmp_path / "tree")]) == 3
        assert (states, gc.isenabled()) == ([False] * 4, collecting)
    finally:
        (gc.enable if was else gc.disable)()
    err = capsys.readouterr().err
    assert "error: FormatError: JSON nested too deeply" in err
    assert "error: VerificationFailed: tree isomorphism failed re-check" in err


# Runs its arguments after the first as a child, and writes the child's peak
# RSS in kB (Linux), read through os.wait4, to the file the first names. A
# child starts from the memory of the process that spawns it, so its peak
# counts that process's high-water mark: the test process, large after other
# tests, spawns this small one to spawn umtk.
_PEAK_OF_CHILD = (
    "import os, subprocess, sys; child = subprocess.Popen(sys.argv[2:]); "
    "_, status, usage = os.wait4(child.pid, 0); child.returncode = os.waitstatus_to_exitcode(status); "
    "open(sys.argv[1], 'w').write(str(usage.ru_maxrss)); sys.exit(child.returncode)"
)


def _measured_run(argv, peak_file, timeout):
    """(exit code, stdout, stderr, peak RSS in MB) of ``python -m umtk.cli argv``."""
    done = subprocess.run([sys.executable, "-c", _PEAK_OF_CHILD, str(peak_file), sys.executable, "-m", "umtk.cli", *argv],
                          capture_output=True, text=True, env=_fresh_env(UMTK_COLOR="never"), timeout=timeout)
    return done.returncode, done.stdout, done.stderr, int(peak_file.read_text()) / 1024


# The 5 000-level pair's output is about 10^8 characters. Writing the map in
# slices of pairs peaks near 160 MB; one string of the whole document took
# about 315 MB.
DEPTH_BOUND_PEAK_MB = 250


def test_tree_documents_up_to_the_depth_bound(tmp_path):
    # the stated bound: a 5 000-level tree, MAX_NESTING arrays and objects
    levels = 5000
    for depth, code, err in ((levels, 0, ""), (levels + 1, 2, "error: FormatError: JSON nested too deeply\n")):
        a, b, out = (tmp_path / f"{name}{depth}.json" for name in "abo")
        a.write_text(_chain_text(depth, True))
        b.write_text(_chain_text(depth, False))
        done = _measured_run(["tree-iso", "--labeled", "--out", str(out), str(a), str(b)], tmp_path / "peak", timeout=120)
        assert done[:3] == (code, "", err)
        assert out.exists() == (code == 0)
        if code == 0:
            assert done[3] < DEPTH_BOUND_PEAK_MB
    head = '{\n  "isomorphic": true,\n  "labeled": true,\n  "map": {\n    "": "",\n'
    with open(tmp_path / f"o{levels}.json") as handle:
        assert handle.read(len(head)) == head
    (tmp_path / f"o{levels}.json").unlink()  # about 10^8 characters: one dotted path per node
    assert cli.MAX_NESTING == 2 * levels + 1


# Documents far larger than the space they describe go out in batches of
# pieces. The ballean of the n = 256 semimetric space of `umtk gen --seed 1
# --semimetric --pool 1,…,60` is 26 MB of JSON: written in batches the command
# peaks near 53 MB, and with the document held as one string near 212 MB.
# `umtk gen --seed 1 --n 2048 --pool 1,…,60` writes 50 MB: about 85 MB in
# batches, 422 MB as one string. Each bound leaves twice the batched peak,
# or more, for other hosts and interpreters.
BALLEAN_PEAK_MB = 120
GEN_PEAK_MB = 200
POOL_1_60 = ",".join(map(str, range(1, 61)))


def test_ballean_writes_in_bounded_memory(tmp_path):
    space, out = tmp_path / "semi.json", tmp_path / "balls.json"
    assert main(["gen", "--seed", "1", "--n", "256", "--semimetric", "--pool", POOL_1_60, "--out", str(space)]) == 0
    done = _measured_run(["ballean", "--out", str(out), str(space)], tmp_path / "peak", timeout=120)
    assert done[:3] == (0, "", "")
    assert done[3] < BALLEAN_PEAK_MB
    head = '{\n  "balls": [\n'
    with open(out) as handle:
        assert handle.read(len(head)) == head
    out.unlink()  # 26 MB


def test_gen_writes_in_bounded_memory(tmp_path):
    out = tmp_path / "space.json"
    done = _measured_run(["gen", "--seed", "1", "--n", "2048", "--pool", POOL_1_60, "--out", str(out)],
                         tmp_path / "peak", timeout=120)
    assert done[:3] == (0, "", "")
    assert done[3] < GEN_PEAK_MB
    head = '{\n  "points": [\n'
    with open(out) as handle:
        assert handle.read(len(head)) == head
    out.unlink()  # 50 MB


def _c_depth_limit(text):
    """``json.loads`` where its C decoder stops short of every document."""
    raise RecursionError("maximum recursion depth exceeded while decoding a JSON array from a unicode string")


def test_the_forced_pure_python_retry_writes_the_same_bytes(tmp_path, monkeypatch, capsys):
    # with json.loads failing at any depth, every document takes the
    # pure-Python retry, as deep ones do from 3.12 on
    levels = 1500
    a, b, long = (tmp_path / f"{name}.json" for name in ("a", "b", "long"))
    a.write_text(_chain_text(levels, True))
    b.write_text(_chain_text(levels, False))
    long.write_text(_chain_text(levels, True).replace('"p0"', "7" * 5000))  # past the int digit limit
    scanners, make_scanner = [], cli._py_make_scanner  # one scanner per document the retry reads
    monkeypatch.setattr(cli, "_py_make_scanner", lambda decoder: scanners.append(decoder) or make_scanner(decoder))
    outputs = []
    for forced in (False, True):
        with monkeypatch.context() as patch:
            if forced:
                patch.setattr(json, "loads", _c_depth_limit)
                scanners.clear()
            out = tmp_path / f"out_{forced}.json"
            assert main(["tree-iso", "--labeled", "--out", str(out), str(a), str(b)]) == 0
            assert main(["tree-iso", str(long), str(a)]) == 2
        outputs.append(out.read_bytes())
        assert capsys.readouterr() == ("", "error: FormatError: JSON number too long to read\n")
    assert len(scanners) == 3  # a, b and long
    assert outputs[0] == outputs[1]


def test_deep_documents_are_read_in_the_calling_thread(tmp_path, monkeypatch, capsys):
    def no_thread(thread):
        raise AssertionError(f"started {thread!r}")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    docs = {
        "a": _chain_text(1500, True),
        "b": _chain_text(1500, False),
        "too_deep": _chain_text(5001, True),
        "not_json": "[" * cli.MAX_NESTING,  # past the C decoder's depth on every Python
    }
    for name, text in docs.items():
        (tmp_path / name).write_text(text)
    cases = [  # argv, exit code, stderr
        (["tree-iso", "--labeled", "a", "b"], 0, ""),
        (["tree-iso", "too_deep", "a"], 2, "error: FormatError: JSON nested too deeply\n"),
        (["validate", "not_json"], 2, f"error: invalid JSON: Expecting value: line 1 column {cli.MAX_NESTING + 1} "
                                      f"(char {cli.MAX_NESTING})\n"),
    ]
    limit = sys.getrecursionlimit()
    for argv, code, err in cases:
        assert main([argv[0], *(str(tmp_path / name) if name in docs else name for name in argv[1:])]) == code
        assert (capsys.readouterr().err, sys.getrecursionlimit()) == (err, limit)


@pytest.fixture
def too_deep_once(monkeypatch):
    """Make the next ``json.loads`` fail for depth, as it does past the
    recursion limit, and the ones after it decode."""
    loads, calls = json.loads, []

    def first_too_deep(text, **kwargs):
        calls.append(text)
        if len(calls) == 1:
            raise RecursionError("maximum recursion depth exceeded while decoding a JSON object from a unicode string")
        return loads(text, **kwargs)

    monkeypatch.setattr(json, "loads", first_too_deep)


@pytest.mark.parametrize("levels", [700, 3000])
def test_a_bracket_count_within_the_bound_skips_the_nesting_scan(levels, monkeypatch, too_deep_once):
    # a chain of k levels holds 3k + 1 brackets, within MAX_NESTING up to 3 333 levels
    def no_scan(text):
        raise AssertionError("_nesting ran")

    monkeypatch.setattr(cli, "_nesting", no_scan)
    text = _chain_text(levels, True)
    assert text.count("[") + text.count("{") == 3 * levels + 1 <= cli.MAX_NESTING
    assert oracle.same_json(cli._loads(text), oracle.chain_doc(levels, True))


def test_brackets_inside_point_names_are_left_to_the_nesting_scan(monkeypatch, too_deep_once):
    # 601 names of 18 brackets each pass MAX_NESTING alone; the nesting,
    # 1 201, is within it
    scanned, nesting = [], cli._nesting
    monkeypatch.setattr(cli, "_nesting", lambda text: scanned.append(nesting(text)) or scanned[-1])
    prefix = "[{" * 9
    text = _chain_text(600, True).replace('"point": "p', f'"point": "{prefix}p')
    assert 601 * len(prefix) > cli.MAX_NESTING
    value = oracle.chain_doc(600, True)
    stack = [value]
    while stack:
        node = stack.pop()
        if "point" in node:
            node["point"] = prefix + node["point"]
        else:
            stack += node["children"]
    assert oracle.same_json(cli._loads(text), value)
    assert scanned == [2 * 600 + 1]


@pytest.mark.parametrize(
    "exc, code, prefix",
    [
        (RecursionError("maximum recursion depth exceeded"), 2, "error: input too deep to process"),
        (KeyError("p"), 3, "error: internal error: KeyError: 'p'"),
    ],
)
def test_escaped_exceptions_get_an_exit_code(paths, monkeypatch, capsys, exc, code, prefix):
    def broken(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_spectrum", broken)
    assert main(["spectrum", paths["ultra3"]]) == code
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(prefix)
    assert "Traceback" not in out.err


# `umtk spectrum` with its document missing, as the parser has always
# reported it
MISSING_SPACE_USAGE = (
    "usage: umtk spectrum [-h] [--out OUT] space\n"
    "umtk spectrum: error: the following arguments are required: space\n"
)


def _fresh_env(**extra):
    """The environment of a fresh ``python -m umtk.cli`` that imports this
    checkout's umtk."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def test_repeated_calls_in_one_process_match_fresh_processes(tmp_path, monkeypatch, capsys):
    # main reuses one parser for the life of the process: no call may see
    # flags, defaults or output left by an earlier one
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps alike on both sides
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(GOLDEN_A))
    b.write_text(json.dumps(GOLDEN_B))
    ultra, semi_a, semi_b = (str(GOLDEN / name) for name in ("ultra8_a.json", "semi4_a.json", "semi4_b.json"))
    calls = [
        ["spectrum"],
        ["--help"],
        ["tree-iso", "--labeled", str(a), str(b)],
        ["tree-iso", str(a), str(b)],
        ["tree", "--dot", ultra],
        ["tree", ultra],
        ["weaksim", semi_a, semi_b],
    ]
    in_process = []
    for argv in calls:
        code = main(argv)
        out = capsys.readouterr()
        in_process.append((code, out.out, out.err))
    env = _fresh_env()
    fresh = []
    for argv in calls:
        done = subprocess.run(
            [sys.executable, "-m", "umtk.cli", *argv], capture_output=True, text=True, env=env, timeout=60
        )
        fresh.append((done.returncode, done.stdout, done.stderr))
    assert in_process == fresh
    assert in_process[0] == (2, "", MISSING_SPACE_USAGE)
    assert [code for code, _, _ in in_process] == [2, 0, 0, 0, 0, 0, 0]
    assert in_process[2][1] == GOLDEN_LABELED_MAP and in_process[3][1] == GOLDEN_SHAPE_MAP
    assert in_process[4][1] == (GOLDEN / "tree_dot.out").read_text()
    assert in_process[6][1] == (GOLDEN / "weaksim.out").read_text()


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(GOLDEN_A))
    b.write_text(json.dumps(GOLDEN_B))
    commands = [
        ([str(GOLDEN / x) if x.endswith(".json") else x for x in argv], (GOLDEN / expected).read_text())
        for argv, expected in BALLEAN_GOLDEN + TREE_GOLDEN
    ]
    commands += [
        (["tree-iso", str(a), str(b)], GOLDEN_SHAPE_MAP),
        (["tree-iso", "--labeled", str(a), str(b)], GOLDEN_LABELED_MAP),
    ]
    expected = {tuple(argv): (0, out, "") for argv, out in commands}
    # the reader's set of distinct literals iterates in hash order: a bad
    # document still reports its first bad entry in row-major order
    rows = [["0", "1/0", "2"], ["x", "0", "0"], ["2", "0", "0"]]
    for name, entry in (("bad.json", "0"), ("unhashable.json", [1])):
        rows[1][1] = entry
        (tmp_path / name).write_text(json.dumps({"points": ["p", "q", "r"], "dist": rows}))
        expected["validate", str(tmp_path / name)] = (2, "", "error: FormatError: zero denominator in '1/0'\n")
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"points": ["p"], "dist": [["0"]]}))
    one_point = [("validate", str(one)), ("weaksim", str(one), str(one)), ("ballean", str(one))]
    results = {}
    for seed in ("0", "1"):
        env = _fresh_env(PYTHONHASHSEED=seed)
        for argv in [*expected, *one_point]:
            done = subprocess.run(
                [sys.executable, "-m", "umtk.cli", *argv], capture_output=True, text=True, env=env, timeout=60
            )
            result = results.setdefault(argv, (done.returncode, done.stdout, done.stderr))
            assert (done.returncode, done.stdout, done.stderr) == expected.get(argv, result), (seed, argv)
    assert all(results[argv][0::2] == (0, "") for argv in one_point)


def test_gen_and_validate_a_deep_binary_chain(tmp_path, capsys, recursion_headroom):
    # a strictly binary chain of 1500 points: its tree is 1499 levels deep
    pool = ",".join(str(k) for k in range(1, 1600))
    out = tmp_path / "chain.json"
    with recursion_headroom(100):
        code = main(["gen", "--seed", "1", "--n", "1500", "--class", "R", "--pool", pool, "--out", str(out)])
        assert (code, capsys.readouterr().err) == (0, "")
        assert main(["validate", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["points"] == 1500 and doc["ultrametric"] is True
