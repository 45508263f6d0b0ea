"""The tree-document path against its recursive reference (tree_oracle):
decoding, validation and the isomorphism re-check give the same errors,
trees and verdicts, and none of them recurses."""
import contextlib
import io
import json
import random
import tracemalloc
from fractions import Fraction as F

import pytest

import tree_oracle as oracle
from tree_oracle import leaf
from umtk import GenConfig, build_tree, random_relabeled, random_ultrametric
from umtk.cli import _loads, main
from umtk.errors import FormatError, InvalidTreeError
from umtk.reptree import (
    RepNode,
    RepTree,
    tree_from_json,
    tree_to_dot,
    tree_to_text,
    validate_tree,
)
from umtk.spaces import rank_values, space_from_json
from umtk.treecanon import (
    canon_code_labeled,
    canon_code_unlabeled,
    check_iso_map,
    rooted_tree_iso_map,
)

# label literals by tree level, largest at the root; equal values in two
# spellings ("1/2" and "2/4") appear on one level
LEVELS = [["5", "10/2"], ["3", "7/3"], ["2", "3/2", "6/4"], ["1", "1/2", "2/4"]]
BAD_LABELS = ["x", "1.5", "1/0", " 2", "", "7" * 5000, 2, None, [1], {"a": "1"}, True]
BAD_NODES = [42, "x", [], None, [{"point": "p"}]]


def _random_doc(rng, level, names):
    """A tree document whose labels mostly, not always, decrease downwards."""
    if level == len(LEVELS) or rng.random() < 0.3:
        return {"point": next(names)}
    kids = [_random_doc(rng, level + 1, names) for _ in range(rng.randint(2, 4))]
    doc = {"children": kids}
    if rng.random() < 0.95:
        doc["label"] = rng.choice(LEVELS[level] if rng.random() < 0.95 else rng.choice(LEVELS))
    return doc


def _objects(doc):
    """Every dict of a document in preorder, with its parent's children list."""
    found, stack = [], [(doc, None)]
    while stack:
        obj, siblings = stack.pop()
        if isinstance(obj, dict):
            found.append((obj, siblings))
            kids = obj.get("children")
            if isinstance(kids, list):
                stack.extend((k, kids) for k in reversed(kids))
    return found


def _plant(rng, doc):
    """One defect of a random kind at a random node."""
    objects = _objects(doc)
    obj, siblings = rng.choice(objects)
    leaves = [o for o, _ in objects if "point" in o]
    inner = [o for o, _ in objects if "children" in o]
    kind = rng.choice(
        ["node", "leaf_extra", "point_type", "no_children", "children_type", "label",
         "duplicate", "single_child", "no_label", "nonpositive", "order"]
    )
    if kind == "node" and siblings is not None:
        siblings[siblings.index(obj)] = rng.choice(BAD_NODES)
    elif kind == "leaf_extra" and leaves:
        rng.choice(leaves)[rng.choice(["children", "label"])] = rng.choice(["1", []])
    elif kind == "point_type" and leaves:
        rng.choice(leaves)["point"] = rng.choice([3, None, ["p"]])
    elif kind == "no_children" and inner:
        del rng.choice(inner)["children"]
    elif kind == "children_type" and inner:
        rng.choice(inner)["children"] = rng.choice([{}, "x", [], 5])
    elif kind == "label" and inner:
        rng.choice(inner)["label"] = rng.choice(BAD_LABELS)
    elif kind == "duplicate" and len(leaves) > 1:
        a, b = rng.sample(leaves, 2)
        a["point"] = b.get("point")
    elif kind == "single_child" and inner:
        node = rng.choice(inner)
        if isinstance(node.get("children"), list):
            del node["children"][1:]
    elif kind == "no_label" and inner:
        rng.choice(inner).pop("label", None)
    elif kind == "nonpositive" and inner:
        rng.choice(inner)["label"] = rng.choice(["0", "-1", "0/3"])
    elif kind == "order" and inner:
        node = rng.choice(inner)
        kids = node.get("children")
        if isinstance(kids, list) and "label" in node:
            for kid in kids:
                if isinstance(kid, dict) and "children" in kid:
                    kid["label"] = node["label"]  # equal, so not strictly smaller


def _error(exc):
    return (type(exc).__name__, str(exc))


def _outcome(decode, validate, doc):
    """What a decoder and a validator make of a document: the first error,
    or the decoded tree (as DOT text and codes) and the labeled verdict."""
    try:
        tree = decode(doc)
    except (FormatError, InvalidTreeError) as exc:
        return _error(exc)
    shape = (tree_to_dot(tree), canon_code_unlabeled(tree), tree.leaf_points())
    try:
        validate(tree, labeled=True)
    except InvalidTreeError as exc:
        return shape + (_error(exc),)
    return shape + (canon_code_labeled(tree),)


def _kind(outcome):
    if len(outcome) == 2:
        return outcome[0]
    return "labels invalid" if isinstance(outcome[-1], tuple) else "valid"


def test_random_documents_decode_and_validate_like_the_reference():
    kinds = set()
    for seed in range(400):
        rng = random.Random(seed)
        doc = _random_doc(rng, rng.randint(0, 3), (f"p{k}" for k in range(10**6)))
        for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
            _plant(rng, doc)
        want = _outcome(oracle.tree_from_json, oracle.validate_tree, doc)
        assert _outcome(tree_from_json, validate_tree, doc) == want, seed
        kinds.add(_kind(want))
    assert kinds == {"FormatError", "InvalidTreeError", "labels invalid", "valid"}


def _labeled_reference(doc):
    """The structural decode, then a labeled validation of its tree."""
    tree = oracle.tree_from_json(doc)
    oracle.validate_tree(tree, labeled=True)
    return tree


def _labeled_outcome(decode, doc):
    try:
        tree = decode(doc)
    except (FormatError, InvalidTreeError) as exc:
        return _error(exc)
    return tree_to_dot(tree), canon_code_labeled(tree)


def test_labeled_decoding_matches_decode_then_validate():
    kinds = set()
    for seed in range(400):
        rng = random.Random(seed)
        doc = _random_doc(rng, rng.randint(0, 3), (f"p{k}" for k in range(10**6)))
        for _ in range(rng.choice([0, 1, 1, 2, 3])):
            _plant(rng, doc)
        want = _labeled_outcome(_labeled_reference, doc)
        assert _labeled_outcome(lambda d: tree_from_json(d, labeled=True), doc) == want, seed
        kinds.add("valid" if isinstance(want[1], bytes) else want[0])
    assert kinds == {"FormatError", "InvalidTreeError", "valid"}


@pytest.mark.parametrize(
    "doc, message",
    [
        # a label defect at the root, a duplicate leaf further down
        ({"label": "1", "children": [{"label": "2", "children": [{"point": "u"}, {"point": "v"}]},
                                     {"point": "u"}]}, "duplicate leaf point 'u'"),
        # an unlabeled root, a single-child node further down
        ({"children": [{"point": "u"}, {"label": "1", "children": [{"point": "v"}]}]},
         "internal node with fewer than 2 children"),
    ],
)
def test_labeled_tree_iso_reports_structure_before_labels(tmp_path, capsys, doc, message):
    with pytest.raises(InvalidTreeError, match=message):
        _labeled_reference(doc)
    with pytest.raises(InvalidTreeError, match=message):
        tree_from_json(doc, labeled=True)
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    assert main(["tree-iso", "--labeled", str(path), str(path)]) == 2
    assert capsys.readouterr().err.endswith(f"InvalidTreeError: {message}\n")


@pytest.mark.parametrize(
    "doc",
    [
        # an invalid tree early in preorder, a format error later
        {"children": [{"point": "u"}, {"point": "u"}, {"children": 5}]},
        {"children": [{"children": [{"point": "u"}]}, {"point": "v", "label": "1"}]},
        {"label": "1", "children": [{"point": "u"}, {"label": "1", "children": [{"point": "v"}]},
                                    {"label": "x", "children": [{"point": "w"}]}]},
        {"children": [{"point": "a"}, {"point": "a"}, {"label": [1], "children": []}]},
        # a format error deep down, an invalid tree afterwards
        {"children": [{"children": [{"point": "a"}, {"point": 1}]}, {"point": "a"}]},
        # the first of two format errors in preorder wins
        {"children": [{"label": "1/0", "children": [{"point": "a"}]}, 7]},
        {"children": [{"point": "a", "children": []}, {"label": "x"}]},
        # a node's own structure comes before its label, which is never read
        {"label": "x", "children": []},
        {"label": "x"},
        {"children": [{"point": "u", "label": "x"}, {"point": "v"}]},
    ],
)
def test_format_errors_come_before_invalid_trees(doc):
    with pytest.raises(Exception) as want:
        oracle.tree_from_json(doc)
    assert type(want.value) is FormatError
    with pytest.raises(FormatError) as got:
        tree_from_json(doc)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("label", BAD_LABELS)
def test_bad_labels_are_reported_like_the_reference(label):
    doc = {"label": label, "children": [{"point": "u"}, {"point": "v"}]}
    with pytest.raises(FormatError) as want:
        oracle.tree_from_json(doc)
    with pytest.raises(FormatError) as got:
        tree_from_json(doc)
    assert str(got.value) == str(want.value)


# The walk stops at its first structural defect, and the labels it read
# before it are ranked first: whichever comes first in preorder is reported.
PRECEDENCE_LABELS = {
    "x": "not a rational literal: 'x'",
    None: "rational literal must be a string, got NoneType",
    5: "rational literal must be a string, got int",
    "1/0": "zero denominator in '1/0'",
}


def _precedence_docs(label):
    """A bad label ahead of a non-object child, and behind one."""
    inner = {"label": label, "children": [{"point": "v"}, {"point": "w"}]}
    return (
        ({"label": "2", "children": [inner, {"point": "u"}, 7]}, PRECEDENCE_LABELS[label]),
        ({"label": "2", "children": [{"point": "u"}, 7, inner]}, "tree node must be a JSON object"),
    )


@pytest.mark.parametrize("label", list(PRECEDENCE_LABELS))
@pytest.mark.parametrize("labeled", [False, True])
def test_the_first_of_a_bad_label_and_a_non_object_child_is_reported(label, labeled):
    for doc, message in _precedence_docs(label):
        with pytest.raises(FormatError) as want:
            oracle.tree_from_json(doc)
        assert str(want.value) == message
        with pytest.raises(FormatError) as got:
            tree_from_json(doc, labeled=labeled)
        assert str(got.value) == message


@pytest.mark.parametrize("label", list(PRECEDENCE_LABELS))
def test_tree_iso_reports_the_first_of_a_bad_label_and_a_non_object_child(tmp_path, capsys, label):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"children": [{"point": "u"}, {"point": "v"}]}))
    for doc, message in _precedence_docs(label):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        for argv in (["--labeled", str(path), str(good)], [str(good), str(path)]):
            assert main(["tree-iso", *argv]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.endswith(f"FormatError: {message}\n")


def test_equal_values_in_different_literals():
    def doc(top, low):
        return {"label": top, "children": [
            {"point": "u"}, {"label": low, "children": [{"point": "v"}, {"point": "w"}]}]}

    a, b = tree_from_json(doc("1", "1/2")), tree_from_json(doc("1", "2/4"))
    assert canon_code_labeled(a) == canon_code_labeled(b)
    assert "".join(tree_to_text(b)) == "".join(tree_to_text(a))
    psi = rooted_tree_iso_map(a, b, respect_labels=True)
    assert check_iso_map(a, b, psi, respect_labels=True)
    # "2/4" under "1/2" is not strictly smaller
    bad = tree_from_json(doc("1/2", "2/4"))
    for validate in (validate_tree, oracle.validate_tree):
        with pytest.raises(InvalidTreeError, match="strictly smaller"):
            validate(bad, labeled=True)


def test_value_distinct_labels_stay_distinct(tmp_path):
    # labels are ranks into each tree's spectrum: 1 < 2 and 1 < 3 have equal
    # ranks, so only the spectra tell these trees apart
    def doc(top, low):
        return {"label": top, "children": [
            {"point": "u"}, {"label": low, "children": [{"point": "v"}, {"point": "w"}]}]}

    def tree_iso(*args):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(["tree-iso", *args])

    for (top1, low1), (top2, low2), labeled_rc in (
        (("2", "1"), ("3", "1"), 1),
        (("1", "1/2"), ("1", "2/4"), 0),
    ):
        a, b = doc(top1, low1), doc(top2, low2)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(a))
        pb.write_text(json.dumps(b))
        assert tree_iso("--labeled", str(pa), str(pb)) == labeled_rc
        assert tree_iso(str(pa), str(pb)) == 0
        ta, tb = tree_from_json(a, labeled=True), tree_from_json(b, labeled=True)
        identity = list(range(len(ta)))
        assert ta.labels == tb.labels
        assert check_iso_map(ta, tb, identity) is True
        assert check_iso_map(ta, tb, identity, respect_labels=True) is (labeled_rc == 0)


@pytest.mark.parametrize(
    "root",
    [
        RepNode(3, (leaf("u"), RepNode(2, (leaf("v"), leaf("w"))))),
        RepNode(F(2), (leaf("u"), RepNode(2, (leaf("v"), leaf("w"))))),  # 2 == F(2)
        RepNode(None, (leaf("u"), RepNode(1, (leaf("v"), leaf("w"))))),
        RepNode(2, (leaf("u"), RepNode(None, (leaf("v"), leaf("w"))))),
        RepNode(2, (RepNode(0, (), "u"), RepNode(1, (), "v"))),  # int leaf labels
        RepNode(2, (RepNode(None, (), "u"), leaf("v"))),
        RepNode(0, (leaf("u"), leaf("v"))),
        RepNode(-1, (leaf("u"), leaf("v"))),
        RepNode(2, (leaf("u"),)),
        RepNode(2, (leaf("u"), RepNode(1, (leaf("v"), leaf("w")), "x"))),
        RepNode(2, (leaf("u"), RepNode(None, (), None))),
        RepNode(F(1, 2), (leaf("u"), leaf("u"))),
    ],
)
def test_hand_built_trees_validate_like_the_reference(root):
    tree = oracle.tree_of(root)
    for labeled in (False, True):
        want = got = None
        try:  # the structural pass, then the labeled one, as _labeled_reference
            oracle.validate_tree(tree, False)
            if labeled:
                oracle.validate_tree(tree, True)
        except InvalidTreeError as exc:
            want = str(exc)
        try:
            validate_tree(tree, labeled)
        except InvalidTreeError as exc:
            got = str(exc)
        assert got == want


def _pairs():
    for seed in range(30):
        x = random_ultrametric(GenConfig(seed=seed, n=3 + seed % 9))
        yield build_tree(x), build_tree(random_relabeled(x, seed + 7))


def _values(tree):
    """Each position's label value."""
    return [tree.spectrum[rank] for rank in tree.labels]


def _copy(tree, relabel=None):
    """A position-for-position copy of a tree and the map onto it;
    ``relabel`` maps an original position to its copy's label value."""
    n = len(tree)
    values = _values(tree) if relabel is None else [relabel(v) for v in range(n)]
    spectrum, labels = rank_values(values)
    copy = RepTree(labels, list(tree.points), [list(kids) for kids in tree.children], spectrum)
    return copy, list(range(n))


def _as_nodes(t1, t2, psi):
    """The node map the reference re-checks for a position map."""
    nodes1, nodes2 = t1.nodes(), t2.nodes()
    return {nodes1[v]: nodes2[w] for v, w in enumerate(psi)}


def test_check_agrees_with_the_reference_on_true_maps_and_mutations():
    seen = 0
    for t1, t2 in _pairs():
        psi = rooted_tree_iso_map(t1, t2)
        for labeled in (False, True):
            want = oracle.check_iso_map(t1, t2, _as_nodes(t1, t2, psi), labeled)
            assert check_iso_map(t1, t2, psi, labeled) == want
        assert check_iso_map(t1, t2, psi)

        parent = {c: v for v, kids in enumerate(t1.children) for c in kids}
        leaves = [v for v, kids in enumerate(t1.children) if not kids]
        mutants = []
        far = [b for b in leaves if parent[b] != parent[leaves[0]]]
        if far:  # a leaf swapped across parents
            swapped = list(psi)
            swapped[leaves[0]], swapped[far[0]] = psi[far[0]], psi[leaves[0]]
            mutants.append(swapped)
        doubled = list(psi)  # not a bijection
        doubled[leaves[1]] = psi[leaves[0]]
        mutants.append(doubled)
        rootless = list(psi)  # root not mapped to root
        child = t1.children[0][0]
        rootless[0], rootless[child] = psi[child], psi[0]
        mutants.append(rootless)
        # the last position in preorder is the last leaf: its entry goes
        assert leaves[-1] == len(psi) - 1
        mutants.append(psi[:-1])
        for bad in mutants:
            assert not oracle.check_iso_map(t1, t2, _as_nodes(t1, t2, bad))
            assert not check_iso_map(t1, t2, bad)
            seen += 1
    assert seen > 100


def test_one_label_off_fails_only_the_labeled_check():
    for t1, _ in _pairs():
        labels = _values(t1)
        inner = [v for v, kids in enumerate(t1.children) if kids]
        off = inner[len(inner) // 2]
        same, psi = _copy(t1, lambda v: int(labels[v]) if labels[v].denominator == 1 else labels[v])
        assert check_iso_map(t1, same, psi, True)
        assert oracle.check_iso_map(t1, same, _as_nodes(t1, same, psi), True)
        moved, psi = _copy(t1, lambda v: labels[v] + F(1, 7) if v == off else labels[v])
        nodes = _as_nodes(t1, moved, psi)
        assert check_iso_map(t1, moved, psi, False) and oracle.check_iso_map(t1, moved, nodes, False)
        assert not check_iso_map(t1, moved, psi, True)
        assert not oracle.check_iso_map(t1, moved, nodes, True)


def test_labels_traded_on_one_spectrum_fail_only_the_labeled_check():
    # two internal nodes trade labels: the spectrum and the shape stay, so
    # only the label comparison can refuse the identity map
    seen = 0
    for t1, _ in _pairs():
        inner = [v for v, kids in enumerate(t1.children) if kids]
        pair = next(((u, v) for u in inner for v in inner if t1.labels[u] < t1.labels[v]), None)
        if pair is None:
            continue
        u, v = pair
        labels = list(t1.labels)
        labels[u], labels[v] = labels[v], labels[u]
        traded = RepTree(labels, list(t1.points), [list(kids) for kids in t1.children], t1.spectrum)
        psi = list(range(len(t1)))
        nodes = _as_nodes(t1, traded, psi)
        assert check_iso_map(t1, traded, psi, False) and oracle.check_iso_map(t1, traded, nodes, False)
        assert not check_iso_map(t1, traded, psi, True)
        assert not oracle.check_iso_map(t1, traded, nodes, True)
        seen += 1
    assert seen >= 20


def test_labeled_codes_need_a_label_on_every_node():
    # an internal node without a label, as an unlabeled document may have,
    # and a leaf without one, which only a hand-built tree can have
    bare = tree_from_json({"label": "2", "children": [{"children": [{"point": "a"}, {"point": "b"}]},
                                                      {"point": "c"}]}, labeled=False)
    assert bare.labels[1] is None
    leafless = RepTree([1, None, 0], [None, "a", "b"], [[1, 2], [], []], (F(0), F(1)))
    for tree, shape in ((bare, b"((()())())"), (leafless, b"(()())")):
        with pytest.raises(InvalidTreeError, match="^labeled code requested on an unlabeled node$"):
            canon_code_labeled(tree)
        assert canon_code_unlabeled(tree) == shape


def test_ten_thousand_levels_without_recursion(recursion_headroom):
    d1, d2 = oracle.chain_doc(10_000, True), oracle.chain_doc(10_000, False)
    with recursion_headroom(40):
        t1, t2 = tree_from_json(d1), tree_from_json(d2)
        validate_tree(t1, labeled=True)
        psi = rooted_tree_iso_map(t1, t2, respect_labels=True)
        assert check_iso_map(t1, t2, psi, respect_labels=True)
        # the text is 1.6 G characters: its pieces are counted, never joined
        points = sum(piece.count('"point"') for piece in tree_to_text(t1))
    assert len(psi) == 20_001
    assert points == 10_001


def _text_trees():
    for seed in range(40):
        space = random_ultrametric(GenConfig(seed=seed, n=1 + seed % 12))
        yield build_tree(space)
    yield tree_from_json({"children": [{"point": "ü"}, {"children": [{"point": 'a"b'}, {"point": "c"}]}]})
    yield oracle.tree_of(leaf("solo"))
    yield oracle.tree_of(RepNode(F(3, 2), (leaf("u"), RepNode(None, (), None))))


def test_text_writer_matches_json_dumps():
    for tree in _text_trees():
        assert "".join(tree_to_text(tree)) == json.dumps(oracle.tree_to_json(tree), indent=2) + "\n"


def test_text_of_a_deep_chain_keeps_little_pending():
    # inner child first: each of the 3 000 open levels has a separator and a
    # closing piece pending, which wait as indent widths; held as strings
    # carrying their indents, they would take about 70 MB
    tree = tree_from_json(oracle.chain_doc(3000, False))
    tracemalloc.start()
    try:
        size = sum(map(len, tree_to_text(tree)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size == 144_222_806
    assert peak < 10 * 2**20


def test_tree_prints_a_deep_chain(tmp_path):
    n = 1100
    rows = [["0" if a == b else str(n - min(a, b)) for b in range(n)] for a in range(n)]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"points": [f"p{k}" for k in range(n)], "dist": rows}))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(["tree", str(path)]) == 0
    assert err.getvalue() == ""
    text = out.getvalue()
    assert text.startswith('{\n  "label": "1100",\n  "children": [\n')
    assert text.count('"point"') == n and text.endswith("}\n")


def test_tree_to_json_of_a_deep_chain(recursion_headroom):
    n = 1100
    rows = [["0" if a == b else str(n - min(a, b)) for b in range(n)] for a in range(n)]
    doc = {"points": [f"p{k}" for k in range(n)], "dist": rows}
    with recursion_headroom(40):
        tree = build_tree(space_from_json(doc))
        encoded = oracle.tree_to_json(tree)
        text = "".join(tree_to_text(tree))
    # json.loads and == recurse once per level of nesting in C, and from 3.12
    # on no recursion limit lets them through 2 201 levels: the reader decodes
    # and the comparison walks with a stack
    decoded = _loads(text)
    assert oracle.same_json(encoded, decoded)
    node = decoded
    while "children" in node:
        node = next((kid for kid in node["children"] if "children" in kid), node["children"][0])
    node["point"] += "'"
    assert not oracle.same_json(encoded, decoded)
