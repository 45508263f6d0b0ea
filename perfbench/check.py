"""Witness checks against the input documents, with the benchmark's own code.

``check`` reads the two documents a request read, and the JSON text the
request wrote to stdout, and returns None when the witness is right or a
one-line reason when it is not. Run as a program, it checks the witnesses
listed in a file that worker.py writes, and prints its errors as a JSON list:

    python3 perfbench/check.py WITNESSES.json
"""
from __future__ import annotations

import json
import sys
from fractions import Fraction

from gen import Space, Tree, balls


def _rational(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den) if den else 1)


def _bijection(phi: object, x: Space, y: Space) -> str | None:
    if not isinstance(phi, dict):
        return "phi is not an object"
    if set(phi) != set(x.points) or sorted(phi.values()) != sorted(y.points):
        return "phi is not a bijection between the point sets"
    return None


def check_phi(out: str, x: Space, y: Space, rank, scaled: bool) -> str | None:
    """Isometry (``scaled`` False) or weak-similarity witness, pair by pair.
    Distances are ranks from ``read_spaces``; ``rank`` maps a literal to one."""
    doc = json.loads(out)
    phi = doc.get("phi")
    bad = _bijection(phi, x, y)
    if bad:
        return bad
    f = None
    if scaled:
        pairs = [(rank(a), rank(b)) for a, b in doc["scaling"]]
        if [a for a, _ in pairs] != x.spectrum() or [b for _, b in pairs] != y.spectrum():
            return "scaling is not a bijection of the spectra in increasing order"
        f = dict(pairs)
    where = {p: i for i, p in enumerate(y.points)}
    img = [where[phi[p]] for p in x.points]
    for i, row in enumerate(x.dist):
        yrow = y.dist[img[i]]
        for j in range(i + 1, len(row)):
            want = row[j] if f is None else f[row[j]]
            if yrow[img[j]] != want:
                return f"pair ({x.points[i]}, {x.points[j]}) is not preserved"
    return None


def check_ball_preserving(out: str, x: Space, y: Space) -> str | None:
    phi = json.loads(out).get("phi")
    bad = _bijection(phi, x, y)
    if bad:
        return bad
    bx, by = balls(x), balls(y)
    inv = {v: k for k, v in phi.items()}
    if any(frozenset(phi[p] for p in b) not in by for b in bx):
        return "image of a ball is not a ball"
    if any(frozenset(inv[p] for p in b) not in bx for b in by):
        return "preimage of a ball is not a ball"
    return None


def covers(family: set[frozenset[str]]) -> dict[frozenset[str], set[frozenset[str]]]:
    """Cover relation of the inclusion order: minimal strict supersets."""
    out = {}
    for b in family:
        sup = [c for c in family if b < c]
        out[b] = {c for c in sup if not any(d < c for d in sup)}
    return out


def check_hasse_iso(out: str, x: Space, y: Space) -> str | None:
    pairs = json.loads(out).get("map")
    m = {frozenset(a): frozenset(b) for a, b in pairs}
    bx, by = balls(x), balls(y)
    if set(m) != bx or set(m.values()) != by or len(m) != len(pairs):
        return "map is not a bijection between the balleans"
    cx, cy = covers(bx), covers(by)
    for b in bx:
        if {m[c] for c in cx[b]} != cy[m[b]]:
            return "map does not preserve the cover arcs"
    return None


def paths(t: Tree) -> dict[str, int]:
    """Dotted child-index path of every reachable node ("" is the root)."""
    out, stack = {}, [(0, "")]
    while stack:
        v, path = stack.pop()
        out[path] = v
        for k, c in enumerate(t.children[v]):
            stack.append((c, f"{path}.{k}" if path else str(k)))
    return out


def check_tree_map(out: str, t1: Tree, t2: Tree, labeled: bool) -> str | None:
    """Node map must be a bijection that sends every node's parent to its
    image's parent (and keeps labels when ``labeled``)."""
    m = json.loads(out).get("map")
    p1, p2 = paths(t1), paths(t2)
    if not isinstance(m, dict) or set(m) != set(p1) or sorted(m.values()) != sorted(p2):
        return "map is not a bijection between the node sets"
    if m[""] != "":
        return "root is not mapped to the root"
    for path, image in m.items():
        if path:
            parent = path.rpartition(".")[0]
            if image.rpartition(".")[0] != m[parent] or image == "":
                return f"node {path} does not keep its parent"
        if labeled:
            v, w = p1[path], p2[image]
            if t1.children[v] and t1.label[v] != t2.label[w]:
                return f"node {path} changes its label"
    return None


def read_spaces(path_a: str, path_b: str):
    """Both space documents, with every distance replaced by its rank among
    the distinct values of the two documents (equal values, equal ranks), and
    a function from a rational literal to its rank."""
    docs = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as handle:
            docs.append(json.load(handle))
    literals = {text for doc in docs for row in doc["dist"] for text in row}
    by_value: dict[Fraction, int] = {}
    for value in sorted(_rational(text) for text in literals):
        by_value.setdefault(value, len(by_value))
    of_literal = {text: by_value[_rational(text)] for text in literals}
    spaces = [Space(doc["points"], [[of_literal[t] for t in row] for row in doc["dist"]]) for doc in docs]
    return spaces[0], spaces[1], lambda text: by_value.get(_rational(text), -1)


def read_tree(path: str) -> Tree:
    """Tree document as a flat Tree. Chain documents nest deeper than the
    default recursion limit allows json to parse, so it is raised while
    parsing here, outside every request, and restored afterwards."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20000))
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    finally:
        sys.setrecursionlimit(limit)
    t = Tree()
    stack = [(doc, None)]
    while stack:
        obj, parent = stack.pop()
        if "point" in obj:
            t.add(parent, 0, obj["point"])
            continue
        v = t.add(parent, _rational(obj["label"]))
        stack.extend((child, v) for child in reversed(obj["children"]))
    return t


def check(kind: str, out: str, path_a: str, path_b: str) -> str | None:
    if kind in ("tree", "tree_labeled"):
        return check_tree_map(out, read_tree(path_a), read_tree(path_b), kind == "tree_labeled")
    x, y, rank = read_spaces(path_a, path_b)
    if kind == "phi":
        return check_phi(out, x, y, rank, scaled=False)
    if kind == "phi_scaled":
        return check_phi(out, x, y, rank, scaled=True)
    if kind == "balls":
        return check_ball_preserving(out, x, y)
    if kind == "hasse":
        return check_hasse_iso(out, x, y)
    raise ValueError(f"unknown check {kind!r}")


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as handle:
        pending = json.load(handle)
    errors = []
    for item in pending:
        with open(item["out"], encoding="utf-8") as handle:
            out = handle.read()
        try:
            reason = check(item["check"], out, item["a"], item["b"])
        except (ValueError, KeyError, TypeError, AttributeError) as err:
            reason = f"unreadable witness ({type(err).__name__}: {err})"
        if reason:
            errors.append(f"{item['tag']}: bad witness: {reason}")
    print(json.dumps(errors))


if __name__ == "__main__":
    main()
