"""Seeded documents for the benchmark, built with the benchmark's own code.

Nothing here imports umtk: every space and tree document is produced from a
flat tree or matrix held in memory, and every expected verdict is fixed by
construction (renamed or rank-stretched copies) or by an invariant computed
here (spectrum, point signatures, ball count, node profile). The in-memory
objects stay with the request so that witnesses can be checked against them.
"""
from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

# --- flat rooted trees ----------------------------------------------------------


class Tree:
    """Rooted tree in flat arrays; node 0 is the root, leaves carry a point.

    ``label`` holds 0 for leaves and a positive int or Fraction for internal
    nodes, strictly decreasing from parent to child.
    """

    def __init__(self) -> None:
        self.children: list[list[int]] = []
        self.label: list = []
        self.point: list = []

    def add(self, parent: int | None, label=0, point=None) -> int:
        self.children.append([])
        self.label.append(label)
        self.point.append(point)
        v = len(self.label) - 1
        if parent is not None:
            self.children[parent].append(v)
        return v

    def preorder(self) -> list[int]:
        out, stack = [], [0]
        while stack:
            v = stack.pop()
            out.append(v)
            stack.extend(reversed(self.children[v]))
        return out

    def parents(self) -> list[int]:
        par = [-1] * len(self.label)
        for v, kids in enumerate(self.children):
            for c in kids:
                par[c] = v
        return par

    def heights(self) -> list[int]:
        h = [0] * len(self.label)
        for v in reversed(self.preorder()):
            if self.children[v]:
                h[v] = 1 + max(h[c] for c in self.children[v])
        return h

    def depths(self) -> list[int]:
        d = [0] * len(self.label)
        for v in self.preorder():
            for c in self.children[v]:
                d[c] = d[v] + 1
        return d

    def leaves(self) -> list[int]:
        return [v for v in self.preorder() if not self.children[v]]

    def internal(self) -> list[int]:
        return [v for v in self.preorder() if self.children[v]]

    def copy(self) -> "Tree":
        t = Tree()
        t.children = [list(k) for k in self.children]
        t.label = list(self.label)
        t.point = list(self.point)
        return t


def grow(rng: random.Random, n: int, max_arity: int) -> Tree:
    """Random free tree shape with n leaves (iterative random partitions)."""
    t = Tree()
    stack = [(t.add(None), n)]
    while stack:
        v, size = stack.pop()
        k = rng.randint(2, min(size, max_arity))
        parts = [1] * k
        for _ in range(size - k):
            parts[rng.randrange(k)] += 1
        for s in parts:
            c = t.add(v)
            if s > 1:
                stack.append((c, s))
    return t


def chain(counts: list[int]) -> tuple[Tree, int]:
    """One internal node per level; level i holds counts[i] leaves plus the
    next level. Returns the tree and its bottom chain node."""
    t = Tree()
    v = t.add(None)
    for i, c in enumerate(counts):
        for _ in range(c):
            t.add(v)
        if i + 1 < len(counts):
            v = t.add(v)
    return t, v


def label_free(t: Tree, rng: random.Random) -> None:
    # label(v) in [height(v), label(parent) - 1]: strictly decreasing, repeats allowed
    h = t.heights()
    for v in t.preorder():
        if not t.children[v]:
            continue
        if v == 0:
            t.label[v] = h[v] + rng.randint(1, 4)
        for c in t.children[v]:
            if t.children[c]:
                t.label[c] = rng.randint(h[c], t.label[v] - 1)


def label_distinct(t: Tree, rng: random.Random) -> None:
    # distinct labels in an order compatible with height, random gaps
    h = t.heights()
    inner = sorted(t.internal(), key=lambda v: (h[v], rng.random()))
    value = 0
    for v in inner:
        value += rng.randint(1, 3)
        t.label[v] = value


def ultra_shape(rng: random.Random, shape: str, n: int) -> Tree:
    """Labeled tree with n leaves of one of the classes free, D, Rtilde, R, T."""
    if shape in ("free", "D"):
        t = grow(rng, n, 5)
    elif shape == "R":
        t, _ = chain([1] * (n - 2) + [2])
    elif shape == "Rtilde":
        m = rng.randint(3, max(3, n // 3))
        counts = [1] * (m - 1) + [2]
        for _ in range(n - m - 1):
            counts[rng.randrange(m)] += 1
        t, _ = chain(counts)
    elif shape == "T":
        s = rng.randint(2, 4)
        m = rng.randint(2, max(2, n // (2 * s)))
        rest = n - m * s
        c = rng.randint(1, max(1, min(rest + 1, 6)))
        counts = [1] * (c - 1) + [0]
        for _ in range(rest - (c - 1)):
            counts[rng.randrange(c)] += 1
        t, bottom = chain(counts)
        for _ in range(m):
            fan = t.add(bottom)
            for _ in range(s):
                t.add(fan)
    else:
        raise ValueError(f"unknown shape {shape!r}")
    if shape == "free":
        label_free(t, rng)
    else:
        label_distinct(t, rng)
    if shape == "T" and rng.random() < 0.5:
        # equal fan labels are allowed in T
        fans = [c for c in t.children[bottom] if t.children[c]]
        low = min(t.label[f] for f in fans)
        for f in fans:
            t.label[f] = low
    return t


def name_leaves(t: Tree, prefix: str) -> None:
    for i, v in enumerate(t.leaves()):
        t.point[v] = f"{prefix}{i}"


# --- spaces -------------------------------------------------------------------------


class Space:
    """Point names plus exact distance matrix (ints or Fractions)."""

    def __init__(self, points: list[str], dist: list[list]) -> None:
        self.points = points
        self.dist = dist

    def spectrum(self) -> list:
        return sorted({v for row in self.dist for v in row})

    def text(self) -> str:
        return json.dumps({"points": self.points, "dist": [[fmt(v) for v in row] for row in self.dist]})


def fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    q = Fraction(value)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def space_from_tree(t: Tree) -> Space:
    """d(x, y) = label of the lowest common ancestor (leaf order = points)."""
    leaves = t.leaves()
    index = {v: i for i, v in enumerate(leaves)}
    n = len(leaves)
    dist = [[0] * n for _ in range(n)]
    under: dict[int, list[int]] = {}
    for v in reversed(t.preorder()):
        if not t.children[v]:
            under[v] = [index[v]]
            continue
        groups = [under.pop(c) for c in t.children[v]]
        lab = t.label[v]
        for gi in range(len(groups)):
            for gj in range(gi + 1, len(groups)):
                for a in groups[gi]:
                    row = dist[a]
                    for b in groups[gj]:
                        row[b] = lab
                        dist[b][a] = lab
        under[v] = [i for g in groups for i in g]
    return Space([t.point[v] for v in leaves], dist)


def renamed(x: Space, rng: random.Random, prefix: str) -> Space:
    """Isometric copy with shuffled point order and fresh names."""
    n = len(x.points)
    order = list(range(n))
    rng.shuffle(order)
    dist = [[x.dist[order[i]][order[j]] for j in range(n)] for i in range(n)]
    return Space([f"{prefix}{i}" for i in range(n)], dist)


def stretched(x: Space, rng: random.Random) -> Space:
    """Strictly increasing, non-identity relabeling of the spectrum."""
    sp = x.spectrum()
    target, value = [0], 0
    for _ in sp[1:]:
        value += rng.randint(1, 9)
        target.append(value)
    if target == sp:
        target[-1] += 1
    f = dict(zip(sp, target))
    return Space(list(x.points), [[f[v] for v in row] for row in x.dist])


def merged(x: Space, k: int) -> Space:
    """Send the k-th spectrum value to the (k+1)-th (k >= 1). A non-decreasing
    relabeling keeps the ultrametric inequality and shrinks the spectrum by one."""
    sp = x.spectrum()
    lo, hi = sp[k], sp[k + 1]
    return Space(list(x.points), [[hi if v == lo else v for v in row] for row in x.dist])


def fresh_between(lo, hi, taken: set) -> Fraction:
    value = (Fraction(lo) + Fraction(hi)) / 2
    while value in taken:
        value = (Fraction(lo) + value) / 2
    return value


def relabel_one(t: Tree, rng: random.Random) -> Tree:
    """Copy with one internal label moved to a value no node carries yet."""
    out = t.copy()
    par = t.parents()
    taken = {t.label[v] for v in t.internal()}
    v = rng.choice(t.internal())
    lo = max(t.label[c] for c in t.children[v])
    hi = t.label[par[v]] if par[v] >= 0 else t.label[v] + 1
    out.label[v] = fresh_between(lo, hi, taken)
    return out


def random_semimetric(rng: random.Random, n: int, pool: int, prefix: str) -> Space:
    dist = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = rng.randint(1, pool)
    return Space([f"{prefix}{i}" for i in range(n)], dist)


def swapped(x: Space, rng: random.Random) -> Space:
    """Exchange the values of two point pairs holding different distances."""
    n = len(x.points)
    dist = [list(row) for row in x.dist]
    while True:
        a, b = rng.sample(range(n), 2)
        c, d = rng.sample(range(n), 2)
        if dist[a][b] != dist[c][d]:
            break
    va, vc = dist[a][b], dist[c][d]
    dist[a][b] = dist[b][a] = vc
    dist[c][d] = dist[d][c] = va
    return Space(list(x.points), dist)


# --- invariants (the benchmark's own) ---------------------------------------------


def balls(x: Space) -> set[frozenset[str]]:
    """All closed balls B_r(t), r in the spectrum: prefixes of each sorted row."""
    out = set()
    pts = x.points
    for t, row in enumerate(x.dist):
        order = sorted(range(len(pts)), key=row.__getitem__)
        members = []
        for pos, i in enumerate(order):
            members.append(pts[i])
            if pos + 1 == len(order) or row[order[pos + 1]] != row[i]:
                out.add(frozenset(members))
    return out


def signatures(x: Space, by_rank: bool) -> list[tuple]:
    """Sorted multiset of sorted rows; with ``by_rank`` values become ranks."""
    rank = {v: i for i, v in enumerate(x.spectrum())} if by_rank else None
    rows = []
    for row in x.dist:
        vals = sorted(row)
        rows.append(tuple(rank[v] for v in vals) if rank else tuple(vals))
    return sorted(rows)


def node_profile(t: Tree) -> list[tuple[int, int]]:
    d = t.depths()
    return sorted((d[v], len(t.children[v])) for v in t.internal())


# --- tree documents -------------------------------------------------------------------


def tree_text(t: Tree) -> str:
    """JSON tree document written without recursion (chains are deep)."""
    out: list[str] = []
    stack: list = [0]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        kids = t.children[item]
        if not kids:
            # point names are generated from [a-z0-9_], so no escaping is needed
            out.append('{"point": "%s"}' % t.point[item])
            continue
        out.append('{"label": "%s", "children": [' % fmt(t.label[item]))
        stack.append("]}")
        for k, c in enumerate(reversed(kids)):
            if k:
                stack.append(", ")
            stack.append(c)
    return "".join(out)


def shuffled_copy(t: Tree, rng: random.Random, prefix: str) -> Tree:
    out = t.copy()
    for kids in out.children:
        if len(kids) > 1:
            rng.shuffle(kids)
    name_leaves(out, prefix)
    return out


def moved_leaf(t: Tree, rng: random.Random) -> Tree:
    """Move one leaf to another internal node so that the node profile
    (depth, out-degree) changes. A node left with one child is contracted;
    it stays in the arrays but is no longer reachable from the root."""
    out = t.copy()
    par = out.parents()
    depth = out.depths()
    inner = out.internal()
    for _ in range(200):
        a = rng.choice(inner)
        leaf_kids = [c for c in out.children[a] if not out.children[c]]
        if not leaf_kids:
            continue
        b = rng.choice(inner)
        if b == a:
            continue
        if len(out.children[a]) == 2:
            other = next(c for c in out.children[a] if c != leaf_kids[0])
            if b == other or not out.children[other] or a == 0:
                continue
        elif depth[a] == depth[b] and len(out.children[b]) + 1 == len(out.children[a]):
            continue
        leaf = leaf_kids[0]
        out.children[a].remove(leaf)
        out.children[b].insert(rng.randint(0, len(out.children[b])), leaf)
        if len(out.children[a]) == 1:
            # contract the unary node: its child takes its place
            child = out.children[a][0]
            siblings = out.children[par[a]]
            siblings[siblings.index(a)] = child
            out.children[a] = []
        if node_profile(out) != node_profile(t):
            return out
        out = t.copy()
    raise AssertionError("no leaf move changes the node profile")


def digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()
