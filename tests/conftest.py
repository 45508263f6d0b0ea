import contextlib
import sys
from fractions import Fraction as F

import pytest

from umtk import rank_relabel, similarity, space_from_pairs
from umtk.reptree import RepTree
from umtk.search import match
from umtk.treecanon import rooted_tree_iso_map


@pytest.fixture
def ultra3():
    # three points, two of them closer to each other than to the first
    return space_from_pairs(
        ("p", "q", "r"),
        {("p", "q"): F(2), ("p", "r"): F(2), ("q", "r"): F(1)},
    )


@pytest.fixture
def ultra3_scaled(ultra3):
    return rank_relabel(ultra3, (F(0), F(10), F(20)))


@pytest.fixture
def semi3():
    # not ultrametric: d(a,c) > max(d(a,b), d(b,c))
    return space_from_pairs(
        ("a", "b", "c"),
        {("a", "b"): F(1), ("b", "c"): F(1), ("a", "c"): F(3)},
    )


@pytest.fixture
def semi3_variant():
    # isometric to semi3; the middle point is w here
    return space_from_pairs(
        ("u", "v", "w"),
        {("u", "v"): F(3), ("v", "w"): F(1), ("u", "w"): F(1)},
    )


def _two_blocks(sizes, inner, cross):
    names = [chr(ord("a") + i) for i in range(sum(sizes))]
    dists = {}
    start = 0
    blocks = []
    for size, d in zip(sizes, inner):
        block = names[start : start + size]
        blocks.append(block)
        for i in range(size):
            for j in range(i + 1, size):
                dists[(block[i], block[j])] = d
        start += size
    for x in blocks[0]:
        for y in blocks[1]:
            dists[(x, y)] = cross
    return space_from_pairs(tuple(names), dists)


@pytest.fixture
def blocks4():
    # {a,b} at 1, {c,d} at 2, cross 3
    return _two_blocks((2, 2), (F(1), F(2)), F(3))


@pytest.fixture
def blocks4_swapped():
    # {a,b} at 2, {c,d} at 1, cross 3
    return _two_blocks((2, 2), (F(2), F(1)), F(3))


@pytest.fixture
def blocks5():
    # {a,b} at 1, {c,d,e} at 2, cross 3 -- uneven fan sizes
    return _two_blocks((2, 3), (F(1), F(2)), F(3))


def _two_leaves(tree):
    """The first leaf of a tree and the first leaf under another parent."""
    parent = {c: v for v, kids in enumerate(tree.children) for c in kids}
    leaves = [v for v, kids in enumerate(tree.children) if not kids]
    return leaves[0], next(v for v in leaves if parent[v] != parent[leaves[0]])


@pytest.fixture
def leaf_swapping_iso_map():
    """A broken ``rooted_tree_iso_map``: the real map, with the images of the
    first leaf and of the first leaf under another parent swapped."""

    def swapped(tree1, tree2, respect_labels=False, walk=None):
        psi = rooted_tree_iso_map(tree1, tree2, respect_labels, walk)
        a, b = _two_leaves(tree1)
        psi[a], psi[b] = psi[b], psi[a]
        return psi

    return swapped


@pytest.fixture
def leaf_swapping_build_tree(monkeypatch):
    """Break the decision's ``build_tree`` for the trees of Y: given Y, every
    tree built for a space with Y's points and ranks comes back with the
    points of its first leaf and of the first leaf under another parent
    swapped. The arrays stay canonical, so only the re-check can see it."""
    build_tree = similarity.build_tree

    def swapping(y):
        def swapped(space):
            tree = build_tree(space)
            if (space.points, space.ranks) != (y.points, y.ranks):
                return tree
            a, b = _two_leaves(tree)
            points = list(tree.points)
            points[a], points[b] = points[b], points[a]
            return RepTree(tree.labels, points, tree.children, tree.spectrum)

        monkeypatch.setattr(similarity, "build_tree", swapped)

    return swapping


@pytest.fixture
def image_swapping_match():
    """A broken ``search.match``: the real assignment, with the images of its
    first two sources swapped."""

    def swapped(*args):
        assignment = match(*args)
        if assignment is not None:
            first, second = list(assignment)[:2]
            assignment[first], assignment[second] = assignment[second], assignment[first]
        return assignment

    return swapped


@pytest.fixture
def recursion_headroom():
    """``with recursion_headroom(k):`` lets the block go only about k frames
    deeper than the caller; the old recursion limit is back afterwards."""

    @contextlib.contextmanager
    def lowered(frames):
        frame, depth = sys._getframe(), 0
        while frame is not None:
            depth += 1
            frame = frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + frames)
        try:
            yield
        finally:
            sys.setrecursionlimit(limit)

    return lowered
