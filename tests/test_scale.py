"""Large inputs end to end, with generous time bounds.

A Fraction-matrix implementation took about 19 s on the n = 1024 pair and
O(n^3) to name a late violating triple; the rank core takes about 1 s and
O(n^2) on a 2-vCPU machine.
"""
import json
import time
import tracemalloc
from fractions import Fraction as F

from umtk import (
    GenConfig,
    build_tree,
    decide_weak_similarity,
    diametrical_graph,
    is_ultrametric,
    multipartite_parts,
    random_ultrametric,
    renamed_copy,
    space_to_json,
    ultrametric_violation,
    verify_weak_similarity,
)
from umtk.spaces import space_from_json, ultrametric_order
from wire_oracle import space_to_text

POOL = tuple(F(k) for k in range(1, 1025))


def test_large_ultrametric_pair_from_json():
    x = random_ultrametric(GenConfig(seed=1, n=1024, spectrum_pool=POOL))
    y, _ = renamed_copy(x, 1)
    texts = [space_to_text(s) for s in (x, y)]
    start = time.perf_counter()
    a, b = (space_from_json(json.loads(t)) for t in texts)
    witness = decide_weak_similarity(a, b)
    assert time.perf_counter() - start < 10
    assert witness is not None and verify_weak_similarity(a, b, witness)


def test_late_violation_is_named_in_one_pass():
    x = random_ultrametric(GenConfig(seed=1, n=2048, spectrum_pool=POOL))
    # the last two points of the certified leaf order get a distance above
    # the diameter, which breaks the strong triangle inequality with every point
    order, _ = ultrametric_order(x)
    u, v = order[-2:]
    doc = space_to_json(x)
    doc["dist"][u][v] = doc["dist"][v][u] = str(x.spectrum[-1] + 1)
    space = space_from_json(doc)
    start = time.perf_counter()
    assert not is_ultrametric(space)
    assert time.perf_counter() - start < 10
    a, b, c = ultrametric_violation(space)
    assert space.distance(a, b) > max(space.distance(a, c), space.distance(c, b))


def test_diametrical_parts_are_the_root_children_at_n_2048():
    x = random_ultrametric(GenConfig(seed=1, n=2048, spectrum_pool=tuple(F(k) for k in range(1, 61))))
    tracemalloc.start()
    try:
        parts = multipartite_parts(diametrical_graph(x)).parts
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one partner mask per point is 2048 x 256 bytes; an edge set of
    # frozensets took hundreds of MB here
    assert peak < 32 * 2**20
    # the paper: the parts are the leaf sets of the representing tree's root children
    tree = build_tree(x)
    starts = [*tree.children[0], len(tree)]  # a preorder subtree is a run of positions
    leaves = [sorted(p for p, kids in zip(tree.points[a:b], tree.children[a:b]) if not kids)
              for a, b in zip(starts, starts[1:])]
    assert sorted(map(list, parts)) == sorted(leaves)
