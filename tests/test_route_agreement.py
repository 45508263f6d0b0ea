"""Every route that decides a relation gives the same verdict above the
oracles' n, and every witness it returns passes its verifier.

Seeded pairs on 9 to 64 points:
- weak similarity on ultrametric pairs: the tree route of
  ``decide_weak_similarity``, the point search of
  ``similarity._backtrack_isometry`` and ``tree_oracle.tree_isometry``;
- ball-preserving equivalence: the map the ball profiles force where they
  force one, the Hasse route (a diagram isomorphism restricted to the
  one-point balls) and, on weakly similar pairs, the weak-similarity
  witness, each checked by ``verify_ball_preserving``;
- Hasse isomorphism of tree diagrams: the tree branch of
  ``hasse_digraph_iso`` against the general search ``_search_assignment``.

The ultrametric draws use pools 1..k for k <= 8. The general search
places a tree diagram's leaves before their parents, so one wide draw
(seed 102, 56 points, twenty children under the root) takes about a
second over its pairs; the trees Tₖ, which stall it for longer, are left
to ``test_search_families``.
"""
from fractions import Fraction as F

import pytest
from tree_oracle import tree_isometry

from umtk import (
    GenConfig,
    InapplicableError,
    WeakSimWitness,
    adversarial_relabeling,
    ball_preserving_bijection,
    balls,
    build_tree,
    decide_weak_similarity,
    enumerate_balls,
    forced_scaling,
    hasse_diagram,
    hasse_digraph_iso,
    is_ultrametric,
    random_relabeled,
    random_semimetric,
    random_ultrametric,
    rank_relabel,
    renamed_copy,
    reversed_is_rooted_tree,
    similarity,
    space_from_tree,
    tree_from_json,
    validate_semimetric,
    verify_ball_preserving,
    verify_weak_similarity,
)

POOLS = [tuple(F(v) for v in range(1, k + 1)) for k in range(2, 9)]


def _perturbed(x, seed):
    """A renamed copy of X with d(x0, x1) moved to the next positive
    spectrum value, cyclically: a one-entry change."""
    values = x.spectrum
    rows = [[values[r] for r in row] for row in x.ranks]
    rows[0][1] = rows[1][0] = values[x.ranks[0][1] % (len(values) - 1) + 1]
    return renamed_copy(validate_semimetric(x.points, rows), seed)[0]


def _partners(x, seed, draw):
    """A renamed copy, a rank-stretched renamed copy, a one-entry
    perturbation and an independent draw of the same size."""
    stretched = rank_relabel(x, tuple(F(k * k) for k in range(len(x.spectrum))))
    yield renamed_copy(x, seed)[0]
    yield renamed_copy(stretched, seed + 1)[0]
    if len(x.spectrum) > 2:
        yield _perturbed(x, seed)
    yield draw(seed + 1000)


def _ultrametric_pairs():
    for seed in range(120):
        n, pool = 9 + seed * 55 // 119, POOLS[seed % len(POOLS)]

        def draw(s):
            return random_ultrametric(GenConfig(seed=s, n=n, spectrum_pool=pool))

        x = draw(seed)
        yield from ((x, y) for y in _partners(x, seed, draw))
        yield x, renamed_copy(random_relabeled(x, seed), seed)[0]
        try:
            yield x, renamed_copy(adversarial_relabeling(x), seed)[0]
        except InapplicableError:
            pass


def _semimetric_pairs():
    for seed in range(90):
        n, pool = 9 + seed % 24, POOLS[seed % 3]

        def draw(s):
            return random_semimetric(GenConfig(seed=s, n=n, spectrum_pool=pool))

        x = draw(seed)
        yield from ((x, y) for y in _partners(x, seed, draw))


def _weak_similarity_verdicts(x, y):
    """The witness of ``decide_weak_similarity`` and the verdicts of the
    point search and, for ultrametric pairs, the tree reference."""
    witness = decide_weak_similarity(x, y)
    scaling = forced_scaling(x, y)
    routes = {}
    if scaling is not None:
        phi, _ = similarity._backtrack_isometry(x, y)
        routes["search"] = phi is not None and verify_weak_similarity(x, y, WeakSimWitness(scaling, phi))
        if is_ultrametric(x) and is_ultrametric(y):
            phi = tree_isometry(build_tree(x), build_tree(y))
            routes["tree reference"] = phi is not None and verify_weak_similarity(x, y, WeakSimWitness(scaling, phi))
    else:  # spectra of unequal sizes: no strictly increasing bijection
        routes["scaling"] = False
    if witness is not None:
        assert verify_weak_similarity(x, y, witness)
    return witness, routes


def _ball_preserving_verdicts(x, y, witness):
    """Whether each route's map passes ``verify_ball_preserving``: the public
    decision, the Hasse route, the map the profiles force where they force
    one, and the weak-similarity witness. Only the forced map may be given
    and refuted; that means no map exists."""
    bx, by = enumerate_balls(x), enumerate_balls(y)
    routes = {"bijection": ball_preserving_bijection(x, y)}
    if len(bx.masks) == len(by.masks):
        iso = hasse_digraph_iso(hasse_diagram(bx), hasse_diagram(by))
        routes["hasse"] = None if iso is None else {
            x.points[bx.members[i][0]]: y.points[by.members[j][0]]
            for i, j in iso.assignment.items() if len(bx.members[i]) == 1
        }
    else:
        routes["hasse"] = None
    profiles = set(bx.profiles)
    if len(profiles) == len(x) and profiles == set(by.profiles):
        at = dict(zip(by.profiles, y.points))
        routes["forced"] = dict(zip(x.points, map(at.__getitem__, bx.profiles)))
    if witness is not None:
        routes["weak similarity"] = witness.phi
    verdicts = {}
    for name, phi in routes.items():
        verdicts[name] = phi is not None and verify_ball_preserving(bx, by, phi)[0]
        assert name == "forced" or phi is None or verdicts[name], name
    return verdicts


def _agree(verdicts):
    assert len(set(verdicts.values())) == 1, verdicts
    return next(iter(verdicts.values()))


# the least count of pairs of each kind: ultrametric spaces of two or more
# points never have pairwise distinct ball profiles, so nothing is forced
@pytest.mark.parametrize(
    "pairs, least",
    [
        (_ultrametric_pairs, {"weakly similar": 250, "ball-preserving only": 150, "neither": 150, "forced": 0}),
        (_semimetric_pairs, {"weakly similar": 150, "ball-preserving only": 0, "neither": 150, "forced": 120}),
    ],
    ids=["ultrametric", "semimetric"],
)
def test_weak_similarity_and_ball_routes_agree(pairs, least):
    seen = {"weakly similar": 0, "ball-preserving only": 0, "neither": 0, "forced": 0}
    for x, y in pairs():
        witness, routes = _weak_similarity_verdicts(x, y)
        _agree({"decide": witness is not None, **routes})
        verdicts = _ball_preserving_verdicts(x, y, witness)
        positive = _agree(verdicts)
        seen["weakly similar" if witness else "ball-preserving only" if positive else "neither"] += 1
        seen["forced"] += "forced" in verdicts
    assert all(seen[kind] >= count for kind, count in least.items()), seen
    assert pairs is _semimetric_pairs or seen["forced"] == 0


def test_one_label_array_on_two_shapes():
    # siblings go in the order of their codes' text, in which "10" sorts
    # before "2", so these two trees share the label array of their
    # canonical layouts and differ only in their child arrays
    leaf = [{"point": p} for p in "abcde"]
    low = {"label": "2", "children": leaf[3:]}
    apart = {"label": "20", "children": [leaf[0], {"label": "10", "children": leaf[1:3]}, low]}
    nested = {"label": "20", "children": [leaf[0], {"label": "10", "children": [*leaf[1:3], low]}]}
    x, y = (space_from_tree(tree_from_json(doc)) for doc in (apart, nested))
    tx, ty = build_tree(x), build_tree(y)
    assert tx.labels == ty.labels and tx.children != ty.children
    witness, routes = _weak_similarity_verdicts(x, y)
    assert witness is None and not any(routes.values())
    assert not any(_ball_preserving_verdicts(x, y, witness).values())


def test_hasse_tree_branch_agrees_with_the_general_search():
    checked = {True: 0, False: 0}
    for x, y in _ultrametric_pairs():
        if not is_ultrametric(y):
            continue
        h1, h2 = hasse_diagram(enumerate_balls(x)), hasse_diagram(enumerate_balls(y))
        assert reversed_is_rooted_tree(h1) and reversed_is_rooted_tree(h2)
        iso = hasse_digraph_iso(h1, h2)
        found = None
        if len(h1.masks) == len(h2.masks):
            found = balls._search_assignment(h1, h2, [set(near) for near in h2.succs])
        assert (iso is None) == (found is None)
        if found is not None:
            assert sorted(found) == list(range(len(h1.masks))) and len(set(found.values())) == len(found)
            assert all(found[b] in h2.succs[found[a]] for a, b in h1.sorted_arcs())
        checked[iso is not None] += 1
    assert checked[True] >= 400 and checked[False] >= 120, checked
