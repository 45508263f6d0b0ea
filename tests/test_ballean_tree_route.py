"""An ultrametric space's ballean and Hasse covers are read off its tree.

Every field of such a ballean, its ball profiles and its diagram's cover
lists must equal those of the prefix loop and the cover fold that every
other space takes (``ballean_oracle.loop_ballean`` and ``fold_hasse``):
on seeded ultrametrics of the four classes and of any class, n <= 256,
each as drawn and renamed in a shuffled order, and on chains of 255, 256
and 257 spectrum values, whose rank rows are ``bytes`` and then tuples.
Either way the ultrametric certificate runs once per new space.
"""
from __future__ import annotations

from fractions import Fraction as F

import pytest
from ballean_oracle import fold_hasse, loop_ballean

from umtk import GenConfig, enumerate_balls, hasse_diagram, random_semimetric, random_ultrametric, renamed_copy
from umtk import balls, reptree, spaces

FIELDS = ("bits", "masks", "witnesses", "orders", "chains", "places")
POOL = tuple(map(F, range(1, 300)))  # a chain of n points needs n - 1 labels


def _check(space, tree_route: bool = True) -> None:
    ballean, reference = enumerate_balls(space), loop_ballean(space)
    assert (ballean.covers is not None) == tree_route
    for name in FIELDS:
        assert getattr(ballean, name) == getattr(reference, name), name
    assert ballean.profiles == reference.profiles
    diagram, folded = hasse_diagram(ballean), fold_hasse(reference)
    assert diagram.succs == folded.succs
    assert diagram.preds == folded.preds


@pytest.mark.parametrize("force_class", ["R", "Rtilde", "D", "T", None])
def test_tree_ballean_matches_the_loop(force_class):
    for seed in range(1, 5):
        for n in (1, 2, 3, 4, 5, 7, 9, 12, 16, 33, 40, 64, 100, 128, 256):
            x = random_ultrametric(GenConfig(seed=seed, n=n, spectrum_pool=POOL, force_class=force_class))
            _check(x)
            _check(renamed_copy(x, seed)[0])


@pytest.mark.parametrize("size", [255, 256, 257])
def test_tree_ballean_matches_the_loop_at_the_row_type_boundary(size):
    x = random_ultrametric(GenConfig(seed=size, n=size, spectrum_pool=POOL[: size - 1], force_class="R"))
    assert len(x.spectrum) == size
    assert type(x.ranks[0]) is (bytes if size <= 256 else tuple)
    _check(x)
    _check(renamed_copy(x, size)[0])


def test_a_semimetric_ballean_takes_the_loop():
    for seed in range(1, 6):
        x = random_semimetric(GenConfig(seed=seed, n=12, spectrum_pool=POOL[:48]))
        _check(x, tree_route=False)


def test_the_ballean_certifies_each_new_space_once(monkeypatch):
    # build_tree's certificate decides the route: it builds an ultrametric
    # space's tree and names a semimetric one, and no other check runs first
    spaces_made = [random_ultrametric(GenConfig(seed=5, n=24)), random_semimetric(GenConfig(seed=5, n=24))]
    spaces_made += [renamed_copy(x, 6)[0] for x in spaces_made]
    calls = []

    def counted(space):
        calls.append(space)
        return certify(space)

    certify = spaces._certify
    for module in (spaces, reptree):
        monkeypatch.setattr(module, "_certify", counted)
    reptree.build_tree.cache_clear()
    balls.enumerate_balls.cache_clear()
    for k, space in enumerate(spaces_made * 2):  # the second round hits the cache
        assert (enumerate_balls(space).covers is not None) == (k % 2 == 0)
    assert calls == spaces_made
