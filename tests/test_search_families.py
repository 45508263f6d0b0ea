"""The Hasse search on symmetric families gives the reference's maps, and
its work on C₈ stays within a fixed count of ``fits`` calls."""
import sys

import ballean_oracle as oracle
import pytest
import search_families as fam

from umtk import balls, ball_preserving_bijection, enumerate_balls, hasse_diagram, renamed_copy, verify_ball_preserving
from umtk.search import match


def _diagrams(x, y):
    return hasse_diagram(enumerate_balls(x)), hasse_diagram(enumerate_balls(y))


def _search(h1, h2):
    return balls._search_assignment(h1, h2, [set(near) for near in h2.succs])


def _family_pairs():
    """Each family against renamed copies 1 and 2, then two negatives."""
    spaces = [fam.cycle(n) for n in range(5, 10)]
    spaces += [fam.complete_multipartite(3, 3, 3), fam.circulant(8, (3, 4)), fam.tree_space(2)]
    for x in spaces:
        for seed in (1, 2):
            yield x, renamed_copy(x, seed)[0]
    for k in (3, 4):
        yield fam.cycle(2 * k), fam.cycles(k)


def test_symmetric_families_give_the_reference_maps():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 1000))  # the reference recurses once per vertex
    try:
        outcomes = []
        for x, y in _family_pairs():
            h1, h2 = _diagrams(x, y)
            found, expected = _search(h1, h2), oracle.search_assignment(h1, h2)
            assert (found is None) == (expected is None)
            if found is not None:
                assert list(found.items()) == list(expected.items())
            phi = ball_preserving_bijection(x, y)
            assert (phi is None) == (found is None)
            if phi is not None:
                assert verify_ball_preserving(enumerate_balls(x), enumerate_balls(y), phi) == (True, None)
            outcomes.append(found is not None)
    finally:
        sys.setrecursionlimit(limit)
    assert outcomes == [True] * 16 + [False] * 2


# ``ballean_oracle.search_assignment`` on T₃ against renamed copies 1 and 2,
# recorded because the reference takes several seconds per pair: the
# vertices of T₃'s diagram in the order the reference assigns them, and
# their images, in that order.
T3_ORDER = [33, 30, 31, 32, 0, 4, 7, 11, 14, 17, *range(18, 30), 1, 2, 3, 5, 6, 8, 9, 10, 12, 13, 15, 16]
T3_IMAGES = {
    1: [33, 30, 31, 32, 12, 8, 10, 15, 5, 7, 18, 23, 20, 21, 22, 19, 24,
        28, 26, 27, 29, 25, 0, 14, 16, 3, 13, 4, 9, 1, 11, 17, 2, 6],
    2: [33, 30, 31, 32, 16, 3, 13, 17, 1, 9, 20, 23, 21, 19, 18, 22, 28,
        29, 27, 26, 24, 25, 4, 11, 15, 5, 14, 2, 10, 6, 0, 12, 7, 8],
}


@pytest.mark.parametrize("seed", [1, 2])
def test_t3_gives_the_recorded_reference_map(seed):
    # the general search on a tree diagram, which the Hasse tree branch
    # otherwise takes: the direct leaves are placed before their parents
    x = fam.tree_space(3)
    h1, h2 = _diagrams(x, renamed_copy(x, seed)[0])
    found = _search(h1, h2)
    assert list(found.items()) == list(zip(T3_ORDER, T3_IMAGES[seed]))
    assert all(found[b] in h2.succs[found[a]] for a, b in h1.sorted_arcs())


@pytest.mark.parametrize("seed, bound", [(1, 28_130), (2, 25_830)])
def test_c8_search_stays_within_its_fits_count(seed, bound, monkeypatch):
    calls = 0

    def counting(colors1, colors2, fits):
        def counted(*args):
            nonlocal calls
            calls += 1
            return fits(*args)

        return match(colors1, colors2, counted)

    monkeypatch.setattr(balls, "match", counting)
    x = fam.cycle(8)
    assert ball_preserving_bijection(x, renamed_copy(x, seed)[0]) is not None
    assert 0 < calls <= bound
