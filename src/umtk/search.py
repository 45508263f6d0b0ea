"""Depth-first matching search shared by point isometry and Hasse isomorphism.

It keeps its own stack, so its depth is not bounded by the recursion limit.
"""
from __future__ import annotations

from collections import Counter
from typing import Callable, Hashable, Sequence


def match(
    colors1: Sequence[Hashable],
    colors2: Sequence[Hashable],
    fits: Callable[[int, int, list[int]], bool],
) -> dict[int, int] | None:
    """Color-preserving bijection between equal-sized vertex sets, or None.

    Lists whose per-color counts differ have no such bijection and give
    None before any ``fits`` call. A vertex's candidates are the targets of
    its color in index order.
    Vertices go rarest color first, ties lowest index first, each to its
    first untaken candidate j with ``fits(i, j, image)``, where ``image``
    holds the target per source vertex (-1 while unassigned); the search
    skips taken targets itself. The map is keyed in assignment order."""
    if Counter(colors1) != Counter(colors2):
        return None
    n = len(colors1)
    by_color: dict[Hashable, list[int]] = {}
    for j, color in enumerate(colors2):
        by_color.setdefault(color, []).append(j)
    candidates = [by_color[color] for color in colors1]
    order = sorted(range(n), key=lambda i: len(candidates[i]))
    image = [-1] * n
    used = [False] * n
    # level k resumes its candidate list at cursor[k] after a backtrack
    cursor = [0] * n
    k = 0
    while 0 <= k < n:
        i = order[k]
        if image[i] >= 0:
            used[image[i]] = False
            image[i] = -1
        cands = candidates[i]
        c = cursor[k]
        while c < len(cands) and (used[cands[c]] or not fits(i, cands[c], image)):
            c += 1
        if c == len(cands):
            cursor[k] = 0
            k -= 1
            continue
        image[i] = cands[c]
        used[cands[c]] = True
        cursor[k] = c + 1
        k += 1
    return {i: image[i] for i in order} if k == n else None
