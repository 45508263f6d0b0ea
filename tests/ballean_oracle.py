"""Reference implementations that the ballean layer is tested against.

``enumerate_balls`` sweeps every centre over the whole spectrum, and
``hasse_diagram`` tests every triple of balls for a ball strictly between.
``search_assignment`` is the recursive backtracking search that checks each
candidate against every assigned pair. All three are slow and exist only to
check the ballean, cover and search passes of ``umtk.balls``.
"""
from __future__ import annotations

from umtk.balls import Ball, Ballean, HasseDiagram, _joint_refine, _set_key
from umtk.spaces import spectrum


def enumerate_balls(space) -> Ballean:
    """Every ball B_r(t), t in point order and r over the whole spectrum; the
    first (t, r) to give a member set is its witness."""
    found = {}
    pts = space.points
    for ti, t in enumerate(pts):
        row = space.dist[ti]
        for r in spectrum(space):
            members = frozenset(pts[i] for i in range(len(pts)) if row[i] <= r)
            if members not in found:
                found[members] = Ball(members, t, r)
    ordered = sorted(found.values(), key=lambda b: _set_key(b.members))
    return Ballean(tuple(ordered))


def hasse_diagram(ballean: Ballean) -> HasseDiagram:
    """Cover pairs B1 < B2 with no ball strictly between (triple scan)."""
    sets = tuple(b.members for b in ballean.balls)
    n = len(sets)
    arcs = set()
    for i in range(n):
        for j in range(n):
            if i == j or not sets[i] < sets[j]:
                continue
            if any(k != i and k != j and sets[i] < sets[k] < sets[j] for k in range(n)):
                continue
            arcs.add((i, j))
    return HasseDiagram(sets, frozenset(arcs))


def search_assignment(h1: HasseDiagram, h2: HasseDiagram) -> dict[int, int] | None:
    """Recursive backtracking over the jointly refined colour classes; each
    candidate is tested against every assigned pair. Recurses once per
    vertex, so callers raise the recursion limit for large diagrams."""
    refined = _joint_refine(h1, h2)
    if refined is None:
        return None
    colors1, colors2 = refined
    n = len(h1.vertices)
    arcs1, arcs2 = h1.arcs, h2.arcs
    candidates: dict[int, list[int]] = {}
    for i in range(n):
        candidates[i] = sorted(
            (j for j in range(n) if colors2[j] == colors1[i]),
            key=lambda j: _set_key(h2.vertices[j]),
        )
        if not candidates[i]:
            return None
    order = sorted(range(n), key=lambda i: (len(candidates[i]), _set_key(h1.vertices[i])))
    assignment: dict[int, int] = {}
    used = [False] * n

    def extend(k: int) -> bool:
        if k == n:
            return True
        i = order[k]
        for j in candidates[i]:
            if used[j]:
                continue
            ok = True
            for i2, j2 in assignment.items():
                if ((i, i2) in arcs1) != ((j, j2) in arcs2):
                    ok = False
                    break
                if ((i2, i) in arcs1) != ((j2, j) in arcs2):
                    ok = False
                    break
            if not ok:
                continue
            assignment[i] = j
            used[j] = True
            if extend(k + 1):
                return True
            del assignment[i]
            used[j] = False
        return False

    return assignment if extend(0) else None
