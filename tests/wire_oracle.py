"""Reference writers that the library's piece writers are tested against.

Each builds its document whole, from the name sets of the result, as the
library built it before each format kept one writer, the piece generator in
the module that owns its type: ``ballean_to_json``, ``hasse_to_json``,
``hasse_iso_to_json`` and ``hasse_to_dot`` (``umtk.balls``'s
``ballean_pieces``, ``hasse_pieces``, ``hasse_iso_pieces`` and
``hasse_dot_pieces``) and ``weak_sim_witness_to_json``
(``umtk.similarity.weak_sim_pieces``). A JSON piece writer's pieces join to
``json.dumps(value, indent=2) + "\\n"`` of the reference's value, and
``hasse_dot_pieces``' join to ``hasse_to_dot``'s text. ``space_to_text`` is
a space document as ``json.dumps(..., indent=2)`` writes it, for tests that
write spaces to files.
"""
from __future__ import annotations

import json

from umtk.balls import Ballean, HasseDiagram, HasseIso, dot_label_name
from umtk.similarity import WeakSimWitness
from umtk.spaces import FiniteSemimetricSpace, format_rational, space_to_json


def ballean_to_json(ballean: Ballean) -> dict:
    return {"balls": [sorted(map(ballean.space.points.__getitem__, m)) for m in ballean.members]}


def hasse_to_json(diagram: HasseDiagram) -> dict:
    return {"vertices": [sorted(v) for v in diagram.vertices], "arcs": list(map(list, diagram.sorted_arcs()))}


def hasse_iso_to_json(iso: HasseIso) -> dict:
    v1, v2 = iso.h1.vertices, iso.h2.vertices
    return {"map": [[sorted(v), sorted(v2[iso.assignment[i]])] for i, v in enumerate(v1)]}


def hasse_to_dot(diagram: HasseDiagram) -> str:
    lines = ["digraph hasse {"]
    labels = (",".join(map(dot_label_name, sorted(v))) for v in diagram.vertices)
    lines += [f'  b{i} [label="{{{label}}}"];' for i, label in enumerate(labels)]
    lines += [f"  b{a} -> b{b};" for a, b in diagram.sorted_arcs()]
    return "\n".join(lines) + "\n}\n"


def weak_sim_witness_to_json(witness: WeakSimWitness, point_order: tuple[str, ...]) -> dict:
    return {
        "scaling": [[format_rational(a), format_rational(b)] for a, b in witness.scaling],
        "phi": {p: witness.phi[p] for p in point_order},
    }


def space_to_text(space: FiniteSemimetricSpace) -> str:
    return json.dumps(space_to_json(space), indent=2) + "\n"
