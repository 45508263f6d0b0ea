"""Structural equivalences of finite semimetric and ultrametric spaces.

Exact-arithmetic tooling for deciding isometry, weak similarity, and
ball-preserving bijections between finite spaces, built around diametrical
graphs, representing trees, canonical tree codes, and ballean Hasse diagrams.

``classify``, ``generators`` and ``suites``, which only the ``classify``,
``gen`` and ``check`` commands run, load on first use of a name of theirs
(PEP 562), so a request imports only the modules it runs.
"""
import importlib

from .balls import (
    Ball,
    Ballean,
    HasseDiagram,
    ball_preserving_bijection,
    ballean_pieces,
    enumerate_balls,
    hasse_diagram,
    hasse_digraph_iso,
    hasse_dot_pieces,
    hasse_iso_pieces,
    hasse_pieces,
    reversed_is_rooted_tree,
    verify_ball_preserving,
)
from .diametrical import (
    DiametricalGraph,
    MultipartitePartition,
    diametrical_graph,
    graph_to_dot,
    multipartite_parts,
    partition_to_json,
)
from .errors import (
    FormatError,
    InapplicableError,
    InfeasibleConstraintsError,
    InvalidTreeError,
    NotABijectionError,
    NotIsomorphicError,
    NotMultipartiteError,
    NotUltrametricError,
    SpaceValidationError,
    SpectrumSizeMismatchError,
    TooLargeError,
    UmtkError,
    UnknownPointError,
    VerificationFailedError,
)
from .reptree import (
    RepNode,
    RepTree,
    build_tree,
    space_from_tree,
    tree_from_json,
    tree_to_dot,
    validate_tree,
)
from .similarity import (
    IsometryWitness,
    WeakSimWitness,
    decide_isometry,
    decide_weak_similarity,
    forced_scaling,
    phi_pieces,
    verify_isometry,
    verify_weak_similarity,
    weak_sim_pieces,
)
from .spaces import (
    FiniteSemimetricSpace,
    diameter,
    is_ultrametric,
    parse_rational,
    format_rational,
    rank_relabel,
    space_from_json,
    space_from_pairs,
    space_to_json,
    spectrum,
    ultrametric_violation,
    validate_semimetric,
)
from .treecanon import (
    canon_code_labeled,
    canon_code_unlabeled,
    check_iso_map,
    rooted_tree_iso_map,
)

__version__ = "0.1.0"

# each name of the command-only modules, and the module that holds it
_LAZY = {
    **dict.fromkeys(("INAPPLICABLE", "NOT_ISOMORPHIC_SHAPES", "ClassReport", "adversarial_relabeling",
                     "classify_space", "witness_from_unlabeled_iso"), "classify"),
    **dict.fromkeys(("GenConfig", "oracle_ball_preserving", "oracle_isometry", "oracle_weak_similarity",
                     "random_relabeled", "random_semimetric", "random_ultrametric", "renamed_copy"), "generators"),
    **dict.fromkeys(("SuiteResult", "run_all"), "suites"),
}


def __getattr__(name: str) -> object:
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    return value

__all__ = [
    "Ball",
    "Ballean",
    "ClassReport",
    "DiametricalGraph",
    "FiniteSemimetricSpace",
    "GenConfig",
    "HasseDiagram",
    "INAPPLICABLE",
    "IsometryWitness",
    "MultipartitePartition",
    "NOT_ISOMORPHIC_SHAPES",
    "RepNode",
    "RepTree",
    "SuiteResult",
    "WeakSimWitness",
    # errors
    "FormatError",
    "InapplicableError",
    "InfeasibleConstraintsError",
    "InvalidTreeError",
    "NotABijectionError",
    "NotIsomorphicError",
    "NotMultipartiteError",
    "NotUltrametricError",
    "SpaceValidationError",
    "SpectrumSizeMismatchError",
    "TooLargeError",
    "UmtkError",
    "UnknownPointError",
    "VerificationFailedError",
    # operations
    "adversarial_relabeling",
    "ball_preserving_bijection",
    "ballean_pieces",
    "hasse_dot_pieces",
    "hasse_iso_pieces",
    "hasse_pieces",
    "build_tree",
    "canon_code_labeled",
    "canon_code_unlabeled",
    "check_iso_map",
    "classify_space",
    "decide_isometry",
    "decide_weak_similarity",
    "diameter",
    "diametrical_graph",
    "enumerate_balls",
    "forced_scaling",
    "format_rational",
    "graph_to_dot",
    "hasse_diagram",
    "hasse_digraph_iso",
    "is_ultrametric",
    "multipartite_parts",
    "partition_to_json",
    "oracle_ball_preserving",
    "oracle_isometry",
    "oracle_weak_similarity",
    "parse_rational",
    "phi_pieces",
    "random_relabeled",
    "random_semimetric",
    "random_ultrametric",
    "rank_relabel",
    "renamed_copy",
    "reversed_is_rooted_tree",
    "rooted_tree_iso_map",
    "run_all",
    "space_from_json",
    "space_from_pairs",
    "space_from_tree",
    "space_to_json",
    "spectrum",
    "tree_from_json",
    "tree_to_dot",
    "ultrametric_violation",
    "validate_semimetric",
    "validate_tree",
    "verify_ball_preserving",
    "verify_isometry",
    "verify_weak_similarity",
    "weak_sim_pieces",
    "witness_from_unlabeled_iso",
]
