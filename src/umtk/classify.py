"""Shape classes of representing trees and the constructions they license.

Level convention: the root sits at level 0 and "the last level" is the
maximal leaf depth n. Four predicates are reported:

- inner_chain: every level holds at most one internal node (the internal
  nodes then form a single root chain);
- binary_chain: inner_chain and every internal node has exactly two children;
- distinct_labels: the internal labels are pairwise distinct;
- uniform_last_level: levels k < n-1 hold exactly one internal node each and
  all internal nodes at level n-1 have the same number of children.

``binary_chain`` implies ``inner_chain`` implies ``distinct_labels`` (labels
strictly decrease along the chain); no other implication is assumed.

For spaces whose *unlabeled* tree shapes already match, two hypotheses
upgrade the shape isomorphism to a weak similarity: X is an inner chain, or
both spaces have distinct labels and uniform last levels. Under either, the
trees labeled by label rank are equal up to child order (a chain ranked
1..k, or m stars ranked 1..m under a chain ranked above m), so the witness
is the one ``similarity.decide_weak_similarity`` returns, verified there.
Conversely, ``adversarial_relabeling`` shows the chain hypothesis is sharp
by counting: labeled level by level, or node by node in preorder, a tree
that is not an inner chain keeps its shape under two spectrum sizes, and
one of them is not X's. Both the class report and the relabeling read the
tree's levels through one top-down walk, ``reptree._inner_levels``.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .errors import InapplicableError, VerificationFailedError
from .reptree import CLASS_CODES, RepTree, _inner_levels, build_tree, space_from_tree
from .similarity import WeakSimWitness, decide_weak_similarity
from .spaces import FiniteSemimetricSpace, format_rational
from .treecanon import canon_code_unlabeled


@dataclass(frozen=True)
class ClassReport:
    binary_chain: bool
    inner_chain: bool
    distinct_labels: bool
    uniform_last_level: bool
    inner_per_level: tuple[int, ...]
    internal_labels: tuple[Fraction, ...]

    def codes(self) -> tuple[str, ...]:
        """Short class codes, matching the generator's --class flag values."""
        flags = {
            "R": self.binary_chain,
            "Rtilde": self.inner_chain,
            "D": self.distinct_labels,
            "T": self.uniform_last_level,
        }
        return tuple(code for code in CLASS_CODES if flags[code])

    def to_json(self) -> dict:
        return {
            "binary_chain": self.binary_chain,
            "inner_chain": self.inner_chain,
            "distinct_labels": self.distinct_labels,
            "uniform_last_level": self.uniform_last_level,
            "inner_per_level": list(self.inner_per_level),
            "internal_labels": [format_rational(v) for v in self.internal_labels],
            "classes": list(self.codes()),
        }


def _classify_tree(tree: RepTree) -> ClassReport:
    children = tree.children
    inner = _inner_levels(children, 0)
    counts = tuple(map(len, inner))
    labels = sorted(tree.labels[v] for group in inner for v in group)
    depth = len(inner) - 1

    inner_chain = all(c <= 1 for c in counts)
    binary_chain = inner_chain and all(
        len(children[v]) == 2 for group in inner for v in group
    )
    distinct = len(set(labels)) == len(labels)
    if depth == 0:
        uniform = True
    else:
        chain_above = all(counts[k] == 1 for k in range(depth - 1))
        fan_sizes = {len(children[v]) for v in inner[depth - 1]}
        uniform = chain_above and len(fan_sizes) <= 1
    values = tuple(map(tree.spectrum.__getitem__, labels))
    return ClassReport(binary_chain, inner_chain, distinct, uniform, counts, values)


def classify_space(space: FiniteSemimetricSpace) -> ClassReport:
    """Class membership report for an ultrametric space (via its tree)."""
    return _classify_tree(build_tree(space))


class ShapeWitnessOutcome(enum.Enum):
    """Non-witness results of ``witness_from_unlabeled_iso``."""

    NOT_ISOMORPHIC_SHAPES = "not-isomorphic-shapes"
    INAPPLICABLE = "inapplicable"


NOT_ISOMORPHIC_SHAPES = ShapeWitnessOutcome.NOT_ISOMORPHIC_SHAPES
INAPPLICABLE = ShapeWitnessOutcome.INAPPLICABLE


def witness_from_unlabeled_iso(
    x: FiniteSemimetricSpace, y: FiniteSemimetricSpace
) -> WeakSimWitness | ShapeWitnessOutcome:
    """Build a weak similarity from an unlabeled tree-shape isomorphism.

    Returns NOT_ISOMORPHIC_SHAPES when the shapes differ. When X is an inner
    chain, any shape isomorphism works: pair the chains level by level and
    send the i-th largest label of X to the i-th largest of Y. When both
    spaces have distinct labels and uniform last levels, the same label-rank
    pairing extends to the sibling fans at the last internal level. Either
    way the pairing is the tree map that keeps label ranks, so the witness is
    the verified one of ``decide_weak_similarity``. Outside those hypotheses
    returns INAPPLICABLE.
    """
    tx, ty = build_tree(x), build_tree(y)
    cx, cy = _classify_tree(tx), _classify_tree(ty)
    applicable = cx.inner_chain or all(
        c.distinct_labels and c.uniform_last_level for c in (cx, cy)
    )
    # the shape codes only name a pair with no witness
    witness = decide_weak_similarity(x, y) if applicable else None
    if witness is None and canon_code_unlabeled(tx) != canon_code_unlabeled(ty):
        return NOT_ISOMORPHIC_SHAPES
    if not applicable:
        return INAPPLICABLE
    if witness is None:
        raise VerificationFailedError("shape-isomorphic pair is not weakly similar")
    return witness


def adversarial_relabeling(x: FiniteSemimetricSpace) -> FiniteSemimetricSpace:
    """Same tree shape as X, different spectrum size; hence not weakly similar.

    Requires X not to be an inner chain; otherwise raises InapplicableError.
    Let X's tree have m internal nodes on L levels. Every level down to the
    deepest internal node holds some, so L <= m, with equality exactly for an
    inner chain. Two relabelings keep the shape: each internal node labeled
    by its level counted from the bottom (L at the root, down to 1), with
    L + 1 spectrum values; or labeled m, m - 1, ..., 1 in preorder, where a
    child follows its parent, with m + 1 values. Off the chains the sizes
    differ, so the preorder labels are returned unless |Sp(X)| = m + 1, and
    the level labels otherwise.
    """
    tree = build_tree(x)
    levels = _inner_levels(tree.children, 0)[:-1]
    internal = [v for v, kids in enumerate(tree.children) if kids]  # preorder
    if len(levels) == len(internal):
        raise InapplicableError("every level has at most one internal node")
    # label K down to 1 by group: a level each, or an internal node each
    groups = levels if len(x.spectrum) == len(internal) + 1 else [[v] for v in internal]
    labels = [0] * len(tree)
    for label, group in zip(range(len(groups), 0, -1), groups):
        for v in group:
            labels[v] = label
    spectrum = tuple(map(Fraction, range(len(groups) + 1)))  # each label its own rank
    y = space_from_tree(RepTree(labels, tree.points, tree.children, spectrum))
    if canon_code_unlabeled(build_tree(y)) != canon_code_unlabeled(tree):
        raise VerificationFailedError("relabeling changed the tree shape")
    if len(y.spectrum) == len(x.spectrum):
        raise VerificationFailedError("relabeling kept the spectrum size")
    return y
