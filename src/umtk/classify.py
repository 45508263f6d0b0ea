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
Conversely, ``adversarial_relabeling`` shows the chain hypothesis is sharp:
for any X that is not an inner chain it produces a space with the same tree
shape but a different spectrum size, hence not weakly similar to X. Both
the class report and the relabeling read the tree's levels through one
top-down walk, ``reptree._inner_levels``.
"""
from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import InapplicableError, VerificationFailedError
from .reptree import RepTree, _inner_levels, _parents, build_tree, space_from_tree
from .similarity import WeakSimWitness, decide_weak_similarity
from .spaces import FiniteSemimetricSpace, format_rational, rank_values
from .treecanon import canon_code_unlabeled

CLASS_CODES = ("R", "Rtilde", "D", "T")


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


def _replace_label(tree: RepTree, position: int, new_label: Fraction) -> RepTree:
    values = list(map(tree.spectrum.__getitem__, tree.labels))
    values[position] = new_label
    spectrum, labels = rank_values(values)
    return RepTree(labels, tree.points, tree.children, spectrum)


def _fresh_between(lo: Fraction, hi: Fraction, avoid: set[Fraction]) -> Fraction:
    """Midpoint of (lo, hi), bisected toward hi until it avoids the given set."""
    value = (lo + hi) / 2
    while value in avoid:
        value = (value + hi) / 2
    return value


def adversarial_relabeling(x: FiniteSemimetricSpace) -> FiniteSemimetricSpace:
    """Same tree shape as X, different spectrum size; hence not weakly similar.

    Requires X not to be an inner chain (some level holds two internal
    nodes); otherwise raises InapplicableError. Exactly one internal label is
    rewritten, chosen deterministically:

      A. a same-level internal pair (x1, x2) with distinct labels where
         x2's label is unique overall and x1's label fits strictly between
         x2's largest child label and its parent label -> copy it (|Sp| - 1);
      B. a same-level internal pair with equal labels -> fresh midpoint value
         in x2's band (|Sp| + 1);
      C. any non-root internal node whose label occurs twice anywhere ->
         fresh midpoint value in its band (|Sp| + 1).

    One of the three always applies: with all labels distinct, the two
    branch-head siblings under the lowest common ancestor of any same-level
    internal pair satisfy A; with a repeated label, the root label never
    repeats (strict decrease), so C has a candidate.
    """
    tree = build_tree(x)
    labels, children = tree.labels, tree.children
    inner = _inner_levels(children, 0)
    multi = [group for group in inner if len(group) >= 2]
    if not multi:
        raise InapplicableError("every level has at most one internal node")

    counts = Counter(labels[v] for group in inner for v in group)
    above = list(map(labels.__getitem__, _parents(children)))  # each position's parent label rank
    value = tree.spectrum
    label_set = set(value)

    def finish(position: int, new_label: Fraction) -> FiniteSemimetricSpace:
        relabeled = _replace_label(tree, position, new_label)
        y = space_from_tree(relabeled)
        if canon_code_unlabeled(build_tree(y)) != canon_code_unlabeled(tree):
            raise VerificationFailedError("relabeling changed the tree shape")
        if len(y.spectrum) == len(x.spectrum):
            raise VerificationFailedError("relabeling kept the spectrum size")
        return y

    # a replacement label stays strictly between the largest child label
    # and the parent label (as ranks)
    def fresh(position: int) -> FiniteSemimetricSpace:
        lo = max(map(labels.__getitem__, children[position]))
        return finish(position, _fresh_between(value[lo], value[above[position]], label_set))

    for group in multi:
        # pair order prefers copying an earlier sibling's label onto a later
        # node, so e.g. labels (1, 2) collapse to (1, 1) rather than (2, 2)
        for node1 in group:
            for node2 in group:
                v1, v2 = labels[node1], labels[node2]
                if v1 == v2 or counts[v2] != 1:
                    continue
                if max(map(labels.__getitem__, children[node2])) < v1 < above[node2]:
                    return finish(node2, value[v1])
    for group in multi:
        for node2 in group:
            if any(labels[node1] == labels[node2] for node1 in group if node1 != node2):
                return fresh(node2)
    for v in range(1, len(tree)):  # preorder, below the root
        if children[v] and counts[labels[v]] >= 2:
            return fresh(v)
    raise VerificationFailedError("no admissible relabeling found")
