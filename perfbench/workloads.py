"""The four workloads as decks of requests, written to disk by a generator.

A run replays decks 0, 1, 2, ... of its workload; how many is fixed by the
run length (``DECK_SECONDS``), so every run of a workload does the same mix
of work. Deck ``j`` is a pure function of (workload, seed, j). Decks use fresh
documents, except on ``ultra_catalog``, whose decks draw pairs from one
catalog written with deck 0.

Decks are generated in their own interpreter:

    python3 perfbench/workloads.py --workload W --seed S --deck J --dir D

writes the documents and ``deck<J>.json``, a manifest of the requests with
their expected exit codes. Generating outside the measured process keeps the
generator's memory out of its peak resident set.
"""
from __future__ import annotations

import argparse
import json
import os
import random

import gen

WORKLOADS = ("ultra_fresh", "ultra_catalog", "semi_balls", "tree_docs")
# Request time of one deck at reference speed on the seed program, in
# seconds: a run of T seconds replays round(T / DECK_SECONDS) decks (at least
# one), so its length does not depend on the seed or on the machine's speed.
DECK_SECONDS = {"ultra_fresh": 4.5, "ultra_catalog": 1.5, "semi_balls": 12.4, "tree_docs": 5.9}
# Decks run before timing starts. On ultra_catalog deck 0 is the cold pass that
# fills umtk's caches; the measured decks then show steady-state reuse.
WARMUP_DECKS = {"ultra_catalog": 1}

# witness check per command, for positive verdicts
CHECKS = {
    "isometric": "phi",
    "weaksim": "phi_scaled",
    "ballpreserving": "balls",
    "hasse-iso": "hasse",
}


class Deck:
    """Requests of one deck plus the documents they read."""

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self.count = 0
        self.docs: dict[str, str] = {}  # file name -> text
        self.requests: list[dict] = []

    def name(self) -> str:
        self.count += 1
        return f"{self.prefix}_{self.count}"

    def doc(self, obj) -> str:
        name = self.name() + ".json"
        self.docs[name] = gen.tree_text(obj) if isinstance(obj, gen.Tree) else obj.text()
        return name

    def save(self, manifest: str, fresh: bool) -> dict:
        """Write the documents next to the manifest, then the manifest.
        ``fresh`` documents are deleted once the deck has run."""
        directory = os.path.dirname(manifest)
        for name, text in self.docs.items():
            with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
                handle.write(text)
        out = {
            "requests": self.requests,
            "fresh_docs": sorted(self.docs) if fresh else [],
            "digests": {name: gen.digest(text) for name, text in self.docs.items()},
        }
        with open(manifest, "w", encoding="utf-8") as handle:
            json.dump(out, handle)
        return out

    def add(self, tag: str, cmd: str, a: str, b: str, expected: int, flags: tuple[str, ...] = ()) -> None:
        check = None
        if expected == 0:
            check = CHECKS.get(cmd) or ("tree_labeled" if flags else "tree")
        self.requests.append(
            {"tag": tag, "argv": [cmd, a, b, *flags], "expected": expected, "check": check}
        )


def _certify(cmd: str, x: gen.Space, y: gen.Space) -> None:
    """A negative verdict must follow from an invariant computed here."""
    if cmd == "isometric":
        ok = x.spectrum() != y.spectrum() or gen.signatures(x, False) != gen.signatures(y, False)
    elif cmd == "weaksim":
        ok = len(x.spectrum()) != len(y.spectrum()) or gen.signatures(x, True) != gen.signatures(y, True)
    else:  # ballpreserving, hasse-iso
        ok = len(gen.balls(x)) != len(gen.balls(y))
    if not ok:
        raise AssertionError(f"negative {cmd} pair is not certified by an invariant")


def _pair(deck: Deck, tag: str, cmd: str, x: gen.Space, y: gen.Space, expected: int) -> None:
    if expected:
        _certify(cmd, x, y)
    deck.add(tag, cmd, deck.doc(x), deck.doc(y), expected)


# --- ultra_fresh ------------------------------------------------------------------

SHAPES = ("free", "Rtilde", "R", "T", "D")


def _ultra_base(rng: random.Random, shape: str, n: int, deck: Deck) -> tuple[gen.Tree, gen.Space]:
    t = gen.ultra_shape(rng, shape, n)
    gen.name_leaves(t, deck.name() + "p")
    return t, gen.space_from_tree(t)


def ultra_fresh(deck: Deck, rng: random.Random, j: int) -> None:
    """Every deck covers all five shapes: at n = 32 two positives and one
    negative each, at n = 64 one positive each, and one n = 128 negative.
    n = 128 enters as negatives only: on the seed program one positive
    n = 128 request costs 4-13 s, which would leave two decks a run. The mix
    keeps the median inside the n = 32 positives and the tail inside the
    n = 64 positives, so neither sits on a boundary between request classes."""

    def pair(tag: str, cmd: str, x: gen.Space, y: gen.Space, expected: int) -> None:
        # both sides are new renamed copies, so no request repeats a document
        x = gen.renamed(x, rng, deck.name() + "x")
        y = gen.renamed(y, rng, deck.name() + "y")
        _pair(deck, tag, cmd, x, y, expected)

    def requests(n: int, shape: str, kinds: tuple[str, ...]) -> None:
        t, x = _ultra_base(rng, shape, n, deck)
        for kind in kinds:
            if kind == "w+":
                pair(f"weaksim n={n} {shape} +", "weaksim", x, gen.stretched(x, rng), 0)
            elif kind == "i+":
                pair(f"isometric n={n} {shape} +", "isometric", x, x, 0)
            elif kind == "w-":
                k = rng.randint(1, len(x.spectrum()) - 2)
                pair(f"weaksim n={n} {shape} -", "weaksim", x, gen.merged(x, k), 1)
            else:
                y = gen.space_from_tree(gen.relabel_one(t, rng))
                pair(f"isometric n={n} {shape} -", "isometric", x, y, 1)

    for k, shape in enumerate(SHAPES):
        even = (j + k) % 2 == 0
        requests(32, shape, ("w+", "i+", "w-" if even else "i-"))
        requests(64, shape, ("w+",) if even else ("i+",))
    requests(128, SHAPES[j % len(SHAPES)], ("w-",) if j % 2 == 0 else ("i-",))


# --- ultra_catalog ------------------------------------------------------------------

# Catalog bases have fixed shapes (the seed picks labels, names and point
# order), so the cost of a run does not hinge on which random trees were drawn.
CATALOG_SHAPES = ("balanced", "Rtilde", "T")


def _catalog_base(rng: random.Random, shape: str, deck: Deck) -> tuple[gen.Tree, gen.Space]:
    """64 leaves: a 4-ary tree of depth 3, an 8-level chain of 8 leaves each,
    or a 3-level chain ending in seven fans of 8 leaves."""
    if shape == "balanced":
        t = gen.Tree()
        level = [t.add(None)]
        for _ in range(3):
            level = [t.add(v) for v in level for _ in range(4)]
        gen.label_free(t, rng)
    elif shape == "Rtilde":
        t, _ = gen.chain([8] * 8)
        gen.label_distinct(t, rng)
    else:
        t, bottom = gen.chain([4, 4, 0])
        for _ in range(7):
            fan = t.add(bottom)
            for _ in range(8):
                t.add(fan)
        gen.label_distinct(t, rng)
    gen.name_leaves(t, deck.name() + "p")
    return t, gen.space_from_tree(t)


# (command, first variant, second variant, expected); the variants of a base
# space are [base, renamed, stretched renamed, collapsed, relabeled]
CATALOG_PAIRS = (
    ("weaksim", 0, 2, 0),
    ("weaksim", 1, 3, 1),
    ("isometric", 0, 1, 0),
    ("isometric", 4, 0, 1),
    ("ballpreserving", 2, 0, 0),
    ("ballpreserving", 0, 4, 0),
    ("ballpreserving", 0, 3, 1),
    ("hasse-iso", 1, 2, 0),
    ("hasse-iso", 3, 1, 1),
)


def _collapsing_merge(y: gen.Space, rng: random.Random) -> gen.Space:
    """Merged copy whose ballean is smaller (some ball disappears). Merging
    the two largest values always qualifies: the child of the root with the
    largest label folds into the root."""
    count = len(gen.balls(y))
    ks = list(range(1, len(y.spectrum()) - 1))
    rng.shuffle(ks)
    for k in ks:
        z = gen.merged(y, k)
        if len(gen.balls(z)) != count:
            return z
    raise AssertionError("no spectrum merge changes the ball count")


def catalog(seed: int) -> tuple[Deck, list[list[tuple[str, gen.Space]]]]:
    """The n = 64 catalog: documents plus (file name, space) per variant."""
    rng = random.Random(f"ultra_catalog:{seed}")
    deck = Deck("c")
    out = []
    for shape in CATALOG_SHAPES:
        t, x = _catalog_base(rng, shape, deck)
        y = gen.renamed(x, rng, deck.name() + "y")
        s = gen.stretched(gen.renamed(x, rng, deck.name() + "s"), rng)
        m = _collapsing_merge(gen.renamed(x, rng, deck.name() + "m"), rng)
        r = gen.renamed(gen.space_from_tree(gen.relabel_one(t, rng)), rng, deck.name() + "r")
        out.append([(deck.doc(v), v) for v in (x, y, s, m, r)])
    return deck, out


def ultra_catalog(deck: Deck, cat) -> None:
    for b, variants in enumerate(cat):
        for cmd, a, c, expected in CATALOG_PAIRS:
            (na, x), (nc, y) = variants[a], variants[c]
            if expected:
                _certify(cmd, x, y)
            tag = f"{cmd} {CATALOG_SHAPES[b]} v{a}-v{c} {'-' if expected else '+'}"
            deck.add(tag, cmd, na, nc, expected)


# --- semi_balls -----------------------------------------------------------------------

SEMI_POOL = 48  # with this pool n = 40 spaces carry about 1050 balls
SEMI_CHEAP = 5  # rounds of isometric and weaksim requests per deck


def semi_balls(deck: Deck, rng: random.Random) -> None:
    """A ballpreserving positive at each n and a negative at n = 16, plus
    SEMI_CHEAP isometric and weaksim positives and negatives at each n, so
    that the median and the tail rest on more than one sample per class.
    Each request reads its own new space."""

    def space(n: int) -> gen.Space:
        return gen.random_semimetric(rng, n, SEMI_POOL, deck.name() + "p")

    def pair(tag: str, cmd: str, x: gen.Space, y: gen.Space, expected: int) -> None:
        _pair(deck, tag, cmd, x, gen.renamed(y, rng, deck.name() + "y"), expected)

    for n in (16, 24, 32, 40):
        x = space(n)
        pair(f"ballpreserving n={n} +", "ballpreserving", x, gen.stretched(x, rng), 0)
    for n in (16, 24, 32, 40) * SEMI_CHEAP:
        x = space(n)
        pair(f"isometric n={n} +", "isometric", x, x, 0)
        x = space(n)
        pair(f"isometric n={n} -", "isometric", x, gen.swapped(x, rng), 1)
        x = space(n)
        pair(f"weaksim n={n} +", "weaksim", x, gen.stretched(x, rng), 0)
        x = space(n)
        pair(f"weaksim n={n} -", "weaksim", x, gen.swapped(x, rng), 1)
    x = space(16)
    count = len(gen.balls(x))
    while True:
        w = space(16)
        if len(gen.balls(w)) != count:
            break
    pair("ballpreserving n=16 -", "ballpreserving", x, w, 1)


# --- tree_docs --------------------------------------------------------------------------

# five 1000-leaf trees, so the median sits inside their unlabeled positives
# rather than on the boundary between two request classes
BUSHY_LEAVES = (1000, 1000, 1000, 1000, 1000, 4000, 16000)
CHAIN_DEPTHS = (100, 250, 400, 600, 700)


def tree_docs(deck: Deck, rng: random.Random) -> None:
    """Each tree family gets all four request kinds."""

    def family(kind: str, t: gen.Tree) -> None:
        # every request reads its own shuffled, renamed copies of t
        def copy() -> gen.Tree:
            return gen.shuffled_copy(t, rng, deck.name() + "p")

        def pair(tag: str, t1: gen.Tree, t2: gen.Tree, labeled: bool, expected: int) -> None:
            flags = ("--labeled",) if labeled else ()
            deck.add(f"tree-iso {'--labeled ' * labeled}{kind} {tag}", "tree-iso",
                     deck.doc(t1), deck.doc(t2), expected, flags)

        pair("+", copy(), copy(), False, 0)
        pair("relabeled -", copy(), gen.relabel_one(copy(), rng), True, 1)
        pair("+", copy(), copy(), True, 0)
        pair("moved -", copy(), gen.moved_leaf(copy(), rng), False, 1)

    for leaves in BUSHY_LEAVES:
        t = gen.grow(rng, leaves, 8)
        gen.label_free(t, rng)
        family(f"bushy {leaves}", t)
    for depth in CHAIN_DEPTHS:
        t, _ = gen.chain([1] * (depth + rng.randint(-10, 10) - 1) + [2])
        gen.label_distinct(t, rng)
        family(f"chain {depth}", t)


def write_deck(workload: str, seed: int, j: int, directory: str) -> None:
    """Generate deck j and write its documents and manifest into directory.
    Deck 0 of ultra_catalog also writes the catalog."""
    rng = random.Random(f"{workload}:{seed}:{j}")
    deck = Deck(f"d{j}")
    if workload == "ultra_catalog":
        cat_deck, cat = catalog(seed)
        if j == 0:
            deck.docs.update(cat_deck.docs)
        ultra_catalog(deck, cat)
    elif workload == "ultra_fresh":
        ultra_fresh(deck, rng, j)
    elif workload == "semi_balls":
        semi_balls(deck, rng)
    elif workload == "tree_docs":
        tree_docs(deck, rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(deck.requests)
    deck.save(os.path.join(directory, f"deck{j}.json"), fresh=workload != "ultra_catalog")


def main() -> None:
    parser = argparse.ArgumentParser(description="write one deck of a workload")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--deck", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    write_deck(args.workload, args.seed, args.deck, args.dir)


if __name__ == "__main__":
    main()
