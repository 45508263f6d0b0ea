"""Self-test of the benchmark's own gates, on small instances (about a second).

    python3 perfbench/selftest.py

Run from the root of a checkout. It checks that

1. umtk's verdicts and witnesses on a small mixed deck pass the gate;
2. a planted wrong expected verdict trips the correctness gate, and run.py
   then prints ``"correct": false`` and exits 1;
3. every witness check rejects a witness corrupted into a non-bijection,
   also when it runs in its own process as in a workload run;
4. in a traced pass each request's layer self times are non-negative (the
   check that catches a span attributed to the wrong parent) and add up to
   no more than the request's latency as the worker timed it, and the
   wrappers reached the layers the deck exercises.

Exits 0 when all hold, 1 otherwise.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def small_deck(directory: str) -> dict:
    """Every command and check kind of the workloads, at toy sizes."""
    rng = random.Random("selftest")
    deck = workloads.Deck("s")

    def pair(tag, cmd, x, y, expected):
        workloads._pair(deck, tag, cmd, x, y, expected)

    t = gen.ultra_shape(rng, "free", 12)
    gen.name_leaves(t, "u")
    x = gen.space_from_tree(t)
    y = gen.renamed(x, rng, "v")
    s = gen.stretched(gen.renamed(x, rng, "w"), rng)
    pair("isometric ultra +", "isometric", x, y, 0)
    pair("isometric ultra -", "isometric", x, s, 1)
    pair("weaksim ultra +", "weaksim", x, s, 0)
    pair("weaksim ultra -", "weaksim", x, gen.merged(y, 1), 1)
    pair("ballpreserving ultra +", "ballpreserving", x, s, 0)
    pair("hasse-iso ultra +", "hasse-iso", x, y, 0)
    z = gen.random_semimetric(rng, 10, 6, "a")
    pair("ballpreserving semi +", "ballpreserving", z, gen.stretched(gen.renamed(z, rng, "b"), rng), 0)
    pair("isometric semi +", "isometric", z, gen.renamed(z, rng, "c"), 0)
    tree = gen.grow(rng, 30, 4)
    gen.label_free(tree, rng)
    gen.name_leaves(tree, "t")
    other = gen.shuffled_copy(tree, rng, "r")
    deck.add("tree-iso +", "tree-iso", deck.doc(tree), deck.doc(other), 0)
    deck.add("tree-iso --labeled +", "tree-iso", deck.doc(tree), deck.doc(other), 0, ("--labeled",))
    deck.add("tree-iso moved -", "tree-iso", deck.doc(tree), deck.doc(gen.moved_leaf(tree, rng)), 1)
    return deck.save(os.path.join(directory, "deck0.json"), fresh=False)


def corrupt(out: str) -> str:
    """Send two different sources to one image, so no bijection remains."""
    doc = json.loads(out)
    m = doc.get("phi", doc.get("map"))
    if isinstance(m, dict):
        keys = list(m)
        m[keys[1]] = m[keys[0]]
    else:
        m[1][1] = m[0][1]
    return json.dumps(doc)


def main() -> int:
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    directory = os.path.join(HERE, "_work", f"selftest-{os.getpid()}")
    os.makedirs(directory)
    try:
        cli = worker._import_umtk()
        deck = small_deck(directory)

        tally = worker.Tally()
        worker.play(cli.main, deck, directory, tally)
        expect(not tally.wrong and not tally.failures, f"gate passes umtk on the small deck {tally.wrong}")

        planted = dict(deck, requests=[dict(r) for r in deck["requests"]])
        planted["requests"][0]["expected"] ^= 1
        tally = worker.Tally()
        worker.play(cli.main, planted, directory, tally)
        expect(len(tally.wrong) == 1, "a planted wrong expected verdict trips the gate")

        for req in deck["requests"]:
            if req["check"] is None:
                continue
            a, b = (os.path.join(directory, name) for name in req["argv"][1:3])
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                cli.main([req["argv"][0], a, b, *req["argv"][3:]])
            good = check.check(req["check"], out.getvalue(), a, b)
            bad = check.check(req["check"], corrupt(out.getvalue()), a, b)
            expect(good is None and bad is not None, f"check {req['check']} on {req['tag']}")
            path = os.path.join(directory, "corrupt.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(corrupt(out.getvalue()))
            errors = worker.check_witnesses(
                [{"tag": req["tag"], "check": req["check"], "a": a, "b": b, "out": path}], directory)
            expect(len(errors) == 1, f"check {req['check']} in a check.py process on {req['tag']}")

        rec = spans.Recorder()
        rebound = spans.install(rec)
        rec.start()
        tally = worker.Tally()
        worker.play(cli.main, deck, directory, tally, rec)
        expect(rebound >= len(spans.TARGETS), f"{rebound} names rebound")
        expect(all(total <= latency and smallest >= 0 for total, latency, smallest in rec.checked)
               and len(rec.checked) == len(deck["requests"]),
               "layer self times are non-negative and add up to at most the request's latency")
        reached = [layer for layer in ("reptree.build_tree", "treecanon.canon_code", "balls.hasse_diagram",
                                       "similarity.verify", "reptree.tree_from_json", "spaces.hash")
                   if rec.calls[layer] > 0]
        expect(len(reached) == 6, f"traced layers reached: {reached}")
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    # run.py turns a wrong verdict into "correct": false and exit code 1
    fake = {"setup_s": 0.1, "decks": 1, "attempted": 2, "latencies_ns": [1, 2], "by_tag": {},
            "busy_ns": 3, "cpu_ns": 3, "failures": {}, "wrong": ["planted"], "repeats": 0, "peak_rss_kb": 1024}
    real_worker, argv = run._worker, sys.argv
    run._worker = lambda *args, **kwargs: fake
    sys.argv = ["run.py", "--workload", "semi_balls", "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main()
    finally:
        run._worker, sys.argv = real_worker, argv
    last = json.loads(out.getvalue().strip().splitlines()[-1])
    expect(code == 1 and last["correct"] is False, "run.py exits 1 with correct false on a wrong verdict")

    print("self-test", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
