"""Digest of every request's output on deck 0 of the four benchmark workloads.

    python3 tests/deck_digests.py --seed 7

Deck 0 of each workload is generated by ``perfbench/workloads.py`` into a
temporary directory, and its requests run in deck order, each an in-process
``umtk.cli.main(argv)`` call as the benchmark makes it. One line is printed per
request, tab-separated: the workload, the request's tag, its exit code (or
the name of the exception it raised) and a digest of its stdout and stderr,
in which the temporary directory's path reads ``<dir>``. Two checkouts give the same lines
iff every request gave the same exit code and the same bytes on both streams.
The exit status is 1 if some exit code differs from the verdict the deck
expects, else 0.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402  (perfbench/workloads.py)
from umtk.cli import main as umtk_main  # noqa: E402


def deck_lines(workload: str, seed: int) -> tuple[list[str], list[str]]:
    """The digest lines of deck 0 of a workload, and its wrong verdicts."""
    lines, wrong = [], []
    with tempfile.TemporaryDirectory() as directory:
        workloads.write_deck(workload, seed, 0, directory)
        with open(os.path.join(directory, "deck0.json"), encoding="utf-8") as handle:
            deck = json.load(handle)
        for req in deck["requests"]:
            cmd, *names = req["argv"][:3]
            argv = [cmd, *(os.path.join(directory, name) for name in names), *req["argv"][3:]]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc: object = umtk_main(argv)
                except Exception as exc:  # reported, like an exit code
                    rc = type(exc).__name__
            text = (out.getvalue() + "\0" + err.getvalue()).replace(directory, "<dir>")
            digest = hashlib.sha256(text.encode()).hexdigest()[:16]
            lines.append("\t".join([workload, req["tag"], str(rc), digest]))
            if rc != req["expected"]:
                wrong.append(f"{workload} {req['tag']}: exit {rc}, expected {req['expected']}")
    return lines, wrong


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    os.environ["UMTK_COLOR"] = "never"
    wrong = []
    for workload in workloads.WORKLOADS:
        lines, bad = deck_lines(workload, args.seed)
        print("\n".join(lines))
        wrong += bad
    for line in wrong:
        print(line, file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
