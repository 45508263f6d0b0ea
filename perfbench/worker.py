"""One workload run in a fresh interpreter (started by run.py).

    worker.py setup  --workload W --seed S --dir D
    worker.py run    --workload W --seed S --dir D --decks K [--trace]

``setup`` imports umtk, has the first deck (and the catalog) generated and
written by workloads.py in a fresh interpreter, and reports how much CPU time
that took. ``run`` does the same set-up, then sends the requests of ``--decks``
decks in a closed loop, one at a time, each an in-process
``umtk.cli.main(argv)`` call. Every verdict is compared with the expected one. Every
witness is written to disk and checked by check.py in a separate process
after its deck, so the checker's memory stays out of this process's peak
resident set. The last line of stdout is one JSON object with the raw results.

Request time is CPU time (user + system) of the worker's one thread across
the ``cli.main`` call, at reference speed. The thread clock is read, not the
process clock, because the process clock turns tick-grained while the
SIGPROF timer below is armed. umtk does no waiting of its own (its
documents sit in the page cache), so CPU time is the request's latency minus
the time the process was kept off the CPU by other processes of the machine.
On a shared host the CPU itself also runs faster or slower for seconds at a
time, as other tenants load it. So a fixed reference loop is timed between
every two requests, and also every SAMPLE_S of CPU time inside a request (on
SIGPROF); the samples' own time is taken out of the request's. Each
request's CPU time is scaled to reference speed by REF_NS times the mean of
1 / (loop time) over the samples just before, inside and just after it.
Set-up time is scaled the same way.
"""
from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

# The reference loop does the kinds of work umtk's requests do: integer
# arithmetic, Fraction comparisons, and parsing a small matrix of rational
# literals and scanning its triples. Its time tracks the host's speed for
# umtk's code better than plain integer arithmetic does. The collector is off
# while it runs, so its time does not grow with umtk's heap.
_MATRIX = json.dumps([[f"{(i ^ j) % 7 + 1}/{i % 3 + 1}" for j in range(12)] for i in range(12)])
_FRACTIONS = [Fraction(i % 97 + 1, i % 13 + 1) for i in range(300)]
# CPU time of one reference_ns() loop at the reference speed: about its
# median on the shared 2-vCPU 2.1 GHz Xeon host the benchmark was tuned on,
# where other tenants' load moved it between about 1.35 and 2.45 ms
REF_NS = 1_900_000


def reference_ns() -> int:
    """CPU time of the fixed reference loop, in ns."""
    collecting = gc.isenabled()
    gc.disable()
    t0 = time.thread_time_ns()
    s = 0
    for i in range(5000):
        s += i * i % 7
    for a, b in zip(_FRACTIONS, _FRACTIONS[1:]):
        s += a < b
    rows = [[Fraction(text) for text in row] for row in json.loads(_MATRIX)]
    for row in rows:
        for j, d in enumerate(row):
            for k in range(0, len(rows), 3):
                s += d > max(row[k], rows[k][j])
    t1 = time.thread_time_ns()
    if collecting:
        gc.enable()
    return t1 - t0


SAMPLE_S = 0.1  # CPU seconds between reference samples inside a request
SAMPLE_DEPTH = 60  # stack frames a sample may add; closer to the limit it is skipped


class Sampler:
    """Reference samples taken inside a request, from a SIGPROF handler."""

    def __init__(self) -> None:
        self.samples: list[int] = []
        self.stolen_ns = 0  # CPU time the handler took

    def handle(self, signum, frame) -> None:
        t0 = time.thread_time_ns()
        depth = 0
        while frame is not None:
            depth += 1
            frame = frame.f_back
        # a sample must never push umtk's recursion over the limit
        if depth + SAMPLE_DEPTH < sys.getrecursionlimit():
            self.samples.append(reference_ns())
        self.stolen_ns += time.thread_time_ns() - t0

    def arm(self) -> None:
        self.samples, self.stolen_ns = [], 0
        signal.signal(signal.SIGPROF, self.handle)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_S, SAMPLE_S)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)


SETUP_REFERENCE = [reference_ns() for _ in range(3)]
SETUP_START = time.process_time()

import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _import_umtk():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import umtk.cli

    where = os.path.realpath(umtk.cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"umtk was imported from {where}, not from {src}")
    return umtk.cli


def _write_deck(args, j: int) -> dict:
    """Generate deck j in a fresh interpreter and read its manifest."""
    subprocess.run(
        [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--deck", str(j), "--dir", args.dir],
        check=True,
    )
    with open(os.path.join(args.dir, f"deck{j}.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _set_up(args):
    """Import umtk and write the first deck; returns (cli, manifest, CPU
    seconds of this process and the deck generator since start-up, at
    reference speed)."""
    cli = _import_umtk()
    deck = _write_deck(args, 0)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_s = time.process_time() - SETUP_START + children.ru_utime + children.ru_stime
    loops = SETUP_REFERENCE + [reference_ns() for _ in range(3)]
    return cli, deck, cpu_s * REF_NS * statistics.mean(1 / loop for loop in loops)


def _verdict(req: dict, rc, exc) -> tuple[str | None, str | None]:
    """(failure kind, correctness error) of one finished request."""
    if exc is not None:
        return exc, None
    if rc not in (0, 1):
        return f"exit {rc}", None
    if rc != req["expected"]:
        return None, f"{req['tag']}: exit {rc}, expected {req['expected']}"
    return None, None


class Tally:
    """What the requests of a run did."""

    def __init__(self) -> None:
        self.attempted = 0
        self.busy_ns = 0  # request time at reference speed, summed over requests
        self.cpu_ns = 0  # request time as measured, before scaling
        self.latencies: list[float] = []  # ns at reference speed, requests with the right verdict
        self.failures: dict[str, int] = {}  # RecursionError, exit 2, ...
        self.wrong: list[str] = []  # wrong verdicts and bad witnesses
        self.repeats = 0  # requests reading content an earlier request read
        self.by_tag: dict[str, list] = {}  # request class -> [requests, ns, failures]
        self.seen: set[str] = set()
        self.digests: dict[str, str] = {}
        self.reference = 0  # the last reference loop's time
        self.sampler = Sampler()


def run_deck(main, deck: dict, directory: str, tally: Tally, rec=None) -> list[dict]:
    """Send the deck's requests one at a time and account for each; returns
    the witnesses still to be checked (written next to the documents)."""
    real_out, real_err = sys.stdout, sys.stderr
    tally.digests.update(deck["digests"])
    pending = []
    tally.reference = reference_ns()
    for req in deck["requests"]:
        names = req["argv"][1:3]
        argv = [req["argv"][0], *(os.path.join(directory, a) for a in names), *req["argv"][3:]]
        contents = [tally.digests[name] for name in names]
        tally.repeats += any(c in tally.seen for c in contents)
        tally.seen.update(contents)
        out, err = io.StringIO(), io.StringIO()
        rc = exc = None
        if rec is not None:
            rec.begin(tally.attempted)
        sys.stdout, sys.stderr = out, err
        tally.sampler.arm()
        t0 = time.thread_time_ns()
        if rec is not None:
            rec.start_root()
        try:
            rc = main(argv)
        except Exception as e:  # a request that raises is a counted failure
            exc = type(e).__name__
        finally:
            if rec is not None:
                rec.end_root()
            ns = time.thread_time_ns() - t0
            tally.sampler.disarm()
            sys.stdout, sys.stderr = real_out, real_err
        before, tally.reference = tally.reference, reference_ns()
        loops = [before, *tally.sampler.samples, tally.reference]
        scale = REF_NS * statistics.mean(1 / loop for loop in loops)
        if rec is not None:
            # span times include the samples' time; the request's latency too
            rec.finish(ns, scale)
        ns -= tally.sampler.stolen_ns
        tally.cpu_ns += ns
        ns *= scale
        tally.attempted += 1
        tally.busy_ns += ns
        failure, error = _verdict(req, rc, exc)
        row = tally.by_tag.setdefault(req["tag"], [0, 0, 0])
        row[0] += 1
        row[1] += ns
        row[2] += failure is not None
        if failure:
            tally.failures[failure] = tally.failures.get(failure, 0) + 1
        elif error:
            tally.wrong.append(error)
        else:
            # a witness found bad later makes the whole run incorrect
            tally.latencies.append(ns)
            if rc == 0 and req["check"] is not None:
                path = os.path.join(directory, f"witness{len(pending)}.json")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(out.getvalue())
                a, b = (os.path.join(directory, name) for name in names)
                pending.append({"tag": req["tag"], "check": req["check"], "a": a, "b": b, "out": path})
    return pending


def check_witnesses(pending: list[dict], directory: str) -> list[str]:
    """Check the witnesses in a check.py process; returns its errors."""
    if not pending:
        return []
    listing = os.path.join(directory, "witnesses.json")
    with open(listing, "w", encoding="utf-8") as handle:
        json.dump(pending, handle)
    done = subprocess.run([sys.executable, os.path.join(HERE, "check.py"), listing],
                          stdout=subprocess.PIPE, text=True, check=True)
    for path in [listing, *(item["out"] for item in pending)]:
        os.remove(path)
    return json.loads(done.stdout)


def play(main, deck: dict, directory: str, tally: Tally, rec=None) -> None:
    """Run a deck, then check its witnesses."""
    pending = run_deck(main, deck, directory, tally, rec)
    tally.wrong += check_witnesses(pending, directory)


def run(args) -> dict:
    cli, deck, setup_s = _set_up(args)
    tally = Tally()
    j = 0
    for _ in range(workloads.WARMUP_DECKS.get(args.workload, 0)):
        warm = Tally()
        play(cli.main, deck, args.dir, warm)
        tally.wrong += warm.wrong  # the gate covers warm-up requests too
        tally.digests, tally.seen = warm.digests, warm.seen
        os.remove(os.path.join(args.dir, f"deck{j}.json"))
        j += 1
        deck = _write_deck(args, j)
    rec = None
    if args.trace:
        import spans

        rec = spans.Recorder()
        spans.install(rec)
        rec.start()
    for k in range(args.decks):
        if k:
            deck = _write_deck(args, j)
        pending = run_deck(cli.main, deck, args.dir, tally, rec)
        tally.wrong += check_witnesses(pending, args.dir)
        for name in deck["fresh_docs"]:
            os.remove(os.path.join(args.dir, name))
        os.remove(os.path.join(args.dir, f"deck{j}.json"))
        j += 1

    result = {
        "setup_s": setup_s,
        "decks": args.decks,
        "attempted": tally.attempted,
        "latencies_ns": tally.latencies,
        "busy_ns": tally.busy_ns,
        "cpu_ns": tally.cpu_ns,
        "failures": tally.failures,
        "wrong": tally.wrong,
        "repeats": tally.repeats,
        "by_tag": tally.by_tag,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if rec is not None:
        result["trace"] = {
            "self_ns": rec.self_ns,
            "calls": rec.calls,
            "counts": rec.counts,
            "count_calls": rec.count_calls,
            "hit_ratio": rec.hit_ratios(),
            "checked": rec.checked,
        }
    return result


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--decks", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if args.mode == "setup":
        result = {"setup_s": _set_up(args)[2]}
    else:
        result = run(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
