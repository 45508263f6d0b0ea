"""umtk benchmark: seeded CLI request workloads, measured from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout. Each workload run happens in a fresh
interpreter (worker.py), because umtk's content-keyed ``lru_cache``s would
otherwise carry results from one run into the next. Set-up is timed in
separate fresh interpreters too, and ``setup_s`` is the median.

``--seconds`` fixes how many decks a run replays: as many as the seed
program needs for that much request time at reference speed (see
worker.py), so every run of a workload does the same mix of work. With
``--trace 0`` the end-to-end metrics are reported. With ``--trace 1`` an
untraced reference pass replays half as many decks, then a traced pass
replays exactly the same decks with span recording on, and the per-layer
metrics and the tracing overhead are reported. The last stdout line is the
JSON result; the lines before it are the same numbers for people. The exit
code is 0 when every verdict and witness was right, 1 when one was wrong or
a worker failed, and 2 on a usage error.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
from workloads import DECK_SECONDS, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 2  # extra fresh-interpreter set-ups; the run's own set-up is one more
DEADLINE_S = 170  # every worker is stopped before the run exceeds this
# Tail percentile per workload: the highest one with at least 10 successful
# requests beyond it in a run of the recorded length (15 s) on the seed program.
TAIL_PCT = {"ultra_fresh": 85, "ultra_catalog": 96, "semi_balls": 88, "tree_docs": 92}


def _worker(args: list[str], seed: int, deadline: float) -> dict:
    env = dict(os.environ, UMTK_COLOR="never", PYTHONHASHSEED=str(seed % 2**32))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("no time left for another worker")
    # own session, so a timeout also stops the deck generator a worker started
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise RuntimeError(f"worker {args[0]} ran out of time") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}")
    return json.loads(lines[-1])


def _percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _end_to_end(workload: str, res: dict, setups: list[float]) -> tuple[dict, list[str]]:
    lat_ms = sorted(ns / 1e6 for ns in res["latencies_ns"])
    if len(lat_ms) < 2:
        raise RuntimeError(f"only {len(lat_ms)} successful requests; latency is undefined")
    attempted = res["attempted"]
    failed = sum(res["failures"].values()) + len(res["wrong"])
    pct = TAIL_PCT[workload]
    tail = _percentile(lat_ms, pct)
    beyond = sum(v > tail for v in lat_ms)
    metrics = {
        "req_per_s": (len(lat_ms) / (res["busy_ns"] / 1e9), "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_tail_ms": (tail, "ms"),
        "success_rate": ((attempted - failed) / attempted, "share"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    breakdown = ", ".join(
        f"{kind}={res['failures'].get(kind, 0)}" for kind in ("RecursionError", "exit 2", "exit 3")
    )
    others = [f"{k}={v}" for k, v in sorted(res["failures"].items()) if k not in ("RecursionError", "exit 2", "exit 3")]
    notes = {
        "latency_tail_ms": f"p{pct} of {len(lat_ms)} successful requests, {beyond} beyond it",
        "success_rate": f"fail_rate {failed / attempted:.4f} = {failed} of {attempted}; "
        f"failures by kind: {', '.join([breakdown, *others])}, wrong verdicts={len(res['wrong'])}",
        "setup_s": f"median of {len(setups)} set-ups: " + ", ".join(f"{s:.3f}" for s in setups),
        "req_per_s": f"{len(lat_ms)} successful requests in {res['busy_ns'] / 1e9:.2f} s of request time "
        f"at reference speed ({res['cpu_ns'] / 1e9:.2f} s of CPU time as measured), {res['decks']} decks",
    }
    lines = [f"  {name:<16} {value:>12.4f} {unit:<6} {notes.get(name, '')}" for name, (value, unit) in metrics.items()]
    lines.append(f"  repeat_share     {res['repeats'] / attempted:>12.4f}        "
                 "requests reading a document whose content an earlier request read")
    costliest = sorted(res["by_tag"].items(), key=lambda kv: -kv[1][1])[:3]
    lines.append("  costliest request classes: " + "; ".join(
        f"{tag} {ns / 1e9:.2f} s over {count} ({failed} failed)" for tag, (count, ns, failed) in costliest))
    return metrics, lines


def _per_layer(ref: dict, traced: dict) -> tuple[dict, list[str]]:
    tr = traced["trace"]
    n = traced["attempted"]
    metrics: dict[str, tuple[float, str]] = {}
    for layer in spans.LAYERS:
        metrics[f"{layer}.self_ms"] = (tr["self_ns"][layer] / n / 1e6, "ms")
        if layer != spans.ROOT:
            metrics[f"{layer}.calls"] = (tr["calls"][layer] / n, "calls/req")
    for layer in spans.CACHED:
        metrics[f"{layer}.hit_ratio"] = (tr["hit_ratio"][layer], "share")
    for layer, name, unit in (
        ("balls.enumerate_balls", "ball_count", "balls/call"),
        ("balls.hasse_diagram", "arc_count", "arcs/call"),
        ("reptree.build_tree", "node_count", "nodes/call"),
    ):
        calls = tr["count_calls"].get(layer, 0)
        metrics[f"{layer}.{name}"] = (tr["counts"].get(layer, 0) / calls if calls else 0.0, unit)
    overhead = (traced["busy_ns"] / ref["busy_ns"] - 1) * 100
    metrics["trace.overhead_pct"] = (overhead, "%")
    lines = [f"  {name:<42} {value:>12.4f} {unit}" for name, (value, unit) in metrics.items()]
    bad = sum(1 for total, latency, smallest in tr["checked"] if total > latency or smallest < 0)
    lines.append(f"  layer self times are non-negative and add up to at most the request's latency "
                 f"in {n - bad} of {n} requests")
    lines.append(
        f"  tracing overhead {overhead:.1f} %: traced {traced['busy_ns'] / 1e9:.2f} s vs untraced "
        f"{ref['busy_ns'] / 1e9:.2f} s of request time over the same {n} requests"
    )
    return metrics, lines


def main() -> int:
    parser = argparse.ArgumentParser(description="umtk benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "umtk", "cli.py")):
        print(f"error: no umtk sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    work = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        run_dir = os.path.join(work, "run")
        os.makedirs(run_dir)
        if args.trace:
            decks = str(max(1, round(args.seconds / 2 / DECK_SECONDS[args.workload])))
            ref = _worker(["run", *common, "--dir", run_dir, "--decks", decks], args.seed, deadline)
            res = _worker(["run", *common, "--dir", run_dir, "--decks", decks, "--trace"], args.seed, deadline)
            metrics, lines = _per_layer(ref, res)
            wrong = ref["wrong"] + res["wrong"]
        else:
            setups = []
            for k in range(SETUP_SAMPLES):
                sub = os.path.join(work, f"setup{k}")
                os.makedirs(sub)
                setups.append(_worker(["setup", *common, "--dir", sub], args.seed, deadline)["setup_s"])
                shutil.rmtree(sub)
            decks = str(max(1, round(args.seconds / DECK_SECONDS[args.workload])))
            res = _worker(["run", *common, "--dir", run_dir, "--decks", decks], args.seed, deadline)
            metrics, lines = _end_to_end(args.workload, res, setups + [res["setup_s"]])
            wrong = res["wrong"]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(HERE, "_work"))
        except OSError:
            pass

    mode = "traced, per-layer" if args.trace else "untraced, end-to-end"
    print(f"workload {args.workload} seed {args.seed} ({mode}): {res['attempted']} requests, {res['decks']} decks")
    print("\n".join(lines))
    for error in wrong[:20]:
        print(f"  WRONG {error}")
    failed = sum(res["failures"].values()) + len(res["wrong"])
    print(json.dumps({
        "correct": not wrong,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
