"""Span recorder for the traced run.

``install`` wraps the public umtk functions on the request path and rebinds
every name under which a umtk module holds them, plus the two
``FiniteSemimetricSpace`` methods. A wrapper only times the original call:
``lru_cache`` behaviour and every check inside umtk stay as they are. Spans
(name, start, end, parent, request id) are kept in memory; a layer's self time
is its span's duration minus the durations of its direct child spans. Times
are CPU time of the thread, like the request times of the untraced run. Counts
(balls, arcs, tree nodes) are read from the return values after the request
has ended, outside every timed interval.
"""
from __future__ import annotations

import sys
from time import thread_time_ns

# (module, attribute, layer name, count read from the return value)
TARGETS = (
    ("spaces", "space_from_json", "spaces.space_from_json", None),
    ("spaces", "validate_semimetric", "spaces.validate_semimetric", None),
    ("spaces", "ultrametric_violation", "spaces.ultrametric_violation", None),
    ("spaces", "spectrum", "spaces.spectrum", None),
    ("spaces", "FiniteSemimetricSpace.restrict", "spaces.restrict", None),
    ("spaces", "FiniteSemimetricSpace.__hash__", "spaces.hash", None),
    ("diametrical", "diametrical_graph", "diametrical.diametrical_graph", None),
    ("diametrical", "multipartite_parts", "diametrical.multipartite_parts", None),
    ("reptree", "build_tree", "reptree.build_tree", "nodes"),
    ("reptree", "tree_from_json", "reptree.tree_from_json", None),
    ("reptree", "validate_tree", "reptree.validate_tree", None),
    ("treecanon", "canon_code_labeled", "treecanon.canon_code", None),
    ("treecanon", "canon_code_unlabeled", "treecanon.canon_code", None),
    ("treecanon", "rooted_tree_iso_map", "treecanon.rooted_tree_iso_map", None),
    ("similarity", "decide_isometry", "similarity.decide_isometry", None),
    ("similarity", "decide_weak_similarity", "similarity.decide_weak_similarity", None),
    ("similarity", "verify_isometry", "similarity.verify", None),
    ("similarity", "verify_weak_similarity", "similarity.verify", None),
    ("balls", "enumerate_balls", "balls.enumerate_balls", "balls"),
    ("balls", "hasse_diagram", "balls.hasse_diagram", "arcs"),
    ("balls", "hasse_digraph_iso", "balls.hasse_digraph_iso", None),
    ("balls", "verify_ball_preserving", "balls.verify_ball_preserving", None),
)

ROOT = "cli"  # the request span around umtk.cli.main; its self time is cli's
LAYERS = (ROOT,) + tuple(dict.fromkeys(t[2] for t in TARGETS))
CACHED = ("spaces.ultrametric_violation", "spaces.spectrum", "reptree.build_tree", "balls.enumerate_balls")


def _count(kind: str, value: object) -> int:
    if kind == "balls":
        return len(value.balls)
    if kind == "arcs":
        return len(value.arcs)
    # tree nodes, walked without recursion
    count, stack = 0, [value.root]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children)
    return count


class Recorder:
    """Spans of the current request plus per-layer totals over the run."""

    def __init__(self) -> None:
        self.request: int | None = None
        self.spans: list[list] = []  # [name, start, end, parent, request]
        self.stack: list[int] = []
        self.results: list[tuple[str, object]] = []
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.counts: dict[str, int] = {}
        self.count_calls: dict[str, int] = {}
        self.caches: dict[str, object] = {}
        self.cache_start: dict[str, tuple[int, int]] = {}
        # per request: (sum of span self times, latency timed by the caller,
        # smallest self time)
        self.checked: list[tuple[int, int, int]] = []

    def wrap(self, fn, layer: str, count: str | None):
        rec = self

        def traced(*args, **kwargs):
            if rec.request is None:
                return fn(*args, **kwargs)
            span = [layer, thread_time_ns(), 0, rec.stack[-1], rec.request]
            rec.stack.append(len(rec.spans))
            rec.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = thread_time_ns()
                rec.stack.pop()
            if count is not None:
                rec.results.append((layer, count, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def begin(self, request: int) -> None:
        self.request = request
        self.spans = [[ROOT, 0, 0, -1, request]]
        self.stack = [0]
        self.results = []

    def start_root(self) -> None:
        self.spans[0][1] = thread_time_ns()

    def end_root(self) -> None:
        self.spans[0][2] = thread_time_ns()

    def finish(self, latency_ns: int, scale: float) -> None:
        """Close the request: fold its spans into the totals, scaled to
        reference speed by ``scale``. ``latency_ns`` is the request's latency
        as the caller timed it, around the root span.
        The self times always sum to the root span's duration, so only a
        negative self time can show a span attributed to the wrong parent."""
        self.request = None
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans[1:]:
            child_ns[parent] += end - start
        own = [end - start - child_ns[i] for i, (_, start, end, _, _) in enumerate(spans)]
        for span, ns in zip(spans, own):
            self.self_ns[span[0]] += ns * scale
            self.calls[span[0]] += 1
        self.checked.append((sum(own), latency_ns, min(own)))
        for layer, kind, value in self.results:
            self.counts[layer] = self.counts.get(layer, 0) + _count(kind, value)
            self.count_calls[layer] = self.count_calls.get(layer, 0) + 1
        self.results = []
        self.spans = []

    def cache_snapshot(self) -> dict[str, tuple[int, int]]:
        out = {}
        for layer, fn in self.caches.items():
            info = fn.cache_info()
            out[layer] = (info.hits, info.misses)
        return out

    def start(self) -> None:
        self.cache_start = self.cache_snapshot()

    def hit_ratios(self) -> dict[str, float]:
        """Cache hit share per cached layer since ``start``; 0 without a cache."""
        end = self.cache_snapshot()
        out = dict.fromkeys(CACHED, 0.0)
        for layer, (hits, misses) in end.items():
            h0, m0 = self.cache_start.get(layer, (0, 0))
            lookups = (hits - h0) + (misses - m0)
            out[layer] = (hits - h0) / lookups if lookups else 0.0
        return out


def install(rec: Recorder) -> int:
    """Wrap every target and rebind it in all loaded umtk modules; returns
    the number of names rebound."""
    rebound = 0
    mods = [m for name, m in sys.modules.items() if name == "umtk" or name.startswith("umtk.")]
    for modname, attr, layer, count in TARGETS:
        module = sys.modules[f"umtk.{modname}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, rec.wrap(cls.__dict__[meth], layer, count))
            rebound += 1
            continue
        orig = getattr(module, attr)
        if hasattr(orig, "cache_info"):
            rec.caches[layer] = orig
        wrapper = rec.wrap(orig, layer, count)
        for mod in mods:
            for name, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, name, wrapper)
                    rebound += 1
    return rebound
