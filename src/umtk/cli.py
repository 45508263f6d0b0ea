"""Command-line front end.

Every subcommand reads JSON space/tree documents and writes JSON or DOT to
stdout (or ``--out``). Each format has one writer, in the module that owns
its type: the witnesses in ``similarity``, the ballean, the Hasse diagram and
its map in ``balls``, the representing tree in ``reptree``. A writer yields
the document as pieces, for JSON the pieces of ``json.dumps(doc, indent=2) +
"\n"``, one entry per piece, and ``_emit`` writes them ``_BATCH`` at a time,
so no document is held as one string. This module lays out only the
``tree-iso`` map, one pair per piece. ``_emit_json`` serves only the small
reports of ``validate``, ``spectrum``, ``diametric``, ``classify`` and
``gen``. ``_emit`` is called only after every check, so a command that fails
writes nothing and creates no ``--out`` file, and it gives stdout the UTF-8
bytes that ``--out`` gets, whatever stdout's encoding.
Decision subcommands put the verdict in the exit code so they compose in shell
pipelines: 0 = positive / success, 1 = negative, 2 = input or usage error
(including input too deep to process), 3 = internal verification failure or
any other internal error. Only a negative decision exits 1, and no exit prints
a traceback. Witness output goes to stdout only; diagnostics go to stderr.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import re
import sys
from collections.abc import Iterable
from contextlib import contextmanager
from itertools import accumulate, chain, islice
from types import FunctionType

from .balls import (
    ball_preserving_bijection,
    ballean_pieces,
    enumerate_balls,
    hasse_diagram,
    hasse_digraph_iso,
    hasse_dot_pieces,
    hasse_iso_pieces,
    hasse_pieces,
)
from .classify import CLASS_CODES, classify_space
from .diametrical import (
    diametrical_graph,
    graph_to_dot,
    multipartite_parts,
    partition_to_json,
)
from .errors import (
    FormatError,
    NotIsomorphicError,
    NotMultipartiteError,
    NotUltrametricError,
    UmtkError,
    VerificationFailedError,
)
from .generators import GenConfig, random_semimetric, random_ultrametric
from .reptree import (
    RepTree,
    build_tree,
    tree_from_json,
    tree_to_dot,
    tree_to_text,
)
from .similarity import decide_isometry, decide_weak_similarity, phi_pieces, weak_sim_pieces
from .spaces import (
    FiniteSemimetricSpace,
    diameter,
    format_rational,
    is_ultrametric,
    read_literals,
    space_from_json,
    space_to_json,
)
from .suites import run_all
from .treecanon import check_iso_map, rooted_tree_iso_map


def _use_color() -> bool:
    mode = os.environ.get("UMTK_COLOR", "auto")
    if mode == "never":
        return False
    return sys.stderr.isatty()


def _diag(message: str) -> None:
    prefix = "\x1b[31merror:\x1b[0m" if _use_color() else "error:"
    print(f"{prefix} {message}", file=sys.stderr)


# Pieces joined per write. A document is never held as one string: a ballean
# or a deep tree-iso map runs to 10^8 characters and more.
_BATCH = 1024


def _emit(pieces: Iterable[str], out: str | None) -> None:
    """Write the document that ``pieces`` join to stdout, or to the ``--out``
    file, ``_BATCH`` pieces joined at a time; an empty piece does not end it.
    ``writelines`` lets each batch go before it joins the next. Both get its
    UTF-8 bytes; a stdout with no encoding (an ``io.StringIO``) takes str."""
    pieces = iter(pieces)
    batches = map("".join, iter(lambda: list(islice(pieces, _BATCH)), []))
    if out is not None:
        with open(out, "w", encoding="utf-8") as handle:
            handle.writelines(batches)
    elif sys.stdout.encoding is None:
        sys.stdout.writelines(batches)
    else:
        sys.stdout.flush()
        sys.stdout.buffer.writelines(map(str.encode, batches))


def _emit_json(doc: object, out: str | None) -> None:
    """``json.dumps(doc, indent=2) + "\\n"``, written as its encoder's chunks."""
    _emit(chain(json.JSONEncoder(indent=2).iterencode(doc), ["\n"]), out)


# The deepest nesting of arrays and objects the reader takes: a tree document
# of 5 000 levels, one object and its children list per level, then the leaf.
MAX_NESTING = 2 * 5_000 + 1
_STRING = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"')
_NOT_BRACKET = re.compile(r"[^][{}]+")
# json's pure-Python scanner, taking ASCII digits only as the C one does ("\u0661" matches \d)
_py_make_scanner = FunctionType(json.scanner.py_make_scanner.__code__, dict(
    vars(json.scanner), NUMBER_RE=re.compile(json.scanner.NUMBER_RE.pattern.replace(r"\d", "[0-9]"))))


def _nesting(text: str) -> int:
    """The deepest nesting of arrays and objects in a JSON text, strings skipped."""
    brackets = _NOT_BRACKET.sub("", _STRING.sub("", text))
    return max(accumulate(1 if c in "[{" else -1 for c in brackets), default=0)


def _loads(text: str) -> object:
    """``json.loads``. A document past the recursion limit is decoded again,
    up to MAX_NESTING, with the limit raised: by json's C decoder where it
    honours the limit (to 3.11), else by its pure-Python one, whose two frames
    per level take no C stack from 3.11 on. Deeper ones raise RecursionError.
    Its count of ``[`` and ``{`` bounds the nesting; only a document whose
    count passes MAX_NESTING has its nesting measured by ``_nesting``."""
    try:
        return json.loads(text)
    except RecursionError:
        if text.count("[") + text.count("{") > MAX_NESTING and _nesting(text) > MAX_NESTING:
            raise
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 2 * MAX_NESTING + 100)
    try:
        return json.loads(text)
    except RecursionError:  # 3.12 on: the C decoder stops at a fixed depth
        decoder = json.JSONDecoder()
        decoder.scan_once = _py_make_scanner(decoder)
        return decoder.decode(text)
    finally:
        sys.setrecursionlimit(limit)


def _load_json(path: str) -> object:
    with open(path, encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"document is not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    try:
        return _loads(text)
    except RecursionError:
        raise FormatError("JSON nested too deeply") from None
    except json.JSONDecodeError:
        raise  # main reports it as invalid JSON
    except ValueError:
        # the one other ValueError json raises: an int past Python's digit limit
        raise FormatError("JSON number too long to read") from None


@contextmanager
def _collector_paused():
    """Run the block with the cyclic garbage collector disabled, then restore
    the state it had. ``main`` runs each command in it once: a command's JSON
    values, rank tuples, tree arrays, byte codes, ball masks and path strings
    hold no reference cycles, so reference counting frees them all and a
    collection could free nothing."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def _load_space(path: str) -> FiniteSemimetricSpace:
    return space_from_json(_load_json(path))


def _load_tree(path: str, labeled: bool) -> RepTree:
    """Space documents yield their representing tree; raw tree documents are
    taken as-is (and must carry labels when ``labeled``)."""
    doc = _load_json(path)
    if isinstance(doc, dict) and "points" in doc:
        return build_tree(space_from_json(doc))
    return tree_from_json(doc, labeled)


def _node_paths(tree: RepTree) -> list[str]:
    """Dotted child-index path of every position ("" is the root)."""
    paths = [""] * len(tree)
    for v, kids in enumerate(tree.children):
        if kids:
            prefix = paths[v] + "." if v else ""
            for k, c in enumerate(kids):
                paths[c] = f"{prefix}{k}"
    return paths


# --- subcommand handlers --------------------------------------------------


def _cmd_validate(args) -> int:
    space = _load_space(args.space)
    _emit_json(
        {
            "valid": True,
            "points": len(space),
            "ultrametric": is_ultrametric(space),
            "diameter": format_rational(diameter(space)),
        },
        args.out,
    )
    return 0


def _cmd_spectrum(args) -> int:
    space = _load_space(args.space)
    _emit_json({"spectrum": [format_rational(v) for v in space.spectrum]}, args.out)
    return 0


def _cmd_diametric(args) -> int:
    space = _load_space(args.space)
    graph = diametrical_graph(space)
    if args.dot:
        _emit([graph_to_dot(graph)], args.out)
        return 0
    try:
        parts = multipartite_parts(graph)
    except NotMultipartiteError as exc:
        _diag(f"NotMultipartite: {exc}")
        return 1
    _emit_json(partition_to_json(parts), args.out)
    return 0


def _cmd_tree(args) -> int:
    tree = build_tree(_load_space(args.space))
    if args.dot:
        _emit([tree_to_dot(tree)], args.out)
    else:
        _emit(tree_to_text(tree), args.out)
    return 0


def _cmd_tree_iso(args) -> int:
    t1 = _load_tree(args.a, args.labeled)
    t2 = _load_tree(args.b, args.labeled)
    walk: list[int] = []  # the map's pairing order, which the output keeps
    try:
        psi = rooted_tree_iso_map(t1, t2, respect_labels=args.labeled, walk=walk)
    except NotIsomorphicError:
        _diag("trees are not isomorphic")
        return 1
    if not check_iso_map(t1, t2, psi, respect_labels=args.labeled):
        raise VerificationFailedError("tree isomorphism failed re-check")
    if sorted(walk) != list(range(len(t1))):
        raise VerificationFailedError("tree isomorphism pairing order does not hold each node once")
    p1 = _node_paths(t1)
    p2 = _node_paths(t2)
    # the bytes of json.dumps(..., indent=2) + "\n" of the document, one pair
    # per piece in walk order; paths are digits and dots, so no key needs escaping
    head = f'{{\n  "isomorphic": true,\n  "labeled": {json.dumps(args.labeled)},\n  "map": {{'
    pairs = (f'{"," if k else ""}\n    "{p1[a]}": "{p2[psi[a]]}"' for k, a in enumerate(walk))
    _emit(chain([head], pairs, ["\n  }\n}\n"]), args.out)
    return 0


def _decide_pair(args, decide, message: str, pieces) -> int:
    """Load spaces A and B and write ``pieces(decide(A, B), A.points)``; a
    ``None`` decision exits 1 with ``message``. Each handler passes its
    library call as it is bound in this module when the handler runs."""
    x = _load_space(args.a)
    y = _load_space(args.b)
    witness = decide(x, y)
    if witness is None:
        _diag(message)
        return 1
    _emit(pieces(witness, x.points), args.out)
    return 0


def _cmd_isometric(args) -> int:
    return _decide_pair(args, decide_isometry, "spaces are not isometric", lambda w, points: phi_pieces(w.phi, points))


def _cmd_weaksim(args) -> int:
    return _decide_pair(args, decide_weak_similarity, "spaces are not weakly similar", weak_sim_pieces)


def _cmd_classify(args) -> int:
    _emit_json(classify_space(_load_space(args.space)).to_json(), args.out)
    return 0


def _cmd_ballean(args) -> int:
    _emit(ballean_pieces(enumerate_balls(_load_space(args.space))), args.out)
    return 0


def _cmd_hasse(args) -> int:
    diagram = hasse_diagram(enumerate_balls(_load_space(args.space)))
    _emit((hasse_dot_pieces if args.dot else hasse_pieces)(diagram), args.out)
    return 0


def _cmd_hasse_iso(args) -> int:
    def decide(x, y):
        return hasse_digraph_iso(hasse_diagram(enumerate_balls(x)), hasse_diagram(enumerate_balls(y)))

    return _decide_pair(args, decide, "Hasse diagrams are not isomorphic", lambda iso, _: hasse_iso_pieces(iso))


def _cmd_ballpreserving(args) -> int:
    return _decide_pair(args, ball_preserving_bijection, "no ball-preserving bijection exists", phi_pieces)


def _cmd_gen(args) -> int:
    pool, _ = read_literals((args.pool.split(","),))  # the generator draws from its positive values
    force = None if args.force_class == "any" else args.force_class
    config = GenConfig(seed=args.seed, n=args.n, spectrum_pool=pool, force_class=force)
    if args.semimetric:
        space = random_semimetric(config)
    else:
        space = random_ultrametric(config)
    _emit_json(space_to_json(space), args.out)
    return 0


def _cmd_check(args) -> int:
    if args.trials == "default":
        trials: int | None = None
    else:
        try:
            trials = int(args.trials)
        except ValueError:
            _diag(f"--trials expects an integer or 'default', got {args.trials!r}")
            return 2
        if trials < 1:
            _diag("--trials must be positive")
            return 2
    if args.max_n is not None and args.max_n < 1:
        _diag("--max-n must be positive")
        return 2
    results = run_all(seed=args.seed, trials=trials, max_n=args.max_n)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    total = sum(r.trials for r in results)
    if failed:
        print(f"{len(failed)} of {len(results)} suites FAILED ({total} trials)")
        return 3
    print(f"all {len(results)} suites passed ({total} trials)")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="umtk",
        description="Structural equivalences of finite semimetric and ultrametric spaces.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *, spaces=0, dot=False):
        sub = subs.add_parser(name, help=help_text)
        if spaces == 1:
            sub.add_argument("space", help="space document (JSON)")
        elif spaces == 2:
            sub.add_argument("a", help="first document (JSON)")
            sub.add_argument("b", help="second document (JSON)")
        if dot:
            sub.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
        sub.add_argument("--out", help="write output to this file instead of stdout")
        return sub

    add("validate", "check a space document and report basic facts", spaces=1)
    add("spectrum", "list the distance values of a space", spaces=1)
    add("diametric", "multipartite parts of the diametrical graph", spaces=1, dot=True)
    add("tree", "representing tree of an ultrametric space", spaces=1, dot=True)
    tree_iso = add("tree-iso", "rooted tree isomorphism (accepts space or tree documents)", spaces=2)
    tree_iso.add_argument("--labeled", action="store_true", help="labels must match exactly")
    add("isometric", "decide isometry of two spaces", spaces=2)
    add("weaksim", "decide weak similarity of two spaces", spaces=2)
    add("classify", "tree-structural class report of an ultrametric space", spaces=1)
    add("ballean", "list all balls of a space", spaces=1)
    add("hasse", "Hasse diagram of the ballean under inclusion", spaces=1, dot=True)
    add("hasse-iso", "decide Hasse diagram isomorphism", spaces=2)
    add("ballpreserving", "decide existence of a ball-preserving bijection", spaces=2)

    gen = add("gen", "generate a random space document")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--n", type=int, default=5, help="number of points")
    gen.add_argument("--pool", default="1,2,3,4,5,6", help="comma-separated distance pool")
    gen.add_argument(
        "--class",
        dest="force_class",
        choices=(*CLASS_CODES, "any"),
        default="any",
        help="force a tree-structural class",
    )
    gen.add_argument("--semimetric", action="store_true", help="drop the ultrametric constraint")

    check = subs.add_parser("check", help="run the self-checking property suites")
    check.add_argument("--trials", default="default", help="trials per suite, or 'default'")
    check.add_argument("--max-n", type=int, default=None, help="cap the point count")
    check.add_argument("--seed", type=int, default=0)
    return parser


# Built once per process; each command runs the handler named
# ``_cmd_<command>`` as it is bound when ``main`` runs.
_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (None, 0):
            return 0
        return code if isinstance(code, int) else 2
    try:
        with _collector_paused():
            return globals()["_cmd_" + args.command.replace("-", "_")](args)
    except NotUltrametricError as exc:
        _diag(f"NotUltrametric: {exc}")
        return 2
    except VerificationFailedError as exc:
        _diag(f"VerificationFailed: {exc}")
        return 3
    except (FormatError, UmtkError) as exc:
        _diag(f"{type(exc).__name__}: {exc}")
        return 2
    except json.JSONDecodeError as exc:
        _diag(f"invalid JSON: {exc}")
        return 2
    except OSError as exc:
        _diag(str(exc))
        return 2
    except RecursionError as exc:
        _diag(f"input too deep to process: RecursionError: {exc}")
        return 2
    except Exception as exc:
        _diag(f"internal error: {type(exc).__name__}: {exc}")
        return 3


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
