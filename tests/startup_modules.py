"""Check which modules ``import umtk.cli`` loads, in this interpreter.

    python tests/startup_modules.py

Run it in a fresh interpreter. It first imports the stdlib modules that
``cli`` and the modules it loads import, read off their source. Then it
imports ``umtk.cli`` and checks what that loaded:

- all six eager modules, the ones the request commands and the benchmark's
  span tracer need (building the parser may load a few stdlib modules
  more, such as ``locale`` for argparse's messages);
- none of ``dataclasses``, ``inspect`` or the command-only modules
  ``suites``, ``generators`` and ``classify``, which load on first use of a
  name of theirs.

Last it checks that those lazy names resolve, from the package and from
``cli``, and that every name in the package's ``__all__`` does. umtk is imported as the interpreter finds it (set
``PYTHONPATH`` to choose a checkout). It prints the modules the import
loaded and exits 1 on a failed check.
"""
from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import sys

EAGER = ("spaces", "reptree", "treecanon", "similarity", "balls", "diametrical")
# the modules cli loads besides those: the package and two leaf modules
LOADED = ("__init__", "cli", "errors", "search", *EAGER)
ABSENT = ("dataclasses", "inspect", "umtk.suites", "umtk.generators", "umtk.classify")


def stdlib_imports(package_dir: str) -> set[str]:
    """The absolute imports of the modules ``LOADED`` names."""
    found = set()
    for name in LOADED:
        with open(os.path.join(package_dir, name + ".py"), encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module != "__future__":
                found.add(node.module)
    return found


def main() -> int:
    package_dir = importlib.util.find_spec("umtk").submodule_search_locations[0]
    for name in sorted(stdlib_imports(package_dir)):
        importlib.import_module(name)
    before = set(sys.modules)
    import umtk.cli

    new = sorted(set(sys.modules) - before)
    print("import umtk.cli loaded:", " ".join(new))
    failures = [f"{name} is not loaded" for name in (f"umtk.{m}" for m in EAGER) if name not in new]
    failures += [f"{name} is loaded" for name in ABSENT if name in sys.modules]
    from umtk import GenConfig, classify_space, renamed_copy, run_all  # noqa: F401

    import umtk.suites

    failures += [f"umtk.{name} does not resolve" for name in umtk.__all__ if not hasattr(umtk, name)]
    if umtk.cli.run_all is not umtk.suites.run_all:
        failures.append("cli.run_all is not umtk.suites.run_all")
    for failure in failures:
        print("FAIL:", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
