"""The reachability gate: which functions of ``src/repro`` do the claims run?

A function is *reached* when it is called - or, being a generator, resumed
- while a claim source runs under a ``sys.setprofile`` hook.  The sources:

* every ``experiments/*.json`` spec, through ``repro exp run``;
* ``benchmarks/``, under pytest with ``--benchmark-disable`` (an enabled
  pytest-benchmark fixture lifts the profile hook around each timed call);
* each ``perfbench`` workload, one untraced execution at seed 7
  (``--trace 1`` runs cProfile, which replaces the hook);
* every ``examples/*.py``, run as ``__main__``.

Each source runs in a fresh interpreter of its own, so the reached set is
the exact union of what the sources reach, whatever ``--workers`` is.  A
function is keyed ``<path under src>::<co_qualname>``, not by line number,
so an edit elsewhere does not churn the list.  What no source reaches is
committed in ``reachability_allowlist.txt``, each entry under a ``## <class>``
header that says why it is kept.  The gate fails if an unreached function is
not on the list, or if an entry is reached now or no longer defined: the list
can only shrink.

    PYTHONPATH=src python tests/lint/reachability.py [--workers N]
    PYTHONPATH=src python tests/lint/reachability.py --write

``--write`` regenerates the list: every entry keeps its class and note, and
one that is reached now or no longer defined drops out.  An unreached function
in no class is not filed anywhere: ``--write`` names it, writes nothing and
exits non-zero - delete it, or file it by hand under the class that keeps it.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, Iterable, List, Set

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
ALLOWLIST = Path(__file__).with_name("reachability_allowlist.txt")

#: the allowlist's classes, in file order: why nothing a claim runs calls it
CLASSES = {
    "cli": "reached only through repro subcommands",
    "tracing": "runs only with tracing on",
    "safety": "error, crash, recovery and validation paths",
    "debug": "__repr__, describe",
    "probe": "wrapped or called by name by perfbench/tracing.py",
    "api": "Figure-3 calls and store operations the claims happen not to make",
    "declaration": "abstract methods: a contract, not a body",
    "observe": "a computed view a tier-1 invariant test checks (a bare field it reads)",
}

PERFBENCH_SEED = 7


# ------------------------------------------------------------- definitions
def defined(src: Path = SRC, package: str = "repro") -> Set[str]:
    """Every function and method defined under *src*/*package*, keyed
    ``path::qualname`` with the qualname CPython gives its code object."""
    keys: Set[str] = set()
    for path in sorted((src / package).rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        _collect(ast.parse(path.read_text()), "", rel, keys)
    return keys


def _collect(node: ast.AST, prefix: str, rel: str, keys: Set[str]) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            keys.add("%s::%s%s" % (rel, prefix, child.name))
            _collect(child, "%s%s.<locals>." % (prefix, child.name), rel,
                     keys)
        elif isinstance(child, ast.ClassDef):
            _collect(child, "%s%s." % (prefix, child.name), rel, keys)
        elif isinstance(child, ast.stmt):
            _collect(child, prefix, rel, keys)


# ---------------------------------------------------------------- collector
class Reached:
    """Records every code object that runs while the ``with`` block does.

    The profile hook sees a ``call`` event on every function entry and on
    every generator resume, and the frame of every other event has been
    entered, so recording each event's code object misses nothing.
    """

    def __init__(self):
        self.codes: set = set()

    def __enter__(self) -> "Reached":
        add = self.codes.add

        def hook(frame, _event, _arg):
            add(frame.f_code)

        self._hook = hook
        sys.setprofile(hook)
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        replaced = sys.getprofile() is not self._hook
        sys.setprofile(None)
        if replaced and exc_type is None:
            raise RuntimeError("something replaced the profile hook: what "
                               "ran after it is not recorded")

    def keys(self, src: Path = SRC) -> Set[str]:
        """The recorded functions under *src*, keyed like :func:`defined`."""
        src = Path(os.path.realpath(src))
        out = set()
        for code in self.codes:
            path = Path(os.path.realpath(code.co_filename))
            if src in path.parents:
                out.add("%s::%s" % (path.relative_to(src).as_posix(),
                                    code.co_qualname))
        return out


# ------------------------------------------------------------------ sources
def sources() -> List[str]:
    """Every claim source, by the name ``--source`` takes."""
    with open(ROOT / "BENCHMARK.json") as f:
        benchmark = json.load(f)
    return (["spec:%s" % p.name
             for p in sorted((ROOT / "experiments").glob("*.json"))]
            + ["benchmarks"]
            + ["perfbench:%s" % w["name"] for w in benchmark["workloads"]]
            + ["example:%s" % p.name
               for p in sorted((ROOT / "examples").glob("*.py"))])


def run_source(name: str) -> None:
    """Run one claim source in this process; raise if it fails."""
    kind, _, arg = name.partition(":")
    if kind == "spec":
        from repro.cli import main
        with tempfile.TemporaryDirectory() as tmp:
            status = main(["exp", "run", str(ROOT / "experiments" / arg),
                           "-o", os.path.join(tmp, "out.json")])
    elif kind == "benchmarks":
        import pytest
        status = pytest.main([str(ROOT / "benchmarks"), "-q",
                              "--benchmark-disable", "-p", "no:cacheprovider"])
    elif kind == "perfbench":
        from perfbench import harness, run, workloads
        cfg = workloads.config(arg)
        exe, _timed = run.execute(
            cfg, harness.make_inputs(cfg, PERFBENCH_SEED), PERFBENCH_SEED)
        status = "; ".join(exe.violations)
    elif kind == "example":
        import runpy
        runpy.run_path(str(ROOT / "examples" / arg), run_name="__main__")
        status = 0
    else:
        raise ValueError("unknown source %r" % name)
    if status:
        raise RuntimeError("source %s failed: %s" % (name, status))


def reached_by(names: Iterable[str], workers: int) -> Set[str]:
    """The union of what each source reaches, each in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(SRC), str(ROOT), os.environ.get("PYTHONPATH")])))

    def one(name: str) -> List[str]:
        with tempfile.NamedTemporaryFile(suffix=".json") as out:
            started = time.monotonic()
            proc = subprocess.run(
                [sys.executable, __file__, "--source", name,
                 "--out", out.name], cwd=ROOT, env=env,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            if proc.returncode:
                raise RuntimeError("source %s failed:\n%s"
                                   % (name, proc.stdout))
            print("%-40s %6.0f s" % (name, time.monotonic() - started),
                  file=sys.stderr, flush=True)
            with open(out.name) as f:
                return json.load(f)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return set().union(*pool.map(one, names))


# ---------------------------------------------------------------- allowlist
def read_allowlist(path: Path = ALLOWLIST) -> Dict[str, Dict[str, str]]:
    """``{class: {entry: note}}`` in file order.  A ``## <class>`` line
    opens a class; other ``#`` lines and blank lines are comments.  An
    entry line is the function's key, then optionally a note after
    whitespace (an ``observe`` entry's note names its test)."""
    classes: Dict[str, Dict[str, str]] = {}
    if not path.exists():
        return classes
    current = None
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if line.startswith("## "):
            current = line[3:].split(" - ")[0].strip()
            if current not in CLASSES or current in classes:
                raise ValueError("%s:%d: unknown or repeated class %r"
                                 % (path.name, lineno, current))
            classes[current] = {}
        elif line.strip() and not line.startswith("#"):
            if current is None:
                raise ValueError("%s:%d: entry before any class header"
                                 % (path.name, lineno))
            key, _, note = line.strip().partition(" ")
            classes[current][key] = note.strip()
    return classes


def write_allowlist(unreached: Set[str], old: Dict[str, Dict[str, str]],
                    path: Path = ALLOWLIST) -> List[str]:
    """Rewrite *path* to hold exactly *unreached*, each entry under its
    class in *old* with its note.  Returns the unreached functions *old*
    files under no class; if there are any, writes nothing."""
    filed = {key: (cls, note) for cls, entries in old.items()
             for key, note in entries.items()}
    unclassified = sorted(unreached - set(filed))
    if unclassified:
        return unclassified
    lines = ["# Functions of src/repro that no claim source reaches, as",
             "# tests/lint/reachability.py defines them.  The list only",
             "# shrinks: delete the code, or make a claim reach it."]
    for cls, why in CLASSES.items():
        lines += ["", "## %s - %s" % (cls, why)]
        for key in sorted(k for k in unreached if filed[k][0] == cls):
            note = filed[key][1]
            lines.append("%s  %s" % (key, note) if note else key)
    path.write_text("\n".join(lines) + "\n")
    return []


def problems(unreached: Set[str], listed: Set[str],
             known: Set[str]) -> List[str]:
    """What the gate fails on, one line each."""
    out = ["unreached and not on the allowlist: %s" % key
           for key in sorted(unreached - listed)]
    for key in sorted(listed - unreached):
        out.append("%s, drop it from the allowlist: %s"
                   % ("reached now" if key in known else "no longer defined",
                      key))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--write", action="store_true",
                        help="regenerate the allowlist instead of checking")
    parser.add_argument("--source", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.source:
        with Reached() as reached:
            run_source(args.source)
        with open(args.out, "w") as f:
            json.dump(sorted(reached.keys()), f)
        return 0
    known = defined()
    unreached = known - reached_by(sources(), args.workers)
    old = read_allowlist(ALLOWLIST)
    if args.write:
        unclassified = write_allowlist(unreached, old, ALLOWLIST)
        for key in unclassified:
            print("unreached and in no class (delete it, or file it under "
                  "one by hand): %s" % key)
        if unclassified:
            print("%d unclassified, %s not written"
                  % (len(unclassified), ALLOWLIST.name))
            return 1
        print("wrote %d entries to %s" % (len(unreached), ALLOWLIST))
        return 0
    found = problems(unreached, {k for keys in old.values() for k in keys},
                     known)
    for line in found:
        print(line)
    print("%d functions defined, %d reached, %d unreached, %d problem(s)"
          % (len(known), len(known) - len(unreached), len(unreached),
             len(found)))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
