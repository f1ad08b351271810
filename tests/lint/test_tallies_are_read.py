"""Lint: a tally the program keeps is a tally the program reads.

An attribute bumped with ``self.<name> += n`` (or ``-=``) on a hot path
costs an add per frame, pop or charge.  If nothing in ``src/``,
``perfbench/``, ``benchmarks/`` or ``examples/`` loads ``.<name>``, only
a test sees it: the count is kept for its own test, and where a tracer
counter already counts the same thing it is a second tally of one fact.
Count it once, in its counter scope (``self.counters.<leaf> += n``, which
this lint leaves alone), or not at all.

The one exception is :data:`ALLOWED`: a tally a tier-1 test observes
that no counter can stand for, each with its reason.  The list only
shrinks - an entry whose tally is now read, or gone, fails too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
#: where a load counts as a reader: the program and what it ships
READERS = [ROOT / "src", ROOT / "perfbench", ROOT / "benchmarks",
           ROOT / "examples"]

#: name -> why a tally nothing outside the tests reads still stays
ALLOWED = {
    "cwnd_reductions": "per-connection: a TcpConnection is not one-to-one"
                       " with its stack's tcp_cwnd_reductions scope, and"
                       " the congestion tests read one connection",
    "live_bytes": "a level, not an event count: the mm's registered bytes"
                  " the leak tests require back at zero",
}


def tallies(source):
    """``(line, name)`` for every ``self.<name> +=`` / ``-=``."""
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.AugAssign)
                and isinstance(node.op, (ast.Add, ast.Sub))
                and isinstance(node.target, ast.Attribute)
                and isinstance(node.target.value, ast.Name)
                and node.target.value.id == "self"):
            yield node.lineno, node.target.attr


def loads(source):
    """Every attribute name *source* reads (``x.<name>`` as a value)."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def write_only(sources, readers):
    """``(where, name)`` for each tally in *sources* (path -> text) that
    no text in *readers* loads."""
    read = set().union(*(loads(text) for text in readers))
    return [("%s:%d" % (path, line), name)
            for path, text in sorted(sources.items())
            for line, name in tallies(text) if name not in read]


def _texts(paths):
    return {path: path.read_text() for path in paths}


def test_every_tally_in_src_is_read_outside_the_tests():
    sources = _texts(sorted(SRC.rglob("*.py")))
    readers = _texts(sorted(p for root in READERS for p in root.rglob("*.py")))
    unread = write_only({p.relative_to(ROOT): t for p, t in sources.items()},
                        readers.values())
    hits = ["%s: self.%s" % (where, name) for where, name in unread
            if name not in ALLOWED]
    assert not hits, (
        "tallies nothing outside the tests reads (delete them, or count "
        "in the tracer scope and read the counter):\n" + "\n".join(hits))
    stale = sorted(set(ALLOWED) - {name for _where, name in unread})
    assert not stale, ("allowlisted tallies that are read now, or gone: "
                       "drop them from ALLOWED: %s" % stale)


def test_the_lint_catches_a_write_only_tally():
    planted = ("class Queue:\n"
               "    def __init__(self):\n"
               "        self.pushed = 0\n"
               "        self.depth = 0\n"
               "        self.counters.pushes += 1\n"
               "    def push(self):\n"
               "        self.pushed += 1\n"
               "        self.depth -= 1\n"
               "        self.stats.hits += 1\n")
    reader = "def report(q):\n    return q.depth\n"
    assert write_only({"q.py": planted}, [planted, reader]) == [
        ("q.py:7", "pushed")]
    assert write_only({"q.py": planted},
                      [reader, "print(q.pushed)"]) == []
