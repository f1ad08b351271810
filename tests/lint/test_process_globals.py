"""Lint: no process-global counter numbers simulated objects.

A class attribute such as ``_next_id = 1`` that instances bump is shared
by every world a process builds: the second world numbers its objects
from where the first stopped, and a run stops being a pure function of
its seed (two such counters went in PR 21, three more with this lint).
Number things per owner - the world, the NIC, the filesystem - instead.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def class_level_counters(source):
    """``(line, Class._next_x)`` for every class-body assignment of an
    integer to a name starting ``_next_``."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target] if isinstance(stmt, ast.AnnAssign)
                       else [])
            value = getattr(stmt, "value", None)
            for target in targets:
                if (isinstance(target, ast.Name)
                        and target.id.startswith("_next_")
                        and isinstance(value, ast.Constant)
                        and isinstance(value.value, int)):
                    yield stmt.lineno, "%s.%s" % (node.name, target.id)


def test_no_class_level_next_counters_in_src():
    hits = ["%s:%d %s" % (path.relative_to(SRC.parent), lineno, name)
            for path in sorted(SRC.rglob("*.py"))
            for lineno, name in class_level_counters(path.read_text())]
    assert not hits, ("process-global counters (number per world, NIC or "
                      "filesystem instead):\n" + "\n".join(hits))


def test_the_lint_sees_plain_and_annotated_class_attributes():
    source = ("class A:\n"
              "    _next_id = 1\n"
              "    _next_key: int = 0x1000\n"
              "    _next_name = 'a'\n"
              "    def __init__(self):\n"
              "        self._next_qd = 1\n")
    assert [name for _line, name in class_level_counters(source)] == [
        "A._next_id", "A._next_key"]
