"""Lint: every entry of the known-defect register names an open ROADMAP
item.

An entry of ``tests/defects/test_known_defects.py`` is a strict xfail
with a typed ``raises=``; its reason is ``ROADMAP item <N>`` (a numbered
item, optionally with its sub-item) or ``ROADMAP Smaller: "<title>"`` (a
bullet of the "Smaller, take when adjacent" list).  An item that is
parked, retired or never written cannot be the reason a test fails, so
an entry citing one fails here.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
REGISTER = ROOT / "tests" / "defects" / "test_known_defects.py"
ROADMAP = ROOT / "ROADMAP.md"

REASON = re.compile(r'^ROADMAP (?:item (\d+)(?:\([a-z]\))?|Smaller: "(.+)")$')


def open_items(roadmap):
    """``(numbers, smaller titles)`` of the items the roadmap holds open:
    what lies between "## Open items" and "### Parked"."""
    start = roadmap.index("## Open items")
    end = roadmap.index("### Parked", start)
    text = roadmap[start:end].replace("`", "")
    numbers = {int(n) for n in re.findall(r"^(\d+)\. \*\*", text, re.M)}
    smaller = text[text.index("### Smaller"):]
    titles = set(re.findall(r"^- \*\*(.+?)\*\*", smaller, re.M))
    return numbers, titles


def entries(source):
    """``(test name, keywords of its xfail mark)`` for every test that
    has one: the register's entries."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef):
            for mark in node.decorator_list:
                if (isinstance(mark, ast.Call)
                        and getattr(mark.func, "attr", None) == "xfail"):
                    yield node.name, {kw.arg: kw.value
                                      for kw in mark.keywords}


def problems(source, roadmap):
    numbers, titles = open_items(roadmap)
    out = []
    for name, mark in entries(source):
        if not (isinstance(mark.get("strict"), ast.Constant)
                and mark["strict"].value is True):
            out.append("%s: not strict" % name)
        if "raises" not in mark:
            out.append("%s: no raises=" % name)
        reason = mark.get("reason")
        match = REASON.match(reason.value) if isinstance(
            reason, ast.Constant) else None
        if match is None:
            out.append("%s: reason names no ROADMAP item" % name)
        elif match.group(1) and int(match.group(1)) not in numbers:
            out.append("%s: ROADMAP item %s is not open"
                       % (name, match.group(1)))
        elif match.group(2) and match.group(2) not in titles:
            out.append("%s: no open Smaller item %r" % (name, match.group(2)))
    return out


def test_every_register_entry_names_an_open_roadmap_item():
    assert not problems(REGISTER.read_text(), ROADMAP.read_text())


def test_the_lint_refuses_an_entry_without_an_open_item():
    roadmap = ("## Open items\n\n1. **TCP.**\n\n### Smaller, take when"
               " adjacent\n\n- **`Log` limits** (x).\n\n### Parked\n\n"
               "13. **Retired.**\n")
    register = (
        "@pytest.mark.xfail(strict=True, raises=E, reason='ROADMAP item 1(c)')\n"
        "def test_open(): pass\n"
        "@pytest.mark.xfail(strict=True, raises=E,"
        " reason='ROADMAP Smaller: \"Log limits\"')\n"
        "def test_smaller(): pass\n"
        "@pytest.mark.xfail(strict=True, raises=E, reason='ROADMAP item 13')\n"
        "def test_parked(): pass\n"
        "@pytest.mark.xfail(strict=True, raises=E, reason='flaky')\n"
        "def test_no_item(): pass\n"
        "@pytest.mark.xfail(reason='ROADMAP item 1')\n"
        "def test_loose(): pass\n")
    assert problems(register, roadmap) == [
        "test_parked: ROADMAP item 13 is not open",
        "test_no_item: reason names no ROADMAP item",
        "test_loose: not strict",
        "test_loose: no raises="]
