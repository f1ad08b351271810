"""The reachability gate's own checks: the allowlist, and the collector.

The gate itself runs every claim source (its own CI job, see
``reachability.py``).  Here, in well under a second: the committed
allowlist is well formed, names only functions that still exist (so a
rename fails in tier-1) and keeps each one for a reason its class can
check; the collector, run over a synthetic module, reports exactly the
one function nothing called, and refuses a run whose profile hook was
swapped out; and the allowlist reader, writer, ``--write`` and source
list behave as the gate relies on.
"""

import ast
import importlib.util
import json
import sys

import pytest

from . import reachability
from .reachability import (ALLOWLIST, ROOT, SRC, Reached, defined, main,
                           problems, read_allowlist, sources,
                           write_allowlist)

SYNTHETIC = '''
class Box:
    def called(self):
        def nested():
            return 1
        return nested()

    def uncalled(self):
        return 2


def ticks():
    yield 1
    yield 2
'''


def test_allowlist_is_sorted_unique_and_defined():
    classes = read_allowlist()
    entries = [key for keys in classes.values() for key in keys]
    assert entries, "%s is empty or missing" % ALLOWLIST
    for cls, keys in classes.items():
        assert list(keys) == sorted(keys), "class %s is not sorted" % cls
    assert len(entries) == len(set(entries)), "an entry is listed twice"
    gone = sorted(set(entries) - defined())
    assert not gone, ("allowlist entries that name no function in src/repro "
                      "(renamed or deleted?):\n" + "\n".join(gone))


def test_collector_reports_exactly_the_uncalled_function(tmp_path):
    (tmp_path / "synth").mkdir()
    path = tmp_path / "synth" / "mod.py"
    path.write_text(SYNTHETIC)
    spec = importlib.util.spec_from_file_location("synth_mod", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    gen = mod.ticks()
    next(gen)  # its first step runs before the hook is in
    with Reached() as reached:
        mod.Box().called()
        next(gen)  # reached only by a resume
    known = defined(tmp_path, "synth")
    assert known == {"synth/mod.py::Box.called",
                     "synth/mod.py::Box.called.<locals>.nested",
                     "synth/mod.py::Box.uncalled",
                     "synth/mod.py::ticks"}
    assert known - reached.keys(tmp_path) == {"synth/mod.py::Box.uncalled"}


def test_gate_fails_both_ways():
    known = {"a.py::f", "a.py::g", "a.py::h"}
    assert problems({"a.py::f", "a.py::g"}, {"a.py::g", "a.py::h",
                                             "a.py::gone"}, known) == [
        "unreached and not on the allowlist: a.py::f",
        "no longer defined, drop it from the allowlist: a.py::gone",
        "reached now, drop it from the allowlist: a.py::h",
    ]


def test_every_probe_entry_is_named_by_perfbench_tracing():
    # A probe is kept only because perfbench/tracing.py wraps or calls it.
    tracing = (ROOT / "perfbench" / "tracing.py").read_text()
    for key in read_allowlist()["probe"]:
        name = key.rsplit(".", 1)[-1].rsplit("::", 1)[-1]
        assert '"%s"' % name in tracing or ".%s(" % name in tracing, (
            "%s is listed as a probe but perfbench/tracing.py does not "
            "name it" % key)


def _function(path, qualname):
    """The def of *qualname* in the module at *path*, or None."""
    node = ast.parse(path.read_text())
    for name in qualname.split("."):
        node = next((child for child in ast.iter_child_nodes(node)
                     if isinstance(child, (ast.ClassDef, ast.FunctionDef))
                     and child.name == name), None)
        if node is None:
            return None
    return node


def test_every_declaration_entry_has_no_body():
    # A declaration is the contract an override fills in: a docstring,
    # and at most ``raise NotImplementedError``.
    for key in read_allowlist()["declaration"]:
        rel, qualname = key.split("::")
        body = _function(SRC / rel, qualname).body
        if isinstance(body[0], ast.Expr) and isinstance(body[0].value,
                                                        ast.Constant):
            body = body[1:]
        assert all(isinstance(stmt, ast.Raise)
                   and "NotImplementedError" in ast.unparse(stmt)
                   for stmt in body), "%s has a body" % key


def test_every_observe_entry_names_a_test_that_reads_it():
    # An accessor kept for a test names that test, and the test uses it.
    observed = read_allowlist()["observe"]
    assert observed
    for key, test in observed.items():
        path, _, qualname = test.partition("::")
        node = _function(ROOT / path, qualname.replace("::", "."))
        assert node is not None and node.name.startswith("test_"), (
            "%s names %r, which is no test" % (key, test))
        accessor = key.rsplit(".", 1)[-1]
        assert accessor in ast.unparse(node), (
            "%s does not read %s" % (test, accessor))


def test_the_allowlist_has_no_open_class():
    # Everything unreached is deleted or kept for a stated reason.
    assert "open" not in reachability.CLASSES
    assert not [line for line in ALLOWLIST.read_text().splitlines()
                if line.startswith("## open")]


@pytest.mark.parametrize("text, error", [
    ("## nosuch - ?\nrepro/a.py::f\n", "unknown or repeated class"),
    ("## open - x\nrepro/a.py::f\n", "unknown or repeated class"),
    ("## cli - x\n\n## cli - y\n", "unknown or repeated class"),
    ("repro/a.py::f\n## cli - x\n", "entry before any class header"),
])
def test_malformed_allowlist_rejected(tmp_path, text, error):
    path = tmp_path / "allowlist.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=error):
        read_allowlist(path)


def test_rewrite_keeps_each_class_and_note(tmp_path):
    path = tmp_path / "allowlist.txt"
    old = {"cli": {"a.py::cmd": ""}, "safety": {"a.py::refuse": ""},
           "observe": {"a.py::peek": "tests/t.py::test_peek"}}
    # a.py::refuse is reached now.
    assert write_allowlist({"a.py::cmd", "a.py::peek"}, old, path) == []
    assert {cls: keys for cls, keys in read_allowlist(path).items()
            if keys} == {"cli": {"a.py::cmd": ""},
                         "observe": {"a.py::peek": "tests/t.py::test_peek"}}


def _fake_run(tmp_path, monkeypatch, text, known, reached):
    """Point the gate at an allowlist holding *text* and a run in which
    *reached* of the *known* functions ran; returns the list's path."""
    path = tmp_path / "allowlist.txt"
    path.write_text(text)
    monkeypatch.setattr(reachability, "ALLOWLIST", path)
    monkeypatch.setattr(reachability, "defined", lambda: set(known))
    monkeypatch.setattr(reachability, "reached_by",
                        lambda names, workers: set(reached))
    return path


def test_write_refuses_an_unclassified_function(tmp_path, monkeypatch,
                                                capsys):
    # A newly unreached function is filed nowhere: --write names it,
    # leaves the list as it was and fails.
    path = _fake_run(tmp_path, monkeypatch, "## cli - x\na.py::cmd\n",
                     {"a.py::cmd", "a.py::main", "a.py::new"},
                     {"a.py::main"})
    before = path.read_text()
    assert main(["--write"]) == 1
    out = capsys.readouterr().out
    assert "in no class" in out and "a.py::new" in out
    assert path.read_text() == before


def test_write_drops_what_is_reached_now(tmp_path, monkeypatch, capsys):
    path = _fake_run(tmp_path, monkeypatch,
                     "## cli - x\na.py::cmd\n\n## api - y\na.py::call\n",
                     {"a.py::cmd", "a.py::call", "a.py::main"},
                     {"a.py::main", "a.py::call"})
    assert main(["--write"]) == 0
    assert "wrote 1 entries" in capsys.readouterr().out
    assert {cls: keys for cls, keys in read_allowlist(path).items()
            if keys} == {"cli": {"a.py::cmd": ""}}
    assert main([]) == 0


def test_check_names_every_problem_and_fails(tmp_path, monkeypatch, capsys):
    _fake_run(tmp_path, monkeypatch, "## cli - x\na.py::cmd\na.py::gone\n",
              {"a.py::cmd", "a.py::main", "a.py::new"}, {"a.py::cmd"})
    assert main([]) == 1
    out = capsys.readouterr().out
    assert "unreached and not on the allowlist: a.py::main" in out
    assert "unreached and not on the allowlist: a.py::new" in out
    assert "no longer defined, drop it from the allowlist: a.py::gone" in out
    assert "reached now, drop it from the allowlist: a.py::cmd" in out
    assert out.rstrip().endswith("4 problem(s)")


def test_keys_do_not_move_with_line_numbers(tmp_path):
    (tmp_path / "synth").mkdir()
    path = tmp_path / "synth" / "mod.py"
    path.write_text(SYNTHETIC)
    before = defined(tmp_path, "synth")
    path.write_text('"""A docstring."""\n\nX = 1\n' + SYNTHETIC)
    assert defined(tmp_path, "synth") == before


def test_collector_refuses_a_replaced_hook():
    # pytest-benchmark and cProfile both swap the profile hook out: what
    # runs after that is unrecorded, so the collector must not pass.
    with pytest.raises(RuntimeError, match="replaced the profile hook"):
        with Reached():
            sys.setprofile(lambda *_args: None)
    assert sys.getprofile() is None


def test_sources_cover_every_claim_source():
    names = sources()
    assert len(names) == len(set(names))
    specs = sorted(p.name for p in (ROOT / "experiments").glob("*.json"))
    examples = sorted(p.name for p in (ROOT / "examples").glob("*.py"))
    with open(ROOT / "BENCHMARK.json") as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    assert specs and examples and workloads
    assert set(names) == ({"spec:" + n for n in specs} | {"benchmarks"}
                          | {"perfbench:" + n for n in workloads}
                          | {"example:" + n for n in examples})
