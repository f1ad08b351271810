"""The reachability gate's own checks: the allowlist, and the collector.

The gate itself runs every claim source (its own CI job, see
``reachability.py``).  Here, in well under a second: the committed
allowlist is well formed and names only functions that still exist, so a
rename fails in tier-1; the collector, run over a synthetic module,
reports exactly the one function nothing called, and refuses a run whose
profile hook was swapped out; and the allowlist reader, writer and
source list behave as the gate relies on.
"""

import importlib.util
import json
import sys

import pytest

from .reachability import (ALLOWLIST, ROOT, Reached, defined, problems,
                           read_allowlist, sources, write_allowlist)

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
        assert keys == sorted(keys), "class %s is not sorted" % cls
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
    # A probe is kept only because perfbench/tracing.py wraps it by name.
    tracing = (ROOT / "perfbench" / "tracing.py").read_text()
    for key in read_allowlist()["probe"]:
        name = key.rsplit(".", 1)[-1].rsplit("::", 1)[-1]
        assert '"%s"' % name in tracing, (
            "%s is listed as a probe but perfbench/tracing.py does not "
            "name it" % key)


@pytest.mark.parametrize("text, error", [
    ("## nosuch - ?\nrepro/a.py::f\n", "unknown or repeated class"),
    ("## open - x\n\n## open - y\n", "unknown or repeated class"),
    ("repro/a.py::f\n## open - x\n", "entry before any class header"),
])
def test_malformed_allowlist_rejected(tmp_path, text, error):
    path = tmp_path / "allowlist.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=error):
        read_allowlist(path)


def test_rewrite_keeps_each_class_and_files_new_entries_under_open(
        tmp_path):
    path = tmp_path / "allowlist.txt"
    old = {"cli": ["a.py::cmd"], "safety": ["a.py::refuse"]}
    # a.py::refuse is reached now; a.py::new was never listed.
    write_allowlist({"a.py::cmd", "a.py::new"}, old, path)
    assert {cls: keys for cls, keys in read_allowlist(path).items()
            if keys} == {"cli": ["a.py::cmd"], "open": ["a.py::new"]}


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
