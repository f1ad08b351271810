"""The golden store's one helper: exact, and a failure names what moved."""

import json

import pytest

from .. import golden


@pytest.fixture
def store(tmp_path, monkeypatch):
    monkeypatch.setattr(golden, "DIRECTORY", tmp_path)
    return tmp_path


def pin(store, value, family="cells", key="cell"):
    (store / ("%s.json" % family)).write_text(json.dumps({key: value}))


def failure(observed, family="cells", key="cell") -> str:
    with pytest.raises(AssertionError) as caught:
        golden.check(family, key, observed)
    return str(caught.value)


def test_every_moved_added_and_removed_key_is_named(store):
    pin(store, {"counters": {"c.moved": 3, "c.gone": 7, "c.same": 1}})
    message = failure({"counters": {"c.moved": 4, "c.new": 5, "c.same": 1}})
    assert "cells['cell'] moved" in message
    assert "moved counters.c.moved: 3 -> 4" in message
    assert "added counters.c.new: 5" in message
    assert "removed counters.c.gone: 7" in message
    assert "c.same" not in message


@pytest.mark.parametrize("old,new", [(1, 1.0), (True, 1), (0, None)])
def test_equality_is_of_the_canonical_json_text(store, old, new):
    pin(store, {"x": old})
    assert ("moved x: %s -> %s" % (json.dumps(old), json.dumps(new))
            in failure({"x": new}))


def test_a_differing_timeline_entry_is_named_by_index(store):
    timeline = [[10, "drop", "1"], [20, "dup", "2"], [30, "drop", "3"]]
    pin(store, {"timeline": timeline})
    moved = timeline[:1] + [[20, "dup", "9"]]
    assert ('moved timeline[1]: [20,"dup","2"] -> [20,"dup","9"] '
            "(length 3 -> 2)" in failure({"timeline": moved}))
    assert ('moved timeline[3]: (none) -> [40,"drop","4"] (length 3 -> 4)'
            in failure({"timeline": timeline + [[40, "drop", "4"]]}))


def test_a_missing_key_is_recorded_byte_for_byte_and_fails(store):
    pin(store, {"b": 2}, key="old")
    observed = {"z": [1, (2, 3)], "a": {"y": 1.5, "x": True}}
    assert failure(observed, key="new") == (
        "cells['new'] recorded; review `git diff tests/golden/`")
    written = (store / "cells.json").read_text()
    assert written == json.dumps({"new": observed, "old": {"b": 2}},
                                 indent=1, sort_keys=True) + "\n"
    golden.check("cells", "new", observed)
    assert (store / "cells.json").read_text() == written


def test_a_missing_file_is_created(store):
    assert "recorded" in failure({"n": 1}, family="fresh")
    assert golden.load("fresh") == {"cell": {"n": 1}}
