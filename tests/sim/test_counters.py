"""The counter contract: a counter is an integer field of its scope, and
the tracer rolls the fields up into full names only when it is read.

A hot site bumps ``self.counters.tx_frames += 1``; a computed or dotted
leaf goes through ``count(name, n)`` on the same storage.  Every reader -
``counters``, ``get``, ``snapshot``, ``diff`` and ``signature`` - sees
exactly what one shared ``{full name: value}`` dict held when every bump
wrote it, so no pinned counter or signature moves.
"""

import pytest

from repro.sim.faults import FaultPlan
from repro.sim.trace import CounterScope, Tracer
from repro.telemetry import names
from repro.testing import run_scenario


def test_a_never_bumped_name_reads_zero_and_is_not_created_by_the_read():
    t = Tracer()
    s = t.scope("h")
    s.pushes += 1
    before = t.signature()
    assert t.counters["h.pops"] == 0
    assert t.get("h.pops") == 0
    assert s.pops == 0
    assert t.counters == {"h.pushes": 1}
    assert "h.pops" not in t.snapshot()
    assert t.signature() == before


def test_count_of_zero_creates_the_name():
    t = Tracer()
    before = t.signature()
    t.scope("h").count(names.CTRL_CLOSE, 0)
    t.scope("h").count(names.POPS, 0)
    assert t.counters == {"h.ctrl.close": 0, "h.pops": 0}
    assert t.signature() != before


def test_fields_and_count_share_one_storage():
    t = Tracer()
    s = t.scope("h")
    s.pushes += 2
    s.count(names.PUSHES, 3)
    assert s.pushes == 5
    assert t.get("h.pushes") == 5


def test_one_prefix_is_one_scope_and_its_fields_are_shared():
    t = Tracer()
    a, b = t.scope("h"), t.scope("h")
    assert a is b
    assert t.scope("h").scope("kernel") is t.scope("h.kernel")
    a.syscalls += 1
    b.syscalls += 1
    assert t.get("h.syscalls") == 2


def test_one_full_name_from_two_splits_is_one_counter():
    # "a" + "ctrl.queue" and "a.ctrl" + "queue" were one dict key.
    t = Tracer()
    t.scope("a").count(names.CTRL_QUEUE)
    t.scope("a.ctrl").count("queue", 2)
    assert t.counters == {"a.ctrl.queue": 3}
    assert t.get("a.ctrl.queue") == 3


def test_an_unregistered_field_bump_raises():
    s = Tracer().scope("h")
    with pytest.raises(AttributeError):
        s.pushez += 1


def test_every_registered_leaf_is_a_zero_field_and_shadows_nothing():
    assert names.TX_FRAMES in names.COUNTER_FIELDS
    assert names.CTRL_QUEUE not in names.COUNTER_FIELDS  # dotted: count()
    assert names.MM not in names.COUNTER_FIELDS          # a prefix
    for leaf in names.COUNTER_FIELDS:
        assert getattr(CounterScope, leaf) == 0, leaf


#: ``Tracer.signature()`` of three fixed runs, recorded when every bump
#: still wrote one shared dict: the rollup must sign them the same.
SIGNATURES = {
    "echo/dpdk": "5c8ac578115ad92ad05f30dc36e612520b7689df",
    "kv/posix": "10c8795804c6ebbe8c352ae36c6ddb43af0ab0bd",
    "storage/spdk": "2a596341ec03c9ef198a4982000b38433d4a2460",
}


@pytest.mark.parametrize("row", sorted(SIGNATURES))
def test_a_fixed_run_signs_as_it_did_before_counters_were_fields(row):
    workload, kind = row.split("/")
    result = run_scenario(workload, kind, plan=FaultPlan(seed=7))
    assert result.signature == SIGNATURES[row]
