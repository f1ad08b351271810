"""The refactoring oracle: every golden cell's counters and fault timeline.

Every simulated run is a pure function of its seed, so the whole
(golden scenario x libOS kind) table is pinned by what
``Tracer.signature()`` digests - every counter and every fault timeline
entry - stored in ``tests/golden/chaos_cells.json``.  A change to the
scenario driver, a workload's spawn order, a transport's recovery path
or the fault injector's decision stream moves at least one of these; a
pure refactoring moves none.

Each cell is asserted with telemetry off *and* on against the same
entry: telemetry is observation-only, so attaching it may not move one
event or mint one counter differently (the contract the chaos battery
relies on).
"""

import pytest

from repro.testing import GOLDEN_SCENARIOS, run_scenario

from .. import golden

CELLS = sorted((name, kind) for name, row in GOLDEN_SCENARIOS.items()
               for kind in row["kinds"])


def test_every_runnable_cell_is_pinned():
    assert set(golden.load("chaos_cells")) == {"%s/%s" % c for c in CELLS}


@pytest.mark.parametrize("telemetry", [False, True],
                         ids=["telemetry-off", "telemetry-on"])
@pytest.mark.parametrize("name,kind", CELLS,
                         ids=["%s-%s" % cell for cell in CELLS])
def test_golden_signature(name, kind, telemetry):
    result = run_scenario(name, kind, telemetry=telemetry).require_ok()
    golden.check("chaos_cells", "%s/%s" % (name, kind), {
        "counters": result.counters,
        "timeline": [[now, event, repr(detail)]
                     for now, event, detail in result.events]})
    # Guard against the on-run silently running with telemetry off.
    assert result.world.tracer.tracing == telemetry
    assert bool(result.world.tracer.spans) == telemetry
