"""The holdings ledger: what each fault-free cell still owns when it ends.

A finished run should own nothing (ROADMAP item 22).  Until every cell
does, ``tests/golden/holdings.json`` pins the
:func:`~repro.kernelos.reclaim.holdings` record of every host of every
fault-free (``WORKLOADS`` row x kind) cell, as
``ScenarioResult.holdings`` carries it.  The check is exact, so a move
either way fails under the cell's name with the fields that moved: a
leak a change adds shows as growth, and a fix shows as a shrink to
re-record (docs/faults.md, "Re-recording a pin").
"""

import pytest

from repro.sim.faults import FaultPlan
from repro.testing import WORKLOADS, run_scenario

from .. import golden

CELLS = [(row, kind) for row, spec in WORKLOADS.items()
         for kind in spec["kinds"]]


def test_every_fault_free_cell_is_pinned():
    assert set(golden.load("holdings")) == {"%s/%s" % c for c in CELLS}


@pytest.mark.parametrize("row,kind", CELLS,
                         ids=["%s-%s" % cell for cell in CELLS])
def test_what_a_fault_free_run_ends_holding(row, kind):
    result = run_scenario(row, kind, plan=FaultPlan(seed=7))
    assert result.ok, result.failures
    golden.check("holdings", "%s/%s" % (row, kind), result.holdings)
