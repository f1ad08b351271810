"""The workload oracle: every registered workload's metrics, pinned.

Every simulated run is a pure function of its seed, so
``run_spec(...)["metrics"]`` of every registered workload on every
flavor it validates for, at schema defaults and seed 7, is a free
refactoring oracle; the values are in
``tests/golden/workload_metrics.json``.  This is the only pin on
``echo-rtt`` (5 flavors) and ``kv-rtt`` (2), which no committed
trajectory covers.  ``chaos`` has no defaults that validate (it needs a
scenario); the golden table pins it instead.
"""

import pytest

from repro.experiments import (ExperimentSpec, run_spec, validate_spec,
                               workload_names)

from .. import golden

FLAVORS = ("dpdk", "posix", "rdma", "spdk", "mtcp", "posix-libos")


def default_spec(cell: str) -> ExperimentSpec:
    workload, flavor = cell.split("/")
    return ExperimentSpec(workload, libos=flavor, seed=7)


CELLS = [cell for cell in sorted("%s/%s" % (workload, flavor)
                                 for workload in workload_names()
                                 for flavor in FLAVORS)
         if validate_spec(default_spec(cell)) is None]


def test_the_oracle_covers_every_cell_that_validates():
    assert set(golden.load("workload_metrics")) == set(CELLS)


@pytest.mark.parametrize("cell", CELLS)
def test_metrics_are_what_they_were(cell):
    out = run_spec(default_spec(cell))
    assert out["ok"], out["failures"]
    golden.check("workload_metrics", cell, out["metrics"])
