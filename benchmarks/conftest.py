"""Benchmark harness conventions.

Every file regenerates one figure/table/claim from the paper (see
DESIGN.md section 4).  The interesting output is *simulated* time and
counters - printed as a table and attached to pytest-benchmark's
``extra_info`` - while pytest-benchmark's own wall-clock numbers just
record how long the simulation took to execute.

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

import pytest

from repro.experiments import ExperimentSpec, run_spec


def run_once(benchmark, fn):
    """Execute *fn* exactly once under the benchmark fixture."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


@pytest.fixture
def once():
    return run_once


@pytest.fixture
def metrics():
    """``metrics(workload, flavor, cores=1, **params)``: one registered
    workload's metrics row, exactly what ``repro exp run`` would record
    for it; a row that is not ``ok`` fails the bench."""
    def run(workload, flavor, cores=1, **params):
        out = run_spec(ExperimentSpec(workload, libos=flavor, cores=cores,
                                      params=params))
        assert out["ok"], out["failures"]
        return out["metrics"]
    return run
