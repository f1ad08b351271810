"""Declarative experiment orchestration: one API for every sweep.

The kv-scaling sweep, the golden chaos battery, and the claim-suite
RTT benches used to be three hand-rolled drivers with three output
shapes.  This package is the one pipeline that replaced them, and the
only producer of a ``BENCH_*.json``::

    spec (JSON) -> Matrix.expand() -> Runner -> trajectory document
                                                  |
                         repro.experiments.schema +-> BENCH_*.json

* :mod:`~repro.experiments.spec` - :class:`ExperimentSpec` (workload,
  libos, cores, fault_plan, seed, params; JSON round-trippable, with a
  content-addressed ``run_id``), :class:`Matrix` axis expansion, and
  the ``experiments/*.json`` batch loader;
* :mod:`~repro.experiments.workloads` - the registry, one table: each
  workload (chaos scenarios, sharded scaling bench, RTT benches, offload
  and SLO sweeps) names its scenario row, whether it takes more than one
  core, its param schema, an optional check and an optional ``run`` -
  one or more :func:`repro.testing.run_scenario` legs plus a metrics
  function over their results, so every workload takes a fault plan and
  is checked by the driver's one invariant checker; nothing in this
  package builds a world;
* :mod:`~repro.experiments.runner` - :class:`Runner` fan-out over host
  processes, one row dict per spec, resumable batches;
* :mod:`~repro.experiments.schema` - validation of the one document
  kind, ``experiment`` (structural keys + budgets + monotonicity +
  reductions);
* :mod:`~repro.experiments.store` - fsync-and-rename persistence so an
  interrupted run can never truncate a committed baseline.

CLI: ``repro exp run|list|validate`` (see docs/experiments.md).
"""

from .runner import Runner, completed_rows, execute_spec, trajectory_document
from .schema import check_document, check_payload, validate_file
from .spec import ExperimentSpec, Matrix, SpecBatch, SpecError, load_spec_file
from .store import append_document, atomic_write_json, load_payload
from .workloads import WORKLOADS, run_spec, validate_spec, workload_names

__all__ = [
    "ExperimentSpec",
    "Matrix",
    "SpecBatch",
    "SpecError",
    "load_spec_file",
    "Runner",
    "trajectory_document",
    "completed_rows",
    "check_document",
    "check_payload",
    "append_document",
    "load_payload",
    "WORKLOADS",
    "validate_spec",
    "run_spec",
]
