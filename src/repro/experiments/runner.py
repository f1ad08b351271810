"""Execute experiment specs and assemble schema-valid trajectories.

One spec in, one row dict out; a batch in, one
``bench: "experiment"`` document out - appended to a ``BENCH_*.json``
trajectory through :mod:`repro.experiments.store` and gated by
:mod:`repro.experiments.schema`.

Execution is deterministic and resumable:

* **Deterministic** - a workload run depends only on the spec (every
  RNG is forked from the spec's seed inside a fresh simulated world),
  so the same spec always produces the same row, whether it runs
  inline or in a worker process.  ``tests/experiments`` asserts the
  whole trajectory is byte-identical across runs and worker counts.
* **Fan-out** - ``workers > 1`` maps specs over a
  ``ProcessPoolExecutor`` (each run builds its own simulated world, so
  runs share nothing); results come back in spec order regardless of
  completion order.  Failures inside a worker are captured as
  ``status: "failed"`` rows, never lost exceptions.
* **Resumable** - rows already present in the output trajectory (same
  ``run_id``, ``status: "ok"``) can be reused via
  :func:`completed_rows`, so an interrupted batch re-runs only what is
  missing.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional

from .spec import ExperimentSpec, SpecBatch
from .workloads import run_spec

__all__ = ["Runner", "trajectory_document", "completed_rows"]

#: the experiment-trajectory document schema this runner emits
SCHEMA_VERSION = 1


def execute_spec(spec: ExperimentSpec) -> Dict[str, Any]:
    """Run one spec into its trajectory row; any exception becomes a
    ``failed`` row."""
    try:
        out = run_spec(spec)
    except Exception as exc:
        out = {"metrics": {}, "ok": False,
               "failures": ["%s: %s" % (type(exc).__name__, exc)]}
        status = "failed"
    else:
        status = "ok"
    return {
        "run_id": spec.run_id,
        "workload": spec.workload,
        "libos": spec.libos,
        "cores": spec.cores,
        "fault_plan": spec.fault_plan,
        "seed": spec.seed,
        "status": status,
        "ok": bool(out["ok"]),
        "failures": [str(f) for f in out["failures"]],
        "metrics": dict(out["metrics"]),
    }


class Runner:
    """Fan specs out across host processes; collect rows in spec order."""

    def __init__(self, workers: int = 1,
                 progress: Optional[Callable[[str], None]] = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._progress = progress or (lambda line: None)

    def run(self, specs: Iterable[ExperimentSpec],
            cached: Optional[Mapping[str, Dict[str, Any]]] = None
            ) -> List[Dict[str, Any]]:
        """Execute *specs*, reusing *cached* rows keyed by ``run_id``.

        Returns one row per spec, in spec order.  Cached rows (from
        :func:`completed_rows` on an interrupted trajectory) are
        returned verbatim without re-running.
        """
        specs = list(specs)
        cached = dict(cached or {})
        rows: List[Optional[Dict[str, Any]]] = [None] * len(specs)
        todo: List[int] = []
        for i, spec in enumerate(specs):
            hit = cached.get(spec.run_id)
            if hit is not None:
                rows[i] = dict(hit)
                self._progress("cached %s" % spec.describe())
            else:
                todo.append(i)
        if todo:
            if self.workers == 1 or len(todo) == 1:
                for i in todo:
                    rows[i] = execute_spec(specs[i])
                    self._progress(self._done_line(rows[i]))
            else:
                rows_out = self._fan_out([specs[i] for i in todo])
                for i, row in zip(todo, rows_out):
                    rows[i] = row
        assert all(row is not None for row in rows)
        return rows  # type: ignore[return-value]

    def _fan_out(self, specs: List[ExperimentSpec]) -> List[Dict[str, Any]]:
        from concurrent.futures import ProcessPoolExecutor

        out: List[Dict[str, Any]] = []
        with ProcessPoolExecutor(max_workers=min(self.workers,
                                                 len(specs))) as pool:
            # executor.map preserves input order; exceptions are already
            # folded into rows inside the worker.
            for row in pool.map(execute_spec, specs):
                out.append(row)
                self._progress(self._done_line(row))
        return out

    @staticmethod
    def _done_line(row: Dict[str, Any]) -> str:
        return ("%-4s %s %s/%s cores=%d seed=%d%s"
                % ("ok" if row["status"] == "ok" and row["ok"] else "FAIL",
                   row["run_id"], row["workload"], row["libos"],
                   row["cores"], row["seed"],
                   "" if not row["failures"]
                   else " (%s)" % "; ".join(row["failures"])))


def trajectory_document(batch: SpecBatch,
                        rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Wrap executed rows as the persisted ``experiment`` document."""
    return {
        "bench": "experiment",
        "schema_version": SCHEMA_VERSION,
        "name": batch.name,
        "params": batch.params(),
        "rows": rows,
    }


def completed_rows(payload: Any, name: str) -> Dict[str, Dict[str, Any]]:
    """Reusable rows from an existing trajectory, keyed by ``run_id``.

    Scans every ``experiment`` document in *payload* whose ``name``
    matches and keeps rows that finished ``status: "ok"`` - the cache a
    resumed batch seeds :meth:`Runner.run` with.  Later documents win.
    """
    docs = payload if isinstance(payload, list) else [payload]
    out: Dict[str, Dict[str, Any]] = {}
    for doc in docs:
        if not isinstance(doc, dict) or doc.get("bench") != "experiment":
            continue
        if doc.get("name") != name:
            continue
        for row in doc.get("rows") or []:
            if (isinstance(row, dict) and row.get("status") == "ok"
                    and "run_id" in row):
                out[row["run_id"]] = row
    return out
