"""Declarative experiment specs and matrix expansion.

An :class:`ExperimentSpec` is the unit of execution: one workload, on
one libOS, at one core count, under one fault plan, at one seed.  It is
a plain JSON-serializable value - ``spec == ExperimentSpec.from_dict(
spec.to_dict())`` holds exactly - and its :attr:`run_id`
(a digest of the canonical JSON) names the run everywhere: in
trajectory rows, in resume bookkeeping, in log lines.

A :class:`Matrix` expands axes into specs::

    Matrix(base={"workload": "kv", "seed": 7},
           axes={"libos": ["dpdk", "posix"],
                 "cores": [1, 2],
                 "fault_plan": ["reorder-dup-storm"]}).expand()

yields the cross product (deduplicated, in deterministic order).  With
``skip_invalid=True`` combinations the workload rejects (e.g. a chaos
scenario on a libOS kind it does not run on) are dropped instead of
raising - the natural way to sweep a scenario battery whose kinds vary
per scenario.

A *spec file* (``experiments/*.json``) is a batch: a name, optional
document-level gates (budgets / monotonicity, enforced by
:mod:`repro.experiments.schema`), and a list of specs and/or matrices.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

__all__ = ["SpecError", "ExperimentSpec", "Matrix", "SpecBatch",
           "load_spec_file"]

#: the spec fields a matrix may use as axes
AXIS_FIELDS = ("workload", "libos", "cores", "fault_plan", "seed")

_SPEC_FIELDS = AXIS_FIELDS + ("params",)


class SpecError(ValueError):
    """A malformed experiment spec / matrix / spec file."""


@dataclass(frozen=True)
class ExperimentSpec:
    """One declarative run: JSON in, one trajectory row out."""

    workload: str
    libos: str = "dpdk"
    cores: int = 1
    #: a plan name (``repro.testing.plan_by_name``) or an inline
    #: ``FaultPlan.to_dict()`` payload
    fault_plan: Union[str, Dict[str, Any]] = "none"
    seed: int = 7
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.workload, str) or not self.workload:
            raise SpecError("workload must be a non-empty string")
        if not isinstance(self.libos, str) or not self.libos:
            raise SpecError("libos must be a non-empty string")
        if not isinstance(self.cores, int) or self.cores < 1:
            raise SpecError("cores must be a positive integer, got %r"
                            % (self.cores,))
        if not isinstance(self.seed, int):
            raise SpecError("seed must be an integer, got %r" % (self.seed,))
        if not isinstance(self.fault_plan, (str, dict)):
            raise SpecError("fault_plan must be a plan name or a FaultPlan"
                            " dict, got %r" % (self.fault_plan,))
        if not isinstance(self.params, Mapping):
            raise SpecError("params must be an object, got %r"
                            % (self.params,))
        # Freeze params as a plain dict copy so accidental mutation of
        # the caller's mapping cannot change the spec's identity.
        object.__setattr__(self, "params", dict(self.params))

    # -- serialization (the round-trip contract) ---------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "libos": self.libos,
            "cores": self.cores,
            "fault_plan": self.fault_plan,
            "seed": self.seed,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        if not isinstance(data, Mapping):
            raise SpecError("spec is not an object: %r" % (data,))
        unknown = sorted(set(data) - set(_SPEC_FIELDS))
        if unknown:
            raise SpecError("unknown spec field(s): %s (have: %s)"
                            % (", ".join(unknown), ", ".join(_SPEC_FIELDS)))
        if "workload" not in data:
            raise SpecError("spec missing required field 'workload'")
        return cls(**{k: data[k] for k in _SPEC_FIELDS if k in data})

    def canonical(self) -> str:
        """Canonical JSON: the spec's identity (sorted keys, no spaces)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @property
    def run_id(self) -> str:
        """Stable digest naming this exact run in trajectories/logs."""
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:12]

    def plan_name(self) -> str:
        """Human-readable fault-plan label for tables and rows."""
        if isinstance(self.fault_plan, str):
            return self.fault_plan
        return "inline(%d events)" % len(self.fault_plan.get("events", []))

    def resolve_plan(self):
        """The concrete :class:`~repro.sim.faults.FaultPlan` to install.

        Named plans are resolved next to the golden-scenario table with
        this spec's seed substituted, so the spec alone reproduces every
        stochastic fault decision; inline dicts are deserialized as-is.
        """
        from ..sim.faults import FaultPlan
        from ..testing.scenarios import plan_by_name

        if isinstance(self.fault_plan, dict):
            return FaultPlan.from_dict(self.fault_plan)
        return plan_by_name(self.fault_plan, kind=self.libos, seed=self.seed)

    def describe(self) -> str:
        return ("%s %s/%s cores=%d plan=%s seed=%d"
                % (self.run_id, self.workload, self.libos, self.cores,
                   self.plan_name(), self.seed))


class Matrix:
    """A base spec plus axes; :meth:`expand` yields the cross product."""

    def __init__(self, base: Optional[Mapping[str, Any]] = None,
                 axes: Optional[Mapping[str, Sequence[Any]]] = None,
                 skip_invalid: bool = False):
        self.base = dict(base or {})
        self.axes = {k: list(v) for k, v in (axes or {}).items()}
        self.skip_invalid = skip_invalid
        for name, values in self.axes.items():
            if name not in AXIS_FIELDS:
                raise SpecError("unknown matrix axis %r (have: %s)"
                                % (name, ", ".join(AXIS_FIELDS)))
            if not values:
                raise SpecError("matrix axis %r is empty" % name)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Matrix":
        unknown = sorted(set(data) - {"base", "axes", "skip_invalid"})
        if unknown:
            raise SpecError("unknown matrix field(s): %s"
                            % ", ".join(unknown))
        return cls(base=data.get("base"), axes=data.get("axes"),
                   skip_invalid=bool(data.get("skip_invalid", False)))

    def expand(self) -> List[ExperimentSpec]:
        """The cross product as specs: deterministic order, deduplicated.

        Axis order follows the axes mapping's insertion order (JSON
        object order), the last axis varying fastest.  Duplicate
        combinations (repeated axis values, or axes that collapse into
        identical specs) keep their first occurrence.  With
        ``skip_invalid`` set, combinations rejected by the workload
        registry are silently dropped; otherwise expansion raises on
        the first invalid spec.
        """
        from .workloads import validate_spec

        names = list(self.axes)
        specs: List[ExperimentSpec] = []
        seen = set()
        for combo in itertools.product(*(self.axes[n] for n in names)):
            payload = dict(self.base)
            payload.update(zip(names, combo))
            spec = ExperimentSpec.from_dict(payload)
            if spec.canonical() in seen:
                continue
            reason = validate_spec(spec)
            if reason is not None:
                if self.skip_invalid:
                    continue
                raise SpecError("invalid matrix combination (%s): %s"
                                % (spec.describe(), reason))
            seen.add(spec.canonical())
            specs.append(spec)
        if not specs:
            raise SpecError("matrix expanded to no runs")
        return specs


class SpecBatch:
    """A named list of runs plus the document-level gates they ship with."""

    def __init__(self, name: str, specs: Sequence[ExperimentSpec],
                 budgets: Optional[Mapping[str, Any]] = None,
                 monotonic: Optional[Sequence[Mapping[str, Any]]] = None,
                 reductions: Optional[Sequence[Mapping[str, Any]]] = None,
                 description: str = ""):
        if not specs:
            raise SpecError("spec batch %r has no runs" % name)
        self.name = name
        self.description = description
        self.specs = list(specs)
        self.budgets = dict(budgets or {})
        self.monotonic = [dict(m) for m in (monotonic or [])]
        self.reductions = [dict(r) for r in (reductions or [])]
        dup = _first_duplicate(s.run_id for s in self.specs)
        if dup is not None:
            raise SpecError("duplicate run %s in batch %r" % (dup, name))

    def params(self) -> Dict[str, Any]:
        """The trajectory document's ``params`` (its validation gates)."""
        out: Dict[str, Any] = {}
        if self.budgets:
            out["budgets"] = dict(self.budgets)
        if self.monotonic:
            out["monotonic"] = [dict(m) for m in self.monotonic]
        if self.reductions:
            out["reductions"] = [dict(r) for r in self.reductions]
        return out


def _first_duplicate(items) -> Optional[str]:
    seen = set()
    for item in items:
        if item in seen:
            return item
        seen.add(item)
    return None


def load_spec_file(path: str) -> SpecBatch:
    """Parse one ``experiments/*.json`` file into a :class:`SpecBatch`.

    Accepted shapes:

    * a single spec object (``{"workload": ...}``);
    * a single matrix (``{"matrix": {...}}``);
    * a batch: ``{"name": ..., "description": ..., "budgets": {...},
      "monotonic": [...], "reductions": [...], "experiments":
      [spec-or-matrix, ...]}`` where each entry is a spec object or
      ``{"matrix": {...}}``.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise SpecError("%s is not valid JSON: %s" % (path, exc))
    if not isinstance(doc, dict):
        raise SpecError("%s: spec file must hold a JSON object" % path)
    default_name = path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    if "experiments" in doc:
        unknown = sorted(set(doc) - {"name", "description", "budgets",
                                     "monotonic", "reductions",
                                     "experiments"})
        if unknown:
            raise SpecError("%s: unknown batch field(s): %s"
                            % (path, ", ".join(unknown)))
        specs: List[ExperimentSpec] = []
        for i, entry in enumerate(doc["experiments"]):
            try:
                specs.extend(_expand_entry(entry))
            except SpecError as exc:
                raise SpecError("%s: experiments[%d]: %s" % (path, i, exc))
        return SpecBatch(doc.get("name", default_name), specs,
                         budgets=doc.get("budgets"),
                         monotonic=doc.get("monotonic"),
                         reductions=doc.get("reductions"),
                         description=doc.get("description", ""))
    return SpecBatch(doc.pop("name", default_name) if "matrix" in doc
                     else default_name,
                     _expand_entry(doc),
                     description="")


def _expand_entry(entry: Mapping[str, Any]) -> List[ExperimentSpec]:
    if not isinstance(entry, Mapping):
        raise SpecError("entry is not an object: %r" % (entry,))
    if "matrix" in entry:
        unknown = sorted(set(entry) - {"matrix", "name"})
        if unknown:
            raise SpecError("unknown matrix wrapper field(s): %s"
                            % ", ".join(unknown))
        return Matrix.from_dict(entry["matrix"]).expand()
    return [ExperimentSpec.from_dict(entry)]
