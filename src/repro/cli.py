"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo``        - the quickstart echo, inline;
* ``experiments`` - a fast subset of the paper experiments, as tables
  (the full set lives in ``benchmarks/`` under pytest-benchmark);
* ``costs``       - dump the active cost model;
* ``trace``       - run a workload with telemetry on and write a Chrome
  ``trace_event`` JSON file (load it in Perfetto / about:tracing);
* ``report``      - per-stack latency breakdown (libOS vs netstack vs
  device) from a trace file, or from a fresh inline run;
* ``chaos``       - run one golden chaos scenario (crash injection,
  device outages...), print its invariant results and trace signature,
  and exit nonzero if any invariant was violated;
* ``exp``         - declarative experiment orchestration
  (:mod:`repro.experiments`): ``run`` a spec file (specs and/or
  matrices) across worker processes and append the schema-validated
  trajectory, ``validate`` spec files and ``BENCH_*.json`` payloads,
  ``list`` the workload registry or a spec file's expansion.

``exp run`` is the only way a ``BENCH_*.json`` trajectory is produced
(docs/experiments.md); ``chaos``, ``trace`` and ``report`` call the one
scenario driver (:func:`repro.testing.run_scenario`) directly.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

from .apps.echo import demi_echo_client, demi_echo_server
from .bench.report import print_table, us
from .sim.costs import DEFAULT_COSTS
from .sim.faults import FaultPlan
from .telemetry import (breakdown_from_events, chrome_trace_events, names,
                        write_chrome_trace)
from .testbed import make_dpdk_libos_pair
from .testing.scenarios import WORKLOADS as SCENARIO_WORKLOADS
from .testing.scenarios import (GOLDEN_SCENARIOS, named_plans, plan_by_name,
                                run_scenario, scenario_problem)

__all__ = ["main"]

#: every stack kind a scenario row runs on (``scenario_problem`` vets a pair)
SCENARIO_KINDS = sorted({kind for row in SCENARIO_WORKLOADS.values()
                         for kind in row["kinds"]})


def cmd_demo(_args) -> int:
    world, client, server = make_dpdk_libos_pair()
    world.sim.spawn(demi_echo_server(server))
    messages = [b"demo-%d" % i for i in range(5)]
    proc = world.sim.spawn(demi_echo_client(client, "10.0.0.2", messages))
    world.run()
    replies, stats = proc.value
    print("echoed %d messages over the Demikernel DPDK libOS" % len(replies))
    print("steady-state RTT: %s" % us(stats.samples[-1]))
    return 0


def cmd_experiments(_args) -> int:
    from .experiments import ExperimentSpec, run_spec

    def metrics(workload, kind, **params):
        return run_spec(ExperimentSpec(workload, libos=kind,
                                       params=params))["metrics"]

    rows = [(kind, metrics("echo-rtt", kind, count=15))
            for kind in ("kernel", "mtcp", "posix", "dpdk", "rdma")]
    print_table(
        "echo RTT across every stack (64 B messages)",
        ["stack", "RTT mean", "RTT p99", "syscalls/req", "copied B/req"],
        [(kind, us(r["rtt_mean_ns"]), us(r["rtt_p99_ns"]),
          "%.1f" % r["syscalls_per_req"],
          "%.0f" % r["copies_bytes_per_req"]) for kind, r in rows],
    )
    sweep = []
    for size in (64, 4096):
        posix, demi = (metrics("kv-rtt", kind, value_size=size,
                               n_gets=10)["get_rtt_mean_ns"]
                       for kind in ("kernel", "dpdk"))
        sweep.append((size, us(posix), us(demi), "%.2f" % (posix / demi)))
    print_table(
        "KV GET: POSIX copies vs Demikernel zero-copy",
        ["value B", "POSIX RTT", "Demikernel RTT", "ratio"], sweep)
    print("\nfull suite: pytest benchmarks/ --benchmark-only -s")
    return 0


def cmd_costs(_args) -> int:
    print_table(
        "active cost model (ns unless noted)",
        ["constant", "value"],
        sorted(DEFAULT_COSTS.as_dict().items()),
    )
    return 0


def _traced_world(args):
    """Run one workload fault-free with telemetry on, on ``--libos`` or
    the workload's first kind; returns its World and that kind."""
    kind = args.libos or SCENARIO_WORKLOADS[args.workload]["kinds"][0]
    problem = scenario_problem(args.workload, kind)
    if problem is not None:
        raise SystemExit(problem)
    result = run_scenario(args.workload, kind, plan=FaultPlan(seed=args.seed),
                          telemetry=True)
    for failure in result.failures:
        print("note: %s" % failure, file=sys.stderr)
    return result.world, kind


def _print_breakdown(breakdown: dict, title: str) -> None:
    rows = []
    for cat in names.SPAN_CATEGORIES:
        entry = breakdown.get(cat)
        if entry is None:
            continue
        top = sorted(entry["names"].items(), key=lambda kv: -kv[1])[:3]
        rows.append((cat, entry["spans"], "%.1f" % entry["total_us"],
                     "%.2f" % entry["mean_us"],
                     ", ".join("%s %.0fus" % (n, v) for n, v in top)))
    print_table(title,
                ["stack layer", "spans", "total us", "mean us", "top spans"],
                rows)


def cmd_trace(args) -> int:
    world, kind = _traced_world(args)
    n = write_chrome_trace(world.tracer, args.output)
    print("wrote %d trace events (%d spans) to %s"
          % (n, len(world.tracer.spans), args.output))
    print("load it at https://ui.perfetto.dev or chrome://tracing")
    _print_breakdown(breakdown_from_events(chrome_trace_events(world.tracer)),
                     "per-stack time in %s/%s" % (args.workload, kind))
    return 0


def cmd_report(args) -> int:
    if args.trace_file:
        with open(args.trace_file) as fh:
            doc = json.load(fh)
        breakdown = breakdown_from_events(doc)
        title = "per-stack time in %s" % args.trace_file
    else:
        world, kind = _traced_world(args)
        breakdown = breakdown_from_events(chrome_trace_events(world.tracer))
        title = "per-stack time in %s/%s (inline run)" % (args.workload, kind)
    _print_breakdown(breakdown, title)
    return 0


def cmd_chaos(args) -> int:
    """One golden scenario, once; replays are the battery's job
    (``repro exp run experiments/chaos_battery.json``)."""
    scenario = GOLDEN_SCENARIOS[args.scenario]
    kind = args.libos or scenario["kinds"][0]
    problem = scenario_problem(args.scenario, kind)
    if problem is not None:
        raise SystemExit(problem)
    if args.plan:
        with open(args.plan) as fh:
            plan = FaultPlan.from_json(fh.read())
        if args.seed is not None:
            plan = FaultPlan(seed=args.seed, events=list(plan.events))
    else:
        plan = plan_by_name(args.scenario, kind, seed=args.seed)
    result = run_scenario(args.scenario, kind, plan=plan)
    print("scenario : %s (%s)" % (args.scenario, scenario["blurb"]))
    print("libos    : %s   seed: %d" % (kind, plan.seed))
    print("plan     : %s" % plan.describe())
    for key, value in sorted(result.data.items()):
        print("%-9s: %s" % (key, value))
    print("signature: %s" % result.signature)
    if result.ok:
        print("invariants: all held")
        return 0
    print("invariants: %d VIOLATED" % len(result.failures))
    for failure in result.failures:
        print("  - %s" % failure)
    print(result.repro_line())
    return 1


def _load_batch(path: str):
    from .experiments import load_spec_file, validate_spec

    batch = load_spec_file(path)
    problems = []
    for spec in batch.specs:
        reason = validate_spec(spec)
        if reason is not None:
            problems.append("%s: %s" % (spec.describe(), reason))
    return batch, problems


def cmd_exp_run(args) -> int:
    from .experiments import (Runner, append_document, check_document,
                              completed_rows, load_payload,
                              trajectory_document)

    batch, problems = _load_batch(args.spec)
    if problems:
        for problem in problems:
            print("exp run: invalid spec: %s" % problem, file=sys.stderr)
        return 2
    cached = {}
    if args.resume:
        existing = load_payload(args.output)
        if existing is not None:
            cached = completed_rows(existing, batch.name)
    print("batch %r: %d runs (%d cached), %d worker(s)"
          % (batch.name, len(batch.specs),
             sum(1 for s in batch.specs if s.run_id in cached),
             args.workers))
    rows = Runner(workers=args.workers, progress=print).run(
        batch.specs, cached=cached)
    doc = trajectory_document(batch, rows)
    print_table(
        "experiment batch %r (seeded, deterministic)" % batch.name,
        ["run", "workload", "libos", "cores", "plan", "seed", "status"],
        [(r["run_id"], r["workload"], r["libos"], r["cores"],
          r["fault_plan"] if isinstance(r["fault_plan"], str)
          else "inline", r["seed"],
          "ok" if r["status"] == "ok" and r["ok"] else "FAIL")
         for r in rows],
    )
    errors = check_document(doc)
    if errors:
        for error in errors:
            print("exp run: %s" % error, file=sys.stderr)
        print("exp run: trajectory NOT appended (%d violation(s))"
              % len(errors), file=sys.stderr)
        return 1
    trajectory = append_document(args.output, doc)
    print("appended document %d to %s (%d rows, all gates passed)"
          % (len(trajectory), args.output, len(rows)))
    return 0


def cmd_exp_list(args) -> int:
    from .experiments import WORKLOADS

    if args.spec:
        batch, problems = _load_batch(args.spec)
        print_table(
            "batch %r: %d runs" % (batch.name, len(batch.specs)),
            ["run", "workload", "libos", "cores", "plan", "seed"],
            [(s.run_id, s.workload, s.libos, s.cores, s.plan_name(), s.seed)
             for s in batch.specs],
        )
        for problem in problems:
            print("invalid: %s" % problem, file=sys.stderr)
        return 1 if problems else 0
    from .experiments.workloads import schema_summary

    print_table(
        "registered workloads",
        ["workload", "what it runs"],
        [(name, WORKLOADS[name]["blurb"]) for name in sorted(WORKLOADS)],
    )
    print_table(
        "workload params (name:type=default)",
        ["workload", "params"],
        [(name, schema_summary(WORKLOADS[name].get("schema")))
         for name in sorted(WORKLOADS)],
    )
    print("named fault plans: %s" % ", ".join(named_plans()))
    print("run one: python -m repro exp run experiments/ci_matrix.json")
    return 0


def cmd_exp_validate(args) -> int:
    from .experiments import SpecError, check_payload

    status = 0
    for path in args.paths:
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except (OSError, ValueError) as exc:
            print("exp validate: cannot read %s: %s" % (path, exc),
                  file=sys.stderr)
            status = 1
            continue
        if isinstance(payload, dict) and ("workload" in payload
                                          or "matrix" in payload
                                          or "experiments" in payload):
            try:
                batch, problems = _load_batch(path)
            except SpecError as exc:
                print("exp validate: %s" % exc, file=sys.stderr)
                status = 1
                continue
            for problem in problems:
                print("exp validate: %s: %s" % (path, problem),
                      file=sys.stderr)
            if problems:
                status = 1
            else:
                print("exp validate: %s ok (spec file, %d runs)"
                      % (path, len(batch.specs)))
            continue
        errors = check_payload(payload)
        for error in errors:
            print("exp validate: %s: %s" % (path, error), file=sys.stderr)
        if errors:
            status = 1
        else:
            from .experiments.schema import summarize

            print("exp validate: %s" % summarize(payload, path))
    return status


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Demikernel reproduction (HotOS 2019) - simulated "
                    "kernel-bypass library OSes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("demo", help="run the quickstart echo").set_defaults(
        fn=cmd_demo)
    sub.add_parser("experiments",
                   help="run a fast subset of the paper experiments"
                   ).set_defaults(fn=cmd_experiments)
    sub.add_parser("costs", help="print the cost model").set_defaults(
        fn=cmd_costs)
    p_trace = sub.add_parser(
        "trace", help="run a workload with telemetry; write a Chrome trace")
    p_trace.add_argument("workload", choices=sorted(SCENARIO_WORKLOADS))
    p_trace.add_argument("--libos", default=None, choices=SCENARIO_KINDS,
                         help="stack kind (default: the workload's first)")
    p_trace.add_argument("-o", "--output", default="trace.json",
                         help="trace file path (default: trace.json)")
    p_trace.add_argument("--seed", type=int, default=42)
    p_trace.set_defaults(fn=cmd_trace)
    p_report = sub.add_parser(
        "report", help="per-stack latency breakdown from a trace")
    p_report.add_argument("trace_file", nargs="?", default=None,
                          help="a trace JSON written by `repro trace`; "
                               "omit to run the workload inline")
    p_report.add_argument("--workload", default="echo",
                          choices=sorted(SCENARIO_WORKLOADS))
    p_report.add_argument("--libos", default=None, choices=SCENARIO_KINDS,
                          help="stack kind (default: the workload's first)")
    p_report.add_argument("--seed", type=int, default=42)
    p_report.set_defaults(fn=cmd_report)
    p_exp = sub.add_parser(
        "exp", help="declarative experiment orchestration "
                    "(specs, matrices, trajectories)")
    exp_sub = p_exp.add_subparsers(dest="exp_command", required=True)
    p_run = exp_sub.add_parser(
        "run", help="execute a spec file; append the trajectory document")
    p_run.add_argument("spec", help="experiments/*.json spec file")
    p_run.add_argument("-o", "--output", default="BENCH_experiments.json",
                       help="trajectory file to append to "
                            "(default: BENCH_experiments.json)")
    p_run.add_argument("--workers", type=int, default=1,
                       help="host processes to fan runs out across "
                            "(default: 1, inline)")
    p_run.add_argument("--resume", action="store_true",
                       help="reuse ok rows already in the output "
                            "trajectory (matched by run_id) instead of "
                            "re-running them")
    p_run.set_defaults(fn=cmd_exp_run)
    p_list = exp_sub.add_parser(
        "list", help="list registered workloads, or a spec file's runs")
    p_list.add_argument("spec", nargs="?", default=None,
                        help="spec file to expand (omit to list the "
                             "workload registry)")
    p_list.set_defaults(fn=cmd_exp_list)
    p_validate = exp_sub.add_parser(
        "validate", help="validate spec files and BENCH_*.json payloads")
    p_validate.add_argument("paths", nargs="+",
                            help="spec files and/or bench documents / "
                                 "trajectories")
    p_validate.set_defaults(fn=cmd_exp_validate)
    p_chaos = sub.add_parser(
        "chaos", help="run one chaos scenario and check its invariants")
    p_chaos.add_argument("scenario", choices=sorted(GOLDEN_SCENARIOS))
    p_chaos.add_argument("--libos", default=None, choices=SCENARIO_KINDS,
                         help="libOS kind (default: the scenario's first)")
    p_chaos.add_argument("--seed", type=int, default=None,
                         help="override the plan's RNG seed")
    p_chaos.add_argument("--plan", default=None, metavar="PLAN.json",
                         help="replay a FaultPlan JSON (e.g. from a "
                              "failure's repro line) instead of the "
                              "golden plan")
    p_chaos.set_defaults(fn=cmd_chaos)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main(sys.argv[1:]))
