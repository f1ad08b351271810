"""The benchmark's one command.

    python3 perfbench/run.py [--workload W] [--seed N] [--seconds S]
                             [--trace 0|1] [--out FILE]

With no ``--workload`` it runs all six untraced and prints the table.  For
one workload the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is non-zero if any output was wrong.  See README.md for what each metric
means and BENCHMARK.json for its unit, direction and bound.

One invocation of a workload runs executions for as long as another one
fits into ``--seconds`` (at least ``MIN_TIMED``, and exactly that many with
``--trace 1``).  The first is also the correctness check and the source of
every simulated number, which the others must repeat.  Every execution
imports ``repro`` afresh, builds a fresh world and is preceded by
``gc.collect()``, so the first starts as cold as the rest and is timed like
them.  Host metrics and ``setup_s`` take each slice of the work at its least
over the executions, scaled by a reference loop (``harness.undisturbed``).
``--trace 1`` adds two traced executions and prints the per-layer metrics
instead.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import statistics
import sys
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import harness, tracing, workloads  # noqa: E402

MIN_TIMED = 3
OUT_DIR = os.path.join(ROOT, "perfbench", "out")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class Timed(NamedTuple):
    """The host time one execution's phases took, and what it simulated."""

    #: ``harness.mark`` stamps; every execution of one seed does identical
    #: work between the same two marks
    setup_stamps: Tuple[float, ...]
    run_stamps: Tuple[float, ...]
    #: wall over CPU seconds of the measured window
    wall_to_cpu: float
    #: everything that must repeat exactly from one execution to the next
    simulated: tuple


def execute(cfg, inputs, seed: int, probe: Optional[tracing.Probe] = None,
            profile: Optional[list] = None):
    """Set up, measure and finish one execution on freshly imported code.

    Returns the finished execution and its ``Timed``.  Callers drop the
    execution as soon as they can: a kept world is thousands of live
    objects for every later collection to walk, and timings would drift up
    within the invocation.

    ``repro`` and the drivers are dropped from ``sys.modules`` first, so
    set-up is everything before the first measured op each time: imports,
    world build, ARP/connect, preload.
    """
    for name in [m for m in sys.modules
                 if m == "repro" or m.startswith("repro.")
                 or m == "perfbench.drivers"]:
        del sys.modules[name]
    gc.collect()
    harness.calibrate = profile is None
    setup: List[float] = []
    harness.mark(setup)
    drivers = importlib.import_module("perfbench.drivers")
    if probe is not None:
        probe.install()
    harness.mark(setup)
    exe = drivers.build(cfg, inputs, seed)
    setup += exe.marks
    harness.mark(setup)
    if probe is not None:
        probe.window_start(exe)
    clock = harness.HostClock()
    if profile is not None:
        profile.extend(tracing.profile_layers(exe.measure))
    else:
        exe.measure()
    run_cpu_s, run_wall_s = clock.elapsed()
    if probe is not None:
        probe.window_end(exe)
    exe.finish()
    simulated = (exe.attempted, exe.completed, exe.window_ns,
                 exe.server_busy_ns, exe.goodput_ops_per_s,
                 tuple(exe.latencies), exe.world.tracer.signature())
    return exe, Timed(tuple(setup), tuple(exe.marks),
                      run_wall_s / run_cpu_s, simulated)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0) -> dict:
    """Run one workload; returns the result document (see ``main``)."""
    cfg = workloads.config(name, scale)
    inputs = harness.make_inputs(cfg, seed)
    started = time.perf_counter()
    exe, first = execute(cfg, inputs, seed)
    problems = list(exe.violations)
    attempted, failed, ops = exe.attempted, exe.failed, max(1, exe.completed)
    values = {
        "sim_goodput_ops_per_s": exe.goodput_ops_per_s,
        "sim_lat_p50_ns": harness.smooth_median(exe.latencies),
        "sim_lat_p99_ns": float(harness.percentile(exe.latencies, 99)),
        "sim_server_cpu_ns_per_op": exe.server_busy_ns / ops,
    }
    samples = len(exe.latencies)
    del exe
    timed: List[Timed] = [first]
    last = started
    # A traced invocation spends the rest of its time on the traced two.
    while (len(timed) < MIN_TIMED
           or (not trace and 2 * time.perf_counter() - last - started
               < seconds)):
        last = time.perf_counter()
        timed.append(execute(cfg, inputs, seed)[1])
        if timed[-1].simulated != first.simulated:
            problems.append("execution %d did not repeat the first one's"
                            " simulated numbers" % len(timed))
    # each execution's own figure, to show how far apart they lie
    host_us_per_op = [harness.undisturbed([t.run_stamps]) * 1e6 / ops
                      for t in timed]
    if len({(len(t.setup_stamps), len(t.run_stamps)) for t in timed}) != 1:
        problems.append("executions were marked at different points")
    health = {
        "bench.samples": samples,
        "bench.host_repeat_spread": harness.spread(host_us_per_op),
        "bench.wall_to_cpu_ratio": statistics.median(
            [t.wall_to_cpu for t in timed]),
        "bench.host_speed": harness.host_speed(
            [t.run_stamps for t in timed]),
        "bench.timed_executions": len(timed),
    }
    values.update({
        "setup_s": harness.undisturbed([t.setup_stamps for t in timed]),
        "host_cpu_us_per_op": harness.undisturbed(
            [t.run_stamps for t in timed]) * 1e6 / ops,
        "host_peak_rss_mb": harness.peak_rss_mb(),
    })
    if trace:
        values = layer_metrics(cfg, inputs, seed, name, first.simulated,
                               health, values["host_cpu_us_per_op"],
                               problems)
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": values,
        "health": health,
        "host_us_per_op_runs": host_us_per_op,
        "problems": problems,
    }


def layer_metrics(cfg, inputs, seed: int, name: str, simulated: tuple,
                  health: dict, untraced_us_per_op: float,
                  problems: List[str]) -> Dict[str, float]:
    """The two traced executions and every per-layer metric from them."""
    probe = tracing.Probe()
    exe, spanned = execute(cfg, inputs, seed, probe=probe)
    profile: list = []
    execute(cfg, inputs, seed, profile=profile)
    ops = max(1, exe.completed)
    if spanned.simulated != simulated:
        problems.append("tracing changed the simulated numbers")
    probe.write(OUT_DIR, "%s-seed%d" % (name, seed))

    values: Dict[str, float] = {}
    seconds, calls, by_name = profile
    for layer in tracing.LAYERS:
        values[layer + ".host_self_us_per_op"] = seconds[layer] * 1e6 / ops
        values[layer + ".calls_per_op"] = calls[layer] / ops
        values[layer + ".sim_cpu_ns_per_op"] = (
            probe.layer_sim_cpu_ns.get(layer, 0) / ops)
    if sum(probe.layer_sim_cpu_ns.values()) != exe.server_busy_ns:
        problems.append("layer sim_cpu_ns parts sum to %d, cores were busy"
                        " %d ns" % (sum(probe.layer_sim_cpu_ns.values()),
                                    exe.server_busy_ns))

    rollup = sys.modules["repro.telemetry"].counter_rollup

    def count(*leaves: str, within: str = "") -> int:
        scoped = {k: v for k, v in probe.counters.items() if within in k}
        return sum(rollup(scoped, leaves=leaves).values())

    def spans(span_name: str) -> int:
        return sum(1 for _i, s in probe.window_spans if s[0] == span_name)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    serving = cfg.SERVING_SCOPE
    values.update({
        "sim.engine.events_per_op": probe.window_events / ops,
        "sim.engine.timers_cancelled_per_op": probe.window_cancelled / ops,
        "sim.engine.heap_peak": probe.heap_peak,
        "sim.engine.host_ns_per_event": ratio(
            untraced_us_per_op * 1e3 * ops, probe.window_events),
        "sim.trace.counter_bumps_per_op": by_name["trace.py:count"] / ops,
        "sim.cpu.server_util_max": probe.util_max,
        "sim.cpu.queue_wait_ns_per_op": probe.queue_wait_ns / ops,
        "sim.fabric.frames_per_op": count("tx_frames",
                                          within="fabric.") / ops,
        "sim.fabric.bytes_per_op": count("tx_bytes", within="fabric.") / ops,
        "sim.fabric.dropped_frames": count("dropped_frames",
                                           within="fabric."),
        "hw.nic.doorbells_per_op": count("doorbells", within=serving) / ops,
        "hw.nic.rx_interrupts_per_op": count("rx_interrupts",
                                             within=serving) / ops,
        "hw.nic.rx_ring_drops": count("rx_ring_drops"),
        "hw.nic.frames_per_rx_burst": ratio(
            count("rx_frames", within=".dpdk0"), spans("hw.nic.rx_burst")),
        "hw.nvme.cmds_per_op": count("reads", "writes", "flushes", "scans",
                                     within=".nvme") / ops,
        "hw.nvme.bytes_per_op": count("read_bytes", "write_bytes",
                                      "scan_bytes", within=".nvme") / ops,
        "hw.nvme.retries": count("retries", within=".nvme"),
        "memory.allocs_per_op": count("allocs", within="mm.") / ops,
        "memory.registrations_per_op": count(
            "region_registrations", "buffer_registrations",
            within="mm.") / ops,
        "memory.leaked_buffers_per_op": probe.leaked_buffers / ops,
        "memory.live_buffers_at_end": exe.live_buffers,
        "netstack.tcp_segments_per_op": count("tcp_segments_tx") / ops,
        "netstack.checksum_calls_per_op":
            by_name["packet.py:internet_checksum"] / ops,
        "netstack.tcp_retransmits_per_kop":
            count("tcp_retransmits") * 1e3 / ops,
        "netstack.tcp_fast_retransmits_per_kop":
            count("tcp_fast_retransmits") * 1e3 / ops,
        "kernelos.syscalls_per_op": count("syscalls") / ops,
        "kernelos.bytes_copied_per_op": count(
            "bytes_copied_tx", "bytes_copied_rx", within=".kernel.") / ops,
        "kernelos.epoll_wakeups_per_op": count("epoll_wakeups") / ops,
        "kernelos.blocks_per_op": count("blocks", within=".kernel.") / ops,
        "kernelos.wakeups_per_op": count("wakeups", within=".kernel.") / ops,
        "core.qtokens_per_op": count("qtokens_created") / ops,
        "core.waits_per_op": count("waits") / ops,
        "core.wait_timeouts_per_op": count("wait_timeouts") / ops,
        "core.qtokens_in_flight_at_end": exe.qtokens_in_flight,
        "libos.pushes_per_op": count("pushes") / ops,
        "libos.pops_per_op": count("pops") / ops,
        "libos.bytes_copied_per_op": count("bytes_copied_tx",
                                           "bytes_copied_rx") / ops,
        "rdma.one_sided_writes_per_op": count("rx_writes_applied") / ops,
        "rdma.retransmits": count("retransmits", within=".rdma0"),
        "rdma.rnr_naks": count("rnr_naks_received"),
        "storage.nvme_writes_per_append": ratio(
            count("writes", within=".nvme"), count("file_appends")),
        "storage.scan_bytes_per_record": ratio(
            count("scan_bytes", within=".nvme"),
            getattr(cfg, "N_RECORDS", 0)),
        "apps.proto.requests_per_pop": ratio(count("proto_requests"),
                                             spans("apps.proto.feed")),
        "apps.proto.partial_feeds": count("proto_partial_feeds"),
        "apps.proto.decode_errors": count("proto_decode_errors"),
        "cluster.requests_per_wakeup": ratio(count("shard_requests"),
                                             count("shard_wakeups")),
        "cluster.wasted_wakeups": count("shard_wasted_wakeups"),
        "cluster.cross_shard_wakeups": count("shard_cross_wakeups"),
        "cluster.failover_stall_ns": exe.extra.get("failover_stall_ns", 0),
        "cluster.client_retries": count("repl_client_retries"),
        "cluster.lost_acked_writes": exe.extra.get("lost_acked_writes", 0),
        "bench.lateness_p99_ns": (harness.percentile(exe.lateness, 99)
                                  if exe.lateness else 0),
        "bench.samples": health["bench.samples"],
        "bench.host_repeat_spread": health["bench.host_repeat_spread"],
        "bench.trace_overhead_ratio": ratio(
            harness.undisturbed([spanned.run_stamps]) * 1e6 / ops,
            untraced_us_per_op),
        "bench.wall_to_cpu_ratio": health["bench.wall_to_cpu_ratio"],
        "bench.host_speed": health["bench.host_speed"],
        "bench.sim_slo_rate_ops_per_s": exe.extra.get("slo_rate_ops_per_s",
                                                      0.0),
        "bench.failed_ops": exe.failed,
    })
    return values


def attach_units(values: Dict[str, float], specs: List[dict]) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the metrics *specs* names."""
    wanted = [s["name"] for s in specs]
    if sorted(wanted) != sorted(values):
        raise SystemExit("metrics computed and BENCHMARK.json disagree: %s"
                         % sorted(set(wanted) ^ set(values)))
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
            for s in specs}


def print_table(name: str, result: dict, host_bound: float) -> None:
    print("== %s: attempted %d, failed %d (share %.6f), %s"
          % (name, result["attempted"], result["failed"],
             result["failed"] / result["attempted"],
             "correct" if result["correct"] else "WRONG"))
    for metric, entry in result["metrics"].items():
        print("  %-42s %18.6f %s" % (metric, entry["value"], entry["unit"]))
    for metric, value in result["health"].items():
        print("  %-42s %18.6f" % (metric, value))
    if result["health"]["bench.host_repeat_spread"] > host_bound:
        print("  timed executions spread wider than the bound: host metrics"
              " are unresolved, not unchanged")
    for problem in result["problems"]:
        print("  PROBLEM: %s" % problem)


def pin_hash_seed() -> None:
    """Re-execute this command under ``PYTHONHASHSEED=0`` if it is not set.

    The repo's determinism contract assumes it (``Host.rng`` is seeded from
    ``hash(name)``) and CI pins it; the driver's command line does not.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write every result here as JSON")
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else list(workloads.NAMES)
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    host_bound = next(m["bound"] for m in spec["end_to_end"]
                      if m["name"] == "host_cpu_us_per_op")
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        result["metrics"] = attach_units(result["metrics"], specs)
        print_table(name, result, host_bound)
        results[name] = result
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as out:
            json.dump({"seed": args.seed, "trace": args.trace,
                       "results": results}, out, indent=1)
    if args.workload:
        result = results[args.workload]
        print(json.dumps({key: result[key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    pin_hash_seed()
    sys.exit(main())
