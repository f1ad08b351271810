"""The traced run: per-layer host time, simulated CPU, spans and counts.

Everything is measured from here, by wrapping classes of ``repro`` after
they are imported and before a world is built; ``src/`` is not edited.
Layer names are module names.  Three instruments, used in two passes so
that neither distorts the other's clock:

* ``Probe`` (one execution): wraps ``Core.busy`` / ``charge_async`` /
  ``charge_retro`` to attribute every charged nanosecond to the first
  caller outside ``repro.sim.cpu`` and ``repro.sim.host``; wraps the
  engine's scheduling calls to count events; wraps each call in
  ``BOUNDARIES`` to record a span (name, both clocks' start and end,
  parent); snapshots ``world.tracer`` around the measured window.
* ``profile_layers`` (another execution): ``cProfile`` around the window,
  bucketed by source path into host self time and calls per layer.
"""

from __future__ import annotations

import cProfile
import json
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("sim.engine", "sim.cpu", "sim.fabric", "sim.trace", "hw.nic",
          "hw.nvme", "memory", "netstack", "kernelos", "core", "libos",
          "rdma", "storage", "apps.proto", "cluster", "bench")

#: path below ``repro/`` -> layer; the first prefix that matches wins
_PATHS = (
    ("sim/cpu.py", "sim.cpu"), ("sim/host.py", "sim.cpu"),
    ("sim/fabric.py", "sim.fabric"), ("sim/faults.py", "sim.fabric"),
    ("sim/trace.py", "sim.trace"), ("telemetry/", "sim.trace"),
    ("sim/", "sim.engine"),
    ("hw/nvme.py", "hw.nvme"), ("hw/", "hw.nic"),
    ("memory/", "memory"), ("netstack/", "netstack"),
    ("kernelos/", "kernelos"), ("core/", "core"), ("libos/", "libos"),
    ("rdma/", "rdma"), ("rmem/", "rdma"), ("storage/", "storage"),
    ("apps/", "apps.proto"), ("cluster/", "cluster"),
    ("testbed.py", "bench"),
)
_layer_cache: Dict[str, Optional[str]] = {}


def layer_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to; None outside repro and perfbench."""
    try:
        return _layer_cache[filename]
    except KeyError:
        pass
    path = filename.replace(os.sep, "/")
    layer = None
    if "/repro/" in path:
        tail = path.rsplit("/repro/", 1)[1]
        layer = next((l for prefix, l in _PATHS if tail.startswith(prefix)),
                     None)
    elif "/perfbench/" in path:
        layer = "bench"
    _layer_cache[filename] = layer
    return layer


#: public boundary calls that get a span: (span name, module, class,
#: method, is it a sim-coroutine).  A coroutine's span lasts from its first
#: step to its return, so its host duration includes whatever else the
#: simulator ran meanwhile; only its simulated duration is meaningful.
BOUNDARIES = (
    ("libos.push", "repro.core.api", "LibOS", "push", False),
    ("libos.pop", "repro.core.api", "LibOS", "pop", False),
    ("libos.wait", "repro.core.api", "LibOS", "wait", True),
    ("libos.wait_any", "repro.core.api", "LibOS", "wait_any", True),
    ("libos.wait_any_n", "repro.core.api", "LibOS", "wait_any_n", True),
    ("netstack.rx_frame", "repro.netstack.stack", "NetStack", "rx_frame",
     False),
    ("netstack.rx_burst", "repro.netstack.stack", "NetStack", "rx_burst",
     False),
    ("hw.nic.post_tx", "repro.hw.nic", "_EthernetNic", "post_tx", False),
    ("hw.nic.post_tx_burst", "repro.hw.nic", "_EthernetNic", "post_tx_burst",
     False),
    ("hw.nic.rx_burst", "repro.hw.nic", "DpdkNic", "rx_burst", False),
    ("hw.nic.rdma_send", "repro.hw.nic", "RdmaNic", "post_send", False),
    ("hw.nic.rdma_write", "repro.hw.nic", "RdmaNic", "post_write", False),
    ("sim.fabric.transmit", "repro.sim.fabric", "Fabric", "transmit", False),
    ("kernelos.send", "repro.kernelos.kernel", "Syscalls", "send", True),
    ("kernelos.recv", "repro.kernelos.kernel", "Syscalls", "recv", True),
    ("apps.proto.feed", "repro.apps.proto.codec", "Codec", "feed", False),
    ("apps.proto.encode", "repro.apps.proto.resp", "RespCodec", "encode",
     False),
    ("apps.proto.encode", "repro.apps.proto.memcached", "MemcachedCodec",
     "encode", False),
    ("apps.proto.kv_get", "repro.apps.kvstore", "KvEngine", "get", False),
    ("apps.proto.kv_put", "repro.apps.kvstore", "KvEngine", "put", False),
    ("storage.append", "repro.storage.log", "LogStore", "append", True),
    ("storage.read", "repro.storage.log", "LogStore", "read", True),
    ("storage.sync", "repro.storage.log", "LogStore", "sync", True),
    ("storage.scan", "repro.storage.log", "LogStore", "scan", True),
    ("hw.nvme.read", "repro.hw.nvme", "NvmeDevice", "submit_read", False),
    ("hw.nvme.write", "repro.hw.nvme", "NvmeDevice", "submit_write", False),
    ("hw.nvme.flush", "repro.hw.nvme", "NvmeDevice", "submit_flush", False),
    ("hw.nvme.scan", "repro.hw.nvme", "NvmeDevice", "submit_scan", False),
    ("cluster.get", "repro.cluster.client", "ReplicatedKvClient", "get",
     True),
    ("cluster.put", "repro.cluster.client", "ReplicatedKvClient", "put",
     True),
)

#: the Chrome trace keeps this many spans; the self-time table keeps all
TRACE_EVENT_CAP = 25_000

_SKIP_FRAMES = ("/repro/sim/cpu.py", "/repro/sim/host.py",
                "/perfbench/tracing.py")


class Probe:
    """Wrappers for one traced execution; install before the world exists."""

    def __init__(self):
        self.sim = None                   # learnt from the first scheduling
        #: core -> layer -> simulated ns charged
        self.charged: Dict[object, Dict[str, int]] = defaultdict(
            lambda: defaultdict(int))
        self.queue_wait: Dict[object, int] = defaultdict(int)
        self.events = 0
        self.timers_cancelled = 0
        self.heap_peak = 0
        #: (name, parent, sim start, sim end, host start ns, host end ns,
        #: is coroutine); a slot is None while its span is open
        self.spans: List[Optional[tuple]] = []
        self._stack: List[int] = []
        self._open_coroutines: Dict[object, List[int]] = defaultdict(list)
        self._window: Dict[str, object] = {}

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        """Wrap the freshly imported classes (idempotent per import)."""
        cpu = sys.modules["repro.sim.cpu"].Core
        for method, waits in (("busy", True), ("charge_async", True),
                              ("charge_retro", False)):
            setattr(cpu, method, self._charging(getattr(cpu, method), waits))
        simulator = sys.modules["repro.sim.engine"].Simulator
        simulator._schedule_at = self._counting_schedule(
            simulator._schedule_at)
        simulator._cancel_scheduled = self._counting_cancel(
            simulator._cancel_scheduled)
        for name, module, cls, method, coroutine in BOUNDARIES:
            owner = getattr(sys.modules[module], cls)
            wrap = self._coroutine_span if coroutine else self._call_span
            setattr(owner, method, wrap(name, getattr(owner, method)))

    def _charging(self, original: Callable, waits: bool) -> Callable:
        charged, queue_wait, getframe = (self.charged, self.queue_wait,
                                         sys._getframe)

        def charge(core, ns):
            frame = getframe(1)
            while frame.f_code.co_filename.endswith(_SKIP_FRAMES):
                frame = frame.f_back
            layer = layer_of(frame.f_code.co_filename) or "bench"
            charged[core][layer] += int(ns)
            if waits:
                behind = core._free_at - core.sim._now
                if behind > 0:
                    queue_wait[core] += behind
            return original(core, ns)
        return charge

    def _counting_schedule(self, original: Callable) -> Callable:
        def schedule(sim, when, fn, *args):
            self.sim = sim
            self.events += 1
            entry = original(sim, when, fn, *args)
            if len(sim._heap) > self.heap_peak:
                self.heap_peak = len(sim._heap)
            return entry
        return schedule

    def _counting_cancel(self, original: Callable) -> Callable:
        def cancel(sim, entry):
            if entry[2] is not None:
                self.timers_cancelled += 1
            return original(sim, entry)
        return cancel

    # -- spans --------------------------------------------------------------
    def _now(self) -> int:
        return self.sim._now if self.sim is not None else 0

    def _parent(self) -> int:
        if self._stack:
            return self._stack[-1]
        if self.sim is not None:
            coroutines = self._open_coroutines.get(self.sim._active)
            if coroutines:
                return coroutines[-1]
        return -1

    def _call_span(self, name: str, original: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def call(*args, **kwargs):
            index, parent = len(spans), self._parent()
            spans.append(None)
            stack.append(index)
            sim_start, host_start = self._now(), clock()
            try:
                return original(*args, **kwargs)
            finally:
                host_end = clock()
                stack.pop()
                spans[index] = (name, parent, sim_start, self._now(),
                                host_start, host_end, False)
        return call

    def _coroutine_span(self, name: str, original: Callable) -> Callable:
        spans, clock = self.spans, time.perf_counter_ns

        def coroutine(*args, **kwargs):
            index, parent = len(spans), self._parent()
            spans.append(None)
            owner = self.sim._active if self.sim is not None else None
            self._open_coroutines[owner].append(index)
            sim_start, host_start = self._now(), clock()
            try:
                return (yield from original(*args, **kwargs))
            finally:
                self._open_coroutines[owner].remove(index)
                spans[index] = (name, parent, sim_start, self._now(),
                                host_start, clock(), True)
        return coroutine

    # -- the measured window ------------------------------------------------
    def window_start(self, exe) -> None:
        self._window = {
            "charged": {c: dict(self.charged[c]) for c in exe.serving_cores},
            "queue_wait": sum(self.queue_wait[c] for c in exe.serving_cores),
            "busy": {c: c.busy_ns for c in exe.serving_cores},
            "events": self.events,
            "cancelled": self.timers_cancelled,
            "counters": exe.world.tracer.snapshot(),
            "live_buffers": exe.live_buffers,
            "first_span": len(self.spans),
        }

    def window_end(self, exe) -> None:
        w = self._window
        layer_ns: Dict[str, int] = defaultdict(int)
        for core in exe.serving_cores:
            for layer, ns in self.charged[core].items():
                layer_ns[layer] += ns - w["charged"][core].get(layer, 0)
        self.layer_sim_cpu_ns = dict(layer_ns)
        self.queue_wait_ns = (sum(self.queue_wait[c]
                                  for c in exe.serving_cores)
                              - w["queue_wait"])
        self.util_max = max((c.busy_ns - w["busy"][c]) / exe.window_ns
                            for c in exe.serving_cores)
        self.window_events = self.events - w["events"]
        self.window_cancelled = self.timers_cancelled - w["cancelled"]
        self.counters = exe.world.tracer.diff(w["counters"])
        self.leaked_buffers = exe.live_buffers - w["live_buffers"]
        #: (index, span) of every span opened and closed inside the window
        self.window_spans = [
            (i, s) for i, s in enumerate(self.spans)
            if i >= w["first_span"] and s is not None]

    # -- output -------------------------------------------------------------
    def self_time_table(self) -> List[Tuple[str, int, int, float, float]]:
        """Rows of (span name, count, simulated ns, host us, host self us).

        Self time is a span's host duration minus the part its child spans
        cover.  Coroutine spans carry no host time (see ``BOUNDARIES``).
        """
        children_us: Dict[int, float] = defaultdict(float)
        for _i, (_n, parent, _s0, _s1, h0, h1, coroutine) in self.window_spans:
            if not coroutine and parent >= 0:
                children_us[parent] += (h1 - h0) / 1e3
        rows: Dict[str, List[float]] = defaultdict(lambda: [0, 0, 0.0, 0.0])
        for index, (name, _p, s0, s1, h0, h1, coroutine) in self.window_spans:
            row = rows[name]
            row[0] += 1
            row[1] += s1 - s0
            if not coroutine:
                host_us = (h1 - h0) / 1e3
                row[2] += host_us
                row[3] += host_us - children_us.get(index, 0.0)
        return sorted(((name, int(r[0]), int(r[1]), r[2], r[3])
                       for name, r in rows.items()),
                      key=lambda row: -row[4])

    def write(self, directory: str, stem: str) -> None:
        """Chrome-trace JSON (simulated clock) plus the self-time table."""
        os.makedirs(directory, exist_ok=True)
        events = []
        for index, span in self.window_spans[:TRACE_EVENT_CAP]:
            name, parent, s0, s1, h0, h1, coroutine = span
            layer = name.rsplit(".", 1)[0]
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": layer,
                "ts": s0 / 1e3, "dur": (s1 - s0) / 1e3,
                "args": {"id": index, "parent": parent,
                         "host_us": (h1 - h0) / 1e3,
                         "coroutine": coroutine}})
        with open(os.path.join(directory, stem + ".trace.json"), "w") as out:
            json.dump({"traceEvents": events, "displayTimeUnit": "ns"}, out)
        with open(os.path.join(directory, stem + ".selftime.txt"), "w") as out:
            out.write("%-24s %9s %14s %12s %12s\n"
                      % ("span", "count", "sim_ns", "host_us", "self_us"))
            for row in self.self_time_table():
                out.write("%-24s %9d %14d %12.1f %12.1f\n" % row)


def profile_layers(run: Callable[[], None]
                   ) -> Tuple[Dict[str, float], Dict[str, int],
                              Dict[str, int]]:
    """Run *run* under cProfile; bucket self seconds and calls by layer.

    A builtin or library function has no layer of its own, so its time
    goes to the layer that called it; what is called from outside every
    layer lands in ``bench``.  Also returns the call count of each
    function of ``repro`` as ``"file.py:name"``, for the few counts taken
    from it.  The profiler's own entries are read, not ``pstats``: that
    keys functions by (file, line, name), under which every dataclass
    ``__init__`` is one function and which of them survives varies by run.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run()
    finally:
        profiler.disable()

    def owner(code) -> Optional[str]:
        return None if isinstance(code, str) else layer_of(code.co_filename)

    seconds: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    by_name: Dict[str, int] = defaultdict(int)
    for entry in profiler.getstats():
        layer = owner(entry.code)
        if layer is not None:
            seconds[layer] += entry.inlinetime
            calls[layer] += entry.callcount
            by_name["%s:%s" % (os.path.basename(entry.code.co_filename),
                               entry.code.co_name)] += entry.callcount
        for callee in entry.calls or ():
            if owner(callee.code) is None:
                seconds[layer or "bench"] += callee.inlinetime
                calls[layer or "bench"] += callee.callcount
    return seconds, calls, by_name
