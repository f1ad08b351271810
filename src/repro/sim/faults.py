"""Deterministic, scriptable fault injection (the chaos layer).

The paper's claim is that library OSes must absorb the OS features raw
kernel-bypass devices drop - reliable delivery, buffer management, flow
control.  Those paths only earn trust when exercised under adversity, so
this module turns the simulator into a chaos testbed:

* a :class:`FaultPlan` is a declarative list of *time-windowed* fault
  events - loss bursts, reordering, duplication, corruption, link
  partitions that heal, latency spikes, NIC descriptor stalls, RX ring
  clamps, slow-NVMe windows;
* a :class:`FaultInjector` executes a plan against a world: it installs
  a per-frame decision hook on the :class:`~repro.sim.fabric.Fabric`
  (replacing the single global ``drop_rate`` knob) and per-device fault
  views on NICs and NVMe devices;
* every stochastic decision draws from an :class:`~repro.sim.rand.Rng`
  forked from the plan's seed, so **a failure reproduces byte-for-byte
  from ``(seed, plan)`` alone** - plans serialize to/from JSON for
  exactly that purpose.

No application or libOS code knows the injector exists: faults surface
only as the device-level misbehaviour (lost frames, stalled rings, slow
flash) the OS layers are supposed to mask.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Tuple

from .rand import Rng
from ..telemetry import names

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "CRASH_KINDS",
]

#: network fault kinds, applied per (frame, destination) in the fabric
NETWORK_KINDS = ("loss", "reorder", "duplicate", "corrupt", "partition",
                 "latency")
#: device fault kinds, applied inside NIC / NVMe timing paths
DEVICE_KINDS = ("nic_stall", "nic_ring_clamp", "nvme_slow",
                "nic_link_flap", "nvme_ctrl_fail")
#: crash kinds: kill a process/host-side application at a point in time
CRASH_KINDS = ("proc_crash",)


@dataclass
class FaultEvent:
    """One time-windowed fault.  Active while ``start <= now < end``.

    ``src``/``dst`` scope a partition to one direction of a link by
    fabric port address (None matches any).  ``device`` names the target
    of device faults; it matches a device's full name, or a dotted
    prefix/suffix of it (``"client.dpdk0"``, ``"dpdk0"``, ``"client"``
    all match ``client.dpdk0``).
    """

    kind: str
    start: int
    end: int
    rate: float = 1.0          # per-frame probability (probabilistic kinds)
    src: Optional[str] = None  # source port filter (partition)
    dst: Optional[str] = None  # destination port filter (partition)
    extra_ns: int = 0          # latency spike / reorder jitter / stall length
    factor: float = 1.0        # nvme_slow latency multiplier
    limit: int = 0             # nic_ring_clamp effective ring size
    device: Optional[str] = None  # device filter (device kinds)
    host: Optional[str] = None    # target host (crash kinds)

    def __post_init__(self) -> None:
        if self.kind not in NETWORK_KINDS + DEVICE_KINDS + CRASH_KINDS:
            raise ValueError("unknown fault kind %r" % self.kind)
        if self.end <= self.start:
            raise ValueError("fault window [%d, %d) is empty"
                             % (self.start, self.end))
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate %r outside [0, 1]" % self.rate)
        if self.extra_ns < 0:
            raise ValueError("extra_ns %r must be >= 0" % self.extra_ns)
        if self.limit < 0:
            raise ValueError("ring limit %r must be >= 0" % self.limit)
        if self.factor <= 0.0:
            raise ValueError("factor %r must be > 0" % self.factor)
        if self.kind in DEVICE_KINDS and not self.device:
            raise ValueError("%s event needs a device name" % self.kind)
        if self.kind in CRASH_KINDS and not self.host:
            raise ValueError("%s event needs a host name" % self.kind)

    def active(self, now: int) -> bool:
        return self.start <= now < self.end

    def matches_link(self, src: str, dst: str) -> bool:
        return ((self.src is None or self.src == src)
                and (self.dst is None or self.dst == dst))

    def matches_device(self, name: str) -> bool:
        if self.device is None or self.device == name:
            return True
        return (name.endswith("." + self.device)
                or name.startswith(self.device + "."))


class FaultPlan:
    """An ordered schedule of :class:`FaultEvent` windows plus a seed.

    Build one with the fluent helpers (each returns ``self``)::

        plan = (FaultPlan(seed=7)
                .loss(0, 200_000, rate=0.5)
                .partition("a", "b", 500_000, 1_500_000)
                .nvme_slow("nvme0", 0, 1_000_000, factor=20.0))

    Everything a run needs to reproduce is ``(plan.seed, plan)``; use
    :meth:`to_json` / :meth:`from_json` to print and replay it.
    """

    def __init__(self, seed: int = 1, events: Optional[List[FaultEvent]] = None):
        self.seed = seed
        self.events: List[FaultEvent] = list(events or [])

    # -- fluent builders ----------------------------------------------------
    def add(self, event: FaultEvent) -> "FaultPlan":
        self.events.append(event)
        return self

    def loss(self, start: int, end: int, rate: float = 1.0) -> "FaultPlan":
        """A loss burst: each frame on any link drops with *rate*."""
        return self.add(FaultEvent("loss", start, end, rate=rate))

    def reorder(self, start: int, end: int, rate: float = 0.5,
                jitter_ns: int = 200_000) -> "FaultPlan":
        """Reordering: frames on any link gain a random extra delay up
        to *jitter_ns*, letting later frames overtake them."""
        return self.add(FaultEvent("reorder", start, end, rate=rate,
                                   extra_ns=jitter_ns))

    def duplicate(self, start: int, end: int,
                  rate: float = 0.3) -> "FaultPlan":
        """Duplication: frames on any link are delivered twice."""
        return self.add(FaultEvent("duplicate", start, end, rate=rate))

    def corrupt(self, start: int, end: int,
                rate: float = 0.2) -> "FaultPlan":
        """Corruption: one bit flips in a byte-frame on any link
        (checksums must catch it); non-byte frames drop, as a real NIC's
        ICRC does."""
        return self.add(FaultEvent("corrupt", start, end, rate=rate))

    def partition(self, a: str, b: str, start: int, end: int) -> "FaultPlan":
        """A link partition between ports *a* and *b* that heals at *end*."""
        self.add(FaultEvent("partition", start, end, src=a, dst=b))
        return self.add(FaultEvent("partition", start, end, src=b, dst=a))

    def latency(self, start: int, end: int, extra_ns: int) -> "FaultPlan":
        """A latency spike: every frame on every link is delayed."""
        return self.add(FaultEvent("latency", start, end, extra_ns=extra_ns))

    def nic_stall(self, device: str, start: int, end: int,
                  extra_ns: int) -> "FaultPlan":
        """Descriptor stall: the NIC's RX/TX pipelines each take *extra_ns*
        longer per descriptor during the window."""
        return self.add(FaultEvent("nic_stall", start, end,
                                   extra_ns=extra_ns, device=device))

    def nic_ring_clamp(self, device: str, start: int, end: int,
                       limit: int) -> "FaultPlan":
        """RX ring overflow: the effective ring size collapses to *limit*
        during the window, so bursts overflow and drop."""
        return self.add(FaultEvent("nic_ring_clamp", start, end,
                                   limit=limit, device=device))

    def nvme_slow(self, device: str, start: int, end: int,
                  factor: float = 10.0) -> "FaultPlan":
        """Slow-device window: NVMe command latency multiplies by *factor*."""
        return self.add(FaultEvent("nvme_slow", start, end,
                                   factor=factor, device=device))

    def nic_link_flap(self, device: str, at: int, down_ns: int) -> "FaultPlan":
        """Link flap: the NIC's link drops at *at* and carrier returns
        *down_ns* later; rings are drained on failure and re-initialized
        on recovery (frames in flight during the outage are lost)."""
        return self.add(FaultEvent("nic_link_flap", at, at + down_ns,
                                   device=device))

    def nvme_ctrl_fail(self, device: str, start: int, end: int) -> "FaultPlan":
        """Controller-failure window: every NVMe command submitted (or
        retried) inside it times out, driving the recovery ladder.  The
        ladder recovers if the window ends before it is exhausted."""
        return self.add(FaultEvent("nvme_ctrl_fail", start, end,
                                   device=device))

    def proc_crash(self, host: str, at: int) -> "FaultPlan":
        """Kill the application process on *host* at time *at*, with
        whatever pushes/pops it has outstanding.  Registered crash
        handlers (see :meth:`FaultInjector.on_crash`) run the kernel's
        reclamation path."""
        return self.add(FaultEvent("proc_crash", at, at + 1, host=host))

    # -- introspection ------------------------------------------------------
    def network_events(self) -> List[FaultEvent]:
        return [e for e in self.events if e.kind in NETWORK_KINDS]

    def device_events(self, name: str) -> List[FaultEvent]:
        return [e for e in self.events
                if e.kind in DEVICE_KINDS and e.matches_device(name)]

    def describe(self) -> str:
        lines = ["FaultPlan(seed=%d, %d events)" % (self.seed, len(self.events))]
        for e in self.events:
            lines.append("  [%d, %d) %s rate=%.2f src=%s dst=%s dev=%s"
                         % (e.start, e.end, e.kind, e.rate, e.src, e.dst,
                            e.device))
        return "\n".join(lines)

    # -- serialization (the reproduction contract) ---------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {"seed": self.seed, "events": [asdict(e) for e in self.events]}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        return cls(seed=data["seed"],
                   events=[FaultEvent(**e) for e in data["events"]])

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "FaultPlan.from_json(%r)" % self.to_json()


class DeviceFaultView:
    """The slice of a plan one device consults on its timing paths.

    Devices hold this behind their ``faults`` attribute (None when no
    injector is installed) and ask only three questions, all O(active
    events).
    """

    def __init__(self, injector: "FaultInjector", name: str,
                 events: List[FaultEvent]):
        self._injector = injector
        self.name = name
        self._events = events

    def _active(self, kind: str, now: int) -> List[FaultEvent]:
        return [e for e in self._events if e.kind == kind and e.active(now)]

    def stall_ns(self, now: int) -> int:
        """Extra per-descriptor processing delay right now (NIC stalls)."""
        total = 0
        for e in self._active("nic_stall", now):
            total += e.extra_ns
        if total:
            self._injector.note("nic_stalled_descs", self.name)
        return total

    def ring_limit(self, now: int, default: int) -> int:
        """Effective RX ring size right now (clamps shrink it)."""
        limit = default
        for e in self._active("nic_ring_clamp", now):
            limit = min(limit, e.limit)
        if limit != default:
            self._injector.note("ring_clamped_checks", self.name)
        return limit

    def io_factor(self, now: int) -> float:
        """Multiplier on NVMe command latency right now."""
        factor = 1.0
        for e in self._active("nvme_slow", now):
            factor *= e.factor
        if factor != 1.0:
            self._injector.note("slow_ios", self.name)
        return factor

    def has(self, kind: str) -> bool:
        """Does this device's slice of the plan contain *kind* at all?
        (Lets the NVMe model keep its fast path when no controller
        failures are scheduled.)"""
        return any(e.kind == kind for e in self._events)

    def ctrl_failed(self, now: int) -> bool:
        """Is the device's controller inside a failure window right now?"""
        failed = bool(self._active("nvme_ctrl_fail", now))
        if failed:
            self._injector.note("nvme_ctrl_failed", self.name)
        return failed


class FaultInjector:
    """Executes a :class:`FaultPlan` against a world.

    Installation is composition, not patching: the fabric exposes a
    ``fault_filter`` hook consulted once per (frame, destination), and
    each device exposes a ``faults`` attribute its timing code consults.
    All decisions draw from a private Rng stream forked from the plan
    seed, so the injector never perturbs workload randomness.
    """

    def __init__(self, plan: FaultPlan, tracer=None):
        self.plan = plan
        self.rng = Rng(plan.seed).fork_named("fault-injector")
        self.tracer = tracer
        self.sim = None
        self._net_events = plan.network_events()
        #: host name -> handlers run when that host's app process crashes
        self._crash_handlers: Dict[str, List[Any]] = {}

    # -- wiring ---------------------------------------------------------------
    def install(self, world) -> "FaultInjector":
        """Attach to a testbed ``World``: fabric hook + device views.

        A device event that names no NIC or NVMe device of *world* is a
        :class:`ValueError`: a fault that lands nowhere would pass a
        fault-free run off as one that survived it.
        """
        devices = [device for host in world.hosts.values()
                   for device in host.nics + [host.nvme] if device is not None]
        for e in self.plan.events:
            if e.kind in DEVICE_KINDS and not any(
                    e.matches_device(device.name) for device in devices):
                raise ValueError(
                    "%s event for device %r matches no device of this world"
                    " (devices: %s)" % (e.kind, e.device, ", ".join(
                        device.name for device in devices)))
        self.attach_fabric(world.fabric)
        for device in devices:
            self.attach_device(device)
        self._schedule_transitions(world.sim, devices)
        return self

    def on_crash(self, host: str, handler) -> None:
        """Register *handler* to run when *host*'s process is killed.

        Handlers may be registered any time before the crash fires (the
        scenario runner registers its kill-and-reclaim closure after
        spawning the workload).
        """
        self._crash_handlers.setdefault(host, []).append(handler)

    def _schedule_transitions(self, sim, devices) -> None:
        """Schedule the plan's point-in-time events (crashes, link
        transitions).  Purely time-driven - no RNG draws - so the
        probabilistic frame stream is untouched."""
        for e in self.plan.events:
            if e.kind == "proc_crash":
                sim.call_in(max(0, e.start - sim.now),
                            self._fire_crash, e.host)
            elif e.kind == "nic_link_flap":
                for nic in devices:
                    if (e.matches_device(nic.name)
                            and hasattr(nic, "link_fail")):
                        sim.call_in(max(0, e.start - sim.now),
                                    self._fire_link, nic, False)
                        sim.call_in(max(0, e.end - sim.now),
                                    self._fire_link, nic, True)

    def _fire_crash(self, host: str) -> None:
        self.note("proc_crashes", host)
        for handler in list(self._crash_handlers.get(host, [])):
            handler()

    def _fire_link(self, nic, up: bool) -> None:
        self.note("link_up" if up else "link_down", nic.name)
        if up:
            nic.link_recover()
        else:
            nic.link_fail()

    def attach_fabric(self, fabric) -> None:
        self.sim = fabric.sim
        if self.tracer is None:
            self.tracer = fabric.tracer
        fabric.fault_filter = self.frame_fate

    def attach_device(self, device) -> None:
        events = self.plan.device_events(device.name)
        if events:
            if self.sim is None:
                self.sim = device.sim
            if self.tracer is None:
                self.tracer = device.tracer
            device.faults = DeviceFaultView(self, device.name, events)

    def note(self, what: str, where: str) -> None:
        """Count and timeline one fault decision (deterministic fields only)."""
        if self.tracer is not None:
            self.tracer.scope(names.FAULT).count(what)
            now = self.sim.now if self.sim is not None else 0
            self.tracer.record(now, "fault.%s" % what, where)

    # -- the per-frame decision (fabric hook) ---------------------------------
    def frame_fate(self, src: str, dst: str, frame: Any,
                   nbytes: int) -> Optional[List[Tuple[int, Any]]]:
        """Decide one (frame, destination)'s fate.

        Returns None for "untouched" (the common case, zero allocation),
        or a list of ``(extra_delay_ns, frame)`` deliveries - empty for a
        drop, >1 entries for duplication.
        """
        now = self.sim._now
        active = [e for e in self._net_events
                  if e.active(now) and e.matches_link(src, dst)]
        if not active:
            return None
        link = "%s->%s" % (src, dst)
        # A dropped frame draws no further decisions (and overlapping
        # partition events count it exactly once).
        for e in active:
            if e.kind == "partition":
                self.note("partitioned_frames", link)
                return []
        for e in active:
            if e.kind == "loss" and self.rng.chance(e.rate):
                self.note("lost_frames", link)
                return []
        corrupt = False
        copies = 1
        extra = 0
        for e in active:
            if e.kind == "corrupt" and self.rng.chance(e.rate):
                corrupt = True
            elif e.kind == "duplicate" and self.rng.chance(e.rate):
                self.note("duplicated_frames", link)
                copies += 1
            elif e.kind == "reorder" and self.rng.chance(e.rate):
                self.note("reordered_frames", link)
                extra += self.rng.randint(1, max(1, e.extra_ns))
            elif e.kind == "latency":
                self.note("delayed_frames", link)
                extra += e.extra_ns
        if corrupt:
            frame = self._corrupt(frame, link)
            if frame is None:
                return []
        if copies == 1 and extra == 0 and not corrupt:
            return None
        return [(extra + i * self._dup_spacing(nbytes), frame)
                for i in range(copies)]

    def _dup_spacing(self, nbytes: int) -> int:
        # A duplicate trails its original by roughly one wire time.
        return max(100, nbytes)

    def _corrupt(self, frame: Any, link: str) -> Optional[Any]:
        """Flip one bit of a byte-frame; non-byte frames drop (ICRC)."""
        if isinstance(frame, (bytes, bytearray)) and len(frame) > 0:
            raw = bytearray(frame)
            # Flip past the ethernet header when possible so the damage
            # lands where only an L3/L4 checksum can catch it.
            lo = 14 if len(raw) > 14 else 0
            pos = self.rng.randint(lo, len(raw) - 1)
            raw[pos] ^= 1 << self.rng.randint(0, 7)
            self.note("corrupted_frames", link)
            return bytes(raw)
        self.note("corrupt_dropped_frames", link)
        return None
