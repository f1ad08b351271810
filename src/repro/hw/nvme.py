"""A simulated NVMe SSD with submission/completion queue pairs.

The device models what SPDK exposes: user-space-mappable SQ/CQ pairs, so a
libOS can submit block commands without any kernel involvement.  The
legacy path in ``repro.kernelos.vfs`` drives the same device through the
kernel block layer (adding its costs) - the two paths hit identical flash
timing, isolating the software stack difference.

Timing: commands occupy one of ``channels`` flash channels FIFO; each
command costs the per-op flash latency plus per-byte transfer time.
"""

from __future__ import annotations

from typing import Any, Dict

from ..core.types import DeviceFailed
from ..sim.engine import Completion
from ..telemetry import names
from .device import Device

__all__ = ["NvmeDevice", "NvmeError"]


class NvmeError(Exception):
    """Invalid command (out-of-range LBA, bad sizes...)."""


class _DeferredScan:
    """A scan program captured at submit time, run at completion time.

    The device must observe the flash contents *when the command
    completes*, not when it was submitted - a write that lands between
    submit and completion is visible to the scan, exactly as on real
    hardware where the controller streams blocks as it reaches them.
    """

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn


class NvmeDevice(Device):
    """Block storage with parallel flash channels.

    A command takes the least busy of ``channels`` channels, so commands
    in flight together run side by side: a host that keeps several
    outstanding (the log store's read-ahead beside its reader, or its
    scan cut into one piece per channel) waits for the longest of them,
    not for their sum.  A host that submits each command after the
    last one completed leaves all channels but one idle.

    Recovery ladder (engaged only when the fault plan schedules
    ``nvme_ctrl_fail`` windows for this device): a command whose
    completion lands inside a failure window *times out*; the driver
    aborts it and resubmits after exponential backoff, up to
    ``MAX_ATTEMPTS`` tries, then escalates to a controller reset and one
    final attempt.  If that still fails the command's completion fails
    with a typed :class:`~repro.core.types.DeviceFailed`.
    """

    kind = "nvme"

    #: normal submissions before escalating to a controller reset
    MAX_ATTEMPTS = 3
    #: backoff before retry *n* is ``RETRY_BACKOFF_NS << (n - 1)``
    RETRY_BACKOFF_NS = 100_000
    #: a controller reset is three orders slower than an I/O
    CTRL_RESET_NS = 2_000_000

    def __init__(
        self,
        host,
        name: str = "nvme0",
        capacity_blocks: int = 262144,
        block_size: int = 4096,
        channels: int = 8,
    ):
        super().__init__(host, name)
        if capacity_blocks <= 0 or block_size <= 0:
            raise NvmeError("bad geometry")
        self.capacity_blocks = capacity_blocks
        self.block_size = block_size
        self._blocks: Dict[int, bytes] = {}
        #: flash channels: how many commands make progress at once
        self.channels = channels
        self._channel_free = [0] * channels
        #: commands submitted but not yet completed/aborted
        self._inflight: Dict[int, Dict[str, Any]] = {}

    # -- geometry helpers ----------------------------------------------------
    def _check_range(self, lba: int, nblocks: int) -> None:
        if nblocks <= 0:
            raise NvmeError("nblocks must be positive")
        if lba < 0 or lba + nblocks > self.capacity_blocks:
            raise NvmeError(
                "LBA range [%d, %d) outside device (%d blocks)"
                % (lba, lba + nblocks, self.capacity_blocks)
            )

    def _occupy_channel(self, ns: int) -> int:
        """FIFO-queue *ns* of work on the least-busy channel; returns the
        completion delay from now."""
        now = self.sim._now
        if self.faults is not None:
            ns = int(ns * self.faults.io_factor(now))
        idx = min(range(len(self._channel_free)), key=lambda i: self._channel_free[i])
        start = max(now, self._channel_free[idx])
        done = start + ns
        self._channel_free[idx] = done
        return done - now

    def _trace_command(self, name: str, delay: int, **args) -> None:
        """A device span from now to the completion instant, which is
        known analytically - nothing is scheduled to observe it."""
        now = self.sim.now
        self.counters.span(name, names.CAT_DEVICE, now, now + delay, **args)

    # -- commands -----------------------------------------------------------
    def submit_read(self, lba: int, nblocks: int) -> Completion:
        """Read blocks; completion fires with the data (bytes)."""
        self._check_range(lba, nblocks)
        nbytes = nblocks * self.block_size
        delay = self._occupy_channel(self.costs.nvme_io_ns(nbytes, write=False))
        self.counters.reads += 1
        self.counters.read_bytes += nbytes
        if self.tracer.tracing:
            self._trace_command(names.SPAN_NVME_READ, delay,
                                lba=lba, nbytes=nbytes)
        done = self.sim.completion("%s.read" % self.name)
        data = b"".join(
            self._blocks.get(lba + i, b"\x00" * self.block_size)
            for i in range(nblocks)
        )
        return self._dispatch(done, "read", nbytes, delay, data, write=False)

    def submit_write(self, lba: int, data: bytes) -> Completion:
        """Write whole blocks; completion fires when durable in device."""
        if len(data) % self.block_size != 0:
            raise NvmeError(
                "write length %d not a multiple of block size %d"
                % (len(data), self.block_size)
            )
        nblocks = len(data) // self.block_size
        self._check_range(lba, nblocks)
        delay = self._occupy_channel(self.costs.nvme_io_ns(len(data), write=True))
        self.counters.writes += 1
        self.counters.write_bytes += len(data)
        if self.tracer.tracing:
            self._trace_command(names.SPAN_NVME_WRITE, delay,
                                lba=lba, nbytes=len(data))
        view = memoryview(data)
        for i in range(nblocks):
            self._blocks[lba + i] = bytes(view[i * self.block_size:(i + 1) * self.block_size])
        done = self.sim.completion("%s.write" % self.name)
        return self._dispatch(done, "write", len(data), delay, nblocks,
                              write=True)

    def submit_scan(self, lba: int, nblocks: int, program) -> Completion:
        """On-device predicate scan ("BPF for storage").

        The controller streams *nblocks* of flash past *program* (a
        callable taking the raw bytes) and the completion fires with
        ``program(data)`` - only the program's (small) result crosses
        PCIe, and the host CPU is never charged for the loop.  The data
        is captured at *completion* time, and a raising program becomes
        an error completion (``scan_faults``), never a hang.
        """
        self._check_range(lba, nblocks)
        nbytes = nblocks * self.block_size
        delay = self._occupy_channel(self._work_ns("scan", nbytes, False))
        self.counters.scans += 1
        self.counters.scan_bytes += nbytes
        if self.tracer.tracing:
            self._trace_command(names.SPAN_NVME_SCAN, delay,
                                lba=lba, nbytes=nbytes)
        done = self.sim.completion("%s.scan" % self.name)

        def compute():
            data = b"".join(
                self._blocks.get(lba + i, b"\x00" * self.block_size)
                for i in range(nblocks)
            )
            return program(data)

        return self._dispatch(done, "scan", nbytes, delay,
                              _DeferredScan(compute), write=False)

    def submit_flush(self) -> Completion:
        """Barrier: completion fires after the flush latency."""
        self.counters.flushes += 1
        delay = self._occupy_channel(self.costs.nvme_flush_ns)
        if self.tracer.tracing:
            self._trace_command(names.SPAN_NVME_FLUSH, delay)
        done = self.sim.completion("%s.flush" % self.name)
        return self._dispatch(done, "flush", 0, delay, None, write=False)

    # -- completion, recovery ladder, teardown -------------------------------
    def _work_ns(self, op: str, nbytes: int, write: bool) -> int:
        if op == "flush":
            return self.costs.nvme_flush_ns
        if op == "scan":
            return (self.costs.nvme_io_ns(nbytes, write=False)
                    + int(nbytes * self.costs.nvme_scan_ns_per_byte))
        return self.costs.nvme_io_ns(nbytes, write=write)

    def _dispatch(self, done: Completion, op: str, nbytes: int, delay: int,
                  value: Any, write: bool) -> Completion:
        """Route a submitted command to its completion.

        Without scheduled controller failures this is the historical
        fast path (one timer, one trigger); with them, a per-command
        recovery process drives the timeout/abort/retry/reset ladder.
        """
        record = {"done": done, "op": op, "aborted": False}
        self._inflight[id(record)] = record
        if self.faults is None or not self.faults.has("nvme_ctrl_fail"):
            self.sim.call_in(delay, self._finish, record, value)
        else:
            self.sim.spawn(self._recover(record, op, nbytes, write, delay,
                                         value),
                           name="%s.%s.recovery" % (self.name, op))
        return done

    def _finish(self, record: Dict[str, Any], value: Any) -> None:
        self._inflight.pop(id(record), None)
        if record["aborted"]:
            return
        if isinstance(value, _DeferredScan):
            try:
                value = value.fn()
            except Exception as exc:
                self.counters.scan_faults += 1
                record["done"].fail(exc)
                return
        record["done"].trigger(value)

    def _recover(self, record, op, nbytes, write, delay, value):
        """Sim-coroutine: one command's bounded-retry recovery ladder."""
        attempts = 0
        reset_done = False
        while True:
            attempts += 1
            yield self.sim.timeout(delay)
            if record["aborted"]:
                return
            if not self.faults.ctrl_failed(self.sim.now):
                self._finish(record, value)
                return
            # The completion landed inside a controller-failure window:
            # the command timed out.  Abort it and climb the ladder.
            self.counters.timeouts += 1
            self.counters.aborts += 1
            if attempts < self.MAX_ATTEMPTS:
                yield self.sim.timeout(
                    self.RETRY_BACKOFF_NS << (attempts - 1))
            elif not reset_done:
                reset_done = True
                self.counters.ctrl_resets += 1
                if self.tracer.tracing:
                    self._trace_command(names.SPAN_NVME_CTRL_RESET,
                                        self.CTRL_RESET_NS)
                yield self.sim.timeout(self.CTRL_RESET_NS)
            else:
                self.counters.device_failures += 1
                self._inflight.pop(id(record), None)
                record["done"].fail(DeviceFailed(self.name, op, attempts))
                return
            if record["aborted"]:
                return
            self.counters.retries += 1
            delay = self._occupy_channel(self._work_ns(op, nbytes, write))

    def abort_all(self, reason: str = "aborted") -> int:
        """Crash teardown: abort every in-flight command.

        Each aborted command's completion *fails* with
        :class:`DeviceFailed` (a real admin-queue abort posts an aborted
        CQE) so any still-subscribed driver unblocks immediately instead
        of waiting for flash timing.  Returns the number aborted.
        """
        aborted = 0
        for record in list(self._inflight.values()):
            if not record["aborted"]:
                record["aborted"] = True
                aborted += 1
                self.counters.aborts += 1
                record["done"].fail(
                    DeviceFailed(self.name, record["op"], 1, reason))
        self._inflight.clear()
        return aborted

    @property
    def inflight_commands(self) -> int:
        return len(self._inflight)

    # -- test/inspection helpers --------------------------------------------
    def peek_block(self, lba: int) -> bytes:
        """Direct, timing-free block inspection for tests."""
        self._check_range(lba, 1)
        return self._blocks.get(lba, b"\x00" * self.block_size)
