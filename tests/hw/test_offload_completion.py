"""Completion-time semantics of the offload engine and the NVMe scan.

The original ``OffloadEngine.run`` executed the element function inline
at submit time and a raising function leaked the completion (the waiter
hung forever).  These tests pin the fixed contract: the function runs
when the device pipeline reaches the element, and an exception becomes
an *error completion* that re-raises in the waiter.  The NVMe
``submit_scan`` command was built against the same contract from the
start; its tests live here too.
"""

import pytest

from repro.core.types import DeviceFailed
from repro.hw.nvme import NvmeDevice
from repro.hw.offload import OffloadEngine
from repro.sim.engine import Simulator
from repro.sim.faults import FaultPlan
from repro.sim.host import Host

from ..conftest import World


def make_host():
    sim = Simulator()
    return sim, Host(sim, "h0")


class TestDeferredExecution:
    def test_fn_runs_at_completion_time_not_submit(self):
        sim, host = make_host()
        eng = OffloadEngine(host)
        eng.element_ns = 100
        calls = []
        eng.run("map", lambda x: calls.append(sim.now) or x, 1)
        # Nothing ran at submit time: the device pipeline has not
        # reached the element yet.
        assert calls == []
        sim.run()
        assert calls == [100]

    def test_waiter_sees_result_after_element_delay(self):
        sim, host = make_host()
        eng = OffloadEngine(host)
        eng.element_ns = 150

        def proc():
            result = yield eng.run("map", lambda x: x * 2, 21)
            return result, sim.now

        p = sim.spawn(proc())
        sim.run()
        assert p.value == (42, 150)

    def test_submit_time_state_change_is_visible_to_fn(self):
        """The function observes state as of execution, not submission."""
        sim, host = make_host()
        eng = OffloadEngine(host)
        eng.element_ns = 100
        box = {"v": "at-submit"}
        p = sim.spawn(iter_run(eng, lambda _x: box["v"]))
        box["v"] = "at-completion"
        sim.run()
        assert p.value == "at-completion"

    def test_raising_fn_becomes_error_completion(self):
        sim, host = make_host()
        eng = OffloadEngine(host)

        def boom(_x):
            raise RuntimeError("element fault")

        def proc():
            try:
                yield eng.run("filter", boom, 1)
            except RuntimeError as exc:
                return "raised: %s" % exc
            return "leaked"

        p = sim.spawn(proc())
        sim.run()
        assert p.value == "raised: element fault"
        assert host.tracer.get("offload0.offload_element_faults") == 1

    def test_raising_fn_still_charges_device_time(self):
        sim, host = make_host()
        eng = OffloadEngine(host)
        eng.element_ns = 200

        def proc():
            try:
                yield eng.run("map", lambda _x: 1 // 0, 1)
            except ZeroDivisionError:
                pass

        sim.spawn(proc())
        sim.run()
        assert eng.device_busy_ns == 200
        assert host.cpu.busy_ns == 0

    def test_pipelined_elements_execute_in_fifo_order(self):
        sim, host = make_host()
        eng = OffloadEngine(host)
        eng.element_ns = 100
        order = []
        for i in range(3):
            eng.run("map", lambda x: order.append((x, sim.now)), i)
        sim.run()
        assert order == [(0, 100), (1, 200), (2, 300)]

    def test_charge_device_extends_the_pipeline(self):
        sim, host = make_host()
        eng = OffloadEngine(host)
        eng.element_ns = 100
        delay = eng.charge_device(500)
        assert delay == 500
        assert eng.device_busy_ns == 500
        # The next element queues behind the charged work.
        def proc():
            yield eng.run("map", lambda x: x, 1)
            return sim.now

        p = sim.spawn(proc())
        sim.run()
        assert p.value == 600
        assert host.cpu.busy_ns == 0


def iter_run(eng, fn):
    result = yield eng.run("map", fn, None)
    return result


def make_nvme(plan=None):
    w = World()
    host = w.add_host("h")
    nvme = host.nvme = NvmeDevice(host, name="h.nvme0")
    if plan is not None:
        w.install_faults(plan)
    return w, nvme


class TestNvmeScan:
    def test_scan_runs_program_over_device_bytes(self):
        w, nvme = make_nvme()

        def proc():
            yield nvme.submit_write(0, b"\xAA" * 4096 + b"\xBB" * 4096)
            count = yield nvme.submit_scan(
                0, 2, lambda data: data.count(b"\xBB"))
            return count

        p = w.sim.spawn(proc())
        w.run()
        assert p.value == 4096
        assert nvme.tracer.get("h.nvme0.scans") == 1
        assert nvme.tracer.get("h.nvme0.scan_bytes") == 8192

    def test_scan_observes_completion_time_data(self):
        """A write landing between submit and completion is visible."""
        w, nvme = make_nvme()

        def proc():
            done = nvme.submit_scan(0, 1, lambda data: data.count(b"\xCC"))
            # Submitted *after* the scan, but flash timing completes the
            # one-block write before the scan streams the block.
            yield nvme.submit_write(0, b"\xCC" * 4096)
            count = yield done
            return count

        p = w.sim.spawn(proc())
        w.run()
        assert p.value == 4096

    def test_raising_program_fails_the_completion(self):
        w, nvme = make_nvme()

        def proc():
            try:
                yield nvme.submit_scan(0, 1, lambda _d: 1 // 0)
            except ZeroDivisionError:
                return "raised"
            return "leaked"

        p = w.sim.spawn(proc())
        w.run()
        assert p.value == "raised"
        assert nvme.tracer.get("h.nvme0.scan_faults") == 1

    def test_abort_all_fails_inflight_scan(self):
        w, nvme = make_nvme()
        ran = []
        done = nvme.submit_scan(0, 4, lambda d: ran.append(1))

        def proc():
            try:
                yield done
            except DeviceFailed:
                return "aborted"
            return "completed"

        p = w.sim.spawn(proc())
        assert nvme.abort_all() == 1
        w.run()
        assert p.value == "aborted"
        assert ran == []  # an aborted scan never runs its program

    def test_scan_survives_ctrl_failure_window(self):
        """The retry ladder re-runs the deferred program at success."""
        plan = FaultPlan(seed=3).nvme_ctrl_fail("h.nvme0", 0, 150_000)
        w, nvme = make_nvme(plan)

        def proc():
            yield nvme.submit_write(0, b"\xEE" * 4096)
            count = yield nvme.submit_scan(
                0, 1, lambda data: data.count(b"\xEE"))
            return count

        p = w.sim.spawn(proc())
        w.run()
        assert p.value == 4096
        assert nvme.tracer.get("h.nvme0.timeouts") >= 1

    def test_scan_range_checked_at_submit(self):
        w, nvme = make_nvme()
        with pytest.raises(Exception):
            nvme.submit_scan(nvme.capacity_blocks, 1, lambda d: None)
