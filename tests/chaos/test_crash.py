"""Crash-safe teardown battery: process kills, reclamation, recovery.

Golden-seed scenarios for the crash/recovery subsystem: a process is
killed mid-operation (network stream or storage appends), the kernel
reclaims every resource it held, and surviving peers observe the death
promptly (RST-driven resets, flushed WRs) instead of hanging.  Device
recovery gets the same treatment: a transient NVMe controller failure
is outlasted by the retry ladder, a permanent one surfaces as a typed
:class:`~repro.core.types.DeviceFailed`, and a NIC link flap ends in
re-initialized rings and a relearned ARP entry.

Counters are pinned exactly, as in test_scenarios.py: any change to
teardown ordering or ladder arithmetic shows up as a diff against
known-good numbers.
"""

import pytest

from repro.cli import main
from repro.core.types import DeviceFailed
from repro.sim.faults import FaultPlan
from repro.testing import check_reproducible, golden_plan, run_scenario

US = 1_000
MS = 1_000_000


def run_golden(name, kind):
    return run_scenario(name, kind).require_ok()


# ---------------------------------------------------------------------------
# Crash injection + kernel-side reclamation
# ---------------------------------------------------------------------------

def test_golden_crash_mid_stream_dpdk():
    # The client dies with ~58 echoes served and a pop parked; teardown
    # cancels the qtoken, RSTs the live connection (the server takes the
    # RST: it sits at exactly RCV.NXT) and frees the whole registered heap.
    r = run_golden("crash-mid-stream", "dpdk")
    assert r.counters.get("fault.proc_crashes", 0) == 1
    assert r.counters.get("client.reclaim.runs", 0) == 1
    assert r.counters.get("client.reclaim.qtokens_cancelled", 0) == 1
    assert r.counters.get("client.reclaim.tcp_rsts", 0) == 1
    assert r.counters.get("server.catnip.stack.tcp_rsts_accepted", 0) == 1
    assert r.counters.get("client.reclaim.buffers_freed", 0) == 59
    assert r.counters.get("client.reclaim.regions_unmapped", 0) == 1
    assert r.data["outcome"] == "connection reset by peer"
    assert 0 < r.data["served"] < 600


def test_golden_crash_mid_stream_posix():
    # Same crash through the kernel path: the fd-table walk aborts the
    # socket, and teardown cancels the parked pop as on dpdk.
    r = run_golden("crash-mid-stream", "posix")
    assert r.counters.get("client.reclaim.fds_closed", 0) == 1
    assert r.counters.get("client.reclaim.qtokens_cancelled", 0) == 1
    assert r.counters.get("client.reclaim.tcp_rsts", 0) == 1
    assert r.counters.get("server.kstack.tcp_rsts_accepted", 0) == 1
    assert r.counters.get("client.reclaim.buffers_freed", 0) == 91
    assert r.data["outcome"] == "connection reset by peer"


def test_golden_crash_mid_stream_rdma():
    # RC has no RST: teardown destroys the QP (flushing the in-flight
    # WR) and the server's next send exhausts its retries instead.
    r = run_golden("crash-mid-stream", "rdma")
    assert r.counters.get("client.reclaim.qps_destroyed", 0) == 1
    assert r.counters.get("client.rdma0.wr_flushes", 0) == 1
    assert r.counters.get("client.reclaim.buffers_freed", 0) == 99
    assert r.data["outcome"] in ("retry-exceeded", "idle-timeout")


def test_golden_crash_storage():
    # The storage process dies with an NVMe write in flight; reclaim
    # aborts it and the device ends with an empty submission queue.  The
    # log writer frees each record once its append completes, so reclaim
    # finds no buffer left to free.
    r = run_golden("crash-storage", "spdk")
    assert r.counters.get("fault.proc_crashes", 0) == 1
    assert r.counters.get("h.reclaim.nvme_aborts", 0) == 1
    assert r.counters.get("h.nvme0.aborts", 0) == 1
    assert r.counters.get("h.reclaim.buffers_freed", 0) == 0
    assert r.data["reclaim"]["nvme_aborted"] == 1


# A crash is a fault plan, not a workload: the rows that ship run under a
# plan that kills their host.
@pytest.mark.parametrize("kind,at", [("dpdk", 400 * US), ("posix", 2 * MS),
                                     ("rdma", 300 * US)])
def test_echo_runs_under_a_plan_that_kills_its_client(kind, at):
    plan = FaultPlan(seed=7).proc_crash("client", at)
    r = run_scenario("echo", kind, plan=plan, n_messages=600,
                     idle_timeout_ns=5 * MS).require_ok()
    client = r.world.hosts["client"]
    assert client.mm.live_buffer_count == 0
    assert client.mm.registered_bytes() == 0
    assert r.data["reclaim"]["regions_released"] == 1
    assert 0 < r.data["served"] < 600


def test_storage_runs_under_a_plan_that_kills_its_host():
    plan = FaultPlan(seed=7).proc_crash("h", 200 * US)
    r = run_scenario("storage", "spdk", plan=plan).require_ok()
    assert r.data["reclaim"]["nvme_aborted"] == 1
    assert r.world.hosts["h"].nvme.inflight_commands == 0
    assert r.world.hosts["h"].mm.live_buffer_count == 0


def test_a_kernel_process_is_torn_down_through_its_fd_table():
    # The VFS writer makes only syscalls: its teardown has no qtoken or
    # queue descriptor to reap and closes its one file descriptor.  The
    # kernel owns the NVMe queue, so its commands complete rather than
    # abort, and the host ends as the crash-reclaim invariant requires.
    r = run_golden("crash-storage", "vfs")
    assert r.data["reclaim"]["fds_closed"] == 1
    assert r.data["reclaim"]["qds_closed"] == 0
    assert r.data["reclaim"]["nvme_aborted"] == 0
    host = r.world.hosts["h"]
    assert host.kernel._fds == {}
    assert host.nvme.inflight_commands == 0
    assert r.counters["h.reclaim.fds_closed"] == 1


# ---------------------------------------------------------------------------
# Device recovery: the NVMe retry ladder and NIC link flaps
# ---------------------------------------------------------------------------

def test_golden_nvme_transient_outage():
    # The 350us controller-failure window eats two attempts; the ladder
    # retries past it and the workload completes without ever escalating
    # to a controller reset.
    r = run_golden("nvme-transient-outage", "spdk")
    assert r.counters.get("h.nvme0.timeouts", 0) == 2
    assert r.counters.get("h.nvme0.retries", 0) == 2
    assert r.counters.get("h.nvme0.ctrl_resets", 0) == 0
    assert r.counters.get("h.nvme0.device_failures", 0) == 0
    assert r.counters["h.nvme0.write_bytes"] > 0  # the fsync reached flash


def test_golden_nvme_fatal_outage():
    # A failure outlasting all 3 attempts *and* the controller reset:
    # the post-reset attempt times out too and DeviceFailed surfaces.
    r = run_golden("nvme-fatal-outage", "spdk")
    assert r.counters.get("h.nvme0.timeouts", 0) == 4
    assert r.counters.get("h.nvme0.retries", 0) == 3
    assert r.counters.get("h.nvme0.ctrl_resets", 0) == 1
    assert r.counters.get("h.nvme0.device_failures", 0) == 1
    assert r.data["failed_op"] == "write"
    assert r.data["attempts"] == 4


def test_storage_fails_a_run_with_the_wrong_device_outcome():
    # The fatal outage without device_fails: the ladder gave up on a
    # fault the run expected it to outlast.
    r = run_scenario("storage", "spdk",
                     plan=golden_plan("nvme-fatal-outage", "spdk"))
    assert not r.ok
    assert r.failures[0].startswith("the recovery ladder gave up")
    # The transient outage with it: the ladder outlasted a fault the run
    # expected to surface.
    r = run_scenario("nvme-transient-outage", "spdk", device_fails=True)
    assert not r.ok
    assert r.failures[0].startswith("device outage never surfaced")


def test_device_failed_is_typed():
    err = DeviceFailed("h.nvme0", "write", 4)
    assert err.device == "h.nvme0"
    assert err.op == "write"
    assert err.attempts == 4
    assert "recovery ladder exhausted" in str(err)


def test_golden_link_flap_dpdk():
    # 250us of lost carrier mid-stream: frames die at the dead link,
    # the rings re-initialize on recovery, the stack re-ARPs, and TCP
    # retransmits its way back to a complete echo stream.
    r = run_golden("link-flap", "dpdk")
    assert r.counters.get("client.dpdk0.link_flaps", 0) == 1
    assert r.counters.get("client.dpdk0.ring_reinits", 0) == 1
    assert r.counters.get("client.dpdk0.link_down_drops", 0) == 3
    assert r.counters.get("client.catnip.stack.arp_relearns", 0) == 1
    assert r.data["served"] == 20


def test_golden_link_flap_posix():
    # The same flap under the kernel NIC: the in-kernel stack relearns
    # its ARP entry and the stream still completes.
    r = run_golden("link-flap", "posix")
    assert r.counters.get("client.eth0.link_flaps", 0) == 1
    assert r.counters.get("client.eth0.ring_reinits", 0) == 1
    assert r.counters.get("client.kstack.arp_relearns", 0) == 1
    assert r.data["served"] == 20


# ---------------------------------------------------------------------------
# Determinism: crashes and ladders replay bit-identically per seed
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,kind", [
    ("crash-mid-stream", "posix"),
    ("crash-mid-stream", "rdma"),
    ("crash-storage", "spdk"),
    ("crash-storage", "vfs"),
    ("nvme-fatal-outage", "spdk"),
    ("link-flap", "dpdk"),
])
def test_same_seed_same_crash_trace(name, kind):
    first, second = check_reproducible(run_scenario, name, kind)
    assert first.counters == second.counters
    assert first.events == second.events


# ---------------------------------------------------------------------------
# The `repro chaos` command
# ---------------------------------------------------------------------------

def test_chaos_cli_runs_a_scenario(capsys):
    rc = main(["chaos", "crash-storage"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "invariants: all held" in out
    assert "signature:" in out


def test_chaos_cli_replays_a_plan_file(tmp_path, capsys):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(golden_plan("nvme-transient-outage", "spdk").to_json())
    rc = main(["chaos", "nvme-transient-outage", "--plan", str(plan_file)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "seed: 909" in out


def test_chaos_cli_rejects_wrong_libos():
    with pytest.raises(SystemExit):
        main(["chaos", "crash-storage", "--libos", "dpdk"])
