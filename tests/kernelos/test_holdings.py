"""``holdings(host, liboses)``: the one record of what a host still owns.

Each kind of holding is planted alone in a small world and must show in
the fields it names and nowhere else; and a process crashed mid-run on
each stack owns nothing once ``crash_teardown`` is done.
"""

import pytest

from repro.apps.storelog import demi_log_writer, posix_log_writer
from repro.kernelos.reclaim import crash_teardown, holdings
from repro.memory.manager import REGION_SIZE
from repro.testing.scenarios import QUIESCE_NS
from repro.testbed import (World, make_kernel_pair, make_spdk_libos,
                           make_vfs_kernel)

from ..core.test_queue_kinds import connected, pair_world, plain_world, run

US = 1_000


def an_sga_never_freed():
    _w, libos, _addr = plain_world()
    libos.sga_alloc(b"never freed")
    return libos.host, [libos]


def an_open_kernel_fd():
    w, kernel, _peer = make_kernel_pair()
    run(w, kernel.thread().socket())
    return kernel.host, []


def a_pop_pending_on_an_open_qd():
    _w, libos, _addr = plain_world()
    libos.pop(libos.queue())
    return libos.host, [libos]


def an_nvme_command_in_flight():
    w = World()
    host = w.add_host("h")
    w.add_nvme(host).submit_read(0, 1)
    return host, []


def a_registered_region(with_nic):
    def plant():
        w = World()
        host = w.add_host("h")
        if with_nic:
            w.add_dpdk(host)
        host.mm.free(host.mm.alloc(64))  # the region outlives its buffer
        return host, []
    return plant


#: a planted holding -> the fields it shows in; every other field is 0
PLANTED = {
    # the buffer, and the region the heap carved it from
    "sga": (an_sga_never_freed,
            {"live_buffers": 1, "registered_bytes": REGION_SIZE}),
    "kernel-fd": (an_open_kernel_fd, {"kernel_fds": 1}),
    "pending-pop": (a_pop_pending_on_an_open_qd,
                    {"open_qds": 1, "qtokens_in_flight": 1}),
    "nvme-command": (an_nvme_command_in_flight, {"nvme_in_flight": 1}),
    "region": (a_registered_region(False), {"registered_bytes": REGION_SIZE}),
    "region-on-a-nic": (a_registered_region(True),
                        {"registered_bytes": REGION_SIZE, "iommu_ranges": 1}),
}


@pytest.mark.parametrize("planted", sorted(PLANTED))
def test_a_planted_holding_shows_in_its_fields_alone(planted):
    plant, fields = PLANTED[planted]
    held = holdings(*plant())
    assert {field: n for field, n in held.items() if n} == fields


# -- a crashed process owns nothing once torn down ---------------------------

def net_app(libos, addr):
    qd = yield from connected(libos, addr)
    yield from libos.blocking_push(qd, libos.sga_alloc(b"never freed"))
    yield from libos.blocking_pop(qd)  # the server never answers


def net_world(flavor):
    def build():
        w, client, addr = pair_world(flavor)
        return w, client, [client], net_app(client, addr)
    return build


def spdk_world():
    w, libos = make_spdk_libos()
    records = [bytes([i]) * 512 for i in range(64)]
    return w, libos, [libos], demi_log_writer(libos, records, sync_every=4)


def vfs_world():
    w, kernel = make_vfs_kernel()
    records = [bytes([i]) * 512 for i in range(64)]
    return w, kernel, [], posix_log_writer(kernel, records, sync_every=4)


CRASHED = {
    "dpdk": net_world("dpdk"),
    "posix": net_world("posix"),
    "rdma": net_world("rdma"),
    "spdk": spdk_world,
    "vfs": vfs_world,
}


@pytest.mark.parametrize("kind", sorted(CRASHED))
def test_a_crashed_host_holds_nothing_after_teardown(kind):
    w, owner, liboses, app = CRASHED[kind]()
    proc = w.sim.spawn(app)
    w.run(until=w.sim.now + 200 * US)
    assert proc.alive, "the process must die mid-run"
    before = holdings(owner.host, liboses)
    assert before["open_qds"] or before["kernel_fds"], before
    run(w, crash_teardown(owner, proc))
    if kind == "vfs":
        # Reclaim aborts the commands of a libOS's device only: a write
        # the kernel's VFS issued finishes by itself, as in the scenario
        # driver's quiesce.
        assert holdings(owner.host, liboses)["nvme_in_flight"]
        w.run(until=w.sim.now + QUIESCE_NS)
    assert not any(holdings(owner.host, liboses).values()), \
        holdings(owner.host, liboses)
