"""qtoken cancellation under device stalls (paper section 4.4 hardening).

A qtoken bound to an operation on a stalled device must be abandonable:
``cancel`` retires it immediately, the device's eventual completion is
dropped on the floor (it can never wake a waiter), and the lifecycle
identity ``created == completed + cancelled + in_flight`` survives all
of it.
"""

import pytest

from repro.core.types import DemiError
from repro.sim.faults import FaultPlan
from repro.testbed import make_spdk_libos

US = 1_000
MS = 1_000_000


def qt_identity(libos):
    qt = libos.qtokens
    return qt.created == qt.completed + qt.cancelled + qt.in_flight


# ---------------------------------------------------------------------------
# Pure table semantics (no device)
# ---------------------------------------------------------------------------

def test_cancel_pending_pop_retires_token():
    world, libos = make_spdk_libos()
    qd = libos.queue()
    token = libos.pop(qd)
    assert libos.qtokens.in_flight == 1
    libos.cancel(token)
    assert libos.qtokens.in_flight == 0
    assert libos.qtokens.cancelled == 1
    assert libos.qtokens.completed == 0
    assert qt_identity(libos)
    assert world.tracer.get("%s.qtokens_cancelled" % libos.name) == 1
    assert world.tracer.get("%s.cancels" % libos.name) == 1


def test_cancelled_pop_does_not_lose_data():
    world, libos = make_spdk_libos()
    qd = libos.queue()
    token = libos.pop(qd)
    libos.cancel(token)
    queue = libos.queue_of(qd)
    assert len(queue._pending_pops) == 0  # on_cancel unregistered the pop
    # The element arrives after the cancel: it must buffer, not chase
    # the dead token.
    queue.deliver(libos.sga_alloc(b"survives"))
    assert len(queue._ready) == 1

    def reader():
        result = yield from libos.blocking_pop(qd)
        return result.sga.tobytes()

    proc = world.sim.spawn(reader(), name="reader")
    assert world.sim.run_until_complete(proc, limit=10 * MS) == b"survives"
    assert qt_identity(libos)
    assert libos.qtokens.in_flight == 0


def test_cancel_unknown_token_raises():
    world, libos = make_spdk_libos()
    with pytest.raises(DemiError):
        libos.cancel(99999)


def test_cancel_completed_token_raises():
    world, libos = make_spdk_libos()
    qd = libos.queue()
    queue = libos.queue_of(qd)
    queue.deliver(libos.sga_alloc(b"x"))
    token = libos.pop(qd)  # completes immediately: data was ready
    with pytest.raises(DemiError):
        libos.cancel(token)


def test_double_cancel_raises():
    world, libos = make_spdk_libos()
    qd = libos.queue()
    token = libos.pop(qd)
    libos.cancel(token)
    with pytest.raises(DemiError):
        libos.cancel(token)


# ---------------------------------------------------------------------------
# Cancellation against a genuinely stalled device
# ---------------------------------------------------------------------------

def build_stalled_nvme(factor=1000.0):
    """An SPDK libOS whose flash goes ~1000x slow after setup time."""
    plan = FaultPlan(seed=5).nvme_slow("nvme0", 200 * US, 10_000 * MS,
                                       factor=factor)
    world, libos = make_spdk_libos(seed=5)
    world.install_faults(plan)
    return world, libos


def test_cancel_stalled_read_drops_late_completion():
    world, libos = build_stalled_nvme()
    sim = world.sim
    outcome = {}

    def body():
        qd = yield from libos.creat("/f")
        for data in (b"a" * 100, b"b" * 100):
            yield from libos.blocking_push(qd, libos.sga_alloc(data))
        # Flush so later reads do real flash I/O (buffered records would
        # be served from memory, untouched by the device stall).
        yield from libos.fsync(qd)
        qd2 = yield from libos.open("/f")
        # Enter the slow-device window, then start a read that will
        # take tens of milliseconds.
        yield sim.timeout(300 * US - sim.now)
        stalled = libos.pop(qd2)
        yield sim.timeout(10 * US)
        assert libos.qtokens.in_flight == 1  # the device is sitting on it
        libos.cancel(stalled)
        assert libos.qtokens.in_flight == 0  # retired immediately
        # A second pop reads the next record; its waiter must be the
        # only thing the (eventually arriving) completions can touch.
        result = yield from libos.blocking_pop(qd2)
        outcome["data"] = result.sga.tobytes()

    proc = sim.spawn(body(), name="canceller")
    sim.run_until_complete(proc, limit=60_000 * MS)
    world.run()  # drain: the stalled read completes long after the cancel
    assert outcome["data"] == b"b" * 100
    # The late completion was dropped, not delivered and not fatal.
    assert world.tracer.get("%s.late_completions_dropped" % libos.name) == 1
    assert libos.qtokens.cancelled == 1
    assert libos.qtokens.in_flight == 0
    assert qt_identity(libos)


def test_stalled_cancel_never_wakes_a_waiter():
    # No wake-ups without work: every wait return is backed by a
    # completed operation even when cancels and late completions fly.
    world, libos = build_stalled_nvme()
    sim = world.sim

    def body():
        qd = yield from libos.creat("/f")
        yield from libos.blocking_push(qd, libos.sga_alloc(b"z" * 64))
        yield from libos.fsync(qd)  # flush: reads must hit the flash
        qd2 = yield from libos.open("/f")
        yield sim.timeout(300 * US - sim.now)
        stalled = libos.pop(qd2)
        yield sim.timeout(US)
        libos.cancel(stalled)
        # Nothing else outstanding: if the cancelled op could wake a
        # waiter, this timeout-only sleep would be where it shows up.
        yield sim.timeout(200_000 * US)

    proc = sim.spawn(body(), name="sleeper")
    sim.run_until_complete(proc, limit=10**12)
    world.run()
    waits = world.tracer.get("%s.waits" % libos.name)
    completed = world.tracer.get("%s.qtokens_completed" % libos.name)
    assert waits <= completed
    assert world.tracer.get("%s.late_completions_dropped" % libos.name) == 1
    assert qt_identity(libos)


def test_accounting_identity_with_mixed_outcomes():
    world, libos = make_spdk_libos()
    qd = libos.queue()
    queue = libos.queue_of(qd)
    # 2 completed (data ready), 2 cancelled, 1 left in flight.
    queue.deliver(libos.sga_alloc(b"1"))
    queue.deliver(libos.sga_alloc(b"2"))
    t_done = [libos.pop(qd), libos.pop(qd)]
    t_cancel = [libos.pop(qd), libos.pop(qd)]
    t_flight = libos.pop(qd)
    for token in t_cancel:
        libos.cancel(token)
    qt = libos.qtokens
    assert (qt.created, qt.completed, qt.cancelled, qt.in_flight) == (5, 2, 2, 1)
    assert qt_identity(libos)
