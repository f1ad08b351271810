"""One owner per queue kind: the device half lives in the queue class.

Two tables.  *Teardown*: every concrete ``DemiQueue`` subclass in
``src/`` is built live (connected, listening, pumping), its owner is
crashed - with a pop outstanding, and again with a push issued in the
very instant it dies - and nothing the queue spawned may outlive it or
run on its behalf after the reclaim: a new kind that forgets
``crash_abort`` / ``reap``, or whose per-operation driver touches the
element before it looks at ``closed``, fails here by construction.
*Misuse*:
every control call on every queue kind of every libOS works or refuses
with a ``DemiError``, and a refusal leaves the qd table as it found it.
"""

import pytest

import repro.core.pipeline  # noqa: F401 - defines the derived kinds
import repro.libos.dpdk_libos  # noqa: F401
import repro.libos.posix_libos  # noqa: F401
import repro.libos.rdma_libos  # noqa: F401
import repro.libos.spdk_libos  # noqa: F401
from repro.core.api import LibOS
from repro.core.queue import DemiQueue
from repro.core.types import DemiError
from repro.kernelos.reclaim import reclaim_process
from repro.rdma.verbs import ProtectionDomain, QueuePair
from repro.rmem.ring import RemoteRing, RingConsumer, RingProducer, RmemQueue
from repro.testbed import World

from ..conftest import (make_dpdk_libos_pair, make_posix_libos_pair,
                        make_rdma_libos_pair, make_spdk_libos, record_spawns)

PAIRS = {"dpdk": (make_dpdk_libos_pair, "10.0.0.2"),
         "posix": (make_posix_libos_pair, "10.0.0.2"),
         "rdma": (make_rdma_libos_pair, "server-rdma")}


def run(w, gen):
    proc = w.sim.spawn(gen)
    w.sim.run_until_complete(proc, limit=w.sim.now + 10**9)
    return proc.value


def listening(libos, port=80):
    qd = yield from libos.socket()
    yield from libos.bind(qd, port)
    yield from libos.listen(qd)
    return qd


def serve_one(server):
    qd = yield from listening(server)
    yield from server.accept(qd)


def connected(client, addr):
    qd = yield from client.socket()
    yield from client.connect(qd, addr, 80)
    return qd


def pair_world(flavor):
    """(world, libOS under test, its peer's address), the peer serving."""
    make_pair, addr = PAIRS[flavor]
    w, client, server = make_pair()
    w.sim.spawn(serve_one(server))
    return w, client, addr


def plain_world():
    w = World()
    return w, LibOS(w.add_host("h"), "demi"), None


def spdk_world():
    return make_spdk_libos() + (None,)


# -- teardown ---------------------------------------------------------------

#: one entry per call of an element function: user code, which may not
#: run once its process is dead
USER_CODE_RAN = []


def element_fn(sga):
    USER_CODE_RAN.append(sga)
    return sga


def build_derived(operator):
    def build(libos, _addr):
        source = libos.queue()
        if operator == "merge":
            return libos.merge(source, libos.queue())
        return getattr(libos, operator)(source, element_fn)
        yield  # pragma: no cover
    return plain_world, build


def build_udp(libos, _addr):
    qd = yield from libos.socket("udp")
    yield from libos.bind(qd, 9000)
    return qd


def build_rmem():
    """Both ends of one ring in a passive memory node, on one host."""
    w = World()
    owner, memnode = w.add_host("owner"), w.add_host("memnode")
    nic, mem_nic = w.add_rdma(owner), w.add_rdma(memnode)

    def connected_qp():
        qp, far = (QueuePair(ProtectionDomain(nic)),
                   QueuePair(ProtectionDomain(mem_nic)))
        qp.connect(mem_nic.addr, far.hw.qpn)
        far.connect(nic.addr, qp.hw.qpn)
        return qp

    ring = RemoteRing.allocate(memnode.mm, 4096, 16)
    return w, LibOS(owner, "rmem"), (RingProducer(connected_qp(), ring),
                                     RingConsumer(connected_qp(), ring))


def attach_rmem(libos, ends):
    queue = libos._install(RmemQueue)
    queue.attach_producer(ends[0])
    queue.attach_consumer(ends[1])
    return queue.qd
    yield  # pragma: no cover


def build_file(libos, _addr):
    """A file that holds a record, so that a pop has something to read."""
    qd = yield from libos.creat("/f")
    yield from libos.blocking_push(qd, libos.sga_alloc(b"a record"))
    return qd


def build_memory(libos, _addr):
    return libos.queue()
    yield  # pragma: no cover


#: kind -> (world maker, sim-coroutine building one live queue on the
#: libOS under test, processes the queue keeps alive while it is open)
KINDS = {
    "memory": (plain_world, build_memory, 0),
    "filter": build_derived("filter") + (1,),
    "map": build_derived("map") + (1,),
    "sort": build_derived("sort") + (1,),
    "merge": build_derived("merge") + (2,),
    "udp-socket": (lambda: pair_world("dpdk"), build_udp, 0),
    "tcp-socket": (lambda: pair_world("dpdk"), connected, 1),
    "tcp-listen": (lambda: pair_world("dpdk"),
                   lambda libos, _addr: listening(libos, 81), 0),
    "posix-tcp": (lambda: pair_world("posix"), connected, 1),
    "posix-listen": (lambda: pair_world("posix"),
                     lambda libos, _addr: listening(libos, 81), 0),
    "rdma": (lambda: pair_world("rdma"), connected, 1),
    "rdma-listen": (lambda: pair_world("rdma"),
                    lambda libos, _addr: listening(libos, 81), 0),
    "file": (spdk_world, build_file, 0),
    "rmem": (build_rmem, attach_rmem, 1),
}


def concrete_queue_kinds():
    found, stack = set(), [DemiQueue]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            if (cls.__module__.startswith("repro.")
                    and not cls.__name__.startswith("_")
                    and cls.kind != DemiQueue.kind):  # a shared base
                found.add(cls)
    return found


def test_the_teardown_table_covers_every_queue_class_in_src():
    assert {cls.kind for cls in concrete_queue_kinds()} == set(KINDS)
    assert len(concrete_queue_kinds()) == len(KINDS)


def queue_procs(spawned, libos):
    """The live processes whose generator is a method of one of *libos*'s
    queues: what a queue spawned for itself."""
    def owner(proc):
        frame = proc.gen.gi_frame
        return frame.f_locals.get("self") if frame is not None else None
    return [proc for proc in spawned if proc.alive
            and isinstance(owner(proc), DemiQueue)
            and owner(proc).libos is libos]


def refused(libos, token) -> bool:
    """The operation behind *token* completed at once, with an error."""
    done = libos.qtokens.completion_of(token)
    return done.triggered and done.value.error is not None


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_nothing_a_queue_spawned_outlives_its_owner(kind):
    make_world, build, n_procs = KINDS[kind]
    # The owner dies with an operation outstanding: a pop, then (in a
    # fresh world) a push it issued in the very instant it dies - whose
    # driver, if the kind spawns one, has not taken its first step and is
    # in no pump list.
    for last_words in ("pop", "push"):
        w, libos, extra = make_world()
        spawned = record_spawns(w.sim)
        qd = run(w, build(libos, extra))
        assert libos.queue_of(qd).kind == kind
        w.run(until=w.sim.now + 50_000)
        assert len(queue_procs(spawned, libos)) == n_procs
        if last_words == "pop":
            libos.pop(qd)
            if kind.endswith("-listen"):
                # An accept pop is a driver parked in the kind's accept.
                w.run(until=w.sim.now + 50_000)
                assert len(queue_procs(spawned, libos)) == n_procs + 1
        elif refused(libos, libos.push(qd, libos.sga_alloc(b"last words"))):
            continue  # nothing was spawned: a listener, an unaddressed udp
        user_code_ran = len(USER_CODE_RAN)

        reclaim_process(libos)
        w.run(until=w.sim.now + 1_000_000)  # a late driver raises out of here
        assert queue_procs(spawned, libos) == []
        assert libos.qtokens.in_flight == 0
        assert not libos._queues
        assert len(USER_CODE_RAN) == user_code_ran, last_words
        assert libos.host.mm.live_buffer_count == 0, last_words


@pytest.mark.parametrize("flavor", sorted(PAIRS))
def test_a_cancelled_accept_takes_nothing_and_the_next_pop_gets_it(flavor):
    make_pair, addr = PAIRS[flavor]
    w, client, server = make_pair()
    spawned = record_spawns(w.sim)
    lqd = run(w, listening(server))
    cancelled = server.pop(lqd)
    w.run(until=w.sim.now + 50_000)        # parked in the kind's accept
    server.cancel(cancelled)
    dialer = w.sim.spawn(connected(client, addr))
    w.run(until=w.sim.now + 1_000_000)     # the connection is waiting
    assert set(server._queues) == {lqd}
    assert queue_procs(spawned, server) == []
    result = run(w, server.wait(server.pop(lqd)))
    assert result.error is None and set(server._queues) == {lqd, result.value}
    w.sim.run_until_complete(dialer, limit=w.sim.now + 10**9)
    assert server.qtokens.in_flight == 0 and server.qtokens.identity_ok


@pytest.mark.parametrize("flavor", sorted(PAIRS))
def test_closing_a_listener_fails_its_accept_pop(flavor):
    make_pair, _addr = PAIRS[flavor]
    w, _client, server = make_pair()
    spawned = record_spawns(w.sim)
    lqd = run(w, listening(server))
    token = server.pop(lqd)
    w.run(until=w.sim.now + 50_000)        # parked in the kind's accept
    run(w, server.close(lqd))
    assert server.qtokens.completion_of(token).value.error is not None
    w.run(until=w.sim.now + 1_000_000)
    assert queue_procs(spawned, server) == []
    assert server.qtokens.in_flight == 0


# -- control-path misuse ------------------------------------------------------

def unconnected(libos, _addr):
    return (yield from libos.socket())


def bound(libos, _addr):
    qd = yield from libos.socket()
    yield from libos.bind(qd, 81)
    return qd


NETWORK_STATES = {"unconnected": unconnected, "bound": bound,
                  "listening": lambda libos, _addr: listening(libos, 81),
                  "connected": connected,
                  "memory": build_memory,
                  "filter": build_derived("filter")[1]}

#: (libOS flavor, queue state): every queue kind a libOS can hold, in
#: every state the control path distinguishes
STATES = [(flavor, state) for flavor in PAIRS for state in NETWORK_STATES]
STATES += [("dpdk", "udp"), ("spdk", "file"), ("spdk", "memory")]

CALLS = {
    "bind": lambda libos, qd, addr: libos.bind(qd, 82),
    "listen": lambda libos, qd, addr: libos.listen(qd),
    "accept": lambda libos, qd, addr: libos.accept(qd),
    "connect": lambda libos, qd, addr: libos.connect(qd, addr or "x", 80),
    "push_to": lambda libos, qd, addr: push_to(libos, qd, addr),
}


def push_to(libos, qd, addr):
    return libos.push_to(qd, libos.sga_alloc(b"x"), (addr or "x", 9))
    yield  # pragma: no cover


@pytest.mark.parametrize("call", sorted(CALLS))
@pytest.mark.parametrize("flavor,state", STATES)
def test_a_control_call_works_or_refuses_with_a_demi_error(flavor, state,
                                                           call):
    w, libos, addr = (spdk_world() if flavor == "spdk"
                      else pair_world(flavor))
    build = {"udp": build_udp,
             "file": lambda libos, _addr: libos.creat("/f")}.get(
                 state) or NETWORK_STATES[state]
    qd = run(w, build(libos, addr))
    w.run(until=w.sim.now + 50_000)  # pumps post their first pop
    before = dict(libos._queues), libos.qtokens.in_flight

    def attempt():
        try:
            yield from CALLS[call](libos, qd, addr)
        except Exception as err:
            return err
        return None

    proc = w.sim.spawn(attempt())
    w.run(until=w.sim.now + 2_000_000)
    # Still parked (an accept nobody dials) counts as working.  Anything
    # else is success or the libOS's own refusal, which changes nothing:
    # no substrate error (a port already listening) leaks through.
    outcome = None if proc.alive else proc.value
    assert outcome is None or isinstance(outcome, DemiError), repr(outcome)
    if isinstance(outcome, DemiError):
        assert (libos._queues, libos.qtokens.in_flight) == before
