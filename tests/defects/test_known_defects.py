"""The known-defect register: one strict xfail per defect still open.

Each entry asserts the *correct* behaviour, so it fails today, and its
mark names the ROADMAP item that tracks the fix.  ``raises=`` is the one
failure the defect shows - :class:`KnownDefect` where the test observes
the wrong behaviour itself - so a test that breaks some other way fails
instead of passing as the known defect.  ``strict=True`` makes the fix
visible: the change that mends a defect sees its entry XPASS and fail,
and removes the mark.  ``tests/lint/test_defect_register.py`` checks
that every reason names an open ROADMAP item.

List the register with ``pytest tests/defects -q -rxX``.
"""

import pytest

from repro.apps.echo import demi_echo_client, demi_echo_server
from repro.core.types import DemiError
from repro.sim.faults import FaultPlan
from repro.testbed import (make_posix_libos_pair, make_rdma_libos_pair,
                           make_spdk_libos)
from repro.testing import run_scenario, scenarios

from ..conftest import make_net_pair

MS = 1_000_000
US = 1_000


class KnownDefect(AssertionError):
    """The wrong behaviour a register entry exists for, observed."""


# ---------------------------------------------------------------------------
# ROADMAP item 1: TCP
# ---------------------------------------------------------------------------

@pytest.mark.xfail(strict=True, raises=DemiError, reason="ROADMAP item 1(c)")
def test_a_512_kib_posix_echo_comes_back_whole():
    # The receiver never announces the window a large read reopens, and
    # the persist timer's probe carries no data, so nothing recovers it:
    # the server's idle timeout ends the session and the client sees eof.
    w, client, server = make_posix_libos_pair()
    element = bytes(range(256)) * 2048
    w.sim.spawn(demi_echo_server(server, max_requests=1,
                                 idle_timeout_ns=20 * MS))
    proc = w.sim.spawn(demi_echo_client(client, "10.0.0.2", [element]))
    replies, _stats = w.sim.run_until_complete(proc, limit=100 * MS)
    assert replies == [element]


@pytest.mark.xfail(strict=True, raises=KnownDefect, reason="ROADMAP item 1(b)")
def test_a_stream_across_the_2_32_sequence_wrap_arrives_whole():
    # Sequence numbers are unbounded ints, masked only on the wire and
    # compared with a plain ``<``: a stream whose numbers pass 2**32
    # stalls after its first segment.
    w, a, b = make_net_pair()
    a.stack._next_isn = 2**32 - 64_000 - 100   # the client's ISS
    listener = b.stack.tcp_listen(80)
    client = a.stack.tcp_connect("10.0.0.2", 80)
    w.run()
    server = listener.accept_nb()
    assert server is not None
    client.send(b"x" * 5000)
    w.run(until=w.sim.now + 50 * MS)
    received = len(server.recv())
    if received != 5000:
        raise KnownDefect("%d of 5000 bytes crossed the wrap" % received)


# ---------------------------------------------------------------------------
# ROADMAP item 3: buffer lifecycle
# ---------------------------------------------------------------------------

@pytest.mark.xfail(strict=True, raises=KnownDefect, reason="ROADMAP item 3")
def test_the_passive_side_pushing_first_draws_no_rnr_nak():
    # The accepting side's first SEND can reach the connecting side
    # before that side has posted its receive pool: one RNR NAK at
    # sequence 0, which the NIC's retry then recovers.
    w, client, server = make_rdma_libos_pair()

    def server_proc():
        lqd = yield from server.socket()
        yield from server.bind(lqd, 1)
        yield from server.listen(lqd)
        qd = yield from server.accept(lqd)
        yield from server.blocking_push(qd, server.sga_alloc(b"first"))

    def client_proc():
        qd = yield from client.socket()
        yield from client.connect(qd, "server-rdma", 1)
        result = yield from client.blocking_pop(qd)
        data = result.sga.tobytes()
        client.sga_free(result.sga)
        return data

    w.sim.spawn(server_proc())
    proc = w.sim.spawn(client_proc())
    assert w.sim.run_until_complete(proc, limit=10 * MS) == b"first"
    naks = w.tracer.get("client.rdma0.rnr_naks_sent")
    if naks:
        raise KnownDefect("%d RNR NAK(s) on a fresh connection" % naks)


# ---------------------------------------------------------------------------
# ROADMAP item 18: lent memory is a checked capability
# ---------------------------------------------------------------------------

@pytest.mark.xfail(strict=True, raises=KnownDefect, reason="ROADMAP item 18")
def test_a_catmint_segment_given_back_cannot_be_read():
    w, client, server = make_rdma_libos_pair()
    popped = []

    def server_proc():
        lqd = yield from server.socket()
        yield from server.bind(lqd, 1)
        yield from server.listen(lqd)
        qd = yield from server.accept(lqd)
        result = yield from server.blocking_pop(qd)
        popped.append(result.sga)
        server.sga_free(result.sga)

    def client_proc():
        qd = yield from client.socket()
        yield from client.connect(qd, "server-rdma", 1)
        yield from client.blocking_push(qd, client.sga_alloc(b"first-message"))

    proc = w.sim.spawn(server_proc())
    w.sim.spawn(client_proc())
    w.sim.run_until_complete(proc, limit=10 * MS)
    try:
        data = popped[0].tobytes()
    except DemiError:
        return
    raise KnownDefect("read %r from a segment given back" % data)


# ---------------------------------------------------------------------------
# ROADMAP "Smaller": one read span and one read-ahead per LogStore
# ---------------------------------------------------------------------------

#: a record that fills one 4 KiB block, its 12-byte header included
BLOCK_PAYLOAD = 4096 - 12


def _device_reads(in_turns):
    """Device reads to pop two 100-block files that lie apart in the
    log: in turns, or one file after the other."""
    w, libos = make_spdk_libos()
    files = {path: [path.encode() + b"%03d" % i
                    + bytes([i]) * (BLOCK_PAYLOAD - 5) for i in range(100)]
             for path in ("/a", "/b")}

    def app():
        for path, records in files.items():
            qd = yield from libos.creat(path)
            for record in records:
                sga = libos.sga_alloc(record)
                yield from libos.blocking_push(qd, sga)
                libos.sga_free(sga)
            yield from libos.fsync(qd)
        readers = []
        for path in files:
            readers.append((yield from libos.open(path)))
        order = ([qd for _ in range(100) for qd in readers] if in_turns
                 else [qd for qd in readers for _ in range(100)])
        for qd in order:
            result = yield from libos.blocking_pop(qd)
            libos.sga_free(result.sga)
            yield w.sim.timeout(3 * US)

    w.sim.spawn(app())
    w.run()
    return w.tracer.get("h.nvme0.reads")


@pytest.mark.xfail(strict=True, raises=KnownDefect,
                   reason='ROADMAP Smaller: "LogStore read-ahead limits"')
def test_two_readers_in_turns_cost_no_more_reads_than_one_after_the_other():
    in_turns, one_after_the_other = _device_reads(True), _device_reads(False)
    if in_turns > one_after_the_other:
        raise KnownDefect("%d device reads in turns, %d one after the other"
                          % (in_turns, one_after_the_other))


# ---------------------------------------------------------------------------
# ROADMAP item 10: chain membership owned by the control path
# ---------------------------------------------------------------------------

@pytest.mark.xfail(strict=True, raises=KnownDefect, reason="ROADMAP item 10")
def test_a_head_killed_before_its_successor_watches_it_is_failed_over(
        monkeypatch):
    # Hole 1: no peer holds a lease on the head until its successor's
    # uplink is up (63 614 ns in), so a head that dies before then is
    # never declared dead.
    monkeypatch.setattr(scenarios, "QUIESCE_NS", 2 * MS)
    plan = FaultPlan(seed=1201).proc_crash("replica0", 50 * US)
    result = run_scenario("kv-replicated", "rdma", plan=plan, n_clients=1,
                          n_ops=4, settle_ns=200 * US)
    never = "a replica died but the directory never failed over"
    if never in result.failures:
        raise KnownDefect(never)
    assert result.ok, result.failures
