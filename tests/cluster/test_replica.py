"""The chain-replicated multi-host KV tier (repro.cluster.replica)."""

import pytest

from repro.cluster.client import REQUEST_TIMEOUT_NS, ReplicatedKvClient
from repro.cluster.replica import (DEFAULT_KV_PORT, N_SLOTS,
                                   REQUEST_HEADER, ClusterDirectory,
                                   ReplicaNode, decode_entry, encode_entry)
from repro.core.retry import RetryBudgetExceeded
from repro.core.types import DemiError, DemiTimeout
from repro.libos.rdma_libos import RdmaLibOS
from repro.rdma.cm import RdmaCm
from repro.rmem.ring import LocalRingConsumer, decode_record
from repro.sim.rand import Rng
from repro.sim.sync import WaitQueue
from repro.telemetry import names
from repro.testing import run_scenario

from ..conftest import World

_US = 1_000
_MS = 1_000_000
LIMIT = 3_000_000_000


def build_cluster(n_nodes=3, replication=3, n_chains=1, n_clients=1,
                  seed=42):
    world = World(seed=seed)
    cm = RdmaCm(world.sim)
    node_names = ["replica%d" % i for i in range(n_nodes)]
    directory = ClusterDirectory(world.tracer, node_names,
                                 replication=replication, n_chains=n_chains)
    rng = Rng(seed)
    nodes = [ReplicaNode(world, name, directory, cm,
                         rng=rng.fork_named(name))
             for name in node_names]
    clients = []
    for i in range(n_clients):
        host = world.add_host("cl%d" % i)
        nic = world.add_rdma(host)
        libos = RdmaLibOS(host, nic, cm, name="cl%d.catmint" % i)
        clients.append(ReplicatedKvClient(libos, directory,
                                          rng.fork_named("cl%d" % i)))
    for node in nodes:
        node.start()
    return world, directory, nodes, clients


def run_driver(world, gen):
    proc = world.sim.spawn(gen, name="test.driver")
    world.sim.run_until_complete(proc, limit=world.sim.now + LIMIT)
    return proc.value


def assert_no_lost_wakeup(nodes):
    """At quiescence nothing a one-sided write landed is still unseen.

    A pump parks on the writer's signal instead of polling, so a wake-up
    lost anywhere would strand data for good: a decodable record in the
    slot a consumer is waiting on.  And no wake-up was for nothing -
    ``empty_polls`` is the ring's ``wasted_wakeups``.
    """
    for node in nodes:
        if node.crashed:
            continue
        for chain in node.chains.values():
            if chain.up is not None:
                consumer, ring = chain.up.consumer, chain.up.ring
                slot = node.mm.read_mem(ring.slot_addr(consumer.next_seq),
                                        ring.slot_size)
                assert decode_record(slot, consumer.next_seq,
                                     ring.max_payload) is None, node.name
                assert consumer.empty_polls == 0, node.name


def on_logged(chain, seq, action):
    """Run *action* in the instant *chain* logs entry *seq*, whoever logs
    it: before the forwarder, the applier or anything else it wakes.
    Hooks stack: a log already watched keeps running its own."""
    class Log(type(chain.log)):
        def append(self, entry):
            super().append(entry)
            if len(self) == seq:
                action()

    chain.log = Log(chain.log)


class TestDirectory:
    def tracer(self):
        return World().tracer

    def test_chain_members_rotate_over_the_node_list(self):
        d = ClusterDirectory(self.tracer(), ["a", "b", "c", "d"],
                             replication=3, n_chains=4)
        assert d.chain_members(0) == ["a", "b", "c"]
        assert d.chain_members(1) == ["b", "c", "d"]
        assert d.chain_members(3) == ["d", "a", "b"]
        assert d.head(1) == "b" and d.tail(1) == "d"

    def test_death_splices_and_recruits_in_rotation_order(self):
        d = ClusterDirectory(self.tracer(), ["a", "b", "c", "d"],
                             replication=3, n_chains=4)
        d.report_dead("b")
        assert d.epoch == 1
        assert d.chain_members(0) == ["a", "c", "d"]  # spliced + recruited
        assert d.chain_members(1) == ["c", "d", "a"]  # new head
        d.report_dead("b")  # idempotent: no second epoch bump
        assert d.epoch == 1

    def test_replication_clamped_to_cluster_size(self):
        d = ClusterDirectory(self.tracer(), ["a", "b"], replication=5)
        assert d.chain_members(0) == ["a", "b"]

    def test_zero_replication_rejected(self):
        with pytest.raises(DemiError):
            ClusterDirectory(self.tracer(), ["a"], replication=0)


class TestEntryCodec:
    def test_roundtrip(self):
        for entry in [(1, 1, 1, b"k", b"v"),
                      (2 ** 40, 7, 2 ** 33, b"key-xyz", b""),
                      (7, 2, 5, b"", b"x" * 300)]:
            assert decode_entry(encode_entry(*entry)) == entry


class TestHappyPath:
    def test_put_get_through_full_chain(self):
        world, directory, nodes, (client,) = build_cluster()
        out = {}

        def driver():
            yield world.sim.timeout(50 * _US)
            for i in range(8):
                yield from client.put(b"key-%d" % i, b"value-%d" % i)
            reads = []
            for i in range(8):
                found, value = yield from client.get(b"key-%d" % i)
                reads.append((found, bytes(value)))
            yield from client.close()
            out["reads"] = reads

        run_driver(world, driver())
        assert out["reads"] == [(True, b"value-%d" % i) for i in range(8)]
        # An acked write lives on EVERY chain member.
        for node in nodes:
            chain = node.chains[0]
            assert chain.applied == len(chain.log) == 8
            assert node.engine.get(b"key-0") is not None
        assert_no_lost_wakeup(nodes)

    def test_an_empty_value_reads_back_empty_at_the_tail(self):
        world, directory, nodes, (client,) = build_cluster()

        def driver():
            yield world.sim.timeout(50 * _US)
            yield from client.put(b"k", b"")
            found, value = yield from client.get(b"k")
            yield from client.close()
            return found, bytes(value)

        assert run_driver(world, driver()) == (True, b"")

    def test_put_latency_does_not_depend_on_when_it_was_issued(self):
        """The same PUT on an idle chain, issued at eight start offsets
        750 ns apart, takes exactly the same time.  The pumps and commit
        monitors used to sleep 2 and 3 us between looks at their own
        memory, so a PUT (two rings, two commit cells) took 18 099 to
        21 099 ns depending on the phase of four poll clocks; eight
        offsets of 750 ns are one full period of both.  A GET, which
        crosses no ring, never depended on it - except where one of the
        tail's own 20 us heartbeats collides with it."""
        puts, gets = set(), {}
        for k in range(8):
            world, directory, nodes, (client,) = build_cluster()

            def driver():
                yield world.sim.timeout(50 * _US)
                yield from client.put(b"warm", b"up")   # opens head conn
                yield from client.get(b"warm")           # opens tail conn
                yield world.sim.timeout(400 * _US + 750 * k - world.sim.now)
                issued = world.sim.now
                yield from client.put(b"key", b"value")
                acked = world.sim.now
                found, _value = yield from client.get(b"key")
                assert found
                puts.add(acked - issued)
                gets[k] = world.sim.now - acked
                yield from client.close()

            run_driver(world, driver())
            assert_no_lost_wakeup(nodes)
        assert len(puts) == 1, sorted(puts)
        # 4 971 before and after the pumps stopped polling, 4 972 since a
        # request carries its client's tag and op number (12 bytes more on
        # the wire).  A GET can meet the tail's own heartbeat writer
        # ringing its doorbell: `doorbell_ns` (200) charged to the tail's
        # one core ahead of the request.  A collision can cost a GET at
        # most one doorbell.  While the tail acked a PUT once it had
        # applied it (900 ns later), phase 5's GET met the whole doorbell
        # (5 172); since it acks as it logs, phase 7's met its last 2 ns
        # (4 974).  Since a heartbeat also carries its sender's ring cursor
        # (8 bytes more), each beat's WRITE completes a little later and
        # the tail's heartbeat clock drifts: phase 7's GET met the
        # doorbell's last 17 ns.  Since a Catmint pop is a lent slice of
        # the receive pool, not a fresh buffer, a GET is one `malloc_ns`
        # (80) shorter at the tail and one at the client (4 812); the
        # phases shift with it, and phase 7's GET meets 177 ns of the
        # doorbell.
        assert {ns for k, ns in gets.items() if k != 7} == {4_812}
        assert gets[7] == 4_989

    def test_multi_chain_places_keys_on_distinct_heads(self):
        world, directory, nodes, (client,) = build_cluster(
            n_chains=3, replication=2)
        keys = [b"mc-key-%02d" % i for i in range(24)]
        chains_hit = {directory.chain_for_key(k) for k in keys}
        assert chains_hit == {0, 1, 2}, "workload should span every chain"

        def driver():
            yield world.sim.timeout(50 * _US)
            for key in keys:
                yield from client.put(key, b"v:" + key)
            for key in keys:
                found, value = yield from client.get(key)
                assert found and bytes(value) == b"v:" + key
            yield from client.close()

        run_driver(world, driver())
        # replication=2: each chain lives on exactly its two members and
        # is absent from the third node.
        for chain_id in range(3):
            members = directory.chain_members(chain_id)
            assert len(members) == 2
            wrote = [k for k in keys if directory.chain_for_key(k) == chain_id]
            for node in nodes:
                chain = node.chains[chain_id]
                if node.name in members:
                    assert chain.applied == len(wrote)
                else:
                    assert chain.applied == 0

    def test_misrouted_request_answers_moved(self):
        """Reads must come from the tail: a GET aimed directly at the
        head (a stale client route) answers STATUS_MOVED instead of
        serving a possibly-uncommitted value."""
        from repro.apps.proto import LegacyKvCodec, Request
        from repro.cluster.replica import STATUS_MOVED

        world, directory, nodes, (client,) = build_cluster()
        libos = client.libos
        out = {}

        def driver():
            yield world.sim.timeout(50 * _US)
            yield from client.put(b"moved-key", b"moved-val")
            # Bypass the router: talk straight to the head.
            qd = yield from libos.socket()
            yield from libos.connect(qd, nodes[0].nic.addr, DEFAULT_KV_PORT)
            yield from libos.blocking_push(
                qd, libos.sga_alloc(REQUEST_HEADER.pack(client.tag, 99)
                                    + LegacyKvCodec().encode_request(
                                        Request(op="get", key=b"moved-key"))))
            result = yield from libos.blocking_pop(qd)
            out["status"] = result.sga.tobytes()[0]
            yield from libos.close(qd)
            yield from client.close()

        run_driver(world, driver())
        assert out["status"] == STATUS_MOVED
        assert world.tracer.get("replica0.%s" % names.REPL_REDIRECTS) >= 1

    def test_an_ack_for_an_earlier_operation_is_dropped(self):
        """The head's core is held up for 500 us as a PUT reaches it, so
        the entry is logged - and acked at the tail - only after the
        client has timed out and sent the PUT again on the same
        connections.  The ack of the first entry - the attempt that timed
        out - completes the PUT.  The second entry's ack comes after it,
        ahead of the next GET's reply: it carries an earlier operation's
        number, so the client drops and counts it, and the GET returns its
        own reply.  (The tail acks an entry as it logs it, and its core
        takes no part in that: holding the tail's core, as this test did
        while the tail acked at apply, delays no ack.)"""
        world, directory, nodes, (client,) = build_cluster()
        head = nodes[0]
        out = {}

        def driver():
            yield world.sim.timeout(50 * _US)
            yield from client.put(b"warm", b"up")
            head.libos.core.charge_async(500 * _US)
            yield from client.put(b"k", b"v")
            out["get"] = yield from client.get(b"k")
            yield from client.close()

        run_driver(world, driver())
        assert out["get"] == (True, b"v")
        assert world.tracer.get(
            "cl0.catmint.%s" % names.REPL_CLIENT_RETRIES) == 1
        assert world.tracer.get(
            "cl0.catmint.%s" % names.REPL_STALE_ACKS) == 1
        assert world.tracer.get(
            "replica2.%s" % names.REPL_WRITES_ACKED) == 3

    def test_malformed_request_closes_only_its_own_connection(self):
        """Bytes that do not parse end that connection - counted, closed -
        while the node keeps serving everyone else; they used to raise
        CodecError out of ``sim.run`` and take every replica down."""
        world, directory, nodes, (client, hostile) = build_cluster(
            n_clients=2)
        libos = hostile.libos
        out = {}

        def driver():
            yield world.sim.timeout(50 * _US)
            # The well-behaved client's connection to the head is open ...
            yield from client.put(b"k", b"before")
            # ... when a second connection to the same port sends garbage.
            qd = yield from libos.socket()
            yield from libos.connect(qd, nodes[0].nic.addr, DEFAULT_KV_PORT)
            yield from libos.blocking_push(qd,
                                           libos.sga_alloc(b"\xff\x00\x00"))
            # No reply ever comes, and the next send finds the far end of
            # the connection gone.
            token = libos.pop(qd)
            with pytest.raises(DemiTimeout):
                yield from libos.wait_any([token], timeout_ns=400 * _US)
            pushed = yield from libos.blocking_push(
                qd, libos.sga_alloc(b"G\x00\x01k"))
            out["hostile_error"] = pushed.error
            libos.cancel(token)
            yield from libos.close(qd)
            # The same head, over the connection it already had and over
            # a new one, still serves.
            yield from client.put(b"k", b"after")
            yield from hostile.put(b"k2", b"second client")
            out["k"] = yield from client.get(b"k")
            yield from client.close()
            yield from hostile.close()

        run_driver(world, driver())
        assert out["hostile_error"] is not None
        assert out["k"] == (True, b"after")
        assert world.tracer.get("replica0.catmint.%s"
                                % names.KV_MALFORMED_REQUESTS) == 1
        assert directory.alive == {"replica0", "replica1", "replica2"}
        assert all(node.chains[0].applied == len(node.chains[0].log) == 3
                   for node in nodes)


class TestLogForwardApply:
    """A member logs an entry, forwards it, and applies it - in that
    order, the apply in a process of its own."""

    @pytest.mark.parametrize("members,put_ns", [(3, 7_734), (2, 5_923)])
    def test_a_put_waits_out_no_apply_whatever_the_chain_length(
            self, members, put_ns):
        """An idle PUT costs its transport and one parse, and no apply:
        the tail acks an entry as it logs it - the commit point - and
        every member logs and forwards an entry before it applies it, so
        each member's apply (900 ns) runs off the PUT's path.  A member
        more adds one forward, 7 734 - 5 923 = 1 811 ns, and nothing else.
        The head pushes nothing for a PUT it accepts, and the tail exactly
        one ack.  While a Catmint pop was a copy into a fresh buffer, this
        read 7 894 and 6 083 (a ``malloc_ns`` more at the head and at the
        client); while the tail acked an entry once it had applied it,
        this read 8 794 and 6 983 (one ``kv_put_ns`` more); while the head
        answered, once each member had written its commit into its
        predecessor's cell, 12 397 and 8 784, 3 613 apart; while each
        member also applied before it forwarded, 14 197 and 9 684."""
        world, directory, nodes, (client,) = build_cluster(
            n_nodes=members, replication=members)
        out = {}

        def pushes():
            return [world.tracer.get("%s.catmint.%s" % (node.name,
                                                        names.PUSHES))
                    for node in nodes]

        def driver():
            yield world.sim.timeout(50 * _US)
            yield from client.put(b"warm", b"up")
            yield world.sim.timeout(400 * _US - world.sim.now)
            issued, before = world.sim.now, pushes()
            yield from client.put(b"key", b"value")
            out["put_ns"] = world.sim.now - issued
            out["pushed"] = [n - b for n, b in zip(pushes(), before)]
            yield from client.close()

        run_driver(world, driver())
        assert out["put_ns"] == put_ns
        assert out["pushed"] == [0] * (members - 1) + [1]
        for node in nodes:
            chain = node.chains[0]
            assert chain.applied == len(chain.log) == 2
            assert world.tracer.get(
                "%s.%s" % (node.name, names.REPL_ENTRIES_APPLIED)) == 2
        assert_no_lost_wakeup(nodes)

    def test_a_read_at_the_tail_waits_for_the_writes_acked_before_it(self):
        """The tail's core is held up for 500 us as five PUTs of one key
        reach it.  The tail acks each as it logs it, so all five complete
        with no retry, in a small part of ``REQUEST_TIMEOUT_NS``, while
        its applier still owes its engine all five.  A GET that reaches
        the tail during the hold waits for those applies: it returns
        ``v5``, and not before the hold ends.  Without that wait the FIFO
        core lets each of the GET's three charges (wait, parse, lookup)
        slip in between two applies, and it reads ``v3``."""
        world, directory, nodes, (client,) = build_cluster()
        tail = nodes[2]
        chain = tail.chains[0]
        hold_ns = 500 * _US
        seen = {}

        def driver():
            sim = world.sim
            yield sim.timeout(50 * _US)
            yield from client.put(b"warm", b"up")
            held_at = sim.now
            tail.libos.core.charge_async(hold_ns)
            for i in range(1, 6):
                yield from client.put(b"k", b"v%d" % i)
            seen["puts_ns"] = sim.now - held_at
            # Late enough that the GET's wait for the core stays within
            # its own REQUEST_TIMEOUT_NS.
            yield sim.timeout(held_at + 200 * _US - sim.now)
            seen["owed"] = len(chain.log) - chain.applied
            seen["get"] = yield from client.get(b"k")
            seen["get_after_hold_ns"] = sim.now - (held_at + hold_ns)
            yield from client.close()

        run_driver(world, driver())
        assert seen["puts_ns"] < REQUEST_TIMEOUT_NS // 10
        assert seen["owed"] == 5
        assert seen["get"] == (True, b"v5")
        assert seen["get_after_hold_ns"] >= 0
        assert world.tracer.get(
            "cl0.catmint.%s" % names.REPL_CLIENT_RETRIES) == 0
        assert world.tracer.get("replica2.%s" % names.REPL_REDIRECTS) == 0

    def test_a_relinked_pump_cannot_strand_a_logged_entry(self):
        """The tail logs an entry while its core is held up, so the apply
        is still owed when - at that very instant - its uplink is torn
        down and the predecessor syncs in again.  The pump that logged
        the entry is gone; the applier, which belongs to the node and to
        no link, applies it exactly once, and the new link resumes from
        what the tail has *logged* (an apply living in the pump would die
        with it, and the replay would skip the entry as a duplicate)."""
        world, directory, nodes, (client,) = build_cluster()
        _head, middle, tail = nodes
        chain = tail.chains[0]
        seen = {}

        def relink():
            seen["at_relink"] = (chain.applied, len(chain.log))
            tail._teardown_up(chain)
            middle._teardown_down(middle.chains[0])
            middle.schedule_reconfigure()

        # In an event of its own: the pump that is logging must not tear
        # itself down.
        on_logged(chain, 2, lambda: world.sim.call_in(0, relink))

        def driver():
            yield world.sim.timeout(50 * _US)
            yield from client.put(b"k1", b"v1")
            seen["old_pump"] = chain.up.procs[0]
            tail.libos.core.charge_async(40 * _US)
            yield from client.put(b"k2", b"v2")
            seen["get"] = yield from client.get(b"k2")
            yield world.sim.timeout(100 * _US)   # the middle syncs in again
            yield from client.close()

        run_driver(world, driver())
        assert seen["at_relink"] == (1, 2)     # logged, apply still owed
        assert not seen["old_pump"].alive
        assert seen["get"] == (True, b"v2")
        assert directory.alive == {"replica0", "replica1", "replica2"}
        assert chain.applied == len(chain.log) == 2
        assert world.tracer.get(
            "replica2.%s" % names.REPL_ENTRIES_APPLIED) == 2
        assert world.tracer.get("replica2.%s" % names.REPL_SYNCS) == 2
        assert_no_lost_wakeup(nodes)

    def test_the_ack_does_not_wait_for_an_upstream_apply(self):
        """The head's core is held up for 30 us right after it logs an
        entry.  The entry is forwarded all the same - posting a one-sided
        write waits for no core - logged at the tail and acknowledged from
        there, long before the head's own apply: an acked write is logged
        on every member.  While the ack walked back up the chain, the head
        answered only once that apply had ended."""
        stall_ns = 30 * _US
        world, directory, nodes, (client,) = build_cluster()
        head = nodes[0]
        seen = {}

        def stall():
            head.libos.core.charge_async(stall_ns)
            seen["stalled_at"] = world.sim.now

        on_logged(head.chains[0], 2, stall)

        def driver():
            yield world.sim.timeout(50 * _US)
            yield from client.put(b"k1", b"v1")
            yield from client.put(b"k2", b"v2")
            seen["acked_at"] = world.sim.now
            seen["applied"] = [node.chains[0].applied for node in nodes]
            yield world.sim.timeout(stall_ns)
            yield from client.close()

        run_driver(world, driver())
        assert seen["acked_at"] < seen["stalled_at"] + stall_ns
        assert seen["applied"] == [1, 2, 2]
        for node in nodes:
            assert node.chains[0].applied == len(node.chains[0].log) == 2
        assert world.tracer.get(
            "cl0.catmint.%s" % names.REPL_CLIENT_RETRIES) == 0


def cursor_reads(world, node):
    """The RDMA READs *node*'s NIC issued: on the replication plane only
    a ring producer's cursor fallback issues one."""
    return world.tracer.get("%s.%s" % (node.nic.name,
                                       names.tx_packet_kind("read_req")))


class TestForwardWindow:
    """A link's flow control reads the cursor its successor's heartbeat
    publishes, and its forwarder keeps the ring's window of WRITEs in
    flight."""

    def test_a_healthy_chain_reads_no_cursor(self):
        """100 PUTs through an idle 3-chain - three times around each
        32-slot ring - and no member READs its successor's cursor: the
        heartbeat brings it, at most 20 us old, and the ring never looks
        full by that.  While the producer READ the cursor whenever it had
        gone ``N_SLOTS`` entries without one, each forwarding member
        issued three."""
        world, directory, nodes, (client,) = build_cluster()
        n_puts = 100
        assert n_puts > 3 * N_SLOTS

        def driver():
            yield world.sim.timeout(50 * _US)
            for i in range(n_puts):
                yield from client.put(b"key-%d" % (i % 8), b"value-%d" % i)
            yield from client.close()

        run_driver(world, driver())
        assert [cursor_reads(world, node) for node in nodes] == [0, 0, 0]
        for node in nodes:
            chain = node.chains[0]
            assert chain.applied == len(chain.log) == n_puts
            if chain.down is not None:
                assert chain.down.producer.full_stalls == 0
        assert_no_lost_wakeup(nodes)

    def test_two_entries_logged_together_land_a_slot_apart(self):
        """The head logs two entries in one instant.  Both WRITEs are
        posted at once, so the second lands in the successor's log a
        slot's transfer after the first - less than the one WRITE
        completion the forwarder used to wait for between them."""
        world, directory, nodes, (client,) = build_cluster()
        head, middle, _tail = nodes
        landed, completed, seen = [], [], {}
        on_logged(middle.chains[0], 2, lambda: landed.append(world.sim.now))
        on_logged(middle.chains[0], 3, lambda: landed.append(world.sim.now))

        def driver():
            yield world.sim.timeout(50 * _US)
            yield from client.put(b"warm", b"up")
            ops = head.chains[0].down.ops
            complete = ops.complete

            def timed_complete(wr):
                yield from complete(wr)
                completed.append(world.sim.now)

            ops.complete = timed_complete
            seen["logged_at"] = world.sim.now
            chain = head.chains[0]
            for i in (1, 2):
                # No client named tag 0 here: the tail acks no one.
                head._log(chain, (0, i, b"k%d" % i, b"v%d" % i))
            yield world.sim.timeout(20 * _US)
            yield from client.close()

        run_driver(world, driver())
        first_round_trip = completed[0] - seen["logged_at"]
        assert len(landed) == 2 and len(completed) == 2
        assert 0 < landed[1] - landed[0] < first_round_trip
        assert landed[1] < completed[0]
        for node in nodes:
            chain = node.chains[0]
            assert chain.applied == len(chain.log) == 3
        assert_no_lost_wakeup(nodes)

    def test_a_ring_that_is_really_full_stops_the_producer(
            self, monkeypatch):
        """The middle's pump is held while the head logs ``N_SLOTS`` + 8
        entries.  The head posts exactly ``N_SLOTS`` - the heartbeat's
        cursor says the ring is full - and falls back to READing the
        in-ring cursor, which says so too: it stalls.  Released, the
        middle and the tail log every entry once, in order."""
        world, directory, nodes, (client,) = build_cluster()
        head, middle, tail = nodes
        held, release = [True], WaitQueue(world.sim, "test.release")
        pop = LocalRingConsumer.pop

        def held_pop(consumer):
            while held[0] and consumer.host is middle.host:
                yield release.wait()
            return (yield from pop(consumer))

        monkeypatch.setattr(LocalRingConsumer, "pop", held_pop)
        entries = [(0, i, b"k%02d" % i, b"v%02d" % i)
                   for i in range(N_SLOTS + 8)]
        seen = {}

        def driver():
            yield world.sim.timeout(100 * _US)   # every link is up
            chain = head.chains[0]
            for entry in entries:
                head._log(chain, entry)
            yield world.sim.timeout(60 * _US)
            producer = chain.down.producer
            seen["posted"] = producer.next_seq - 1
            seen["stalls"] = producer.full_stalls
            seen["reads"] = cursor_reads(world, head)
            seen["middle_logged"] = len(middle.chains[0].log)
            held[0] = False
            release.pulse()
            yield world.sim.timeout(200 * _US)
            yield from client.close()

        run_driver(world, driver())
        assert seen["posted"] == N_SLOTS
        assert seen["middle_logged"] == 0
        assert seen["stalls"] > 0 and seen["reads"] > 0
        for node in nodes:
            chain = node.chains[0]
            assert chain.log == entries, node.name
            assert chain.applied == len(entries)
        assert directory.alive == {"replica0", "replica1", "replica2"}
        assert_no_lost_wakeup(nodes)


class TestFailover:
    @pytest.fixture(autouse=True)
    def log_invariant(self, monkeypatch):
        """``applied <= len(log)`` on every chain of a node, at every pop
        of each of its pumps and after every entry it logs - through the
        crash, the splice and the replay."""
        checked = set()

        def check(node):
            for chain in node.chains.values():
                assert chain.applied <= len(chain.log), (
                    node.name, chain.applied, len(chain.log))
            checked.add(node.name)

        pump, log = ReplicaNode._pump, ReplicaNode._log

        def checked_pump(node, chain, link):
            pop = link.consumer.pop

            def checked_pop():
                payload = yield from pop()
                check(node)
                return payload

            link.consumer.pop = checked_pop
            return pump(node, chain, link)

        def checked_log(node, chain, entry):
            log(node, chain, entry)
            check(node)

        monkeypatch.setattr(ReplicaNode, "_pump", checked_pump)
        monkeypatch.setattr(ReplicaNode, "_log", checked_log)
        yield
        assert checked == {"replica0", "replica1", "replica2"}

    def crash(self, world, node):
        world.sim.spawn(node.crash(), name="%s.crash" % node.name)

    def test_tail_death_recruits_spare_and_replays_full_log(self):
        """replication=2 over 3 nodes: chain 0 is [replica0, replica1];
        killing the tail must recruit replica2 from scratch - the whole
        log replays into it and it becomes the new commit point."""
        world, directory, nodes, (client,) = build_cluster(replication=2)
        out = {}

        def driver():
            yield world.sim.timeout(50 * _US)
            for i in range(6):
                yield from client.put(b"rk-%d" % i, b"rv-%d" % i)
            self.crash(world, nodes[1])
            yield world.sim.timeout(2 * _MS)  # detect + splice + replay
            for i in range(6, 10):
                yield from client.put(b"rk-%d" % i, b"rv-%d" % i)
            reads = []
            for i in range(10):
                found, value = yield from client.get(b"rk-%d" % i)
                reads.append((found, bytes(value)))
            yield from client.close()
            out["reads"] = reads

        run_driver(world, driver())
        assert out["reads"] == [(True, b"rv-%d" % i) for i in range(10)]
        assert directory.chain_members(0) == ["replica0", "replica2"]
        recruit = nodes[2].chains[0]
        assert recruit.applied == len(recruit.log) == 10
        assert world.tracer.get("replica0.%s" % names.REPL_ENTRIES_REPLAYED) \
            >= 6  # the pre-crash log reached the recruit
        assert world.tracer.get("replica1.reclaim.runs") == 1
        assert_no_lost_wakeup(nodes)

    def test_middle_death_splices_the_chain_around_it(self):
        """Three replicas, the middle one dies: its predecessor syncs
        straight into its successor, every acked write is on both, and
        the pump and lease monitor the splice tore down (parked on and
        sampling buffers it freed) left nothing behind."""
        world, directory, nodes, (client,) = build_cluster()
        out = {}

        def driver():
            yield world.sim.timeout(50 * _US)
            for i in range(6):
                yield from client.put(b"mk-%d" % i, b"mv-%d" % i)
            out["old_links"] = (nodes[0].chains[0].down,
                                nodes[2].chains[0].up)
            self.crash(world, nodes[1])
            yield world.sim.timeout(2 * _MS)  # detect + splice
            for i in range(6, 10):
                yield from client.put(b"mk-%d" % i, b"mv-%d" % i)
            reads = []
            for i in range(10):
                found, value = yield from client.get(b"mk-%d" % i)
                reads.append((found, bytes(value)))
            yield from client.close()
            out["reads"] = reads

        run_driver(world, driver())
        assert out["reads"] == [(True, b"mv-%d" % i) for i in range(10)]
        assert directory.chain_members(0) == ["replica0", "replica2"]
        for node in (nodes[0], nodes[2]):
            chain = node.chains[0]
            assert chain.applied == len(chain.log) == 10
        assert nodes[2].chains[0].up.peer == "replica0"
        old_down, old_up = out["old_links"]
        assert old_down.hb_cell.deallocated and old_up.arena.deallocated
        assert not any(proc.alive for proc in old_down.procs + old_up.procs)
        assert_no_lost_wakeup(nodes)

    def test_a_put_whose_head_dies_after_forwarding_is_acked_by_the_tail(
            self):
        """The head logs a PUT, forwards it, and dies in the instant its
        successor logs it.  The tail applies the entry and acks the
        client, which waits on its head and tail connections at once: the
        PUT completes with no retry, and reads back through the new head's
        chain.  While the head answered, the client timed out and wrote
        the value again."""
        world, directory, nodes, (client,) = build_cluster()
        head, middle, _tail = nodes
        out = {}
        on_logged(middle.chains[0], 2,
                  lambda: self.crash(world, head))

        def driver():
            yield world.sim.timeout(50 * _US)
            yield from client.put(b"k1", b"v1")
            yield from client.put(b"k2", b"v2")
            yield world.sim.timeout(2 * _MS)   # detected and spliced
            out["get"] = yield from client.get(b"k2")
            yield from client.close()

        run_driver(world, driver())
        assert head.crashed
        assert world.tracer.get("%s.reclaim.runs" % head.host.name) == 1
        assert directory.head(0) == "replica1"
        assert out["get"] == (True, b"v2")
        assert world.tracer.get(
            "cl0.catmint.%s" % names.REPL_CLIENT_RETRIES) == 0
        assert_no_lost_wakeup(nodes)

    def test_head_death_loses_no_acked_write(self):
        world, directory, nodes, (client,) = build_cluster()
        acked = {}
        out = {"unacked": 0}

        def driver():
            yield world.sim.timeout(50 * _US)
            for i in range(4):
                yield from client.put(b"hk-%d" % i, b"hv-%d" % i)
                acked[b"hk-%d" % i] = b"hv-%d" % i
            self.crash(world, nodes[0])
            for i in range(4, 12):
                key, val = b"hk-%d" % i, b"hv-%d" % i
                try:
                    yield from client.put(key, val)
                    acked[key] = val
                except RetryBudgetExceeded:
                    out["unacked"] += 1
            yield world.sim.timeout(2 * _MS)
            for key, val in sorted(acked.items()):
                found, value = yield from client.get(key)
                assert found and bytes(value) == val, \
                    "acked write %r lost" % key
            yield from client.close()

        run_driver(world, driver())
        assert directory.head(0) == "replica1"
        assert len(acked) >= 4
        survivors = nodes[1:]
        states = {(n.chains[0].applied, len(n.chains[0].log))
                  for n in survivors}
        assert len(states) == 1
        applied, logged = states.pop()
        assert applied == logged
        assert_no_lost_wakeup(nodes)

    def test_a_promoted_tail_serves_no_read_below_what_the_old_tail_served(
            self):
        """The middle's core is held up while eight PUTs of one key pass
        through it: logged and forwarded there, logged - acked - and read
        at the tail.  The tail dies and the middle is the tail.  Its
        applier still owes its engine most of those entries, and the FIFO
        core lets a GET's charges slip in between two applies: unguarded
        it answered ``v4`` to the reader that had already seen ``v8``.  A
        read at the tail waits until what the tail had logged when the
        read arrived is applied, so the promoted tail answers ``v8`` - no
        redirect, no retry.  (Until the tail acked as it logged, a
        promoted tail answered ``STATUS_MOVED`` below a floor it set at
        promotion, and the router's retry read on from there.)"""
        world, directory, nodes, clients = build_cluster(n_clients=9)
        _head, middle, tail = nodes
        reader, writers = clients[0], clients[1:]
        chain = middle.chains[0]
        seen = {}

        def version(reply):
            found, value = reply
            assert found
            return int(bytes(value)[1:])

        def driver():
            sim = world.sim
            yield sim.timeout(50 * _US)
            for writer in writers:                  # open every connection
                yield from writer.put(b"k", b"v0")
            yield from reader.get(b"k")
            middle.libos.core.charge_async(300 * _US)
            puts = [sim.spawn(writer.put(b"k", b"v%d" % (i + 1)))
                    for i, writer in enumerate(writers)]
            yield sim.timeout(25 * _US)
            seen["at_old_tail"] = version((yield from reader.get(b"k")))
            seen["owed"] = len(chain.log) - chain.applied
            self.crash(world, tail)
            yield sim.timeout(150 * _US)            # detected, promoted
            seen["promoted"] = directory.tail(0)
            seen["owed_at_read"] = len(chain.log) - chain.applied
            seen["at_new_tail"] = version((yield from reader.get(b"k")))
            for put in puts:
                yield put
            for client in clients:
                yield from client.close()

        run_driver(world, driver())
        assert seen["promoted"] == "replica1"
        assert seen["owed"] >= 7 and seen["owed_at_read"] >= 7
        assert seen["at_new_tail"] >= seen["at_old_tail"] >= 7
        assert world.tracer.get("replica1.%s" % names.REPL_REDIRECTS) == 0
        assert world.tracer.get(
            "cl0.catmint.%s" % names.REPL_CLIENT_RETRIES) == 0


class TestPromotionAcks:
    """A member promoted to tail acks, once each, what it has logged and
    not applied; a tail acks each entry as it logs it; no node acks one
    entry twice."""

    def recording_acks(self, monkeypatch):
        """Every ack a node pushes, as ``(node, chain, seq)``."""
        acks = []
        ack = ReplicaNode._ack

        def recording(node, chain, seq):
            name = "%s.%s" % (node.name, names.REPL_WRITES_ACKED)
            before = node.host.tracer.get(name)
            ack(node, chain, seq)
            if node.host.tracer.get(name) != before:
                acks.append((node.name, chain.chain_id, seq))

        monkeypatch.setattr(ReplicaNode, "_ack", recording)
        return acks

    def test_a_promoted_tail_acks_what_it_logged_and_had_not_applied(
            self, monkeypatch):
        """Two members, four writers.  In the instant the head logs the
        first of four concurrent PUTs its core is held up for 300 us and
        the tail dies before any of the four reaches it.  The head logs
        all four and is promoted while its applier still owes its engine
        every one of them: it acks each once, at promotion - long before
        the hold ends and it applies them - and every PUT completes
        without a retry."""
        world, directory, nodes, clients = build_cluster(
            n_nodes=2, replication=2, n_clients=4)
        head, tail = nodes
        chain = head.chains[0]
        acks = self.recording_acks(monkeypatch)
        seen = {}

        def hold_and_kill():
            head.libos.core.charge_async(300 * _US)
            seen["hold_ends"] = world.sim.now + 300 * _US
            world.sim.spawn(tail.crash(), name="replica1.crash")

        on_logged(chain, 5, hold_and_kill)
        reconfigure = head.schedule_reconfigure

        def promoted():
            seen["at_promotion"] = (chain.applied, len(chain.log))
            reconfigure()

        def driver():
            sim = world.sim
            yield sim.timeout(50 * _US)
            for client in clients:                 # open every connection
                yield from client.put(b"k", b"v0")
            head.schedule_reconfigure = promoted
            puts = [sim.spawn(client.put(b"k", b"v%d" % (i + 1)))
                    for i, client in enumerate(clients)]
            for put in puts:
                yield put
            seen["puts_done"] = sim.now
            seen["get"] = yield from clients[0].get(b"k")
            for client in clients:
                yield from client.close()

        run_driver(world, driver())
        applied, logged = seen["at_promotion"]
        assert directory.chain_members(0) == ["replica0"]
        assert (applied, logged) == (4, 8)
        assert seen["puts_done"] < seen["hold_ends"]
        assert [seq for name, _c, seq in acks if name == "replica0"] == \
            list(range(applied + 1, logged + 1))
        assert world.tracer.get("replica0.%s" % names.REPL_WRITES_ACKED) \
            == logged - applied
        assert sum(world.tracer.get("cl%d.catmint.%s"
                                    % (i, names.REPL_CLIENT_RETRIES))
                   for i in range(4)) == 0
        assert seen["get"][0]

    @pytest.mark.parametrize("scenario", ["replica-crash-head",
                                          "replica-crash-middle",
                                          "replica-crash-tail"])
    def test_no_node_acks_an_entry_twice(self, scenario, monkeypatch):
        """Through each pinned crash - a splice, a recruit-free promotion
        of the middle, a new head - every ack a node pushes is for an
        entry it has not acked before, and ``repl_writes_acked`` counts
        exactly those."""
        acks = self.recording_acks(monkeypatch)
        result = run_scenario(scenario, "rdma").require_ok()
        assert acks and len(set(acks)) == len(acks)
        assert sum(value for name, value in result.counters.items()
                   if name.endswith("." + names.REPL_WRITES_ACKED)) \
            == len(acks)


class TestCrashInsideTheSyncHandshake:
    """The initial wiring: replica0 syncs into replica1 and replica1 into
    replica2, 60 000 - 64 800 ns in.  A node is killed at every time the
    engine scheduled anything in that window (and 1 ns later) - as the
    connecting side, the accepting side, or both: the run must end, the
    dead host must be reclaimed to nothing, and no survivor may write
    into memory the dead one gave back.  Both defects were found by
    ``tests/property/test_crash_points.py``: an interrupt is delivered a
    turn after ``crash()`` has freed everything, so ``_connect_down``'s
    clean-up freed its cells twice and took the simulation down; and a QP
    between ``connect`` / ``accept`` and its link object was in no link
    for ``crash()`` to destroy, outlived its owner, and the peer's
    SYNC_RESP landed in reclaimed memory."""

    WIRING_NS = (60_000, 64_800)

    def handshake_times(self):
        world = build_cluster(n_clients=0)[0]
        schedule_at, times = world.sim._schedule_at, set()

        def recording(when, fn, args=()):
            times.add(when)
            return schedule_at(when, fn, args)

        world.sim._schedule_at = recording
        world.run(until=self.WIRING_NS[1])
        return sorted(t for t in times if t >= self.WIRING_NS[0])

    @pytest.mark.parametrize("victim", [0, 1, 2])
    def test_the_dead_host_is_reclaimed_and_nothing_lands_in_it(self, victim):
        times = self.handshake_times()
        assert len(times) >= 10, times
        for at in (t + after for t in times for after in (0, 1)):
            world, directory, nodes, _clients = build_cluster(n_clients=0)
            node = nodes[victim]
            world.sim.call_in(at, lambda: world.sim.spawn(
                node.crash(), name="crash"))
            world.run(until=at + 4 * _MS)   # a double free raises out of here
            assert world.tracer.get(
                "%s.reclaim.runs" % node.host.name) == 1, at
            assert node.mm.live_buffer_count == 0, at
            assert node.nic.iommu.mapped_ranges == 0, at
            faults = {name: value
                      for name, value in world.tracer.counters.items()
                      if name.endswith(".%s" % names.IOMMU_FAULTS) and value}
            assert not faults, (at, faults)
