"""The chain-replicated multi-host KV tier (repro.cluster.replica)."""

import pytest

from repro.cluster.client import ReplicatedKvClient
from repro.cluster.replica import (DEFAULT_KV_PORT, ClusterDirectory,
                                   ReplicaNode, decode_entry, encode_entry)
from repro.core.retry import RetryBudgetExceeded
from repro.core.types import DemiError, DemiTimeout
from repro.libos.rdma_libos import RdmaLibOS
from repro.rdma.cm import RdmaCm
from repro.rmem.ring import decode_record
from repro.sim.rand import Rng
from repro.telemetry import names

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

    A pump or commit monitor parks on the writer's signal instead of
    polling, so a wake-up lost anywhere would strand data for good: a
    commit cell above what its node believes committed, or a decodable
    record in the slot a consumer is waiting on.  And no wake-up was for
    nothing - ``empty_polls`` is the ring's ``wasted_wakeups``.
    """
    for node in nodes:
        if node.crashed:
            continue
        for chain in node.chains.values():
            if chain.down is not None:
                cell = int.from_bytes(chain.down.commit_cell.read(0, 8),
                                      "big")
                assert cell <= chain.committed, (node.name, cell)
            if chain.up is not None:
                consumer, ring = chain.up.consumer, chain.up.ring
                slot = node.mm.read_mem(ring.slot_addr(consumer.next_seq),
                                        ring.slot_size)
                assert decode_record(slot, consumer.next_seq,
                                     ring.max_payload) is None, node.name
                assert consumer.empty_polls == 0, node.name


def on_logged(chain, seq, action):
    """Run *action* in the instant *chain* logs entry *seq*, whoever logs
    it: before the forwarder, the applier or anything else it wakes."""
    class Log(list):
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
        for seq, key, value in [(1, b"k", b"v"), (2 ** 40, b"key-xyz", b""),
                                (7, b"", b"x" * 300)]:
            assert decode_entry(encode_entry(seq, key, value)) == (seq, key,
                                                                   value)


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
        # An acked write lives on EVERY chain member, applied == committed.
        for node in nodes:
            chain = node.chains[0]
            assert chain.applied == 8 and chain.committed == 8
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
        # 4 971 before and after the pumps stopped polling.  Since a PUT
        # waits out one apply instead of three (1.8 us shorter), phase 1's
        # GET reaches the tail 199 ns after the tail's own heartbeat
        # writer rang its doorbell: `doorbell_ns` (200) is charged to the
        # tail's one core, which frees 1 ns after the request arrives.  A
        # collision can cost a GET at most one doorbell.
        assert {ns for k, ns in gets.items() if k != 1} == {4_971}
        assert gets[1] == 4_972

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
                qd, libos.sga_alloc(LegacyKvCodec().encode_request(
                    Request(op="get", key=b"moved-key"))))
            result = yield from libos.blocking_pop(qd)
            out["status"] = result.sga.tobytes()[0]
            yield from libos.close(qd)
            yield from client.close()

        run_driver(world, driver())
        assert out["status"] == STATUS_MOVED
        assert world.tracer.get("replica0.%s" % names.REPL_REDIRECTS) >= 1


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
        assert all(node.chains[0].committed == 3 for node in nodes)


class TestLogForwardApply:
    """A member logs an entry, forwards it, and applies it - in that
    order, the apply in a process of its own."""

    @pytest.mark.parametrize("members,put_ns", [(3, 12_397), (2, 8_784)])
    def test_a_put_pays_for_one_apply_whatever_the_chain_length(
            self, members, put_ns):
        """An idle PUT costs its transport, one parse and ONE apply - the
        tail's, the commit point.  Every member logs and forwards an entry
        before it applies it, so the head's and a middle's applies (900 ns
        each) overlap the forward: a member more adds one forward and one
        commit write, 12 397 - 8 784 = 3 613 ns, and nothing else.  While
        each member applied before it forwarded this read 14 197 and
        9 684, 4 513 apart."""
        world, directory, nodes, (client,) = build_cluster(
            n_nodes=members, replication=members)
        out = {}

        def driver():
            yield world.sim.timeout(50 * _US)
            yield from client.put(b"warm", b"up")
            yield world.sim.timeout(400 * _US - world.sim.now)
            issued = world.sim.now
            yield from client.put(b"key", b"value")
            out["put_ns"] = world.sim.now - issued
            yield from client.close()

        run_driver(world, driver())
        assert out["put_ns"] == put_ns
        for node in nodes:
            chain = node.chains[0]
            assert chain.committed == chain.applied == len(chain.log) == 2
            assert world.tracer.get(
                "%s.%s" % (node.name, names.REPL_ENTRIES_APPLIED)) == 2
        assert_no_lost_wakeup(nodes)

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
            yield from client.close()

        run_driver(world, driver())
        assert seen["at_relink"] == (1, 2)     # logged, apply still owed
        assert not seen["old_pump"].alive
        assert seen["get"] == (True, b"v2")
        assert directory.alive == {"replica0", "replica1", "replica2"}
        assert chain.committed == chain.applied == len(chain.log) == 2
        assert world.tracer.get(
            "replica2.%s" % names.REPL_ENTRIES_APPLIED) == 2
        assert world.tracer.get("replica2.%s" % names.REPL_SYNCS) == 2
        assert_no_lost_wakeup(nodes)

    def test_a_commit_that_beats_the_apply_is_remembered(self):
        """The head's core is held up for 30 us right after it logs an
        entry: the entry is forwarded, applied at the tail and its commit
        watermark is back in the head's cell (~10 us) long before the
        head's own apply.  The watermark is remembered, and the PUT is
        acknowledged when that apply ends - not at the next PUT's commit
        and not after ``COMMIT_TIMEOUT_NS``, as with a watermark clamped
        to ``applied`` and forgotten."""
        stall_ns = 30 * _US
        world, directory, nodes, (client,) = build_cluster()
        head = nodes[0]
        chain = head.chains[0]
        seen = {}

        def stall():
            head.libos.core.charge_async(stall_ns)
            seen["stalled_at"] = world.sim.now
            world.sim.call_in(stall_ns // 2, lambda: seen.update(midway=(
                int.from_bytes(chain.down.commit_cell.read(0, 8), "big"),
                chain.applied, chain.committed)))

        on_logged(chain, 2, stall)

        def driver():
            yield world.sim.timeout(50 * _US)
            yield from client.put(b"k1", b"v1")
            yield from client.put(b"k2", b"v2")
            seen["acked_at"] = world.sim.now
            yield from client.close()

        run_driver(world, driver())
        # Midway the tail's watermark is in the cell, the apply to come.
        assert seen["midway"] == (2, 1, 1)
        apply_ends = (seen["stalled_at"] + stall_ns
                      + head.engine.service_cost("set"))
        # The reply leaves when the apply ends and takes a GET's way back.
        assert apply_ends < seen["acked_at"] < apply_ends + 4_971
        assert chain.committed == chain.applied == len(chain.log) == 2
        assert world.tracer.get(
            "cl0.catmint.%s" % names.REPL_CLIENT_RETRIES) == 0

class TestFailover:
    @pytest.fixture(autouse=True)
    def log_invariant(self, monkeypatch):
        """``committed <= applied <= len(log)`` on every chain of a node,
        at every pop of each of its pumps and after every apply (and every
        watermark heard) - through the crash, the splice and the replay."""
        checked = set()

        def check(node):
            for chain in node.chains.values():
                assert chain.committed <= chain.applied <= len(chain.log), (
                    node.name, chain.committed, chain.applied, len(chain.log))
            checked.add(node.name)

        pump, advance = ReplicaNode._pump, ReplicaNode._advance_commit

        def checked_pump(node, chain, link):
            pop = link.consumer.pop

            def checked_pop():
                payload = yield from pop()
                check(node)
                return payload

            link.consumer.pop = checked_pop
            return pump(node, chain, link)

        def checked_advance(node, chain, heard):
            advance(node, chain, heard)
            check(node)

        monkeypatch.setattr(ReplicaNode, "_pump", checked_pump)
        monkeypatch.setattr(ReplicaNode, "_advance_commit", checked_advance)
        yield
        assert checked == {"replica0", "replica1", "replica2"}

    def crash(self, world, node, reports):
        world.sim.spawn(node.crash(report_to=reports),
                        name="%s.crash" % node.name)

    def test_tail_death_recruits_spare_and_replays_full_log(self):
        """replication=2 over 3 nodes: chain 0 is [replica0, replica1];
        killing the tail must recruit replica2 from scratch - the whole
        log replays into it and it becomes the new commit point."""
        world, directory, nodes, (client,) = build_cluster(replication=2)
        reports = []
        out = {}

        def driver():
            yield world.sim.timeout(50 * _US)
            for i in range(6):
                yield from client.put(b"rk-%d" % i, b"rv-%d" % i)
            self.crash(world, nodes[1], reports)
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
        assert recruit.applied == 10 and recruit.committed == 10
        assert world.tracer.get("replica0.%s" % names.REPL_ENTRIES_REPLAYED) \
            >= 6  # the pre-crash log reached the recruit
        assert reports and reports[0].as_dict()
        assert_no_lost_wakeup(nodes)

    def test_middle_death_splices_the_chain_around_it(self):
        """Three replicas, the middle one dies: its predecessor syncs
        straight into its successor, every acked write is on both, and
        the pump and commit monitor the splice tore down (parked on
        buffers it freed) left nothing behind."""
        world, directory, nodes, (client,) = build_cluster()
        reports = []
        out = {}

        def driver():
            yield world.sim.timeout(50 * _US)
            for i in range(6):
                yield from client.put(b"mk-%d" % i, b"mv-%d" % i)
            out["old_links"] = (nodes[0].chains[0].down,
                                nodes[2].chains[0].up)
            self.crash(world, nodes[1], reports)
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
            assert chain.applied == 10 and chain.committed == 10
        assert nodes[2].chains[0].up.peer == "replica0"
        old_down, old_up = out["old_links"]
        assert old_down.commit_cell.deallocated and old_up.arena.deallocated
        assert not any(proc.alive for proc in old_down.procs + old_up.procs)
        assert_no_lost_wakeup(nodes)

    def test_head_death_loses_no_acked_write(self):
        world, directory, nodes, (client,) = build_cluster()
        reports = []
        acked = {}
        out = {"unacked": 0}

        def driver():
            yield world.sim.timeout(50 * _US)
            for i in range(4):
                yield from client.put(b"hk-%d" % i, b"hv-%d" % i)
                acked[b"hk-%d" % i] = b"hv-%d" % i
            self.crash(world, nodes[0], reports)
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
        states = {(n.chains[0].applied, n.chains[0].committed)
                  for n in survivors}
        assert len(states) == 1
        applied, committed = states.pop()
        assert applied == committed
        assert_no_lost_wakeup(nodes)

    def test_a_promoted_tail_serves_no_read_below_what_the_old_tail_served(
            self):
        """The middle's core is held up while eight PUTs of one key pass
        through it: logged and forwarded there, applied - and read - at
        the tail.  The tail dies and the middle is the tail.  Its applier
        still owes its engine most of those entries, and the FIFO core
        lets a GET's charges slip in between two applies: unguarded it
        answered ``v4`` to the reader that had already seen ``v8``.  It
        answers ``STATUS_MOVED`` until it has applied what it had logged
        when it was promoted, and the router's retry reads on from
        there."""
        world, directory, nodes, clients = build_cluster(n_clients=9)
        _head, middle, tail = nodes
        reader, writers = clients[0], clients[1:]
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
            seen["owed"] = (len(middle.chains[0].log)
                            - middle.chains[0].applied)
            self.crash(world, tail, [])
            yield sim.timeout(150 * _US)            # detected, promoted
            seen["at_new_tail"] = version((yield from reader.get(b"k")))
            for put in puts:
                yield put
            for client in clients:
                yield from client.close()

        run_driver(world, driver())
        assert directory.tail(0) == "replica1"
        assert seen["owed"] >= 7
        assert seen["at_new_tail"] >= seen["at_old_tail"] >= 7
        assert world.tracer.get("replica1.%s" % names.REPL_REDIRECTS) >= 1


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
            node, reports = nodes[victim], []
            world.sim.call_in(at, lambda: world.sim.spawn(
                node.crash(report_to=reports), name="crash"))
            world.run(until=at + 4 * _MS)   # a double free raises out of here
            assert reports, at
            assert node.mm.live_buffer_count == 0, at
            assert node.nic.iommu.mapped_ranges == 0, at
            faults = {name: value
                      for name, value in world.tracer.counters.items()
                      if name.endswith(".%s" % names.IOMMU_FAULTS) and value}
            assert not faults, (at, faults)
