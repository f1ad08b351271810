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

    def test_put_latency_does_not_depend_on_when_it_was_issued(self):
        """The same PUT on an idle chain, issued at eight start offsets
        750 ns apart, takes exactly the same time.  The pumps and commit
        monitors used to sleep 2 and 3 us between looks at their own
        memory, so a PUT (two rings, two commit cells) took 18 099 to
        21 099 ns depending on the phase of four poll clocks; eight
        offsets of 750 ns are one full period of both.  A GET, which
        crosses no ring, never depended on it."""
        puts, gets = set(), set()
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
                gets.add(world.sim.now - acked)
                yield from client.close()

            run_driver(world, driver())
            assert_no_lost_wakeup(nodes)
        assert len(puts) == 1, sorted(puts)
        assert gets == {4_971}     # before and after the pumps stopped polling

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


class TestFailover:
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
