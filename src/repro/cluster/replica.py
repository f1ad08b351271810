"""Chain-replicated multi-host KV over one-sided RDMA (the ROADMAP's
multi-host tier).

Keys consistent-hash across hosts with the same RSS-derived partition
function the single-host shards use (:func:`~repro.apps.steering.
key_partition`), so per-host RSS sharding and cross-host placement
compose.  Each key range is a *chain*: a rotation of the node list,
``replication`` members long.  Writes enter at the head, which assigns a
dense per-chain sequence number, *logs* the entry and forwards it
downstream by RDMA-WRITING a torn-write-proof record
(:mod:`repro.rmem.ring`) into the successor's replication log - the
successor's CPU, spinning on its own memory, sees the record as the
write lands (it parks on the arena's
:meth:`~repro.memory.manager.MemoryManager.watch` queue: no poll
interval), logs it, and forwards again.  Log, forward, apply - in that
order: a member's log is what it has *received*, and one applier per
chain per node works through it behind the forwarder, so the applies of
a chain overlap instead of queueing up on every PUT's path.  The
tail's apply is the *commit point*: committed sequence numbers flow back
upstream through one-sided writes into each predecessor's commit cell,
a member counts an entry committed once it has heard that *and* applied
it, and only then does the head acknowledge the client.  An acknowledged
write therefore exists on every live replica, and reads served at the
tail are linearizable per key.

Failure handling is the point.  Adjacent chain members exchange
one-sided heartbeats into each other's lease cells; a peer's death
surfaces either as a failed write (the dead host's
``crash_teardown``/:meth:`ReplicaNode.crash` destroys its QPs, so
retries exhaust into flush/``retry-exceeded`` CQEs) or as a lease
expiring.  Either way the survivor reports the death to the
:class:`ClusterDirectory`, which bumps the membership epoch and tells
every live node to *reconfigure*: stale links are torn down, the chain
is spliced around the dead node (the new upstream replays its log
suffix into the new downstream, from what that has logged - replicas are
never left behind), and a new tail declares everything it has applied
committed.  Clients route
via the directory and retry with seeded backoff
(:class:`~repro.cluster.client.ReplicatedKvClient`); a replica that is
not the right head/tail for a key answers :data:`STATUS_MOVED` so a
stale route corrects itself.
"""

from __future__ import annotations

import struct
from typing import Dict, Generator, List, Optional, Sequence

from ..apps.kvstore import KvEngine
from ..apps.proto.codec import (ST_MISS, ST_STORED, ST_VALUE, CodecError,
                                Response)
from ..apps.proto.legacy import LegacyKvCodec
from ..apps.steering import key_partition
from ..core.retry import RetryBudgetExceeded, retry_with_backoff
from ..core.types import DemiError, DemiTimeout
from ..hw.nic import QpError
from ..kernelos.reclaim import crash_teardown
from ..libos.rdma_libos import RdmaLibOS
from ..rdma.cm import RdmaCm
from ..rdma.verbs import QueuePair, VerbsError
from ..rmem.ring import (LocalRingConsumer, OneSided, RemoteRing,
                         RingProducer)
from ..sim.engine import any_of
from ..sim.rand import Rng
from ..sim.sync import WaitQueue
from ..telemetry import names

__all__ = ["ClusterDirectory", "ReplicaNode", "STATUS_MOVED",
           "encode_entry", "decode_entry", "DEFAULT_KV_PORT"]

#: a replica that is not the right chain member for the request
STATUS_MOVED = ord("M")

#: the client plane's port, on every replica and in every client
DEFAULT_KV_PORT = 6380
#: the replication plane listens one port above the client plane
REPL_PORT = DEFAULT_KV_PORT + 1

#: replication log geometry: one ring per upstream link
SLOT_SIZE = 512
N_SLOTS = 32
#: heartbeat period, and how long a silent peer keeps its lease
HB_INTERVAL_NS = 20_000
LEASE_NS = 150_000
#: how long a client write may wait on the tail before the head gives
#: up on it
COMMIT_TIMEOUT_NS = 1_000_000
#: an idle client connection is closed after this long
IDLE_TIMEOUT_NS = 2_000_000

_U64 = struct.Struct("!Q")
#: replication log entry: chain-local seq, key, value
_ENTRY = struct.Struct("!QH")   # seq, klen (value length-prefixed after key)
#: chain_id, epoch, commit-cell addr, hb-cell addr, sender-name length
_SYNC_REQ = struct.Struct("!IIQQH")
#: ring base, slot_size, n_slots, receiver's logged seq, hb-cell addr
_SYNC_RESP = struct.Struct("!QIIQQ")
_HANDSHAKE_BYTES = 256


def encode_entry(seq: int, key: bytes, value: bytes) -> bytes:
    return (_ENTRY.pack(seq, len(key)) + key
            + struct.pack("!I", len(value)) + value)


def decode_entry(payload: bytes):
    seq, klen = _ENTRY.unpack_from(payload, 0)
    key = payload[_ENTRY.size:_ENTRY.size + klen]
    (vlen,) = struct.unpack_from("!I", payload, _ENTRY.size + klen)
    off = _ENTRY.size + klen + 4
    return seq, key, payload[off:off + vlen]


class ClusterDirectory:
    """The control plane: static node list, live membership, chain maps.

    Plays the role rdmacm plays for connections - an off-fabric
    rendezvous every node and client can consult.  Membership only
    shrinks (``report_dead``); each death bumps ``epoch`` and schedules
    a reconfigure on every surviving registered node, in node-list order
    so runs replay deterministically.
    """

    def __init__(self, tracer, nodes: Sequence[str], replication: int = 3,
                 n_chains: Optional[int] = None):
        if replication < 1:
            raise DemiError("replication factor must be >= 1")
        self.node_names = list(nodes)
        self.replication = min(replication, len(self.node_names))
        self.n_chains = n_chains if n_chains is not None else len(self.node_names)
        self.alive = set(self.node_names)
        self.epoch = 0
        self.counters = tracer.scope("cluster")
        self._members: Dict[str, "ReplicaNode"] = {}
        self._addrs: Dict[str, str] = {}

    def register(self, node: "ReplicaNode") -> None:
        self._members[node.name] = node
        self._addrs[node.name] = node.nic.addr

    def addr_of(self, name: str) -> str:
        return self._addrs[name]

    def chain_for_key(self, key: bytes) -> int:
        return key_partition(key, self.n_chains)

    def chain_members(self, chain_id: int) -> List[str]:
        """The live chain, head first: a rotation of the node list
        starting at ``chain_id``, skipping the dead, ``replication``
        long.  A death therefore splices the chain *and* (when
        replication < cluster size) recruits the next node in rotation
        as the new tail - the replay path brings it up to date."""
        n = len(self.node_names)
        start = chain_id % n
        ordered = self.node_names[start:] + self.node_names[:start]
        return [name for name in ordered
                if name in self.alive][:self.replication]

    def head(self, chain_id: int) -> Optional[str]:
        members = self.chain_members(chain_id)
        return members[0] if members else None

    def tail(self, chain_id: int) -> Optional[str]:
        members = self.chain_members(chain_id)
        return members[-1] if members else None

    def report_dead(self, name: str) -> None:
        """Idempotent: the first reporter wins; later detections no-op."""
        if name not in self.alive:
            return
        self.alive.discard(name)
        self.epoch += 1
        self.counters.count(names.REPL_FAILOVERS)
        for survivor in self.node_names:
            node = self._members.get(survivor)
            if survivor in self.alive and node is not None:
                node.schedule_reconfigure()


class _Chain:
    """One node's view of one chain: the log and replication cursors."""

    def __init__(self, chain_id: int, sim, owner: str):
        self.chain_id = chain_id
        #: every entry this member has received, (key, value) by seq - 1:
        #: dense, never trimmed, and ``len(log)`` is the highest seq logged
        self.log: List[tuple] = []
        #: highest seq applied to the local engine; the chain's applier
        #: is its only writer
        self.applied = 0
        #: highest commit watermark heard (the successor's cell; at the
        #: tail, its own ``applied``) - it can run ahead of ``applied``
        self.heard = 0
        #: highest seq known committed: ``min(heard, applied)``, so
        #: ``committed <= applied <= len(log)`` at every instant
        self.committed = 0
        #: a tail serves no read before it has applied this much: what it
        #: had logged when the membership last changed (see
        #: :meth:`ReplicaNode.schedule_reconfigure`)
        self.read_floor = 0
        self.commit_wq = WaitQueue(sim, "%s.c%d.commit" % (owner, chain_id))
        self.fwd_wq = WaitQueue(sim, "%s.c%d.fwd" % (owner, chain_id))
        self.apply_wq = WaitQueue(sim, "%s.c%d.apply" % (owner, chain_id))
        self.down: Optional[_DownLink] = None
        self.up: Optional[_UpLink] = None


class _DownLink:
    """Outbound leg to the chain successor (we produce, they consume)."""

    def __init__(self, peer: str, qp: QueuePair, producer: RingProducer,
                 commit_cell, hb_cell, peer_hb_addr: int, sent_seq: int):
        self.peer = peer
        self.qp = qp
        self.producer = producer
        self.ops = producer.ops          # the hb writer issues through it too
        self.commit_cell = commit_cell   # successor writes committed here
        self.hb_cell = hb_cell           # successor heartbeats here
        self.peer_hb_addr = peer_hb_addr
        self.sent_seq = sent_seq
        self.procs: List = []


class _UpLink:
    """Inbound leg from the chain predecessor (ring lives in our arena)."""

    def __init__(self, peer: str, qp: QueuePair, ring: RemoteRing, arena,
                 consumer: LocalRingConsumer, peer_commit_addr: int,
                 peer_hb_addr: int, hb_cell):
        self.peer = peer
        self.qp = qp
        self.ops = OneSided(qp)          # shared by hb + commit publisher
        self.ring = ring
        self.arena = arena
        self.consumer = consumer
        self.peer_commit_addr = peer_commit_addr
        self.peer_hb_addr = peer_hb_addr
        self.hb_cell = hb_cell           # predecessor heartbeats here
        self.procs: List = []


class ReplicaNode:
    """One host of the replicated tier: engine, client plane, repl plane."""

    def __init__(self, world, name: str, directory: ClusterDirectory,
                 cm: RdmaCm, rng: Optional[Rng] = None):
        self.world = world
        self.sim = world.sim
        self.name = name
        self.directory = directory
        self.cm = cm
        self.rng = rng if rng is not None else Rng(0xC7A1).fork_named(name)
        self.host = world.add_host(name)
        self.nic = world.add_rdma(self.host)
        self.libos = RdmaLibOS(self.host, self.nic, cm,
                               name="%s.catmint" % name)
        self.mm = self.host.mm
        self.engine = KvEngine(self.host, name="%s.kv" % name)
        self.codec = LegacyKvCodec()
        self.counters = self.host.tracer.scope(name)
        self.chains: Dict[int, _Chain] = {}
        self.crashed = False
        self._procs: List = []
        #: every raw replication QP this node connected or accepted, from
        #: the instant it had it - a handshake's is in no link yet
        self._qps: List[QueuePair] = []
        self._repl_listener = None
        self._reconfig_dirty = False
        self._reconfig_proc = None
        directory.register(self)

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        # Every node tracks every chain, member or not: when a death
        # recruits it as a new tail (replication < cluster size), the
        # upstream's sync must find a chain to replay into.
        for chain_id in range(self.directory.n_chains):
            chain = self.chains[chain_id] = _Chain(chain_id, self.sim,
                                                   self.name)
            # As old as the node and in no link's procs: a re-link ends
            # the pump that logged an entry, never the applier that owes
            # it to the engine.
            self._spawn(self._applier(chain), "c%d.apply" % chain_id)
        self._spawn(self._repl_acceptor(), "repl.accept")
        self._spawn(self._client_plane(), "kv.serve")
        self.schedule_reconfigure()

    def _spawn(self, gen, label: str):
        proc = self.sim.spawn(gen, name="%s.%s" % (self.name, label))
        self._procs.append(proc)
        return proc

    def crash(self, report_to: Optional[list] = None) -> Generator:
        """Sim-coroutine: die abruptly and let the kernel reclaim.

        Raw replication QPs - a link's, or a SYNC handshake's that is
        in no link yet - and the rendezvous listener are not in the
        libOS qd table, so they are severed here first (stopping the NIC
        from landing one-sided writes into soon-to-be-freed memory and
        making peers' writes fail fast); then the ordinary
        :func:`~repro.kernelos.reclaim.crash_teardown` walk reclaims the
        client plane, every registered buffer - ring arenas, lease and
        commit cells included - and the IOMMU mappings beneath them.
        """
        self.crashed = True
        for proc in self._procs:
            if proc is not None and proc.alive:
                proc.interrupt("proc_crash")
        if self._repl_listener is not None:
            self._repl_listener.close()
            self._repl_listener = None
        for qp in self._qps:
            qp.destroy()
        for chain in self.chains.values():
            chain.down = None
            chain.up = None
        report = yield from crash_teardown(self.libos, None,
                                           report_to=report_to)
        return report

    # -- roles --------------------------------------------------------------
    def _members(self, chain_id: int) -> List[str]:
        return self.directory.chain_members(chain_id)

    def _is_head(self, chain_id: int) -> bool:
        return self.directory.head(chain_id) == self.name

    def _is_tail(self, chain_id: int) -> bool:
        return self.directory.tail(chain_id) == self.name

    # -- failure detection --------------------------------------------------
    def _suspect(self, peer: str) -> None:
        if self.crashed or peer not in self.directory.alive:
            return
        self.directory.report_dead(peer)

    # -- reconfiguration (initial wiring + failover splices) ---------------
    def schedule_reconfigure(self) -> None:
        """The membership changed (the directory calls this in the same
        instant), or the node starts."""
        # A member promoted to tail has logged everything the old tail
        # can have applied and served, but its own applier may still owe
        # the engine some of it: no read until it has caught up to here.
        for chain_id, chain in self.chains.items():
            if self._is_tail(chain_id):
                chain.read_floor = len(chain.log)
        self._reconfig_dirty = True
        if self._reconfig_proc is None or not self._reconfig_proc.alive:
            self._reconfig_proc = self._spawn(self._reconfigure_loop(),
                                              "reconfig")

    def _reconfigure_loop(self) -> Generator:
        while self._reconfig_dirty and not self.crashed:
            self._reconfig_dirty = False
            yield from self._reconfigure_once()

    def _reconfigure_once(self) -> Generator:
        for chain_id in sorted(self.chains):
            chain = self.chains[chain_id]
            members = self._members(chain_id)
            if self.name not in members:
                self._teardown_down(chain)
                self._teardown_up(chain)
                continue
            index = members.index(self.name)
            pred = members[index - 1] if index > 0 else None
            succ = members[index + 1] if index + 1 < len(members) else None
            if chain.up is not None and chain.up.peer != pred:
                self._teardown_up(chain)
                if self.directory.epoch > 0:
                    # The upstream side of a splice: our predecessor
                    # changed (a new one will sync in, or we are the new
                    # head).
                    self.counters.count(names.REPL_CHAIN_SPLICES)
            current = chain.down.peer if chain.down is not None else None
            if current != succ:
                spliced = self.directory.epoch > 0
                self._teardown_down(chain)
                if succ is not None:
                    try:
                        yield from self._establish_down(chain, succ)
                    except RetryBudgetExceeded:
                        # Can't even open a control-path connection to the
                        # successor: treat it as dead so the next pass
                        # splices around it instead of retrying forever.
                        self.counters.count(names.REPL_LINK_FAULTS)
                        self._suspect(succ)
                        self._reconfig_dirty = True
                        continue
                if spliced:
                    self.counters.count(names.REPL_CHAIN_SPLICES)
            if succ is None:
                # We are the tail now: our apply is the commit point, so
                # everything already applied commits retroactively.
                self._advance_commit(chain, chain.applied)

    # -- downstream link (we are the producer) ------------------------------
    def _establish_down(self, chain: _Chain, peer: str) -> Generator:
        link = yield from retry_with_backoff(
            self.sim, lambda: self._connect_down(chain, peer),
            rng=self.rng, retry_on=(DemiError, VerbsError, QpError),
            base_delay_ns=20_000, max_delay_ns=200_000, max_attempts=6,
            budget_ns=3_000_000, op="%s sync chain %d -> %s"
            % (self.name, chain.chain_id, peer))
        chain.down = link
        replay = len(chain.log) - link.sent_seq
        if replay > 0:
            self.counters.count(names.REPL_ENTRIES_REPLAYED, replay)
        link.procs = [
            self._spawn(self._forwarder(chain, link),
                        "c%d.fwd" % chain.chain_id),
            self._spawn(self._hb_writer(link, link.ops, link.peer_hb_addr),
                        "c%d.hb.down" % chain.chain_id),
            self._spawn(self._commit_monitor(chain, link),
                        "c%d.commitmon" % chain.chain_id),
            self._spawn(self._lease_monitor(link, link.hb_cell),
                        "c%d.lease.down" % chain.chain_id),
        ]

    def _connect_down(self, chain: _Chain, peer: str) -> Generator:
        """One sync attempt: connect, exchange SYNC, build the producer."""
        qp = yield from self.cm.connect(
            self.nic, self.directory.addr_of(peer), REPL_PORT)
        self._qps.append(qp)
        commit_cell = self.mm.alloc(8)
        commit_cell.write(0, _U64.pack(0))
        hb_cell = self.mm.alloc(8)
        hb_cell.write(0, _U64.pack(0))
        recv_buf = self.mm.alloc(_HANDSHAKE_BYTES)
        try:
            qp.post_recv(recv_buf)
            name_bytes = self.name.encode("ascii")
            qp.post_send(_SYNC_REQ.pack(chain.chain_id, self.directory.epoch,
                                        commit_cell.addr, hb_cell.addr,
                                        len(name_bytes)) + name_bytes)
            cqe = yield from qp.wait_send_completion()
            if cqe["status"] != "ok":
                raise DemiError("sync send failed: %s" % cqe["status"])
            cqe = yield from qp.wait_recv_completion()
            if cqe["status"] != "ok":
                raise DemiError("sync recv failed: %s" % cqe["status"])
            buf = cqe["buffer"]
            (ring_base, slot_size, n_slots,
             peer_logged, peer_hb_addr) = _SYNC_RESP.unpack(
                buf.read(0, _SYNC_RESP.size))
            self.mm.free(buf)
        except BaseException:
            qp.destroy()
            # An interrupt is delivered a turn after crash() ran: by then
            # the kernel has reclaimed every buffer of this process.
            if not self.crashed:
                self.mm.free(commit_cell)
                self.mm.free(hb_cell)
                if not recv_buf.freed:
                    self.mm.free(recv_buf)
            raise
        ring = RemoteRing(ring_base, slot_size, n_slots)
        producer = RingProducer(qp, ring)
        # Resume from what the successor has *logged*: its applier owes
        # its engine the rest whatever happens to this link.
        return _DownLink(peer, qp, producer, commit_cell, hb_cell,
                         peer_hb_addr, sent_seq=min(peer_logged,
                                                    len(chain.log)))

    def _teardown_down(self, chain: _Chain) -> None:
        link = chain.down
        if link is None:
            return
        chain.down = None
        for proc in link.procs:
            if proc.alive:
                proc.interrupt("chain reconfig")
        link.qp.destroy()
        self.mm.free(link.commit_cell)
        self.mm.free(link.hb_cell)

    def _forwarder(self, chain: _Chain, link: _DownLink) -> Generator:
        """The single writer of this link's ring: ships the log suffix
        (replay after a splice) then follows the log as it grows."""
        try:
            while True:
                while link.sent_seq < len(chain.log):
                    seq = link.sent_seq + 1
                    key, value = chain.log[seq - 1]
                    yield from link.producer.push(encode_entry(seq, key,
                                                               value))
                    link.sent_seq = seq
                    self.counters.count(names.REPL_ENTRIES_FORWARDED)
                yield chain.fwd_wq.wait()
        except (DemiError, QpError):
            self.counters.count(names.REPL_LINK_FAULTS)
            self._suspect(link.peer)

    def _commit_monitor(self, chain: _Chain, link: _DownLink) -> Generator:
        """Spins on the local commit cell the successor one-sided-writes:
        woken by each write into it, like a ring consumer."""
        written = self.mm.watch(link.commit_cell)
        while True:
            (heard,) = _U64.unpack(link.commit_cell.read(0, 8))
            self._advance_commit(chain, heard)
            yield written.wait()

    # -- upstream link (predecessor produces into our arena) ----------------
    def _repl_acceptor(self) -> Generator:
        self._repl_listener = self.cm.listen(self.nic, REPL_PORT)
        while True:
            try:
                qp = yield from self._repl_listener.accept()
            except VerbsError:
                return
            # From here, not from the handler's first step a turn later:
            # a crash in between must find the QP.
            self._qps.append(qp)
            self._spawn(self._handle_sync(qp), "repl.sync")

    def _handle_sync(self, qp: QueuePair) -> Generator:
        buf = self.mm.alloc(_HANDSHAKE_BYTES)
        qp.post_recv(buf)
        cqe = yield from qp.wait_recv_completion()
        if cqe["status"] != "ok":
            qp.destroy()
            return
        data = cqe["buffer"].read(0, _HANDSHAKE_BYTES)
        self.mm.free(cqe["buffer"])
        chain_id, _epoch, commit_addr, hb_addr, nlen = _SYNC_REQ.unpack_from(
            data, 0)
        peer = data[_SYNC_REQ.size:_SYNC_REQ.size + nlen].decode("ascii")
        chain = self.chains.get(chain_id)
        if chain is None or peer not in self.directory.alive:
            qp.destroy()
            return
        if chain.up is not None:
            self._teardown_up(chain)
        probe = RemoteRing(0, SLOT_SIZE, N_SLOTS)
        arena = self.mm.alloc(probe.total_bytes)
        arena.write(0, bytes(probe.total_bytes))
        ring = RemoteRing(arena.addr, SLOT_SIZE, N_SLOTS)
        hb_cell = self.mm.alloc(8)
        hb_cell.write(0, _U64.pack(0))
        qp.post_send(_SYNC_RESP.pack(ring.base_addr, SLOT_SIZE, N_SLOTS,
                                     len(chain.log), hb_cell.addr))
        cqe = yield from qp.wait_send_completion()
        if cqe["status"] != "ok":
            qp.destroy()
            self.mm.free(arena)
            self.mm.free(hb_cell)
            return
        consumer = LocalRingConsumer(self.host, ring)
        link = _UpLink(peer, qp, ring, arena, consumer, commit_addr,
                       hb_addr, hb_cell)
        chain.up = link
        self.counters.count(names.REPL_SYNCS)
        link.procs = [
            self._spawn(self._pump(chain, link),
                        "c%d.pump" % chain_id),
            self._spawn(self._hb_writer(link, link.ops, link.peer_hb_addr),
                        "c%d.hb.up" % chain_id),
            self._spawn(self._commit_publisher(chain, link),
                        "c%d.commitpub" % chain_id),
            self._spawn(self._lease_monitor(link, link.hb_cell),
                        "c%d.lease.up" % chain_id),
        ]

    def _teardown_up(self, chain: _Chain) -> None:
        link = chain.up
        if link is None:
            return
        chain.up = None
        for proc in link.procs:
            if proc.alive:
                proc.interrupt("chain reconfig")
        link.qp.destroy()
        self.mm.free(link.arena)
        self.mm.free(link.hb_cell)

    def _pump(self, chain: _Chain, link: _UpLink) -> Generator:
        """Logs the entries the predecessor lands in our ring."""
        while True:
            payload = yield from link.consumer.pop()
            seq, key, value = decode_entry(payload)
            if seq == len(chain.log) + 1:   # else a replayed duplicate
                self._log(chain, key, value)

    def _log(self, chain: _Chain, key: bytes, value: bytes) -> int:
        """Append one received entry; forwarding and applying follow, in
        processes of their own.  Returns its seq."""
        chain.log.append((key, value))
        chain.fwd_wq.pulse()
        chain.apply_wq.pulse()
        return len(chain.log)

    def _applier(self, chain: _Chain) -> Generator:
        """The one writer of ``chain.applied`` and of this chain's keys in
        the engine: works through the log, re-evaluating the commit after
        every entry (a watermark may have been heard before it)."""
        while True:
            while chain.applied < len(chain.log):
                key, value = chain.log[chain.applied]
                yield self.libos.core.busy(self.engine.service_cost("set"))
                self.engine.put(key, value)
                chain.applied += 1
                self.counters.count(names.REPL_ENTRIES_APPLIED)
                # The tail's apply is the commit point: it hears itself.
                self._advance_commit(
                    chain, chain.applied if self._is_tail(chain.chain_id)
                    else 0)
            yield chain.apply_wq.wait()

    def _commit_publisher(self, chain: _Chain, link: _UpLink) -> Generator:
        """Pushes our committed watermark into the predecessor's cell."""
        published = 0
        try:
            while True:
                if chain.committed > published:
                    watermark = chain.committed
                    yield from link.ops.write(link.peer_commit_addr,
                                              _U64.pack(watermark))
                    published = watermark
                    self.counters.count(names.REPL_COMMIT_PUBLISHES)
                else:
                    yield chain.commit_wq.wait()
        except (DemiError, QpError):
            self.counters.count(names.REPL_LINK_FAULTS)
            self._suspect(link.peer)

    # -- shared link machinery ----------------------------------------------
    def _hb_writer(self, link, ops: OneSided, peer_hb_addr: int) -> Generator:
        beat = 0
        try:
            while True:
                beat += 1
                yield from ops.write(peer_hb_addr, _U64.pack(beat))
                self.counters.count(names.REPL_HEARTBEATS)
                yield self.sim.timeout(HB_INTERVAL_NS)
        except (DemiError, QpError):
            self.counters.count(names.REPL_LINK_FAULTS)
            self._suspect(link.peer)

    def _lease_monitor(self, link, hb_cell) -> Generator:
        """Declares the peer dead if its heartbeats stop advancing."""
        last = None
        while True:
            yield self.sim.timeout(LEASE_NS)
            beat = hb_cell.read(0, 8)
            if beat == last:
                self.counters.count(names.REPL_LEASE_EXPIRIES)
                self._suspect(link.peer)
                return
            last = beat

    # -- the write path ------------------------------------------------------
    def _advance_commit(self, chain: _Chain, heard: int) -> None:
        """Remember the watermark *heard* and commit what is both heard
        and applied.  Clamping and forgetting it would leave a PUT whose
        commit beat this member's own apply waiting for the next one."""
        if heard > chain.heard:
            chain.heard = heard
        committed = min(chain.heard, chain.applied)
        if committed > chain.committed:
            chain.committed = committed
            chain.commit_wq.pulse()

    def _wait_committed(self, chain: _Chain, seq: int) -> Generator:
        """True once *seq* is committed; False at the deadline.

        ``committed`` only moves through :meth:`_advance_commit`, which
        pulses ``commit_wq``, and a crash interrupts the serving process,
        so there is nothing a periodic re-check would observe.
        """
        deadline = self.sim.timeout(COMMIT_TIMEOUT_NS)
        try:
            while chain.committed < seq and not deadline.triggered:
                yield any_of(self.sim, [chain.commit_wq.wait(), deadline])
        finally:
            deadline.cancel()
        return chain.committed >= seq

    # -- the client plane ----------------------------------------------------
    def _client_plane(self) -> Generator:
        libos = self.libos
        listen_qd = yield from libos.socket()
        yield from libos.bind(listen_qd, DEFAULT_KV_PORT)
        yield from libos.listen(listen_qd)
        while True:
            qd = yield from libos.accept(listen_qd)
            self._spawn(self._serve_conn(qd), "kv.conn%d" % qd)

    def _serve_conn(self, qd: int) -> Generator:
        libos = self.libos
        while True:
            token = libos.pop(qd)
            try:
                _index, result = yield from libos.wait_any(
                    [token], timeout_ns=IDLE_TIMEOUT_NS)
            except DemiTimeout:
                libos.cancel(token)
                break
            if result.error is not None:
                break
            parsed = yield from self._serve_request(qd, result.sga.tobytes())
            if not parsed:
                break
        yield from libos.close(qd)

    def _serve_request(self, qd: int, request: bytes) -> Generator:
        """Serve one request; False if it did not parse (close the conn)."""
        libos = self.libos
        codec = self.codec
        yield libos.core.busy(self.engine.parse_cost())
        try:
            req = codec.decode_message(request)
        except CodecError:
            libos.count(names.KV_MALFORMED_REQUESTS)
            return False
        chain_id = self.directory.chain_for_key(req.key)
        chain = self.chains.get(chain_id)
        reply: Optional[bytes] = None
        if req.op == "set":
            if chain is not None and self._is_head(chain_id):
                seq = self._log(chain, req.key, req.value)
                committed = yield from self._wait_committed(chain, seq)
                if committed:
                    self.counters.count(names.REPL_WRITES_ACKED)
                    reply = codec.encode(Response(ST_STORED))
        else:
            if (chain is not None and self._is_tail(chain_id)
                    and chain.applied >= chain.read_floor):
                yield libos.core.busy(self.engine.service_cost(req.op))
                value = self.engine.get(req.key)
                if value is None:
                    reply = codec.encode(Response(ST_MISS))
                else:
                    reply = codec.encode(
                        Response(ST_VALUE, value=value.tobytes()))
        if reply is None:
            self.counters.count(names.REPL_REDIRECTS)
            reply = bytes([STATUS_MOVED])
        yield from libos.blocking_push(qd, libos.sga_alloc(reply))
        return True
