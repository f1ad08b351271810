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
interval), logs it, and forwards again.  A forwarder posts each entry's
WRITE as soon as the ring has room and waits for no completion - a
link keeps its ring's window of WRITEs in flight, and a reaper takes
their completions in post order - and its flow control reads the
successor's cursor from the heartbeat the successor already writes
into the forwarder's lease cell, so a healthy chain issues no RDMA
READ.  Log, forward, apply - in that order: a member's log is what it
has *received*, and one applier per chain per node works through it
behind the forwarder, so the applies of a chain overlap instead of
queueing up on every PUT's path.  The
tail's log is the *commit point*, and the tail acknowledges the write
itself as it logs it, as chain replication was published (van Renesse
and Schneider, OSDI 2004): a PUT carries its client's tag and operation
number into the entry, every client names its tag on each connection it
opens, and the tail pushes the ack down the connection that named it.
The head answers only a PUT it cannot take.  An acknowledged write is
therefore logged on every live replica - each logs before it forwards.
The tail applies it after the ack has left, so a read at the tail first
waits for its applier to reach what the tail had logged when the read
arrived (commit, then apply, as Raft does), and reads served at the
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
never left behind), and a new tail acknowledges what it has logged and
not applied, and from then on every entry as it logs it.  Clients route
via the directory and retry with seeded backoff
(:class:`~repro.cluster.client.ReplicatedKvClient`); a replica that is
not the right head/tail for a key answers :data:`STATUS_MOVED` so a
stale route corrects itself.
"""

from __future__ import annotations

import struct
from collections import deque
from typing import Deque, Dict, Generator, List, Optional, Sequence

from ..apps.kvstore import KvEngine
from ..apps.proto.codec import ST_MISS, ST_VALUE, CodecError, Response
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
from ..sim.rand import Rng
from ..sim.sync import WaitQueue

__all__ = ["ClusterDirectory", "ReplicaNode", "STATUS_MOVED",
           "STATUS_ACKED", "REQUEST_HEADER", "ACK", "DEFAULT_KV_PORT"]

#: a replica that is not the right chain member for the request
STATUS_MOVED = ord("M")
#: the tail's acknowledgement of a replicated PUT
STATUS_ACKED = ord("A")

#: the client plane's envelope, before every request's LegacyKvCodec
#: bytes: the client's tag and the operation's number.  Alone, it names
#: the tag on the connection it arrives on.
REQUEST_HEADER = struct.Struct("!IQ")
#: a tail's ack: STATUS_ACKED and the number of the operation it commits
ACK = struct.Struct("!BQ")

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
#: a client connection no request reached for this long is closed,
#: unless its client's acks leave on it
IDLE_TIMEOUT_NS = 2_000_000

_U64 = struct.Struct("!Q")
#: what a downstream member's heartbeat writes into its upstream's lease
#: cell: the beat, then its ring consumer's cursor (the upstream's ring
#: producer reads that instead of fetching the cursor over the fabric)
_HB_CURSOR = struct.Struct("!QQ")
#: replication log entry: chain-local seq, the client's tag and op number
#: (whom the tail acks), klen (value length-prefixed after key)
_ENTRY = struct.Struct("!QIQH")
#: chain_id, epoch, hb-cell addr, sender-name length
_SYNC_REQ = struct.Struct("!IIQH")
#: ring base, slot_size, n_slots, receiver's logged seq, hb-cell addr
_SYNC_RESP = struct.Struct("!QIIQQ")
_HANDSHAKE_BYTES = 256


def encode_entry(seq: int, tag: int, op: int, key: bytes,
                 value: bytes) -> bytes:
    return (_ENTRY.pack(seq, tag, op, len(key)) + key
            + struct.pack("!I", len(value)) + value)


def decode_entry(payload: bytes):
    """``(seq, tag, op, key, value)`` of one :func:`encode_entry` record."""
    seq, tag, op, klen = _ENTRY.unpack_from(payload, 0)
    key = payload[_ENTRY.size:_ENTRY.size + klen]
    (vlen,) = struct.unpack_from("!I", payload, _ENTRY.size + klen)
    off = _ENTRY.size + klen + 4
    return seq, tag, op, key, payload[off:off + vlen]


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
        self._client_tags = 0

    def register(self, node: "ReplicaNode") -> None:
        self._members[node.name] = node
        self._addrs[node.name] = node.nic.addr

    def client_tag(self) -> int:
        """A tag no other client of the tier holds: tails address their
        acks by it."""
        self._client_tags += 1
        return self._client_tags

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
        self.counters.repl_failovers += 1
        for survivor in self.node_names:
            node = self._members.get(survivor)
            if survivor in self.alive and node is not None:
                node.schedule_reconfigure()


class _Chain:
    """One node's view of one chain: the log and replication cursors."""

    def __init__(self, chain_id: int, sim, owner: str):
        self.chain_id = chain_id
        #: every entry this member has received, ``(tag, op, key, value)``
        #: by seq - 1: dense, never trimmed, and ``len(log)`` is the
        #: highest seq logged
        self.log: List[tuple] = []
        #: highest seq applied to the local engine; the chain's applier
        #: is its only writer, so ``applied <= len(log)`` at every instant
        self.applied = 0
        #: highest seq this node has acked as the tail; it only grows, so
        #: no node acks an entry twice
        self.acked = 0
        self.fwd_wq = WaitQueue(sim, "%s.c%d.fwd" % (owner, chain_id))
        self.apply_wq = WaitQueue(sim, "%s.c%d.apply" % (owner, chain_id))
        #: pulsed by the applier after every apply: a tail's read waits
        #: on it for the entries logged before the read arrived
        self.applied_wq = WaitQueue(sim, "%s.c%d.applied"
                                    % (owner, chain_id))
        self.down: Optional[_DownLink] = None
        self.up: Optional[_UpLink] = None


class _DownLink:
    """Outbound leg to the chain successor (we produce, they consume)."""

    def __init__(self, peer: str, qp: QueuePair, producer: RingProducer,
                 hb_cell, peer_hb_addr: int, sent_seq: int,
                 posted_wq: WaitQueue):
        self.peer = peer
        self.qp = qp
        self.producer = producer
        self.ops = producer.ops          # the hb writer issues through it too
        self.hb_cell = hb_cell           # successor heartbeats here
        self.peer_hb_addr = peer_hb_addr
        #: highest seq posted to the ring, landed or not
        self.sent_seq = sent_seq
        #: the wrs of the ring WRITEs posted and not yet reaped, in order
        self.in_flight: Deque[int] = deque()
        #: pulsed at every post: the reaper parks on it when none is
        #: in flight
        self.posted_wq = posted_wq
        #: the forwarder or the reaper has reported the link's fault
        self.faulted = False
        self.procs: List = []


class _UpLink:
    """Inbound leg from the chain predecessor (ring lives in our arena)."""

    def __init__(self, peer: str, qp: QueuePair, ring: RemoteRing, arena,
                 consumer: LocalRingConsumer, peer_hb_addr: int, hb_cell):
        self.peer = peer
        self.qp = qp
        self.ops = OneSided(qp)          # the hb writer's
        self.ring = ring
        self.arena = arena
        self.consumer = consumer
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
        #: client tag -> the connection it last named it on: where this
        #: node's acks for that client leave while it is a tail
        self._ack_qds: Dict[int, int] = {}
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

    def crash(self) -> Generator:
        """Sim-coroutine: die abruptly and let the kernel reclaim.

        Raw replication QPs - a link's, or a SYNC handshake's that is
        in no link yet - and the rendezvous listener are not in the
        libOS qd table, so they are severed here first (stopping the NIC
        from landing one-sided writes into soon-to-be-freed memory and
        making peers' writes fail fast); then the ordinary
        :func:`~repro.kernelos.reclaim.crash_teardown` walk reclaims the
        client plane, every registered buffer - ring arenas and lease
        cells included - and the IOMMU mappings beneath them.
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
        yield from crash_teardown(self.libos)

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
        # A member promoted to tail acks what it has logged and not yet
        # applied: every member upstream has logged it too, and the old
        # tail may have died before it acked.  A node that was the tail
        # already has acked all of its log.
        for chain_id, chain in self.chains.items():
            if self._is_tail(chain_id):
                self._ack_logged(chain, max(chain.acked, chain.applied))
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
                    self.counters.repl_chain_splices += 1
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
                        self.counters.repl_link_faults += 1
                        self._suspect(succ)
                        self._reconfig_dirty = True
                        continue
                if spliced:
                    self.counters.repl_chain_splices += 1

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
            self.counters.repl_entries_replayed += replay
        link.procs = [
            self._spawn(self._forwarder(chain, link),
                        "c%d.fwd" % chain.chain_id),
            self._spawn(self._reaper(link), "c%d.reap" % chain.chain_id),
            self._spawn(self._hb_writer(link), "c%d.hb.down" % chain.chain_id),
            self._spawn(self._lease_monitor(link, link.hb_cell),
                        "c%d.lease.down" % chain.chain_id),
        ]

    def _connect_down(self, chain: _Chain, peer: str) -> Generator:
        """One sync attempt: connect, exchange SYNC, build the producer."""
        qp = yield from self.cm.connect(
            self.nic, self.directory.addr_of(peer), REPL_PORT)
        self._qps.append(qp)
        hb_cell = self.mm.alloc(_HB_CURSOR.size)
        hb_cell.write(0, bytes(_HB_CURSOR.size))
        recv_buf = self.mm.alloc(_HANDSHAKE_BYTES)
        try:
            qp.post_recv(recv_buf)
            name_bytes = self.name.encode("ascii")
            qp.post_send(_SYNC_REQ.pack(chain.chain_id, self.directory.epoch,
                                        hb_cell.addr, len(name_bytes))
                         + name_bytes)
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
                self.mm.free(hb_cell)
                if not recv_buf.freed:
                    self.mm.free(recv_buf)
            raise
        ring = RemoteRing(ring_base, slot_size, n_slots)
        producer = RingProducer(
            qp, ring, published_cursor=lambda: _HB_CURSOR.unpack(
                hb_cell.read(0, _HB_CURSOR.size))[1])
        # Resume from what the successor has *logged*: its applier owes
        # its engine the rest whatever happens to this link, and a WRITE
        # lost in flight with the old link is replayed.
        return _DownLink(peer, qp, producer, hb_cell, peer_hb_addr,
                         sent_seq=min(peer_logged, len(chain.log)),
                         posted_wq=WaitQueue(self.sim, "%s.c%d.posted"
                                             % (self.name, chain.chain_id)))

    def _teardown_down(self, chain: _Chain) -> None:
        link = chain.down
        if link is None:
            return
        chain.down = None
        for proc in link.procs:
            if proc.alive:
                proc.interrupt("chain reconfig")
        link.qp.destroy()
        self.mm.free(link.hb_cell)

    def _forwarder(self, chain: _Chain, link: _DownLink) -> Generator:
        """The single writer of this link's ring: posts the log suffix
        (replay after a splice) then each entry as it is logged, as soon
        as the ring has room - it waits for no completion."""
        try:
            while True:
                while link.sent_seq < len(chain.log):
                    seq = link.sent_seq + 1
                    wr = yield from link.producer.post(encode_entry(
                        seq, *chain.log[seq - 1]))
                    link.sent_seq = seq
                    link.in_flight.append(wr)
                    link.posted_wq.pulse()
                yield chain.fwd_wq.wait()
        except (DemiError, QpError):
            self._link_fault(link)

    def _reaper(self, link: _DownLink) -> Generator:
        """Reaps the link's ring WRITEs in post order, counting each one
        forwarded; a failed completion is the link's fault."""
        try:
            while True:
                while link.in_flight:
                    yield from link.ops.complete(link.in_flight[0])
                    link.in_flight.popleft()
                    self.counters.repl_entries_forwarded += 1
                yield link.posted_wq.wait()
        except (DemiError, QpError):
            self._link_fault(link)

    def _link_fault(self, link: _DownLink) -> None:
        """The forwarder or the reaper found the ring's QP failed: the
        first of them reports it."""
        if not link.faulted:
            link.faulted = True
            self.counters.repl_link_faults += 1
            self._suspect(link.peer)

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
        chain_id, _epoch, hb_addr, nlen = _SYNC_REQ.unpack_from(data, 0)
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
        hb_cell = self.mm.alloc(_U64.size)
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
        link = _UpLink(peer, qp, ring, arena, consumer, hb_addr, hb_cell)
        chain.up = link
        self.counters.repl_syncs += 1
        link.procs = [
            self._spawn(self._pump(chain, link),
                        "c%d.pump" % chain_id),
            self._spawn(self._hb_writer(link, link.consumer),
                        "c%d.hb.up" % chain_id),
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
            seq, tag, op, key, value = decode_entry(payload)
            if seq == len(chain.log) + 1:   # else a replayed duplicate
                self._log(chain, (tag, op, key, value))

    def _log(self, chain: _Chain, entry: tuple) -> None:
        """Append one received ``(tag, op, key, value)``; forwarding and
        applying follow, in processes of their own.  The tail's log is
        the commit point: it acks the entry from here, as a middle
        member forwards it."""
        chain.log.append(entry)
        if self._is_tail(chain.chain_id):
            self._ack_logged(chain, chain.acked)
        chain.fwd_wq.pulse()
        chain.apply_wq.pulse()

    def _ack_logged(self, chain: _Chain, done: int) -> None:
        """Ack every logged entry past seq *done*."""
        for seq in range(done + 1, len(chain.log) + 1):
            self._ack(chain, seq)
        chain.acked = len(chain.log)

    def _ack(self, chain: _Chain, seq: int) -> None:
        """Push the ack of entry *seq* down the connection its client's
        tag named here; a client that named none here times out and
        retries."""
        tag, op, _key, _value = chain.log[seq - 1]
        qd = self._ack_qds.get(tag)
        if qd is None or self.crashed:
            return
        self.counters.repl_writes_acked += 1
        self.sim.spawn(self._send(qd, ACK.pack(STATUS_ACKED, op)),
                       name="%s.ack" % self.name)

    def _applier(self, chain: _Chain) -> Generator:
        """The one writer of ``chain.applied`` and of this chain's keys in
        the engine: works through the log, off every ack's path."""
        while True:
            while chain.applied < len(chain.log):
                _tag, _op, key, value = chain.log[chain.applied]
                yield self.libos.core.busy(self.engine.service_cost("set"))
                self.engine.put(key, value)
                chain.applied += 1
                self.counters.repl_entries_applied += 1
                chain.applied_wq.pulse()
            yield chain.apply_wq.wait()

    # -- shared link machinery ----------------------------------------------
    def _hb_writer(self, link,
                   consumer: Optional[LocalRingConsumer] = None) -> Generator:
        """Beats into the peer's lease cell; an uplink's beat also carries
        its ring *consumer*'s cursor, for the peer's flow control."""
        beat = 0
        try:
            while True:
                beat += 1
                yield from link.ops.write(
                    link.peer_hb_addr, _U64.pack(beat) if consumer is None
                    else _HB_CURSOR.pack(beat, consumer.next_seq - 1))
                self.counters.repl_heartbeats += 1
                yield self.sim.timeout(HB_INTERVAL_NS)
        except (DemiError, QpError):
            self.counters.repl_link_faults += 1
            self._suspect(link.peer)

    def _lease_monitor(self, link, hb_cell) -> Generator:
        """Declares the peer dead if its heartbeats stop advancing."""
        last = None
        while True:
            yield self.sim.timeout(LEASE_NS)
            beat = hb_cell.read(0, _U64.size)
            if beat == last:
                self.counters.repl_lease_expiries += 1
                self._suspect(link.peer)
                return
            last = beat

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
        token = libos.pop(qd)
        while True:
            try:
                _index, result = yield from libos.wait_any(
                    [token], timeout_ns=IDLE_TIMEOUT_NS)
            except DemiTimeout:
                if qd in self._ack_qds.values():
                    continue   # its client's acks leave on it
                libos.cancel(token)
                break
            if result.error is not None:
                break
            parsed = yield from self._serve_request(qd, result.sga.tobytes())
            libos.sga_free(result.sga)
            if not parsed:
                break
            token = libos.pop(qd)
        self._ack_qds = {tag: q for tag, q in self._ack_qds.items()
                         if q != qd}
        yield from libos.close(qd)

    def _serve_request(self, qd: int, request: bytes) -> Generator:
        """Serve one request; False if it did not parse (close the conn)."""
        libos = self.libos
        codec = self.codec
        yield libos.core.busy(self.engine.parse_cost())
        try:
            tag, op = REQUEST_HEADER.unpack_from(request)
            if len(request) == REQUEST_HEADER.size:
                # The client names its tag: a tail's acks for it leave on
                # this connection from now on.
                self._ack_qds[tag] = qd
                return True
            req = codec.decode_message(request[REQUEST_HEADER.size:])
        except (CodecError, struct.error):
            libos.counters.kv_malformed_requests += 1
            return False
        chain_id = self.directory.chain_for_key(req.key)
        chain = self.chains.get(chain_id)
        reply: Optional[bytes] = None
        if req.op == "set":
            if chain is not None and self._is_head(chain_id):
                self._log(chain, (tag, op, req.key, req.value))
                return True   # the tail acks it
        elif chain is not None and self._is_tail(chain_id):
            # Every write acked before this read arrived is logged here;
            # the read waits until it is applied too.
            fence = len(chain.log)
            while chain.applied < fence:
                yield chain.applied_wq.wait()
            yield libos.core.busy(self.engine.service_cost(req.op))
            value = self.engine.get(req.key)
            if value is None:
                reply = codec.encode(Response(ST_MISS))
            else:
                reply = codec.encode(Response(ST_VALUE,
                                              value=value.tobytes()))
        if reply is None:
            self.counters.repl_redirects += 1
            reply = bytes([STATUS_MOVED])
        yield from self._send(qd, reply)
        return True

    def _send(self, qd: int, data: bytes) -> Generator:
        """Push *data* on *qd* now; the sim-coroutine returned frees its
        buffer once the push completes."""
        libos = self.libos
        sga = libos.sga_alloc(data)
        return self._free_when_pushed(libos.push(qd, sga), sga)

    def _free_when_pushed(self, token, sga) -> Generator:
        # A crash may come between the push and a spawned waiter's first
        # step, and reclaims the token and the buffer itself.
        if self.crashed:
            return
        yield from self.libos.wait(token)
        if not self.crashed:
            self.libos.sga_free(sga)
