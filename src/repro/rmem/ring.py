"""Remote-memory queues over one-sided RDMA (section 4.1's third I/O class).

The paper lists "remote memory" beside networking and storage as a
data-path class, and flags "writing to disaggregated memory" as an
operation future queues must cover.  This module builds that: a
Demikernel queue whose elements live in a *memory node's* registered
arena, moved exclusively by one-sided RDMA - the memory node's CPU never
runs on the data path.

Layout of a ring in remote memory::

    base +  0: consumer cursor (u64)  - written by the consumer, read by
               the producer when the ring looks full and no fresher
               published copy says otherwise
    base + 16: slot[0] .. slot[n-1], each ``slot_size`` bytes:
               [seq u64][length u32][payload][stamp u64]

Single producer, single consumer.  The producer writes a whole slot
(header+payload+stamp) with one RDMA WRITE, and :meth:`RingProducer.post`
returns without waiting for it, so a producer may keep up to ``n_slots``
WRITEs in flight: RC lands them in post order.  A record counts as present
only when *both* commit markers agree: the leading sequence number must
be the expected one (slot for seq *s* is slot ``(s-1) % n``, so a stale
slot holds a seq exactly *n* smaller - never the expected one) **and**
the trailing stamp - ``seq ^ RECORD_MAGIC`` written *after* the payload
- must match.  A consumer polling the write window therefore never
observes a half-written entry: any truncation of the slot write leaves
either a stale/torn header or a stale stamp, and :func:`decode_record`
rejects it (``tests/property`` truncates at every byte offset to prove
it).  The *remote* :class:`RingConsumer` RDMA-READs the expected slot;
on a decode it consumes and periodically writes its cursor back for
producer flow control.  An empty poll there costs a round trip - the
honest price of disaggregation - so it backs off ``POLL_INTERVAL_NS``
between misses.  :class:`LocalRingConsumer` reads a ring in its own
host's arena: its core spins on its own memory, which the simulator
models the way it models every poll-mode reader (a NIC's RX ring, a
completion queue) - parked on the writer's signal, here the arena's
:meth:`~repro.memory.manager.MemoryManager.watch` queue, so a record is
seen at the instant the NIC lands it and an idle ring costs no event.

Flow control needs the consumer's cursor at the producer.  The in-ring
cursor costs an RDMA READ to fetch; a consumer that already writes to
the producer's host - a replica's heartbeat into its upstream's lease
cell - can carry its cursor along, and a producer given that published
cursor reads it with a local load.  It READs the in-ring cursor only
when that copy says the ring is full, so a healthy chain issues no READ.
"""

from __future__ import annotations

import struct
from typing import Callable, Generator, Optional

from ..core.queue import DemiQueue
from ..core.types import OP_PUSH, DemiError, QResult, QToken, Sga
from ..hw.nic import QpError
from ..rdma.verbs import QueuePair
from ..telemetry import names

__all__ = ["RemoteRing", "OneSided", "RingProducer", "RingConsumer",
           "LocalRingConsumer", "RmemQueue"]

SLOT_HEADER = struct.Struct("!QI")  # seq, payload length
RECORD_STAMP = struct.Struct("!Q")  # trailing commit marker: seq ^ MAGIC
#: xor'd into the trailing stamp so a slot whose payload happens to
#: contain the raw sequence number cannot fake a commit marker
RECORD_MAGIC = 0x5EA1ED5EA1ED5EA1
RING_HEADER_BYTES = 16
POLL_INTERVAL_NS = 3000


def encode_record(seq: int, payload: bytes) -> bytes:
    """One torn-write-proof slot image: header, payload, trailing stamp."""
    return (SLOT_HEADER.pack(seq, len(payload)) + payload
            + RECORD_STAMP.pack(seq ^ RECORD_MAGIC))


def decode_record(slot: bytes, expected_seq: int,
                  max_payload: int) -> Optional[bytes]:
    """The payload of *slot* iff it holds a complete record *expected_seq*.

    Returns ``None`` for an empty, stale, or torn slot.  The check is
    deliberately end-to-end: the leading seq proves the writer started
    this record, the length must be geometrically possible, and the
    trailing stamp (written last, after the payload) proves the write
    ran to completion.
    """
    if len(slot) < SLOT_HEADER.size + RECORD_STAMP.size:
        return None
    seq, length = SLOT_HEADER.unpack_from(slot, 0)
    if seq != expected_seq or length > max_payload:
        return None
    stamp_off = SLOT_HEADER.size + length
    if stamp_off + RECORD_STAMP.size > len(slot):
        return None
    (stamp,) = RECORD_STAMP.unpack_from(slot, stamp_off)
    if stamp != seq ^ RECORD_MAGIC:
        return None
    return slot[SLOT_HEADER.size:stamp_off]


class RemoteRing:
    """Geometry of a ring hosted in a memory node's arena."""

    def __init__(self, base_addr: int, slot_size: int, n_slots: int):
        if slot_size <= SLOT_HEADER.size + RECORD_STAMP.size:
            raise DemiError("slot size must exceed the record framing")
        if n_slots < 2:
            raise DemiError("a ring needs at least 2 slots")
        self.base_addr = base_addr
        self.slot_size = slot_size
        self.n_slots = n_slots

    @property
    def max_payload(self) -> int:
        return self.slot_size - SLOT_HEADER.size - RECORD_STAMP.size

    @property
    def total_bytes(self) -> int:
        return RING_HEADER_BYTES + self.slot_size * self.n_slots

    def slot_addr(self, seq: int) -> int:
        index = (seq - 1) % self.n_slots
        return self.base_addr + RING_HEADER_BYTES + index * self.slot_size

    @property
    def cursor_addr(self) -> int:
        return self.base_addr

    @staticmethod
    def allocate(mm, slot_size: int, n_slots: int) -> "RemoteRing":
        """Carve a ring out of a (memory node's) registered heap."""
        probe = RemoteRing(0, slot_size, n_slots)
        arena = mm.alloc(probe.total_bytes)
        return RemoteRing(arena.addr, slot_size, n_slots)


class OneSided:
    """Issue one one-sided verbs op and wait for its completion.  Any
    number of these may share a QP: the parked CQEs are the QP's."""

    def __init__(self, qp: QueuePair):
        self.qp = qp
        self.mm = qp.nic.host.mm
        self.sim = qp.nic.sim

    def write(self, raddr: int, payload: bytes) -> Generator:
        # complete()'s body, inline: a heartbeat issues one write a beat
        wr = self.qp.post_write(payload, raddr)
        cqe = yield from self.qp.wait_send_cqe(wr)
        if cqe["status"] != "ok":
            raise DemiError("one-sided op failed: %s" % cqe["status"])

    def complete(self, wr: int) -> Generator:
        """Sim-coroutine: wait for work request *wr*'s completion; a
        failed one raises."""
        cqe = yield from self.qp.wait_send_cqe(wr)
        if cqe["status"] != "ok":
            raise DemiError("one-sided op failed: %s" % cqe["status"])

    def read(self, raddr: int, length: int) -> Generator:
        """The *length* bytes at *raddr*.  The landing buffer is freed
        however the read ends - a failed CQE, an interrupt - and the NIC
        holds it while the READ is in flight, so the free waits for the
        response or the flush instead of letting it land in freed memory.
        """
        landing = self.mm.alloc(length)
        try:
            wr = self.qp.post_read(raddr, length, landing)
            cqe = yield from self.qp.wait_send_cqe(wr)
            if cqe["status"] != "ok":
                raise DemiError("one-sided op failed: %s" % cqe["status"])
            return landing.read(0, length)
        finally:
            if not landing.freed:   # a crash's reclaim may have got here first
                self.mm.free(landing)


class RingProducer:
    """The push side: one RDMA WRITE per element.

    Flow control keeps it at most ``n_slots`` ahead of the consumer's
    cursor.  With *published_cursor* - a function returning the cursor
    the consumer last published to the producer's host, by a local load -
    a ring that looks full first takes that; only a ring it says is full
    too costs an RDMA READ of the in-ring cursor.
    """

    def __init__(self, qp: QueuePair, ring: RemoteRing,
                 published_cursor: Optional[Callable[[], int]] = None):
        self.ring = ring
        self.ops = OneSided(qp)
        self.published_cursor = published_cursor
        self.next_seq = 1
        self._cached_consumed = 0
        self.full_stalls = 0

    def post(self, payload: bytes) -> Generator:
        """Sim-coroutine: wait while the ring is full, then post the
        element's WRITE; returns its wr without waiting for the
        completion.  Posts land in order: RC delivers them in order."""
        ring = self.ring
        if len(payload) > ring.max_payload:
            raise DemiError("element of %d bytes exceeds slot payload %d"
                            % (len(payload), ring.max_payload))
        if self.next_seq - self._cached_consumed > ring.n_slots:
            yield from self._wait_for_room()
        seq = self.next_seq
        wr = self.ops.qp.post_write(encode_record(seq, payload),
                                    ring.slot_addr(seq))
        self.next_seq = seq + 1
        return wr

    def push(self, payload: bytes) -> Generator:
        """Sim-coroutine: write one element; blocks while the ring is full
        and until the WRITE completes."""
        wr = yield from self.post(payload)
        yield from self.ops.complete(wr)

    def _wait_for_room(self) -> Generator:
        ring = self.ring
        while True:
            if self.published_cursor is not None:
                self._consumed(self.published_cursor())
                if self.next_seq - self._cached_consumed <= ring.n_slots:
                    return
            cursor_raw = yield from self.ops.read(ring.cursor_addr, 8)
            self._consumed(struct.unpack("!Q", cursor_raw)[0])
            if self.next_seq - self._cached_consumed <= ring.n_slots:
                return
            self.full_stalls += 1
            yield self.ops.sim.timeout(POLL_INTERVAL_NS)

    def _consumed(self, cursor: int) -> None:
        # Either source may lag the other: the cursor only moves forward.
        if cursor > self._cached_consumed:
            self._cached_consumed = cursor


class RingConsumer:
    """The pop side: RDMA READ polling with cursor write-back."""

    CURSOR_EVERY = 4

    def __init__(self, qp: QueuePair, ring: RemoteRing):
        self.ring = ring
        self.ops = OneSided(qp)
        self.next_seq = 1
        self._since_cursor_update = 0
        self.empty_polls = 0

    def pop(self) -> Generator:
        """Sim-coroutine: return the next element's payload bytes."""
        ring = self.ring
        while True:
            slot = yield from self.ops.read(ring.slot_addr(self.next_seq),
                                            ring.slot_size)
            payload = decode_record(slot, self.next_seq, ring.max_payload)
            if payload is not None:
                break
            self.empty_polls += 1
            yield self.ops.sim.timeout(POLL_INTERVAL_NS)
        self.next_seq += 1
        self._since_cursor_update += 1
        if self._since_cursor_update >= self.CURSOR_EVERY:
            self._since_cursor_update = 0
            yield from self.ops.write(ring.cursor_addr,
                                      struct.pack("!Q", self.next_seq - 1))
        return payload


class LocalRingConsumer:
    """The pop side for a ring living in *this* host's own arena.

    It publishes its cursor into the ring's first word every
    ``CURSOR_EVERY`` records; a replica's heartbeat carries the exact
    one, ``next_seq - 1``, to the producer's host.

    A replica's replication log is RDMA-WRITTEN into its memory by the
    upstream node; the local CPU spins on the write window directly, so
    a look costs a cache probe instead of a fabric round trip and the
    cursor write-back is a plain store.  A one-sided WRITE raises no
    completion, so :meth:`pop` parks on the arena's
    :meth:`~repro.memory.manager.MemoryManager.watch` queue and is
    woken by the write itself - no interval, no event while idle.  The
    torn-record framing is what makes the direct read safe: the NIC may
    have landed only part of a slot when we are woken, and
    :func:`decode_record` only accepts a record whose trailing stamp
    proves the write finished; the write that completes it wakes us
    again.
    """

    CURSOR_EVERY = 4

    def __init__(self, host, ring: RemoteRing):
        self.host = host
        self.mm = host.mm
        self.ring = ring
        #: the buffer the ring lives in, and the cursor's (the ring's
        #: first word's) offset in it
        self.arena, self._cursor_off = self.mm.resolve(ring.base_addr,
                                                       ring.total_bytes)
        self._written = self.mm.watch(self.arena)
        self.next_seq = 1
        self._since_cursor_update = 0
        #: wake-ups that found no complete record - the ring's
        #: ``wasted_wakeups``: only a write that lands part of a record
        #: causes one, so it reads 0 after every fault-free run
        self.empty_polls = 0

    def pop_nb(self) -> Optional[bytes]:
        """One look at the slot; ``None`` when no complete record is there."""
        ring = self.ring
        slot = self.mm.read_mem(ring.slot_addr(self.next_seq),
                                ring.slot_size)
        payload = decode_record(slot, self.next_seq, ring.max_payload)
        if payload is None:
            return None
        self.next_seq += 1
        self._since_cursor_update += 1
        if self._since_cursor_update >= self.CURSOR_EVERY:
            self.flush_cursor()
        return payload

    def pop(self) -> Generator:
        """Sim-coroutine: the next element, as soon as its write lands."""
        payload = self.pop_nb()
        while payload is None:
            yield self._written.wait()
            payload = self.pop_nb()
            if payload is None:
                self.empty_polls += 1
        return payload

    def flush_cursor(self) -> None:
        """Publish consumption progress (a local store; producer reads it
        over the fabric when the ring looks full)."""
        self._since_cursor_update = 0
        self.arena.write(self._cursor_off,
                         struct.pack("!Q", self.next_seq - 1))


class RmemQueue(DemiQueue):
    """A Demikernel queue backed by a remote-memory ring.

    Attach a producer, a consumer, or both.  pushes go through the
    producer; a pump drives the consumer and delivers elements to pops -
    so the Figure-3 API is unchanged while the bytes live on another
    machine that never runs a CPU cycle for them.
    """

    kind = "rmem"

    def __init__(self, libos, qd: int):
        super().__init__(libos, qd)
        self.producer: Optional[RingProducer] = None
        self.consumer: Optional[RingConsumer] = None

    def attach_producer(self, producer: RingProducer) -> None:
        self.producer = producer

    def attach_consumer(self, consumer: RingConsumer) -> None:
        self.consumer = consumer
        # Parked in consumer.pop()'s poll loop, which never looks at
        # ``closed``: only reap() (close, or the owner's crash) ends it.
        self._spawn_pump(self._consume_pump(), "rmem")

    def push_sga(self, sga: Sga, token: QToken) -> None:
        if self.producer is None:
            self._complete(token, QResult(OP_PUSH, self.qd,
                                          error="no producer attached"))
            return
        self.libos.sim.spawn(self._push_driver(sga, token),
                             name="%s.q%d.rpush" % (self.libos.name, self.qd))

    def _push_driver(self, sga: Sga, token: QToken) -> Generator:
        if self.closed:  # died in the instant it pushed: the element is gone
            self._complete(token, QResult(OP_PUSH, self.qd, error="closed"))
            return
        try:
            yield from self.producer.push(sga.tobytes())
        except DemiError as err:
            self._complete(token, QResult(OP_PUSH, self.qd, error=str(err)))
            return
        self.libos.counters.rmem_tx_elements += 1
        self._complete(token, QResult(OP_PUSH, self.qd, nbytes=sga.nbytes))

    def crash_abort(self, counters) -> None:
        """The owner died: destroy the QPs under both ends, so a READ in
        flight cannot land in a buffer ``free_all`` took back - the pump
        first, or it would wake to the flush CQE as to a failed read."""
        self.reap()
        for end in (self.producer, self.consumer):
            if end is not None:
                end.ops.qp.destroy()
                counters.qps_destroyed += 1

    def _consume_pump(self) -> Generator:
        while not self.closed:
            try:
                payload = yield from self.consumer.pop()
            except (DemiError, QpError) as err:
                # The QP under the consumer died (a failed or flushed
                # READ, or a post on a QP already in error): the ring is
                # unreachable, so this pop and every later one fail.
                self.fail_pops(str(err))
                return
            while not self.has_room() and not self.closed:
                yield self.space_wq.wait()
            if self.closed:
                return
            self.deliver_payload(payload, names.RMEM_RX_ELEMENTS)
