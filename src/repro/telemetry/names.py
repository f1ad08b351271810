"""The name registry: every counter, span and traced metric name lives here.

Counters used to be minted inline as ``"%s.%s" % (self.name, "pushes")``
format strings scattered across the tree, which meant a rename silently
forked a counter and nothing could enumerate what the repo measures.
Now every leaf name is a constant (or, for parameterised families, a
function) in this module, and subsystems bump them through a
:class:`repro.sim.trace.CounterScope` bound to their own prefix.  The
same goes for what the tracer records only while tracing is on: span
names, the four span categories, and gauge / distribution leaf names
(the last section of this file).

``tests/lint/test_counter_names.py`` greps ``src/`` for raw
``.count("`` and ``.span("`` literals so the stringly-typed API cannot
creep back.

The *strings* are part of the repo's stable surface: chaos golden tests
pin exact counter values by full name, so renaming a constant's value is
a breaking change even though renaming the constant itself is not.
"""

from __future__ import annotations

# --------------------------------------------------------------- libOS core
PUSHES = "pushes"
POPS = "pops"
CANCELS = "cancels"
ACCEPTS = "accepts"
CONNECTS = "connects"

CTRL_QUEUE = "ctrl.queue"
CTRL_MERGE = "ctrl.merge"
CTRL_FILTER = "ctrl.filter"
CTRL_SORT = "ctrl.sort"
CTRL_MAP = "ctrl.map"
CTRL_QCONNECT = "ctrl.qconnect"
CTRL_CLOSE = "ctrl.close"
CTRL_CLOSE_NOOP = "ctrl.close_noop"
CTRL_CREAT = "ctrl.creat"
CTRL_OPEN = "ctrl.open"
CTRL_FSYNC = "ctrl.fsync"

# ------------------------------------------------------------- qtoken table
QTOKENS_CREATED = "qtokens_created"
QTOKENS_COMPLETED = "qtokens_completed"
QTOKENS_CANCELLED = "qtokens_cancelled"
LATE_COMPLETIONS_DROPPED = "late_completions_dropped"
WAITS = "waits"
WAIT_TIMEOUTS = "wait_timeouts"

# --------------------------------------------------- batched fast path
# One crossing, N completions: the amortization ledger.  ``batch_wait_
# completions / batch_waits`` is the realized batch size; ``doorbells +
# doorbells_saved`` must equal the frames the libOS posted (tests
# reconcile both).
BATCH_WAITS = "batch_waits"
BATCH_WAIT_COMPLETIONS = "batch_wait_completions"
DOORBELLS = "doorbells"
DOORBELLS_SAVED = "doorbells_saved"
TX_BURSTS = "tx_bursts"
TX_BURST_FRAMES = "tx_burst_frames"
RX_BURSTS = "rx_bursts"
RX_BURST_FRAMES = "rx_burst_frames"

# ---------------------------------------------------------- queue pipelines
PIPELINE_FILTER_DROPPED = "pipeline.filter_dropped"


def pipeline_device_elements(operator: str) -> str:
    return "pipeline.%s_device_elements" % operator


def pipeline_cpu_elements(operator: str) -> str:
    return "pipeline.%s_cpu_elements" % operator


# ------------------------------------------------------- per-libOS datapath
UDP_TX_ELEMENTS = "udp_tx_elements"
UDP_RX_ELEMENTS = "udp_rx_elements"
TCP_TX_ELEMENTS = "tcp_tx_elements"
TCP_RX_ELEMENTS = "tcp_rx_elements"
FILE_APPENDS = "file_appends"
FILE_READS = "file_reads"
RDMA_TX_ELEMENTS = "rdma_tx_elements"
RDMA_RX_ELEMENTS = "rdma_rx_elements"
RDMA_RX_ERRORS = "rdma_rx_errors"
FLOW_CONTROL_STALLS = "flow_control_stalls"
CREDIT_RETURNS_SENT = "credit_returns_sent"
CREDIT_RETURNS_RECEIVED = "credit_returns_received"
RMEM_TX_ELEMENTS = "rmem_tx_elements"
RMEM_RX_ELEMENTS = "rmem_rx_elements"
QUEUE_HOPS = "queue_hops"
BYTES_COPIED_TX = "bytes_copied_tx"
BYTES_COPIED_RX = "bytes_copied_rx"

# ----------------------------------------------------------- legacy kernel
SYSCALLS = "syscalls"
BLOCKS = "blocks"
WAKEUPS = "wakeups"
EWOULDBLOCK = "ewouldblock"
EPOLL_RETURNS = "epoll_returns"
EPOLL_WAKEUPS = "epoll_wakeups"
PAGE_CACHE_HITS = "page_cache_hits"
PAGE_CACHE_MISSES = "page_cache_misses"
FSYNCS = "fsyncs"

# ---------------------------------------------------------------- netstack
RX_FRAMES = "rx_frames"
TX_FRAMES = "tx_frames"
RX_MALFORMED = "rx_malformed"
RX_WRONG_MAC = "rx_wrong_mac"
RX_WRONG_IP = "rx_wrong_ip"
RX_UNKNOWN_ETHERTYPE = "rx_unknown_ethertype"
RX_UNKNOWN_PROTO = "rx_unknown_proto"
ARP_REQUESTS = "arp_requests"
ARP_UNRESOLVED_DROPS = "arp_unresolved_drops"
ARP_RELEARNS = "arp_relearns"
UDP_BAD_CHECKSUM_DROPS = "udp_bad_checksum_drops"
UDP_NO_LISTENER = "udp_no_listener"
TCP_BAD_CHECKSUM_DROPS = "tcp_bad_checksum_drops"
TCP_UNSENT_ACK_DROPS = "tcp_unsent_ack_drops"
TCP_RST_SENT = "tcp_rst_sent"
TCP_RSTS_ACCEPTED = "tcp_rsts_accepted"
TCP_CHALLENGE_ACKS = "tcp_challenge_acks"
TCP_RST_DROPS = "tcp_rst_drops"
TCP_SEGMENTS_TX = "tcp_segments_tx"
TCP_OOO_BUFFERED = "tcp_ooo_buffered"
TCP_WINDOW_OVERRUN_TRIMMED = "tcp_window_overrun_trimmed"
TCP_NAGLE_DELAYS = "tcp_nagle_delays"
TCP_DELAYED_ACKS = "tcp_delayed_acks"
TCP_RETRANSMITS = "tcp_retransmits"
TCP_FAST_RETRANSMITS = "tcp_fast_retransmits"
TCP_EARLY_RETRANSMITS = "tcp_early_retransmits"
TCP_CWND_REDUCTIONS = "tcp_cwnd_reductions"
TCP_WINDOW_PROBES = "tcp_window_probes"
TCP_ACCEPT_OVERFLOW = "tcp_accept_overflow"

# ------------------------------------------------------------------ fabric
FABRIC = "fabric"
TX_BYTES = "tx_bytes"
UNKNOWN_DST_FRAMES = "unknown_dst_frames"
DROPPED_FRAMES = "dropped_frames"

# ------------------------------------------------------------------ faults
FAULT = "fault"

# ------------------------------------------------------- crash / reclamation
RECLAIM = "reclaim"
RECLAIM_RUNS = "runs"
RECLAIM_QTOKENS_CANCELLED = "qtokens_cancelled"
RECLAIM_QTOKENS_RETIRED = "qtokens_retired"
RECLAIM_QDS_CLOSED = "qds_closed"
RECLAIM_FDS_CLOSED = "fds_closed"
RECLAIM_TCP_RSTS = "tcp_rsts"
RECLAIM_LISTENERS_CLOSED = "listeners_closed"
RECLAIM_UDP_UNBOUND = "udp_unbound"
RECLAIM_QPS_DESTROYED = "qps_destroyed"
RECLAIM_NVME_ABORTS = "nvme_aborts"
RECLAIM_RINGS_DRAINED = "rings_drained"
RECLAIM_BUFFERS_FREED = "buffers_freed"
RECLAIM_REGIONS_UNMAPPED = "regions_unmapped"

# ---------------------------------------------------------------- NIC / hw
RX_RING_DROPS = "rx_ring_drops"
RX_INTERRUPTS = "rx_interrupts"
RX_NO_HANDLER_DROPS = "rx_no_handler_drops"
RX_COALESCED = "rx_coalesced"
RX_POLLED = "rx_polled"
QPS_CREATED = "qps_created"
POSTED_RECVS = "posted_recvs"
WR_FLUSHES = "wr_flushes"
RETRANSMITS = "retransmits"
QP_ERRORS = "qp_errors"
NON_RDMA_FRAMES_DROPPED = "non_rdma_frames_dropped"
RX_UNKNOWN_QP = "rx_unknown_qp"
RX_UNKNOWN_KIND = "rx_unknown_kind"
RNR_NAKS_RECEIVED = "rnr_naks_received"
RNR_NAKS_SENT = "rnr_naks_sent"
REMOTE_ACCESS_NAKS = "remote_access_naks"
REMOTE_ACCESS_ERRORS = "remote_access_errors"
RX_OUT_OF_ORDER_DROPPED = "rx_out_of_order_dropped"
RECV_LENGTH_ERRORS = "recv_length_errors"
RX_SENDS_DELIVERED = "rx_sends_delivered"
RX_WRITES_APPLIED = "rx_writes_applied"
RX_READS_SERVED = "rx_reads_served"
LINK_FLAPS = "link_flaps"
LINK_DOWN_DROPS = "link_down_drops"
RING_REINITS = "ring_reinits"


def rxq_frames(queue: int) -> str:
    return "rxq%d_frames" % queue


def tx_packet_kind(kind: str) -> str:
    return "tx_%s" % kind


def offloaded(operator: str) -> str:
    return "offloaded_%s" % operator


# ----------------------------------------------- NIC-resident offload programs
# Counted against the offload engine's scope.  A device program either
# answers on the NIC (hit/miss), steers the frame to a chosen RX queue
# (steered), or punts it to the normal RSS path (punts); element
# functions that raise become error completions (faults).
OFFLOAD_ELEMENT_FAULTS = "offload_element_faults"
OFFLOAD_KV_HITS = "offload_kv_hits"
OFFLOAD_KV_MISSES = "offload_kv_misses"
OFFLOAD_KV_STEERED = "offload_kv_steered"
OFFLOAD_KV_PUNTS = "offload_kv_punts"


# ------------------------------------------------------------------- IOMMU
IOMMU_MAPS = "maps"
IOMMU_UNMAPS = "unmaps"
IOMMU_FAULTS = "faults"
IOMMU_TRANSLATIONS = "translations"

# -------------------------------------------------------------------- NVMe
NVME_READS = "reads"
NVME_READ_BYTES = "read_bytes"
NVME_WRITES = "writes"
NVME_WRITE_BYTES = "write_bytes"
NVME_FLUSHES = "flushes"
NVME_TIMEOUTS = "timeouts"
NVME_ABORTS = "aborts"
NVME_RETRIES = "retries"
NVME_CTRL_RESETS = "ctrl_resets"
NVME_DEVICE_FAILURES = "device_failures"
# "BPF for storage": on-device predicate scans over an LBA range.  A
# scan charges the device channel for the read + per-byte predicate
# work and returns only matching records; a raising program is an
# error completion (scan_faults), not a hang.
NVME_SCANS = "scans"
NVME_SCAN_BYTES = "scan_bytes"
NVME_SCAN_MATCHES = "scan_matches"
NVME_SCAN_FAULTS = "scan_faults"
# The log store's read path, counted on the device it spares: a record
# served from the blocks the last read brought in (no command), one
# served from the read-ahead's blocks once they had landed (no wait),
# or one that waited on a device read.
LOG_READ_SPAN_HITS = "read_span_hits"
LOG_READ_AHEAD_HITS = "read_ahead_hits"
LOG_READ_SPAN_MISSES = "read_span_misses"

# ------------------------------------------------------------------ memory
MM = "mm"
MM_REGION_REGISTRATIONS = "region_registrations"
MM_REGIONS_CREATED = "regions_created"
MM_ALLOCS = "allocs"
MM_BUFFER_REGISTRATIONS = "buffer_registrations"
MM_FREES = "frees"
MM_DEFERRED_FREES = "deferred_frees"
MM_DEALLOCATIONS = "deallocations"
# A lent slice (a popped record in the log's read span) given back with
# sga_free: free_ns, its reference on the lender's buffer dropped.
MM_LENT_RETURNS = "lent_returns"
MM_REGIONS_RECLAIMED = "regions_reclaimed"

# -------------------------------------------------------------------- apps
KV_VALUE_COPIES = "kv_value_copies"

# --------------------------------------------------- serve loop / cluster
# Counted by DemiEventLoop and ProtoServer against the serving libOS
# scope, so a sharded deployment gets one set per shard.  The paper's
# wake-one claim at N workers is the pair of zeros: a run must end with
# shard_wasted_wakeups == shard_cross_wakeups == 0.
SHARD_WAKEUPS = "shard_wakeups"
SHARD_WASTED_WAKEUPS = "shard_wasted_wakeups"
SHARD_CROSS_WAKEUPS = "shard_cross_wakeups"
SHARD_MISROUTED = "shard_misrouted_requests"
SHARD_REQUESTS = "shard_requests"
#: completions drained per shard wake-up (the N-per-crossing win)
SHARD_BATCH_COMPLETIONS = "shard_batch_completions"

# -------------------------------------------------------------- replication
# Chain-replicated KV tier (repro.cluster.replica).  Counted against the
# replica host's tracer scope ("repl") except the client-side retry and
# stale-ack counters, which land under the client libOS scope.
#: acks a tail pushed, one per applied entry whose client it can reach
REPL_WRITES_ACKED = "repl_writes_acked"
REPL_ENTRIES_FORWARDED = "repl_entries_forwarded"
REPL_ENTRIES_APPLIED = "repl_entries_applied"
REPL_ENTRIES_REPLAYED = "repl_entries_replayed"
REPL_HEARTBEATS = "repl_heartbeats"
REPL_LEASE_EXPIRIES = "repl_lease_expiries"
REPL_CHAIN_SPLICES = "repl_chain_splices"
REPL_FAILOVERS = "repl_failovers"
REPL_REDIRECTS = "repl_redirects"
REPL_SYNCS = "repl_syncs"
REPL_LINK_FAULTS = "repl_link_faults"
REPL_CLIENT_RETRIES = "repl_client_retries"
#: acks of an earlier operation a client dropped (a retried PUT's second
#: ack, or one that arrived after the client gave up)
REPL_STALE_ACKS = "repl_stale_acks"

# ---------------------------------------------------------------- protocols
# The unified wire-protocol layer (repro.apps.proto): one set per
# serving libOS scope.  decode errors are *stream* desyncs (fatal per
# connection); error replies are protocol-level errors the codec can
# carry inline (-ERR, memcached status 0x0081) without losing the
# connection.
PROTO_REQUESTS = "proto_requests"
PROTO_DECODE_ERRORS = "proto_decode_errors"
PROTO_ERROR_REPLIES = "proto_error_replies"
PROTO_PIPELINE_BATCHES = "proto_pipeline_batches"
PROTO_PARTIAL_FEEDS = "proto_partial_feeds"
PROTO_CONNS = "proto_connections"
#: requests that did not parse: datagrams UdpKvServer dropped, connections
#: posix_kv_server and ReplicaNode closed
KV_MALFORMED_REQUESTS = "kv_malformed_requests"

# ------------------------------------------------------------------ loadgen
# The open-loop generator (repro.bench.loadgen), counted against each
# client libOS scope.
LOADGEN_CONNECTS = "loadgen_connects"
LOADGEN_RECONNECTS = "loadgen_reconnects"
LOADGEN_STALLS = "loadgen_stalls"

# ------------------------------------------------------ spans (tracing on)
# Recorded only while ``Tracer.tracing`` is set; none of these names ever
# enters ``Tracer.signature()``.  A span's category is its stack layer and
# its lane inside a track of the Chrome trace, in this order.
CAT_APP = "app"
CAT_LIBOS = "libos"
CAT_NETSTACK = "netstack"
CAT_DEVICE = "device"
SPAN_CATEGORIES = (CAT_APP, CAT_LIBOS, CAT_NETSTACK, CAT_DEVICE)

#: qtoken lifetime, mint to completion (or cancel)
SPAN_PUSH = "push"
SPAN_POP = "pop"
#: a TCP segment from first transmit to the cumulative ACK covering it
SPAN_TCP_TX_ACK = "tcp_tx_ack"
#: doorbell to wire, queueing behind the TX pipeline included
SPAN_NIC_TX = "nic_tx"
SPAN_NVME_READ = "nvme_read"
SPAN_NVME_WRITE = "nvme_write"
SPAN_NVME_SCAN = "nvme_scan"
SPAN_NVME_FLUSH = "nvme_flush"
SPAN_NVME_CTRL_RESET = "nvme_ctrl_reset"

# --------------------------------- gauges and distributions (tracing on)
#: gauge: elements buffered in a libOS's queues ahead of their pop
QUEUE_DEPTH = "queue_depth"
#: distributions, one sample per token / wait / kernel copy
QTOKEN_LIFETIME_NS = "qtoken_lifetime_ns"
WAIT_DISPATCH_NS = "wait_dispatch_ns"
COPIED_BYTES_PER_OP = "copied_bytes_per_op"


def rxq_occupancy(queue: int) -> str:
    """Gauge: frames waiting in one NIC RX ring."""
    return "rxq%d_occupancy" % queue
