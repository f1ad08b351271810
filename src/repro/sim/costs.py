"""The calibrated cost model.

Every latency constant in the simulation lives here so experiments can
sweep or ablate them.  Values are nanoseconds unless named otherwise and
are calibrated to the figures the paper and its citations use:

* copying a 4 KB page costs ~1 us on a 4 GHz CPU (HotOS '19 section 3.2);
* a syscall round trip costs ~0.5 us (post-KPTI measurements);
* kernel network stack traversal costs a few microseconds per packet
  while a streamlined user-level stack costs a few hundred nanoseconds
  (Arrakis, IX, mTCP);
* RDMA round trips land around 2-3 us, kernel TCP around 20-40 us.

Only *relative* shape matters for the reproduction: who wins, by what
factor, where crossovers fall.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

__all__ = ["CostModel", "DEFAULT_COSTS", "fast_network_profile", "slow_device_profile"]


@dataclass
class CostModel:
    """All simulated latency constants, in nanoseconds unless noted."""

    # ------------------------------------------------------------- CPU
    #: user<->kernel privilege round trip (entry + exit + KPTI flushes)
    syscall_ns: int = 500
    #: full thread context switch (save/restore + scheduler)
    context_switch_ns: int = 1500
    #: hardware interrupt entry + softirq dispatch
    interrupt_ns: int = 2000
    #: waking one blocked thread (runqueue insert + IPI)
    thread_wakeup_ns: int = 400

    # ----------------------------------------------------------- copies
    #: cost of copying one 4 KB page (the paper's 1 us @ 4 GHz claim)
    copy_page_ns: int = 1000
    copy_page_bytes: int = 4096
    #: fixed setup cost per memcpy call
    copy_base_ns: int = 40

    # ------------------------------------------------- kernel I/O stack
    #: kernel TCP/IP transmit path per packet (skb alloc, netfilter, qdisc)
    kernel_net_tx_ns: int = 2600
    #: kernel TCP/IP receive path per packet (softirq, demux, socket queue)
    kernel_net_rx_ns: int = 3000
    #: socket layer bookkeeping per syscall (fd lookup, locks)
    kernel_sock_op_ns: int = 300
    #: epoll_wait bookkeeping per returned event
    epoll_event_ns: int = 150
    #: VFS path: fd table, inode locks, generic_file_* glue per op
    vfs_op_ns: int = 700
    #: page-cache hit lookup
    page_cache_hit_ns: int = 300
    #: kernel block layer + io scheduler + completion interrupt per request
    kernel_block_ns: int = 10000

    # ---------------------------------------------- user-level I/O stack
    #: streamlined user-level stack transmit per packet
    user_net_tx_ns: int = 350
    #: streamlined user-level stack receive per packet
    user_net_rx_ns: int = 400
    #: receive cost for the 2nd..Nth frame of one burst: the per-burst
    #: fixed work (cache warm-up, ring bookkeeping, prefetch) is paid by
    #: the first frame, so the rest run the hot loop only (DPDK-style
    #: rx_burst amortization)
    user_net_rx_batch_ns: int = 150
    #: message framing (length prefix encode/decode) per message
    framing_ns: int = 60
    #: mTCP-style shim: app<->stack-thread queue hop per operation
    mtcp_queue_hop_ns: int = 1200
    #: mTCP-style shim: the stack thread drains its app queues once per
    #: event-loop cycle; operations wait for the next cycle boundary
    mtcp_cycle_ns: int = 10000

    # ------------------------------------------------------------ devices
    #: MMIO doorbell write (posted, but occupies the store pipeline)
    doorbell_ns: int = 200
    #: DMA engine setup per transfer
    dma_base_ns: int = 300
    #: PCIe gen4 x16 ~ 50 GB/s
    dma_ns_per_byte: float = 0.02
    #: NIC pipeline processing per frame
    nic_process_ns: int = 300
    #: RDMA NIC per-verb processing (QP state machine, MR check)
    rdma_nic_process_ns: int = 350
    #: one poll-mode driver RX-queue check
    dpdk_poll_ns: int = 80
    #: on-device offload engine per-element function cost
    offload_element_ns: int = 150
    #: running a queue filter/map/sort element function on the host CPU
    pipeline_element_cpu_ns: int = 250

    # ---------------------------------------------------------- network
    #: one-way link propagation + switch transit
    link_latency_ns: int = 500
    #: 100 Gb/s => 0.08 ns per byte serialization
    link_ns_per_byte: float = 0.08

    # ---------------------------------------------------------- storage
    nvme_read_ns: int = 70000
    nvme_write_ns: int = 25000
    nvme_flush_ns: int = 100000
    nvme_ns_per_byte: float = 0.25
    #: on-device predicate evaluation per scanned byte ("BPF for
    #: storage" scans: the controller streams blocks past a program
    #: instead of DMA-ing them to the host)
    nvme_scan_ns_per_byte: float = 0.05
    #: SPDK-style user-space submission cost per command
    spdk_submit_ns: int = 400

    # ----------------------------------------------------------- memory
    malloc_ns: int = 80
    free_ns: int = 60
    #: registering one region with a device IOMMU (ioctl + page pinning base)
    region_register_ns: int = 3000
    #: pinning cost per 4 KB page in a registration
    pin_page_ns: int = 200
    #: explicit per-buffer registration (what RDMA apps do today)
    buffer_register_ns: int = 1800

    # -------------------------------------------------------- demikernel
    #: libOS queue bookkeeping per push
    libos_push_ns: int = 120
    #: libOS queue bookkeeping per pop
    libos_pop_ns: int = 100
    #: allocating + resolving a qtoken
    qtoken_ns: int = 30
    #: scheduling a waiter on completion (exactly one wake-up)
    wait_dispatch_ns: int = 100

    # ------------------------------------------------------- application
    #: Redis-like request parse cost
    kv_parse_ns: int = 300
    #: Redis-like GET hash-table work
    kv_get_ns: int = 700
    #: Redis-like PUT hash-table + allocation work
    kv_put_ns: int = 900

    # ------------------------------------------------------------ helpers
    def copy_ns(self, nbytes: int) -> int:
        """Cost of memcpy'ing *nbytes* (the paper's 1 us / 4 KB rate)."""
        if nbytes <= 0:
            return 0
        return self.copy_base_ns + (nbytes * self.copy_page_ns) // self.copy_page_bytes

    def dma_ns(self, nbytes: int) -> int:
        """Cost of one DMA transfer of *nbytes* over PCIe."""
        return self.dma_base_ns + int(nbytes * self.dma_ns_per_byte)

    def wire_ns(self, nbytes: int) -> int:
        """One-way wire time for a frame of *nbytes*."""
        return self.link_latency_ns + int(nbytes * self.link_ns_per_byte)

    def nvme_io_ns(self, nbytes: int, write: bool) -> int:
        base = self.nvme_write_ns if write else self.nvme_read_ns
        return base + int(nbytes * self.nvme_ns_per_byte)

    def registration_ns(self, nbytes: int, per_buffer: bool = False) -> int:
        """Cost of registering a region (or single buffer) of *nbytes*."""
        pages = max(1, (nbytes + self.copy_page_bytes - 1) // self.copy_page_bytes)
        base = self.buffer_register_ns if per_buffer else self.region_register_ns
        return base + pages * self.pin_page_ns

    def with_overrides(self, **kw) -> "CostModel":
        """A copy of the model with the given fields replaced."""
        return replace(self, **kw)

    def as_dict(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name in self.__dataclass_fields__:
            out[name] = getattr(self, name)
        return out


DEFAULT_COSTS = CostModel()


def fast_network_profile() -> CostModel:
    """A 200 Gb/s / shallow-switch datacenter profile (stress the CPU)."""
    return DEFAULT_COSTS.with_overrides(link_latency_ns=250, link_ns_per_byte=0.04)


def slow_device_profile() -> CostModel:
    """An older-device profile where the network dominates (sanity checks)."""
    return DEFAULT_COSTS.with_overrides(
        link_latency_ns=5000, link_ns_per_byte=0.8, nic_process_ns=1000
    )
