"""Disaggregated-memory queues over one-sided RDMA (section 4.1)."""

from .ring import (
    RING_HEADER_BYTES,
    RemoteRing,
    RingConsumer,
    RingProducer,
    RmemQueue,
    SLOT_HEADER,
)

__all__ = [
    "RemoteRing",
    "RingProducer",
    "RingConsumer",
    "RmemQueue",
]
