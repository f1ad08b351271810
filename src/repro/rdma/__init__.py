"""RDMA verbs and connection management over the simulated RDMA NIC."""

from .cm import CmListener, RdmaCm
from .verbs import ProtectionDomain, QueuePair, VerbsError

__all__ = [
    "ProtectionDomain",
    "QueuePair",
    "VerbsError",
    "RdmaCm",
    "CmListener",
]
