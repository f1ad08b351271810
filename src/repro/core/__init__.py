"""The Demikernel: I/O queues, the Figure-3 syscall API, wait scheduler."""

from .api import LibOS
from .eventloop import DemiEventLoop, EventHandle
from .pipeline import (
    FilteredQueue,
    MappedQueue,
    MergedQueue,
    QueueConnector,
    SortedQueue,
)
from .queue import DemiQueue, MemoryQueue
from .retry import RetryBudgetExceeded, retry_with_backoff
from .types import OP_POP, OP_PUSH, DemiError, QResult, QToken, Sga, SgaSegment
from .wait import QTokenTable

__all__ = [
    "LibOS",
    "DemiEventLoop",
    "DemiQueue",
    "MemoryQueue",
    "FilteredQueue",
    "MappedQueue",
    "MergedQueue",
    "SortedQueue",
    "QueueConnector",
    "Sga",
    "SgaSegment",
    "QResult",
    "QToken",
    "QTokenTable",
    "DemiError",
    "RetryBudgetExceeded",
    "retry_with_backoff",
    "OP_PUSH",
    "OP_POP",
]
