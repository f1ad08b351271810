"""The six workloads: one file of pinned constants each.

Ladder rates and latency limits are fixed numbers.  Each limit was set
once, at about twice the ``mid`` rung's p99 at the commit that added the
benchmark, and is never recomputed.
"""

from __future__ import annotations

from importlib import import_module
from types import SimpleNamespace

#: report order; also the order ``run.py`` runs them in
NAMES = (
    "kv-closed-dpdk-4shard",
    "resp-open-dpdk",
    "memcached-open-posix",
    "kv-replicated-rdma-failover",
    "storelog-spdk-append-scan",
    "resp-open-dpdk-lossy",
)

#: the constants a miniature run (``scale`` < 1) shrinks
_SIZES = ("OPS_PER_CONN", "N_RECORDS")


def config(name: str, scale: float = 1.0) -> SimpleNamespace:
    """The constants of workload *name*, sizes multiplied by *scale*."""
    if name not in NAMES:
        raise KeyError("unknown workload %r; have %s"
                       % (name, ", ".join(NAMES)))
    module = import_module("%s.%s" % (__name__, name.replace("-", "_")))
    cfg = SimpleNamespace(**{k: v for k, v in vars(module).items()
                             if k.isupper()})
    if scale != 1.0:
        for size in _SIZES:
            if hasattr(cfg, size):
                setattr(cfg, size, max(1, int(getattr(cfg, size) * scale)))
        if hasattr(cfg, "RUNGS"):
            cfg.RUNGS = tuple((rung, fraction, max(1, int(window_ns * scale)))
                              for rung, fraction, window_ns in cfg.RUNGS)
    return cfg
