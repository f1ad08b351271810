"""Workload 4: 3-node chain over RDMA ring logs; the head dies a third in."""

NAME = "kv-replicated-rdma-failover"
WHY = ("rdma, rmem and cluster.replica do the work, netstack and kernelos"
       " none: the bypass for every TCP/IP change; guards acked writes")

DRIVER = "replicated"
SERVING_SCOPE = "replica"
N_NODES = 3
N_CONNS = 2              # clients, each a closed loop
KEYS_PER_CONN = 16
VALUE_SIZE = 64
# Fixed size.  RdmaLibOS checks header + payload (5 + n bytes) against the
# payload buffer's address, so a buffer in a region's last 64-byte slot
# faults the IOMMU when n % 64 is 0 or above 59; replicas never free what
# they pop, so regions do fill.  A src/ defect this PR may not fix; every
# element pushed here is 1, 5, 10, 69 or 78 bytes, which cannot trip it.
VALUE_SPREAD = 0.0
GET_FRACTION = 0.25
ZIPF_SKEW = 0.0          # uniform keys
OPS_PER_CONN = 1200
# Each op waits a seeded think time of up to this long first.  Replicas
# poll on 2 and 3 us timers that all start at time 0, so back-to-back
# requests see latencies on a 1 us grid and the median reads 12000 ns on
# every seed; think time moves the requests off that grid.
THINK_NS = 2_000
SYNC_NS = 50_000         # chains finish their first sync before the preload
SETTLE_NS = 2_000_000    # after the last op, before every key is read back
MARK_EVERY_OPS = 25      # about 20 ms of host time between two marks
