"""Workload 2: open-loop RESP against one server core on a dpdk pair."""

NAME = "resp-open-dpdk"
WHY = ("small requests: per-packet cost, pipelined decoding and timed"
       " wait_any dominate; queueing at one busy core shows as tail latency")

DRIVER = "open"
SERVING_SCOPE = "server."   # counter scopes of the serving side
LIBOS = "dpdk"
PROTOCOL = "resp"
PORT = 6390
DROP_RATE = 0.0
N_CONNS = 4
KEYS_PER_CONN = 16       # 64 keys in all
VALUE_SIZE = 128
GET_FRACTION = 0.9
ZIPF_SKEW = 0.99
BASE_RATE_OPS_PER_S = 240_000.0
#: (rung, fraction of the base rate, window in simulated ns).  The latency
#: rung gets most of the budget: it needs the samples, the others do not.
RUNGS = (("low", 0.5, 2_000_000), ("mid", 0.8, 8_000_000),
         ("over", 1.2, 3_000_000))
LATENCY_RUNG = "mid"
# Arrival times come from this pinned seed, not from --seed, which still
# draws every op, key and value.  Queueing noise between two Poisson draws
# of ~1.5k arrivals moves p99 by 25-30 %, more than any bound may allow;
# with the arrivals pinned it moves by under 2 %.
ARRIVAL_SEED = 20190513
P99_LIMIT_NS = 160_000       # about twice the mid rung's p99 when added
DRAIN_TIMEOUT_NS = 100_000_000
MARK_EVERY_OPS = 25      # about 20 ms of host time between two marks
