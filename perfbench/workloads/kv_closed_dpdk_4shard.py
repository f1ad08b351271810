"""Workload 1: closed loop against a 4-shard RESP server on dpdk."""

NAME = "kv-closed-dpdk-4shard"
WHY = ("ROADMAP baseline: user-level netstack, hw.nic, cluster and core wait"
       " paths do the work; kernelos, rdma and storage do none")

DRIVER = "closed-shard"
SERVING_SCOPE = "server."   # counter scopes of the serving side
PROTOCOL = "resp"
PORT = 6379
N_CONNS = 4              # one client host, connection and shard each
KEYS_PER_CONN = 32
VALUE_SIZE = 256
GET_FRACTION = 0.9
ZIPF_SKEW = 0.99
OPS_PER_CONN = 600
MARK_EVERY_OPS = 25      # about 20 ms of host time between two marks
