"""Workload 5: one host appends, pops back and scans a log on SPDK."""

NAME = "storelog-spdk-append-scan"
WHY = ("no network at all: only sim.engine, hw.nvme, storage and libos run,"
       " with writes beside reads on the same layer")

DRIVER = "storelog"
SERVING_SCOPE = "h."
N_RECORDS = 12_000       # ops = appends + reads + scanned records = 3x this
RECORD_SIZE = 256
FSYNC_EVERY = 64         # on average; batch lengths come from the seed
SCAN_FIRST_BYTE_BELOW = 32   # the on-device predicate keeps about 1 in 8
MARK_EVERY_OPS = 500     # about 20 ms of host time between two marks
