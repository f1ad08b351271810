"""Seeded request schedules, statistics and the two host clocks.

Nothing here imports ``repro``: the schedule (due time, connection, op,
key, value bytes) and every expected reply are worked out from the seed
before the simulator exists, so the program under test sees only inputs.
"""

from __future__ import annotations

import math
import random
import resource
import statistics
import time
from bisect import bisect_left
from typing import List, NamedTuple, Optional, Sequence, Tuple

GET = "get"
SET = "set"


class Op(NamedTuple):
    """One scheduled request and the reply a correct server must give."""

    due_ns: int             # open loop: offset into its rung; closed loop:
                            # think time before the request is issued
    op: str                 # GET or SET
    key: int                # index into the connection's own key list
    value: bytes            # SET payload; b"" on GET
    expect: bytes           # GET: the last value SET to this key before it


class Rung(NamedTuple):
    """One open-loop offered-load step: every connection's ops, by due time."""

    name: str
    rate_ops_per_s: float
    window_ns: int
    ops: List[List[Op]]     # ops[conn] sorted by due_ns


class Schedule(NamedTuple):
    """Everything one execution is fed: preload values, then the ops."""

    preload: List[List[bytes]]   # preload[conn][key] = initial value
    rungs: List[Rung]            # closed loops carry one rung, due_ns == 0
    final: List[List[bytes]]     # final[conn][key] = value the read-back wants


def _zipf_cdf(n: int, skew: float) -> List[float]:
    weights = [1.0 / ((i + 1) ** skew) for i in range(n)]
    total = sum(weights)
    acc, cdf = 0.0, []
    for w in weights:
        acc += w / total
        cdf.append(acc)
    return cdf


#: payload sizes vary this far around the nominal size, so that simulated
#: latency depends on the seed: with one fixed size a closed loop's median
#: reads the same on every seed
VALUE_SPREAD = 0.25


def _value(rng: random.Random, nominal: int,
           spread: float = VALUE_SPREAD) -> bytes:
    """A payload within *spread* of *nominal* bytes."""
    return rng.randbytes(rng.randint(int(nominal * (1 - spread)),
                                     int(nominal * (1 + spread))))


def _mix(rng: random.Random, model: List[bytes], cdf: Optional[List[float]],
         get_fraction: float, value_size, due_ns: int) -> Op:
    if cdf is None:
        key = rng.randrange(len(model))
    else:
        key = min(bisect_left(cdf, rng.random()), len(model) - 1)
    if rng.random() < get_fraction:
        return Op(due_ns, GET, key, b"", model[key])
    value = _value(rng, *value_size)
    model[key] = value
    return Op(due_ns, SET, key, value, b"")


def make_schedule(seed: int, n_conns: int, keys_per_conn: int,
                  value_size: Tuple[int, float], get_fraction: float,
                  zipf_skew: float, closed_ops: int = 0, think_ns: int = 0,
                  rungs: Sequence[Tuple[str, float, int]] = (),
                  arrival_seed: Optional[int] = None) -> Schedule:
    """The full request schedule of one execution.

    Every connection owns its keys, so per-key order is total on that
    connection and the expected reply of each GET is known up front.
    *value_size* is ``(nominal bytes, spread)``.
    *closed_ops* > 0 makes one closed-loop rung of that many ops per
    connection, each after a think time of up to *think_ns*; otherwise
    each ``(name, rate_ops_per_s, window_ns)`` in *rungs* is a Poisson
    open-loop step split evenly over connections.
    """
    rng = random.Random(seed)
    arrivals = rng if arrival_seed is None else random.Random(arrival_seed)
    cdf = _zipf_cdf(keys_per_conn, zipf_skew) if zipf_skew > 0 else None
    preload = [[_value(rng, *value_size) for _ in range(keys_per_conn)]
               for _ in range(n_conns)]
    models = [list(values) for values in preload]
    out: List[Rung] = []
    if closed_ops:
        ops = [[_mix(rng, models[c], cdf, get_fraction, value_size,
                     rng.randint(0, think_ns))
                for _ in range(closed_ops)] for c in range(n_conns)]
        out.append(Rung("closed", 0.0, 0, ops))
    for name, rate, window_ns in rungs:
        mean_gap_ns = 1e9 * n_conns / rate
        ops = []
        for c in range(n_conns):
            conn_ops, t = [], arrivals.expovariate(1.0 / mean_gap_ns)
            while t < window_ns:
                conn_ops.append(_mix(rng, models[c], cdf, get_fraction,
                                     value_size, int(t)))
                t += arrivals.expovariate(1.0 / mean_gap_ns)
            ops.append(conn_ops)
        out.append(Rung(name, rate, window_ns, ops))
    return Schedule(preload, out, models)


class LogInputs(NamedTuple):
    """What the log writer is fed."""

    records: List[bytes]    # the first byte is what the scan predicate tests
    fsync_after: List[int]  # record indexes the writer fsyncs after


def make_log_inputs(seed: int, n: int, size: int,
                    fsync_every: int) -> LogInputs:
    """*n* records and fsync points *fsync_every* records apart on average.

    Batch lengths vary like payload sizes do: with a fixed cadence the
    log's CPU per op is a constant of the cost model on every seed.
    """
    rng = random.Random(seed)
    records = [_value(rng, size) for _ in range(n)]
    fsync_after, at = [], -1
    while at < n - 1:
        at = min(n - 1, at + rng.randint(
            int(fsync_every * (1 - VALUE_SPREAD)),
            int(fsync_every * (1 + VALUE_SPREAD))))
        fsync_after.append(at)
    return LogInputs(records, fsync_after)


def make_inputs(cfg, seed: int):
    """A workload's inputs: log records, or the request schedule."""
    if cfg.DRIVER == "storelog":
        return make_log_inputs(seed, cfg.N_RECORDS, cfg.RECORD_SIZE,
                               cfg.FSYNC_EVERY)
    rungs = [(name, cfg.BASE_RATE_OPS_PER_S * fraction, window_ns)
             for name, fraction, window_ns in getattr(cfg, "RUNGS", ())]
    value_size = (cfg.VALUE_SIZE, getattr(cfg, "VALUE_SPREAD", VALUE_SPREAD))
    return make_schedule(seed, cfg.N_CONNS, cfg.KEYS_PER_CONN,
                         value_size, cfg.GET_FRACTION, cfg.ZIPF_SKEW,
                         closed_ops=getattr(cfg, "OPS_PER_CONN", 0),
                         think_ns=getattr(cfg, "THINK_NS", 0), rungs=rungs,
                         arrival_seed=getattr(cfg, "ARRIVAL_SEED", None))


# -- statistics -------------------------------------------------------------

def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of *samples*, p in (0, 100]."""
    ordered = sorted(samples)
    if not ordered:
        return math.nan
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


def smooth_median(samples: Sequence[float]) -> float:
    """The mean of the samples between the 45th and 55th percentile.

    A deterministic closed loop answers most requests in one of a dozen
    integer latencies, so its nearest-rank median is the same integer on
    most seeds; the mean of the middle tenth moves with the mix.
    """
    ordered = sorted(samples)
    lo = len(ordered) * 45 // 100
    middle = ordered[lo:max(lo + 1, len(ordered) * 55 // 100)]
    return sum(middle) / len(middle)


def spread(values: Sequence[float]) -> float:
    """Interquartile range over median, as ``statistics.quantiles`` cuts it.

    The same figure the benchmark's own acceptance takes across runs; one
    execution that met a burst of interference does not widen it much.
    """
    quartiles = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / mid if mid else 0.0


# -- host time that a busy neighbour does not move ---------------------------
#
# The container shares its host.  For seconds or minutes at a time another
# tenant makes every piece of Python here take 1.4-1.7 times as much CPU time
# (measured over five minutes: 69 % of the time, in stretches of up to 80 s),
# so neither a median nor a minimum over the executions of one invocation is
# steady: medians moved by 8-27 % from one invocation to the next, slice-wise
# minima still by 17-29 %.  What did hold still, within 1-6 %, is work time
# over the time a fixed reference loop took right beside it.

#: CPU seconds ``reference()`` takes undisturbed on the container this was
#: written on; it scales host times back to seconds of that machine
REFERENCE_S = 0.00093
_REFERENCE_TABLE = [float(i) for i in range(100_000)]
#: off while an execution is profiled, so that no layer is billed for it
calibrate = True


def reference() -> float:
    """A fixed piece of interpreter-bound work with a few MB of working set.

    A busy neighbour slows it by 1.48x, the workloads by 1.38-1.45x; a
    tighter loop (heap pushes, generator sends) slows by 1.67x and a
    pointer chase through 50 MB by 2.4x, so neither would do.
    """
    table, acc, j = _REFERENCE_TABLE, 0.0, 1
    for _ in range(8000):
        j = (j * 1103515245 + 12345) % 100_000
        acc += table[j]
    return acc


def mark(stamps: List[float]) -> None:
    """Stamp the CPU clock, run the reference loop, stamp again.

    ``stamps`` thus alternates: reference, work, reference, ... , reference.
    """
    stamps.append(time.process_time())
    if calibrate:
        reference()
    stamps.append(time.process_time())


def undisturbed(runs: Sequence[Sequence[float]]) -> float:
    """Reference seconds of one execution's work, from every one's stamps.

    The executions of one invocation do identical work slice by slice.  Each
    slice counts at the least time any execution spent on it, over the least
    time the reference loops on either side of it took, times
    ``REFERENCE_S``.  The minimum drops bursts, which only ever add; the
    ratio cancels a neighbour that stays.
    """
    total = 0.0
    for i in range(1, len(runs[0]) - 1, 2):
        work = min(s[i + 1] - s[i] for s in runs)
        beside = min((s[i] - s[i - 1] + s[i + 2] - s[i + 1]) / 2 for s in runs)
        total += work / beside
    return total * REFERENCE_S


def host_speed(runs: Sequence[Sequence[float]]) -> float:
    """``REFERENCE_S`` over the median reference loop: 1.0 is undisturbed."""
    loops = [s[i + 1] - s[i] for s in runs for i in range(0, len(s), 2)]
    return REFERENCE_S / statistics.median(loops)


# -- host clocks ------------------------------------------------------------

class HostClock:
    """CPU seconds (what is reported) beside wall seconds (kept as a ratio).

    ``process_time`` is steadier than wall time on a shared box; the wall
    clock is read only so ``bench.wall_to_cpu_ratio`` can show when the
    box was contended.
    """

    def __init__(self):
        self.cpu = time.process_time()
        self.wall = time.perf_counter()

    def elapsed(self) -> Tuple[float, float]:
        return (time.process_time() - self.cpu,
                time.perf_counter() - self.wall)


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
