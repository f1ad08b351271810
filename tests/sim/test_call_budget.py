"""The tight gate on simulator speed: Python calls per simulated request.

Host seconds are noisy; the number of calls the interpreter makes for a
fixed simulated run is not - it repeats exactly under ``PYTHONHASHSEED=0``
and moves only when the code on the hot path does.  The run is the
ROADMAP's baseline scenario in miniature: the ``kv-scaling`` workload at
4 cores and 50 ops per shard, 200 requests against four shards, set-up
(ARP, connects) included.  The same run is also counted in *events*: what
it schedules on the simulator's heap and how many entries the heap holds
at its fullest - "no event without work", as deterministic as the calls.
A second probe guards the replicated RDMA path the first never enters: a
chaos run whose simulated time is mostly idle, so what it counts is what
the chain costs when nothing is happening.
"""

import os
import subprocess
import sys

import repro

REQUESTS = 4 * 50

#: measured on CPython 3.11: 416_283 before PR 13 and 260_208 after it,
#: 262_159 after PR 16, 234_655 after PR 17, 189_458 after PR 18 (ACKs ride
#: on the reply, so a request is 2 frames and ~17 events where it was 4
#: and 28), 188_752 after PR 20, 184_522 after PR 21 (with tracing off no
#: null span or metric is called and `wait` reads no clock: 21 calls per
#: request gone), 184_162 now (PR 22: a push no longer bounces from the
#: queue into its libOS, which pays for the one place a received element
#: is born), 187_070 later (every dpdk libOS takes the batched datapath:
#: the four clients flush TX through a ``call_in(0)`` per instant, and a
#: push and a ``push_to`` share one body); 3.12 inlines comprehensions
#: and counts fewer.  193_130 before counters became fields and 180_455
#: after: a bump is an attribute add, not a call (58 per request), a wait
#: plants one bound callback, and a qtoken is one record, retired with
#: one ``pop``.  Those counts were pstats' ``total_calls``, which keeps
#: one dataclass ``__init__`` of all of them; counted per code object the
#: same run was 182_118 calls, and 179_913 once the attribute tallies
#: that twinned a counter, or that nothing read, were gone (a charge, a
#: spawn, a frame and a pop no longer add to a field nobody reads).
#: 176_528 once a charge is a ``Sleep``: no ``Timeout`` built, no
#: ``trigger`` called (17 calls per request).  175_744 before a wait was
#: one frame parked on its tokens (an ``AnyWait``: no ``any_of``
#: completion, no ``Timeout``, no second generator layer) and 166_920
#: after it (44 calls per request).  The budget sits 4 % above the
#: measurement, 33 calls per request: a call put back into every counter
#: bump (62 per request), or two added to each of a request's 20 events,
#: trips it; one per event does not.
CALL_BUDGET = 173_597

#: events scheduled and the heap's peak length for the same 200 requests:
#: 4175 and 166 before PR 20, 3803 and 32 after it (TCP's timers are one
#: re-armable ``Timer`` each: a request no longer leaves a superseded RTO
#: event on the heap to fire 100 us later as a no-op), 4022 and 32 once
#: the four clients rang their doorbell from one flush event per instant,
#: as the shards already did; 4030 and 32 now, unchanged when a charge
#: became a ``Sleep``, which is still one heap entry.  The budgets sit 4 %
#: and 25 % above the measurements: one stale timer event per request is
#: +200 events and trips the first, and events that outlive their work by
#: a timeout pile up and trip the second.
EVENT_BUDGET = 4_183
HEAP_PEAK_BUDGET = 40

#: the replicated path's guard: the ``replica-crash-middle`` chaos run on
#: rdma at seed 7, 64 acked writes in 23 simulated ms, most of them idle.
#: 1_534_259 calls before PR 19 and 821_529 after it; the difference is
#: idle polling - every pump and commit monitor woke every 2-3 us to look
#: at memory nothing had written, where it now parks on the writer's
#: signal.  817_379 since PR 21 (the null-object calls per `wait` are
#: gone), 804_159 since PR 22 (`QueuePair.wait_send_cqe` reads the send CQ
#: once per wait, not through a property per poll), 807_609 since PR 23
#: (an entry's apply is a wake-up of the chain's applier, no longer a
#: statement of the pump that logged it: +0.4 %, so the budget stays),
#: 813_131 before the tail acknowledged a PUT itself and 786_065 after it
#: (no commit publisher, commit monitor or commit wait per write).  The
#: tail acking an entry as it logs it, not as it applies it, moves the
#: count by a dozen calls (786_285 -> 786_273 on Python 3.11); a closed
#: RDMA connection freeing its 64-buffer receive pool adds 6_996 (793_269:
#: ``mm.free`` per buffer, where the pool used to leak).  795_093 since a
#: forwarder posts its ring WRITEs without waiting for each and one
#: reaper per link takes their completions (+0.2 %: a post, a pulse and a
#: wake-up of the reaper per entry, less the cursor READs the heartbeat
#: made unneeded).  788_585 before counters became fields and 741_093
#: after (a bump is an attribute add, not a call).  Counted per code
#: object, not by pstats (which keeps one dataclass ``__init__``), that
#: run was 751_261 calls, and 749_729 without the attribute tallies
#: nothing read; 747_056 once a charge is a ``Sleep``: no ``Timeout``
#: built, no ``trigger`` called; 751_638 once a fired ``Timeout`` lets
#: its spent heap entry go (one ``_fire`` call per fired timeout, so none
#: is left to the cycle collector); 751_685 before a wait was one frame
#: parked on its tokens and 733_859 after it (a fired timeout triggers
#: straight from its heap entry, no ``_fire``); 724_863 once
#: ``sim.timeout`` is a ``Sleep``: no ``Timeout`` built, no ``trigger``
#: called per heartbeat, lease check or poll round.  The budget sits 4 %
#: above 724_863: a timer that ticks through the idle time again (a
#: heartbeat is one per 20 us per link) trips it.
REPLICA_CALL_BUDGET = 753_857

#: one run under the profiler: *setup*, then *body* profiled.  The count
#: is per code object.  ``pstats.Stats(...).total_calls`` keys a function
#: by (file, line, name) and keeps one entry per key, and every
#: dataclass-generated ``__init__`` is ``("<string>", 2, "__init__")``:
#: all but one of them dropped out of the total.
_PROFILED = """
import cProfile
%s
profiler = cProfile.Profile()
profiler.enable()
%s
profiler.disable()
print(sum(entry.callcount for entry in profiler.getstats()))
"""
_RUN_SPEC = ("from repro.experiments import ExperimentSpec, run_spec",
             'assert run_spec(ExperimentSpec(%s))["ok"]')

#: a second script, so that counting does not disturb the profiled calls
_EVENT_SCRIPT = """
from repro.experiments import ExperimentSpec, run_spec
from repro.sim.engine import Simulator
schedule_at, counts = Simulator._schedule_at, [0, 0]
def counting(sim, when, fn, args=()):
    entry = schedule_at(sim, when, fn, args)
    counts[:] = counts[0] + 1, max(counts[1], len(sim._heap))
    return entry
Simulator._schedule_at = counting
assert run_spec(ExperimentSpec(%s))["ok"]
print(*counts)
"""

_KV_SCALING = '"kv-scaling", cores=4, params={"n_ops": 50}'
_REPLICA_CHAOS = ('"chaos", libos="rdma", fault_plan="replica-crash-middle",'
                  ' seed=7')


def _run_fresh(script: str) -> list:
    """The numbers *script* prints last for one run in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          check=True, capture_output=True, text=True,
                          timeout=120)
    return [int(word) for word in done.stdout.splitlines()[-1].split()]


def _profiled_calls(spec: str = _KV_SCALING) -> int:
    """Calls (Python and builtin) of one run."""
    setup, body = _RUN_SPEC
    return _run_fresh(_PROFILED % (setup, body % spec))[0]


def test_the_count_sees_every_dataclass_construction():
    # Two dataclasses share pstats' key for their ``__init__``; built n
    # times each, they are 2n calls.
    setup = ("from dataclasses import dataclass\n"
             "@dataclass\nclass A:\n    x: int\n"
             "@dataclass\nclass B:\n    x: int\n")
    n = 300
    empty = _run_fresh(_PROFILED % (setup, "pass"))[0]
    built = _run_fresh(_PROFILED % (
        setup, "for i in range(%d):\n    A(i)\n    B(i)" % n))[0]
    assert built - empty == 2 * n


def test_replicated_path_calls_repeat_exactly_and_stay_in_budget():
    first, second = (_profiled_calls(_REPLICA_CHAOS),
                     _profiled_calls(_REPLICA_CHAOS))
    assert first == second, "the call count is not a pure function of the code"
    assert first <= REPLICA_CALL_BUDGET, (
        "%d calls for the replica-crash-middle run is over the budget of "
        "%d: something on the replication path runs when nothing is "
        "happening; profile with `python perfbench/run.py --workload "
        "kv-replicated-rdma-failover --trace 1` and look for timer events"
        % (first, REPLICA_CALL_BUDGET))


def test_calls_per_request_repeat_exactly_and_stay_in_budget():
    first, second = _profiled_calls(), _profiled_calls()
    assert first == second, "the call count is not a pure function of the code"
    assert first <= CALL_BUDGET, (
        "%d calls for %d requests (%.0f per request) is over the budget of "
        "%d: something on the per-frame or per-event path grew; profile "
        "with `python perfbench/run.py --workload kv-closed-dpdk-4shard "
        "--trace 1` and see the ROADMAP's simulator-speed item"
        % (first, REQUESTS, first / REQUESTS, CALL_BUDGET))


def test_events_per_request_repeat_exactly_and_stay_in_budget():
    first, second = (_run_fresh(_EVENT_SCRIPT % _KV_SCALING),
                     _run_fresh(_EVENT_SCRIPT % _KV_SCALING))
    assert first == second, "the event count is not a pure function of the code"
    events, heap_peak = first
    assert events <= EVENT_BUDGET, (
        "%d events scheduled for %d requests (%.1f per request) is over the "
        "budget of %d: something schedules an event that finds no work when "
        "it fires - a timer re-armed with `call_in` instead of a "
        "`repro.sim.engine.Timer`?" % (events, REQUESTS, events / REQUESTS,
                                       EVENT_BUDGET))
    assert heap_peak <= HEAP_PEAK_BUDGET, (
        "the event heap reached %d entries, over the budget of %d: events "
        "outlive the work they were scheduled for" % (heap_peak,
                                                      HEAP_PEAK_BUDGET))
