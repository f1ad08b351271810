"""The tight gate on simulator speed: Python calls per simulated request.

Host seconds are noisy; the number of calls the interpreter makes for a
fixed simulated run is not - it repeats exactly under ``PYTHONHASHSEED=0``
and moves only when the code on the hot path does.  The run is the
ROADMAP's baseline scenario in miniature: the ``kv-scaling`` workload at
4 cores and 50 ops per shard, 200 requests against four shards, set-up
(ARP, connects) included.
"""

import os
import subprocess
import sys

import repro

REQUESTS = 4 * 50

#: measured on CPython 3.11: 416_283 before PR 13 and 260_208 after it,
#: 262_159 after PR 16, 234_655 after PR 17, 189_458 now (PR 18: ACKs ride
#: on the reply, so a request is 2 frames and ~19 events where it was 4
#: and 28); 3.12 inlines comprehensions and counts fewer.  The budget sits
#: 4 % above the measurement, 37 calls per request: two more calls on each
#: of a request's 19 events trip it, one more does not.
CALL_BUDGET = 197_000

_SCRIPT = """
import cProfile, pstats
from repro.experiments import ExperimentSpec, run_spec
spec = ExperimentSpec("kv-scaling", cores=4, params={"n_ops": 50})
profiler = cProfile.Profile()
profiler.enable()
run_spec(spec)
profiler.disable()
print(pstats.Stats(profiler).total_calls)
"""


def _profiled_calls() -> int:
    """Calls (Python and builtin) of one run in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                          check=True, capture_output=True, text=True,
                          timeout=120)
    return int(done.stdout.split()[-1])


def test_calls_per_request_repeat_exactly_and_stay_in_budget():
    first, second = _profiled_calls(), _profiled_calls()
    assert first == second, "the call count is not a pure function of the code"
    assert first <= CALL_BUDGET, (
        "%d calls for %d requests (%.0f per request) is over the budget of "
        "%d: something on the per-frame or per-event path grew; profile "
        "with `python perfbench/run.py --workload kv-closed-dpdk-4shard "
        "--trace 1` and see the ROADMAP's simulator-speed item"
        % (first, REQUESTS, first / REQUESTS, CALL_BUDGET))
