"""The seeded-backoff retry helper (used by the replicated-KV router)."""

import pytest

from repro.core.retry import RetryBudgetExceeded, retry_with_backoff
from repro.core.types import DemiError
from repro.sim.engine import Simulator
from repro.sim.rand import Rng


def drive(sim, gen):
    proc = sim.spawn(gen)
    sim.run()
    if not proc.alive and proc._exc is not None:  # pragma: no cover
        raise proc._exc
    return proc


def schedule(seed, *, base_delay_ns, max_delay_ns, factor, attempts):
    """The delays ``retry_with_backoff`` sleeps after *attempts* failures,
    read off the loop: the gaps between the starts of instant attempts."""
    sim = Simulator()
    starts = []

    def attempt():
        starts.append(sim.now)
        raise DemiError("down")
        yield  # pragma: no cover - makes this a generator

    def body():
        with pytest.raises(RetryBudgetExceeded):
            yield from retry_with_backoff(
                sim, attempt, rng=Rng(seed), base_delay_ns=base_delay_ns,
                max_delay_ns=max_delay_ns, factor=factor,
                max_attempts=attempts + 1, budget_ns=10**15)

    drive(sim, body())
    return [b - a for a, b in zip(starts, starts[1:])]


class TestBackoffSchedule:
    def test_delays_grow_exponentially_up_to_the_cap(self):
        delays = schedule(1, base_delay_ns=1_000, max_delay_ns=16_000,
                          factor=2.0, attempts=8)
        caps = [min(16_000, 1_000 * 2 ** n) for n in range(8)]
        assert len(delays) == 8
        for delay, cap in zip(delays, caps):
            assert cap // 2 <= delay <= cap
        # The cap binds from attempt 4 on: delays stop growing past it.
        assert all(d <= 16_000 for d in delays)

    def test_schedule_is_seed_deterministic(self):
        kw = dict(base_delay_ns=10_000, max_delay_ns=1_000_000,
                  factor=2.0, attempts=6)
        assert schedule(42, **kw) == schedule(42, **kw)
        assert schedule(42, **kw) != schedule(43, **kw)

    def test_one_draw_per_failure_that_is_retried(self):
        # The loop's only use of its rng: one randint per failure it
        # retries (none for the last), so a replica run's stream is fixed.
        class Counting(Rng):
            draws = 0

            def randint(self, lo, hi):
                self.draws += 1
                return super().randint(lo, hi)

        sim, rng = Simulator(), Counting(3)

        def down():
            raise DemiError("down")
            yield  # pragma: no cover - makes this a generator

        def body():
            with pytest.raises(RetryBudgetExceeded):
                yield from retry_with_backoff(sim, down, rng=rng,
                                              max_attempts=5)

        drive(sim, body())
        assert rng.draws == 4

    def test_no_draw_when_the_first_attempt_succeeds(self):
        sim, rng = Simulator(), Rng(3)
        untouched = Rng(3)

        def up():
            return "ok"
            yield  # pragma: no cover - makes this a generator

        def body():
            return (yield from retry_with_backoff(sim, up, rng=rng))

        assert drive(sim, body()).value == "ok"
        assert sim.now == 0
        assert rng.randint(0, 2**30) == untouched.randint(0, 2**30)


class TestRetryLoop:
    def _flaky(self, fail_times, log):
        state = {"calls": 0}

        def attempt():
            state["calls"] += 1
            log.append(state["calls"])
            if state["calls"] <= fail_times:
                raise DemiError("transient %d" % state["calls"])
            return "ok"
            yield  # pragma: no cover - makes this a generator

        return attempt

    def test_succeeds_after_transient_failures(self):
        sim = Simulator()
        log = []

        def body():
            result = yield from retry_with_backoff(
                sim, self._flaky(3, log), rng=Rng(7), base_delay_ns=1_000,
                max_attempts=8, budget_ns=10_000_000)
            return result

        proc = drive(sim, body())
        assert proc.value == "ok"
        assert log == [1, 2, 3, 4]
        assert sim.now > 0  # it actually backed off between attempts

    def test_gives_up_with_typed_exception_and_history(self):
        sim = Simulator()
        log = []

        def body():
            try:
                yield from retry_with_backoff(
                    sim, self._flaky(99, log), rng=Rng(7),
                    base_delay_ns=1_000, max_attempts=4,
                    budget_ns=10_000_000, op="flaky-op")
            except RetryBudgetExceeded as err:
                return err
            raise AssertionError("should have given up")

        proc = drive(sim, body())
        err = proc.value
        assert err.attempts == 4 and len(log) == 4
        assert err.op == "flaky-op"
        assert isinstance(err.last_error, DemiError)
        assert err.__cause__ is err.last_error
        assert err.elapsed_ns == sim.now

    def test_time_budget_caps_before_max_attempts(self):
        sim = Simulator()
        log = []

        def slow_attempt():
            log.append(sim.now)
            yield sim.timeout(400_000)  # each attempt eats the budget
            raise DemiError("still down")

        def body():
            with pytest.raises(RetryBudgetExceeded) as exc_info:
                yield from retry_with_backoff(
                    sim, slow_attempt, rng=Rng(7), base_delay_ns=1_000,
                    max_attempts=100, budget_ns=1_000_000)
            return exc_info.value

        proc = drive(sim, body())
        assert proc.value.attempts < 100
        assert sim.now <= 1_000_000 + 400_000  # one attempt may straddle

    def test_unlisted_exceptions_propagate_immediately(self):
        sim = Simulator()

        def broken():
            raise ValueError("a bug, not a fault")
            yield  # pragma: no cover

        def body():
            with pytest.raises(ValueError):
                yield from retry_with_backoff(sim, broken, rng=Rng(7),
                                              retry_on=(DemiError,))
            return sim.now

        proc = drive(sim, body())
        assert proc.value == 0  # no backoff happened

    def test_same_seed_replays_the_same_timeline(self):
        ends = []
        for _ in range(2):
            sim = Simulator()

            def body():
                with pytest.raises(RetryBudgetExceeded):
                    yield from retry_with_backoff(
                        sim, self._flaky(99, []), rng=Rng(1234),
                        base_delay_ns=5_000, max_attempts=6,
                        budget_ns=50_000_000)
                return sim.now

            ends.append(drive(sim, body()).value)
        assert ends[0] == ends[1]
