"""``repro.sim.engine.Timer``: the re-armable one-shot."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator, Timer


def make_timer():
    sim = Simulator()
    fired = []
    return sim, Timer(sim, lambda: fired.append(sim.now)), fired


def live_entries(sim, timer):
    return [event for event in sim._heap if event[2] == timer._fire]


def test_fires_once_at_the_deadline_of_the_latest_arm():
    sim, timer, fired = make_timer()
    timer.arm(100)
    sim.run(until=60)
    timer.arm(100)
    assert timer.armed and timer.deadline == 160
    sim.run()
    assert fired == [160]
    assert not timer.armed and timer.deadline is None


def test_stop_means_never_and_arm_after_stop_works():
    sim, timer, fired = make_timer()
    timer.arm(100)
    sim.run(until=50)
    timer.stop()
    assert not timer.armed
    sim.run(until=500)
    assert fired == []
    timer.arm(30)
    sim.run()
    assert fired == [530]


def test_arming_later_pushes_nothing():
    sim, timer, fired = make_timer()
    timer.arm(100)
    heap = list(sim._heap)
    sim.run(until=10)
    timer.arm(100)
    timer.stop()
    timer.arm(250)
    assert sim._heap == heap
    sim.run()
    assert fired == [260]


def test_arming_earlier_replaces_the_entry():
    sim, timer, fired = make_timer()
    timer.arm(100)
    timer.arm(40)
    assert [event[0] for event in live_entries(sim, timer)] == [40]
    assert len(sim._heap) == 2 and sim._tombstones == 1
    sim.run()
    assert fired == [40]


def test_arm_from_inside_fn_rearms():
    # The RTO's back-off and the window-probe chain do this.
    sim = Simulator()
    fired = []

    def fn():
        fired.append((sim.now, timer.armed))
        if len(fired) < 3:
            timer.arm(10 * 2 ** len(fired))

    timer = Timer(sim, fn)
    timer.arm(10)
    sim.run()
    assert fired == [(10, False), (30, False), (70, False)]
    assert sim.peek() is None


def test_a_stopped_timer_leaves_the_heap_once_its_event_has_fired():
    sim, timer, fired = make_timer()
    timer.arm(100)
    timer.stop()
    assert sim.peek() == 100  # stopping touched no heap entry
    sim.run()
    assert fired == [] and sim.peek() is None and sim.now == 100


# -- against a reference model: a dict of deadlines -------------------------

N_TIMERS = 3
steps = st.lists(st.one_of(
    st.tuples(st.just("arm"), st.integers(0, N_TIMERS - 1),
              st.integers(0, 300)),
    st.tuples(st.just("stop"), st.integers(0, N_TIMERS - 1), st.just(0)),
    st.tuples(st.just("run"), st.just(0), st.integers(0, 200)),
), max_size=40)


@given(steps)
@settings(max_examples=300, deadline=None)
def test_any_interleaving_fires_what_the_model_fires(steps):
    sim = Simulator()
    fired, expected = [], []
    timers = [Timer(sim, lambda i=i: fired.append((sim.now, i)))
              for i in range(N_TIMERS)]
    deadlines = {}
    for op, i, n in steps + [("run", 0, 1000)]:
        if op == "arm":
            timers[i].arm(n)
            deadlines[i] = sim.now + n
        elif op == "stop":
            timers[i].stop()
            deadlines.pop(i, None)
        else:
            sim.run(until=sim.now + n)
            due = sorted((at, i) for i, at in deadlines.items()
                         if at <= sim.now)
            expected += due
            for _at, i in due:
                del deadlines[i]
        for i, timer in enumerate(timers):
            assert timer.deadline == deadlines.get(i)
            entries = live_entries(sim, timer)
            assert len(entries) <= 1
            if timer.armed:
                assert entries and entries[0][0] <= timer.deadline
    # Two timers due in the same nanosecond fire in heap order, which the
    # model does not know: both sides are sorted (one run's due list is,
    # but a timer armed for "now" after a run fires at that run's instant).
    assert sorted(fired) == sorted(expected)
    assert sim.peek() is None
