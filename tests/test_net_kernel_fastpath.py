"""Kernel fast paths: slotted events, clone-free resume, closed-form slow start.

These pin the microbehaviour the perf work must not change:

* yielding an *already-processed* event resumes the process at the same
  timestamp with the event's original outcome (success and failure);
* an interrupt racing that fast-path resume loses the same way it lost
  against the old clone-event implementation: the resume runs first,
  the interrupt lands at the process's next wait point;
* the link's analytic slow-start schedule reproduces the doubling
  timeline the per-exchange pacer process used to produce;
* the event heap dispatches every lane — events, direct resumes,
  bare callbacks — in exact ``(time, priority, FIFO-counter)`` order,
  checked against a ``sorted()`` reference on random schedules.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ClockError, ConfigError, Interrupt
from repro.net.bandwidth import ConstantBandwidth
from repro.net.env import EmptySchedule, Environment
from repro.net.events import _URGENT, NORMAL
from repro.net.link import Link


class TestSlots:
    def test_event_types_reject_stray_attributes(self, env):
        event = env.event()
        timeout = env.timeout(1.0)

        def proc(env):
            yield env.timeout(0.0)

        process = env.process(proc(env))
        for obj in (event, timeout, process):
            with pytest.raises(AttributeError):
                obj.stray_attribute = 1
        env.run()

    def test_no_instance_dict(self, env):
        assert not hasattr(env.event(), "__dict__")
        assert not hasattr(env.timeout(1.0), "__dict__")


class TestProcessedTargetResume:
    def test_yielding_processed_event_delivers_value_same_time(self, env):
        early = env.timeout(1.0, value="payload")
        seen = []

        def late_waiter(env):
            yield env.timeout(2.0)
            value = yield early  # processed a full second ago
            seen.append((env.now, value))

        env.process(late_waiter(env))
        env.run()
        assert seen == [(2.0, "payload")]

    def test_yielding_processed_failure_raises_in_waiter(self, env):
        failed = env.event()
        failed.fail(ValueError("boom"))
        failed.defused = True  # nobody waits at its own dispatch

        def late_waiter(env):
            yield env.timeout(1.0)
            try:
                yield failed
            except ValueError as exc:
                return f"caught {exc}"

        process = env.process(late_waiter(env))
        env.run()
        assert process.value == "caught boom"

    def test_resume_ordering_is_fifo_among_urgent_events(self, env):
        """Two processes yielding processed events resume in the order
        they yielded, ahead of co-timed NORMAL events."""
        early = env.timeout(1.0, value="x")
        order = []

        def make_waiter(name):
            def waiter(env):
                yield env.timeout(2.0)
                yield early
                order.append(name)

            return waiter

        def normal_timer(env):
            yield env.timeout(2.0)
            yield env.timeout(0.0)  # NORMAL event at t=2
            order.append("timer")

        env.process(make_waiter("first")(env))
        env.process(make_waiter("second")(env))
        env.process(normal_timer(env))
        env.run()
        assert order == ["first", "second", "timer"]

    def test_interrupt_vs_fastpath_resume_race(self, env):
        """An interrupt issued while a fast-path resume is pending is
        delivered *after* the resume, at the next wait point."""
        early = env.timeout(1.0, value="x")
        seen = []

        def victim(env):
            yield env.timeout(2.0)
            value = yield early  # pending fast-path resume at t=2
            seen.append(("resumed", env.now, value))
            try:
                yield env.timeout(10.0)
            except Interrupt as interrupt:
                seen.append(("interrupted", env.now, interrupt.cause))

        process = env.process(victim(env))

        def interrupter(env):
            yield env.timeout(2.0)
            process.interrupt("race")

        env.process(interrupter(env))
        env.run()
        assert seen == [("resumed", 2.0, "x"), ("interrupted", 2.0, "race")]

    def test_stale_direct_resume_dropped_after_interrupt(self, env):
        """A pending fast-path resume whose process was meanwhile moved
        on by an interrupt must be dropped, not delivered: the old
        clone-event path deregistered via callbacks.remove, and the
        direct entry needs the equivalent staleness guard."""
        e1 = env.timeout(0.5, value="one")
        e2 = env.timeout(0.5, value="two")
        # Both processes wake from the same event, so the attacker's
        # interrupt is issued inside the same callback cascade — after
        # the victim queued its fast-path resume, before it dispatched.
        shared = env.timeout(1.0)
        trace = []

        def victim(env):
            yield shared
            value = yield e1  # fast-path resume pending at t=1
            trace.append(("resumed", env.now, value))
            try:
                yield e2  # second fast-path entry, queued behind the interrupt
                trace.append(("not-reached", env.now))
            except Interrupt:
                trace.append(("interrupted", env.now))
                yield env.timeout(5.0)
                trace.append(("slept", env.now))

        process = env.process(victim(env))

        def attacker(env):
            yield shared
            process.interrupt()

        env.process(attacker(env))
        env.run()
        # Without the guard the stale e2 entry re-resumes the generator
        # at t=1, silently skipping the 5 s sleep.
        assert trace == [("resumed", 1.0, "one"), ("interrupted", 1.0), ("slept", 6.0)]

    def test_process_waiting_on_processed_event_is_interruptible(self, env):
        # The fast path must leave the process in an interruptible state
        # (waiting_on set): interrupt() here must not raise "process
        # cannot interrupt itself".
        early = env.timeout(0.5)

        def victim(env):
            yield env.timeout(1.0)
            try:
                yield early
                yield env.timeout(5.0)
            except Interrupt:
                return "interrupted"

        process = env.process(victim(env))

        def interrupter(env):
            yield env.timeout(1.0)
            assert process.is_alive
            process.interrupt()

        env.process(interrupter(env))
        env.run()
        assert process.value == "interrupted"


class TestClosedFormSlowStart:
    def _link(self, env, rate=1e9):
        return Link(env, ConstantBandwidth(rate))

    def test_capped_flow_doubles_on_schedule(self, env):
        """cap₀=10 kB/s, RTT=1 s on an uncontended fat link: windows
        deliver 10k, 20k, 40k... bytes, so 61 440 bytes complete at
        2 + (61 440 − 30 000)/40 000 ≈ 2.786 s — the same timeline the
        pacer process produced."""
        link = self._link(env)
        flow = link.start_flow(61_440, cap=10_000.0, ramp_rtt=1.0, ramp_limit=1e12)
        env.run(until=flow.done)
        expected = 2.0 + (61_440 - 30_000) / 40_000
        assert env.now == pytest.approx(expected, rel=1e-9)

    def test_ramp_stops_at_limit(self, env):
        link = self._link(env, rate=1e9)
        flow = link.start_flow(300_000, cap=10_000.0, ramp_rtt=1.0, ramp_limit=40_000.0)
        env.run(until=flow.done)
        # Windows: 10k, 20k, then 40k/s forever: 300k total arrives at
        # 2 + (300k - 30k)/40k = 8.75 s.
        assert env.now == pytest.approx(2.0 + 270_000 / 40_000, rel=1e-9)
        assert flow.cap == pytest.approx(40_000.0)

    def test_unramped_flow_behaviour_unchanged(self, env):
        link = self._link(env, rate=1_000_000.0)
        flow = link.start_flow(500_000)
        env.run(until=flow.done)
        assert env.now == pytest.approx(0.5, rel=1e-9)

    def test_contended_ramp_only_wakes_while_cap_binds(self, env):
        """A ramping flow competing with an uncapped one: the capped
        flow's share is its cap while the cap binds; once doubled past
        the fair share, the allocation is an even split."""
        link = self._link(env, rate=100_000.0)
        capped = link.start_flow(1_000_000.0, cap=10_000.0, ramp_rtt=1.0, ramp_limit=1e9)
        open_flow = link.start_flow(1_000_000.0)
        env.run(until=2.0)
        # t in [0,1): capped 10k/s, open 90k/s; t in [1,2): 20k/80k.
        assert capped.bytes_delivered == pytest.approx(30_000.0, rel=1e-6)
        assert open_flow.bytes_delivered == pytest.approx(170_000.0, rel=1e-6)
        env.run(until=3.0)
        # t in [2,3): cap 40k < share? share is 50k -> capped at 40k.
        assert capped.bytes_delivered == pytest.approx(70_000.0, rel=1e-6)
        env.run(until=4.0)
        # cap hit 80k > 50k share: even split from t=3.
        assert capped.bytes_delivered == pytest.approx(120_000.0, rel=1e-6)

    def test_negative_ramp_rtt_rejected(self, env):
        link = self._link(env)
        with pytest.raises(ConfigError):
            link.start_flow(1000, cap=10.0, ramp_rtt=-1.0)


class TestCallbackFastLane:
    """`call_at` / `call_later`: bare callbacks, no Event machinery."""

    def test_call_later_fires_at_time(self, env):
        fired = []
        env.call_later(2.5, lambda: fired.append(env.now))
        env.run()
        assert fired == [2.5]

    def test_call_at_absolute(self, env):
        fired = []
        env.call_at(4.0, lambda: fired.append(env.now))
        env.call_at(1.0, lambda: fired.append(env.now))
        env.run()
        assert fired == [1.0, 4.0]

    def test_past_times_rejected(self, env):
        env.run(until=5.0)
        with pytest.raises(ClockError):
            env.call_at(4.9, lambda: None)
        with pytest.raises(ClockError):
            env.call_later(-0.1, lambda: None)

    def test_fifo_with_events_at_same_time(self, env):
        """Fast-lane entries share the one FIFO counter with events, so
        co-timed callbacks and timeouts dispatch in schedule order."""
        order = []
        env.timeout(1.0).callbacks.append(lambda _e: order.append("timeout-1"))
        env.call_at(1.0, lambda: order.append("callback-2"))
        env.timeout(1.0).callbacks.append(lambda _e: order.append("timeout-3"))
        env.call_later(1.0, lambda: order.append("callback-4"))
        env.run()
        assert order == ["timeout-1", "callback-2", "timeout-3", "callback-4"]

    def test_callback_may_schedule_more(self, env):
        fired = []

        def chain(depth):
            fired.append((depth, env.now))
            if depth < 3:
                env.call_later(1.0, lambda: chain(depth + 1))

        env.call_later(1.0, lambda: chain(0))
        env.run()
        assert fired == [(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0)]

    def test_step_dispatches_callbacks(self, env):
        fired = []
        env.call_later(1.0, lambda: fired.append(env.now))
        env.step()
        assert fired == [1.0] and env.now == 1.0


class TestPooledTimers:
    """`pooled_timeout`: recycled events for the per-chunk hot path."""

    def test_behaves_like_timeout(self, env):
        def proc(env):
            yield env.pooled_timeout(1.5)
            return env.now

        process = env.process(proc(env))
        env.run()
        assert process.value == 1.5

    def test_value_delivery(self, env):
        def proc(env):
            got = yield env.pooled_timeout(1.0, value="payload")
            return got

        process = env.process(proc(env))
        env.run()
        assert process.value == "payload"

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ClockError):
            env.pooled_timeout(-1.0)

    def test_instances_recycle(self, env):
        """Back-to-back pooled timers run out of a bounded working set:
        the generator draws its next timer *during* the old one's
        dispatch (which recycles only afterwards), so a chain
        alternates between two instances — and never allocates a third,
        however long it runs."""
        seen = []

        def proc(env):
            for _ in range(50):
                timer = env.pooled_timeout(1.0)
                seen.append(id(timer))
                yield timer

        env.process(proc(env))
        env.run()
        assert len(set(seen)) == 2
        assert len(env._timer_pool) == 2  # both returned once the chain ends

    def test_sequential_processes_share_pool(self, env):
        def proc(env, count):
            for _ in range(count):
                yield env.pooled_timeout(0.5)

        env.process(proc(env, 30))
        env.process(proc(env, 30))
        env.run()
        # Two concurrent waiters keep at most two timers in flight plus
        # a small recycling margin — the pool never grows with the
        # number of exchanges.
        assert len(env._timer_pool) <= 3

    def test_interrupt_while_on_pooled_timer(self, env):
        """An interrupted waiter deregisters; the timer still fires
        harmlessly, recycles, and serves the next request."""
        trace = []

        def sleeper(env):
            try:
                yield env.pooled_timeout(10.0)
                trace.append("slept")
            except Interrupt:
                trace.append(("interrupted", env.now))
                yield env.pooled_timeout(1.0)
                trace.append(("resumed", env.now))

        process = env.process(sleeper(env))

        def interrupter(env):
            yield env.timeout(2.0)
            process.interrupt("wake")

        env.process(interrupter(env))
        env.run()
        assert trace == [("interrupted", 2.0), ("resumed", 3.0)]

    def test_counter_parity_with_plain_timeout(self):
        """One counter bump per pooled timer — the same schedule count a
        plain Timeout produces, so dispatch order never shifts."""

        def run(pooled):
            env = Environment()

            def proc(env):
                for _ in range(5):
                    if pooled:
                        yield env.pooled_timeout(1.0)
                    else:
                        yield env.timeout(1.0)

            env.process(proc(env))
            env.run()
            return env.scheduled_count

        assert run(pooled=True) == run(pooled=False)


def _armed_event(env, on_dispatch):
    """A succeeded event that is *not* yet queued, with one callback."""
    event = env.event()
    event._ok, event._value = True, None
    event.callbacks.append(on_dispatch)
    return event


class _Waiter:
    """Duck-typed process for the direct-resume lane: records resumes."""

    __slots__ = ("_waiting_on", "_resume")

    def __init__(self, event, on_resume):
        self._waiting_on = event
        self._resume = on_resume


class TestHeapOrder:
    def test_empty_peek_is_inf(self, env):
        assert env.peek() == math.inf

    def test_empty_step_raises(self, env):
        with pytest.raises(EmptySchedule):
            env.step()

    def test_counter_counts_every_lane(self, env):
        env._schedule_event(env.event(), 1.0)
        env._schedule_resume(_Waiter(None, None), env.event())
        env.call_at(1.0, lambda: None)
        env.pooled_timeout(1.0)
        assert env.scheduled_count == 4

    def test_entry_shapes(self, env):
        event = env.event()
        process = _Waiter(None, None)
        env._schedule_event(event, 1.0)
        env._schedule_resume(process, event)
        env.call_at(3.0, print)
        assert sorted(env._heap) == [
            (0.0, _URGENT, 2, event, process),
            (1.0, NORMAL, 1, event, None),
            (3.0, NORMAL, 3, print),
        ]

    def test_infinite_times_pend_forever(self, env):
        never = env.timeout(math.inf)
        fired = []
        env.call_at(1.0, lambda: fired.append(env.now))
        assert env.peek() == 1.0
        env.step()
        assert fired == [1.0]
        assert env.peek() == math.inf
        env.run(until=1e300)
        assert not never.processed and env.now == 1e300

    def test_equal_times_fifo_within_priority(self, env):
        order = []
        for index in range(20):
            event = _armed_event(env, lambda _, i=index: order.append(("normal", i)))
            env._schedule_event(event, 5.0, NORMAL)
        for index in range(20):
            event = _armed_event(env, lambda _, i=index: order.append(("urgent", i)))
            env._schedule_event(event, 5.0, _URGENT)
        env.run()
        assert order == [("urgent", i) for i in range(20)] + [
            ("normal", i) for i in range(20)
        ]

    def test_far_future_entries_dispatch_in_order(self, env):
        times = [1000.0 + i * 7.0 for i in range(50)]
        fired = []
        for when in reversed(times):
            env.call_at(when, lambda: fired.append(env.now))
        env.run()
        assert fired == times

    def test_infinite_entries_step_in_fifo_order(self, env):
        """Entries at ``inf`` tie on time, so they still leave the heap
        in FIFO order when stepped explicitly."""
        fired = []
        for index in range(5):
            env.call_at(math.inf, lambda i=index: fired.append(i))
        assert env.peek() == math.inf
        for _ in range(5):
            env.step()
        assert fired == [0, 1, 2, 3, 4] and env.now == math.inf

    def test_pooled_timeout_entry_shape(self, env):
        timer = env.pooled_timeout(2.0)
        assert env._heap == [(2.0, NORMAL, 1, timer, None)]


class TestOneKernel:
    """The heap is the only event queue: no selection knob survives."""

    def test_environment_takes_no_kernel_argument(self):
        with pytest.raises(TypeError):
            Environment(kernel="heapq")

    def test_repro_kernel_env_var_is_ignored(self, monkeypatch):
        def trace():
            env = Environment()
            order = []
            for index in range(10):
                env.call_at(float(index % 3), lambda i=index: order.append(i))
            env.run()
            return order, env.scheduled_count

        reference = trace()
        monkeypatch.setenv("REPRO_KERNEL", "calendar")
        assert trace() == reference


#: Delays mixing dense co-timed ties, tiny/huge magnitudes, and +inf.
_DELAYS = st.one_of(
    st.sampled_from([0.0, 0.0, 1e-12, 0.5, 1.0, 1.0, 999.0, 1e6, math.inf]),
    st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
)

_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"),
            _DELAYS,
            st.sampled_from([_URGENT, NORMAL]),
            st.sampled_from(["event", "resume", "callback"]),
        ),
        st.tuples(st.just("step")),
    ),
    min_size=1,
    max_size=120,
)


@settings(max_examples=200, deadline=None)
@given(ops=_OPS)
def test_dispatch_order_matches_sorted_reference(ops):
    """Random interleavings of pushes (every lane) and single steps
    dispatch exactly as a ``sorted()`` ``(time, priority, counter)``
    queue would: the heap's whole ordering contract."""
    env = Environment()
    dispatched: list[tuple] = []
    pending: list[tuple] = []
    expected: list[tuple] = []
    for op in ops:
        if op[0] == "step":
            if pending:
                pending.sort()
                expected.append(pending.pop(0))
                env.step()
            continue
        _, delay, priority, lane = op
        counter = env.scheduled_count + 1
        when = env.now + delay
        if lane == "event":
            record = lambda _, c=counter: dispatched.append((env.now, c))
            env._schedule_event(_armed_event(env, record), delay, priority)
        elif lane == "resume":
            when, priority = env.now, _URGENT
            event = env.event()
            record = lambda _, c=counter: dispatched.append((env.now, c))
            env._schedule_resume(_Waiter(event, record), event)
        else:
            priority = NORMAL
            env.call_at(when, lambda c=counter: dispatched.append((env.now, c)))
        pending.append((when, priority, counter))
    env.run()
    expected.extend(sorted(pending))
    assert env.scheduled_count == len(expected)
    assert dispatched == [(when, counter) for when, _, counter in expected]


@settings(max_examples=50, deadline=None)
@given(
    first=st.floats(min_value=0.0, max_value=10.0),
    far=st.floats(min_value=100.0, max_value=1e6),
    boundary=st.floats(min_value=10.0, max_value=99.0),
    late_delay=st.floats(min_value=0.0, max_value=500.0),
)
def test_run_until_boundary(first, far, boundary, late_delay):
    """``run(until)`` stops the clock exactly at the boundary, and an
    entry scheduled after it still dispatches in time order."""
    env = Environment()
    order: list[tuple] = []
    env.call_at(first, lambda: order.append(("first", env.now)))
    env.call_at(far, lambda: order.append(("far", env.now)))
    env.call_at(far * 2.0, lambda: order.append(("farther", env.now)))
    env.run(until=boundary)
    assert env.now == boundary and order == [("first", first)]
    env.call_later(late_delay, lambda: order.append(("late", env.now)))
    env.run()
    reference = sorted(
        [(first, 1, "first"), (far, 2, "far"), (far * 2.0, 3, "farther"),
         (boundary + late_delay, 4, "late")]
    )
    assert order == [(name, when) for when, _, name in reference]


def _random_program(seed: int, until: float | None, drive: str) -> list[tuple]:
    """Trace of a random process program: timeouts, a shared gate,
    interrupts and processed-target resumes.  ``drive`` picks how the queue drains —
    the inlined ``run()`` loop, single ``step()`` calls, or
    ``run(until=<event>)`` — after an optional ``run(until=<time>)``."""
    env = Environment()
    trace: list[tuple] = []
    rng = random.Random(seed)

    def worker(index: int, steps: list[float]):
        try:
            yield gate  # one event, many waiters: callback order shows
            trace.append((env.now, "gate", index))
        except Interrupt as exc:
            trace.append((env.now, "interrupt", index, -1, str(exc)))
        for number, delay in enumerate(steps):
            try:
                yield env.timeout(delay)
                trace.append((env.now, "step", index, number))
            except Interrupt as exc:
                trace.append((env.now, "interrupt", index, number, str(exc)))

    def stale_resume(index: int, target):
        # Target is already processed by the time we yield it:
        # exercises the direct-resume (stale-entry-guard) lane.
        yield env.timeout(rng.uniform(5.0, 10.0))
        yield target
        trace.append((env.now, "stale", index))

    def interrupter(victims, delays):
        for delay in delays:
            yield env.timeout(delay)
            alive = [p for p in victims if p.is_alive]
            if alive:
                alive[rng.randrange(len(alive))].interrupt("bang")
                trace.append((env.now, "fired"))

    gate = env.timeout(round(rng.uniform(0.0, 2.0), 3))
    workers = [
        env.process(
            worker(i, [round(rng.uniform(0.0, 4.0), 3) for _ in range(rng.randint(1, 5))])
        )
        for i in range(rng.randint(2, 6))
    ]
    early = env.timeout(rng.choice([0.0, 1.0]))
    stale = env.process(stale_resume(99, early))
    env.process(interrupter(workers, [round(rng.uniform(0.5, 6.0), 3) for _ in range(3)]))
    env.process(interrupter(workers, [rng.uniform(0.5, 6.0)]))
    if until is not None:
        env.run(until=until)
    if drive == "step":
        while True:
            try:
                env.step()
            except EmptySchedule:
                break
    elif drive == "event":
        env.run(until=stale)
        env.run()
    else:
        env.run()
    trace.append((env.now, "end"))
    return trace


_PROGRAMS = dict(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    until=st.one_of(st.none(), st.floats(min_value=0.1, max_value=30.0)),
)


@settings(max_examples=50, deadline=None)
@given(**_PROGRAMS)
def test_random_process_programs_repeatable(seed, until):
    """Fresh environments replay a program identically, and the clock
    never runs backwards in the trace."""
    trace = _random_program(seed, until, "run")
    assert _random_program(seed, until, "run") == trace
    times = [entry[0] for entry in trace]
    assert times == sorted(times)


@settings(max_examples=50, deadline=None)
@given(**_PROGRAMS)
def test_step_and_run_until_event_match_run_drain(seed, until):
    """``run()`` inlines the dispatch body that ``step()`` and
    ``run(until=<event>)`` share: the copies must dispatch alike."""
    reference = _random_program(seed, until, "run")
    assert _random_program(seed, until, "step") == reference
    assert _random_program(seed, until, "event") == reference
