"""Unit tests for the discrete-event simulation kernel."""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProcessError, SchedulingError, SimulationError
from repro.sim import Environment, Event, Interrupt


class TestEnvironmentBasics:
    def test_clock_starts_at_zero(self):
        assert Environment().now == 0.0

    def test_clock_starts_at_initial_time(self):
        assert Environment(initial_time=5.5).now == 5.5

    def test_run_without_events_returns_none(self):
        env = Environment()
        assert env.run() is None

    def test_run_until_time_advances_clock(self):
        env = Environment()
        env.run(until=42.0)
        assert env.now == 42.0

    def test_run_until_past_time_raises(self):
        env = Environment(initial_time=10.0)
        with pytest.raises(SchedulingError):
            env.run(until=5.0)

    def test_step_without_events_raises(self):
        with pytest.raises(SimulationError):
            Environment().step()

    def test_peek_empty_queue_is_infinite(self):
        assert Environment().peek() == float("inf")


class TestTimeout:
    def test_timeout_advances_time(self):
        env = Environment()
        env.timeout(3.0)
        env.run()
        assert env.now == 3.0

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(SchedulingError):
            env.timeout(-1.0)

    def test_zero_delay_fires_immediately(self):
        env = Environment()
        fired = []
        timeout = env.timeout(0.0, value="go")
        timeout.callbacks.append(lambda e: fired.append(e.value))
        env.run()
        assert fired == ["go"]

    def test_timeouts_fire_in_time_order(self):
        env = Environment()
        order = []
        for delay in (5.0, 1.0, 3.0):
            timeout = env.timeout(delay, value=delay)
            timeout.callbacks.append(lambda e: order.append(e.value))
        env.run()
        assert order == [1.0, 3.0, 5.0]

    def test_ties_fire_in_scheduling_order(self):
        env = Environment()
        order = []
        for tag in ("a", "b", "c"):
            timeout = env.timeout(1.0, value=tag)
            timeout.callbacks.append(lambda e: order.append(e.value))
        env.run()
        assert order == ["a", "b", "c"]

    def test_fired_timeout_stays_fired(self):
        """A process may keep the timeouts it yielded; none is reused."""
        env = Environment()
        seen = []

        def proc(env):
            first = env.timeout(1.0)
            yield first
            yield env.timeout(1.0)
            third = env.timeout(7.0)
            seen.append((third is first, first.processed, first.delay))
            yield third

        env.process(proc(env))
        env.run()
        assert seen == [(False, True, 1.0)]


class TestCallLater:
    def test_call_later_invokes_function(self):
        env = Environment()
        calls = []
        env.call_later(2.0, calls.append, "hello")
        env.run()
        assert calls == ["hello"]
        assert env.now == 2.0

    def test_call_later_passes_multiple_args(self):
        env = Environment()
        calls = []
        env.call_later(1.0, lambda a, b: calls.append(a + b), 2, 3)
        env.run()
        assert calls == [5]


class TestDefer:
    def test_defer_rejects_negative_delay(self):
        env = Environment()
        with pytest.raises(SchedulingError):
            env.defer(-1.0, lambda: None)

    def test_step_dispatches_a_flat_record(self):
        env = Environment()
        fired = []
        env.defer(2.0, fired.append, "a")
        env.step()
        assert fired == ["a"]
        assert env.now == 2.0

    def test_defer_and_call_later_share_scheduling_order(self):
        """Both forms take the same heap slot: ties keep call order."""
        env = Environment()
        fired = []
        for index, delay in enumerate([3.0, 1.0, 1.0, 2.0, 1.0, 0.0, 1.0]):
            schedule = env.defer if index % 2 else env.call_later
            schedule(delay, fired.append, (delay, index))
        env.run()
        assert fired == [
            (0.0, 5), (1.0, 1), (1.0, 2), (1.0, 4), (1.0, 6), (2.0, 3), (3.0, 0)
        ]


class TestProcesses:
    def test_process_runs_to_completion(self):
        env = Environment()
        log = []

        def proc(env):
            yield env.timeout(1.0)
            log.append(env.now)
            yield env.timeout(2.0)
            log.append(env.now)

        env.process(proc(env))
        env.run()
        assert log == [1.0, 3.0]

    def test_process_return_value(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1.0)
            return "done"

        process = env.process(proc(env))
        assert env.run(until=process) == "done"

    def test_timeout_value_is_sent_into_process(self):
        env = Environment()
        got = []

        def proc(env):
            value = yield env.timeout(1.0, value="payload")
            got.append(value)

        env.process(proc(env))
        env.run()
        assert got == ["payload"]

    def test_process_waits_on_other_process(self):
        env = Environment()

        def worker(env):
            yield env.timeout(5.0)
            return 99

        def waiter(env, child):
            result = yield child
            return result + 1

        child = env.process(worker(env))
        parent = env.process(waiter(env, child))
        assert env.run(until=parent) == 100

    def test_non_generator_rejected(self):
        env = Environment()
        with pytest.raises(ProcessError):
            env.process(lambda: None)

    def test_yielding_non_event_fails_process(self):
        env = Environment()

        def bad(env):
            yield 42

        env.process(bad(env))
        with pytest.raises(ProcessError):
            env.run()

    def test_exception_in_process_propagates(self):
        env = Environment()

        def boom(env):
            yield env.timeout(1.0)
            raise ValueError("bang")

        env.process(boom(env))
        with pytest.raises(ValueError, match="bang"):
            env.run()

    def test_is_alive_lifecycle(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1.0)

        process = env.process(proc(env))
        assert process.is_alive
        env.run()
        assert not process.is_alive


class TestInterrupt:
    def test_interrupt_delivers_cause(self):
        env = Environment()
        caught = []

        def sleeper(env):
            try:
                yield env.timeout(100.0)
            except Interrupt as interrupt:
                caught.append((env.now, interrupt.cause))

        def interrupter(env, target):
            yield env.timeout(1.0)
            target.interrupt("wake up")

        target = env.process(sleeper(env))
        env.process(interrupter(env, target))
        env.run()
        assert caught == [(1.0, "wake up")]

    def test_interrupting_dead_process_raises(self):
        env = Environment()

        def quick(env):
            yield env.timeout(0.0)

        process = env.process(quick(env))
        env.run()
        with pytest.raises(SchedulingError):
            process.interrupt()

    def test_interrupted_process_can_continue(self):
        env = Environment()
        log = []

        def sleeper(env):
            try:
                yield env.timeout(100.0)
            except Interrupt:
                pass
            yield env.timeout(1.0)
            log.append(env.now)

        def interrupter(env, target):
            yield env.timeout(2.0)
            target.interrupt()

        target = env.process(sleeper(env))
        env.process(interrupter(env, target))
        env.run()
        assert log == [3.0]


class TestEvents:
    def test_manual_succeed(self):
        env = Environment()
        event = env.event()
        results = []

        def waiter(env, ev):
            value = yield ev
            results.append(value)

        env.process(waiter(env, event))
        event.succeed("v")
        env.run()
        assert results == ["v"]

    def test_double_trigger_rejected(self):
        env = Environment()
        event = env.event()
        event.succeed(1)
        with pytest.raises(SchedulingError):
            event.succeed(2)

    def test_fail_propagates_to_waiter(self):
        env = Environment()
        event = env.event()

        def waiter(env, ev):
            yield ev

        env.process(waiter(env, event))
        event.fail(RuntimeError("nope"))
        with pytest.raises(RuntimeError, match="nope"):
            env.run()

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_value_before_trigger_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            _ = env.event().value

    def test_waiting_on_processed_event_resumes_immediately(self):
        env = Environment()
        results = []
        first = env.timeout(1.0, value="early")

        def late_waiter(env, ev):
            yield env.timeout(5.0)
            value = yield ev  # already processed
            results.append((env.now, value))

        env.process(late_waiter(env, first))
        env.run()
        assert results == [(5.0, "early")]


class TestKernelProperties:
    def test_events_fire_in_time_order_property(self):
        @given(st.lists(st.floats(0.0, 1000.0), min_size=1, max_size=50))
        @settings(max_examples=80, deadline=None)
        def check(delays):
            env = Environment()
            fired = []
            for delay in delays:
                timeout = env.timeout(delay, value=delay)
                timeout.callbacks.append(lambda e: fired.append(e.value))
            env.run()
            assert fired == sorted(delays)
            assert env.now == max(delays)

        check()

    def test_nested_process_chains(self):
        env = Environment()

        def leaf(env, depth):
            yield env.timeout(1.0)
            return depth

        def chain(env, depth):
            if depth == 0:
                result = yield env.process(leaf(env, 0))
                return result
            result = yield env.process(chain(env, depth - 1))
            return result + 1

        process = env.process(chain(env, 10))
        assert env.run(until=process) == 10

    def test_many_concurrent_processes(self):
        env = Environment()
        done = []

        def worker(env, index):
            yield env.timeout(float(index % 7))
            done.append(index)

        for index in range(500):
            env.process(worker(env, index))
        env.run()
        assert len(done) == 500
        assert sorted(done) == list(range(500))


class TestClose:
    def test_close_releases_suspended_processes_without_the_collector(self):
        class Held:
            pass

        env = Environment()
        closed = []

        def loop(env, held):
            try:
                while True:
                    yield env.timeout(1.0)
            finally:
                closed.append(held)

        held = Held()
        ref = weakref.ref(held)
        process = env.process(loop(env, held))
        env.defer(5.0, closed.append, held)
        env.run(until=2.5)
        del held
        gc.disable()
        try:
            env.close()
            assert env.queue_size == 0
            assert len(closed) == 1  # the generator's finally ran
            closed.clear()
            del process
            assert ref() is None
        finally:
            gc.enable()


# -- Environment.run held to a loop of single step() calls -----------------
#
# ``run`` drains same-tick entries as a batch; ``step`` pops one entry at
# a time.  The reference below is ``run`` written with ``step`` alone, and
# the differential builds one random schedule twice and asks both for the
# same fired order, clock, return value and raised exception.

#: Few distinct delays, so same-tick ties are the common case.
_DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.5])

_OPS = st.one_of(
    st.tuples(st.just("defer"), _DELAYS),
    st.tuples(st.just("call_later"), _DELAYS),
    st.tuples(st.just("chain"), _DELAYS, _DELAYS),
    st.tuples(st.just("process"), st.lists(_DELAYS, max_size=4)),
    st.tuples(st.just("interrupt"), _DELAYS, _DELAYS),
    st.tuples(st.just("fail"), _DELAYS),
)

_UNTIL = st.one_of(
    st.none(),
    _DELAYS,
    st.tuples(st.just("timeout"), _DELAYS),
    st.just("process"),
)


def _ticker(env, note, tag, delays):
    for delay in delays:
        yield env.timeout(delay)
        note(tag)
    return tag


def _sleeper(env, note, tag, delay):
    try:
        yield env.timeout(delay)
        note((tag, "slept"))
    except Interrupt as interrupt:
        note((tag, "interrupted", interrupt.cause))
        yield env.timeout(delay)
    return tag


def _build(env, log, ops, until):
    """Schedule ``ops`` on ``env``; returns the ``until`` to run to."""

    def note(tag):
        log.append((tag, env.now))

    def wake(victim, cause):
        if victim.is_alive:
            victim.interrupt(cause)

    processes = []
    for index, (kind, *args) in enumerate(ops):
        if kind == "defer":
            env.defer(args[0], note, index)
        elif kind == "call_later":
            env.call_later(args[0], note, index)
        elif kind == "chain":  # a deferred callback that defers again
            env.defer(args[0], env.defer, args[1], note, index)
        elif kind == "process":
            processes.append(env.process(_ticker(env, note, index, args[0])))
        elif kind == "interrupt":
            victim = env.process(_sleeper(env, note, index, args[0]))
            env.call_later(args[1], wake, victim, index)
            processes.append(victim)
        else:  # an event that fails with nobody waiting on it
            env.defer(
                args[0], lambda tag=index: env.event().fail(ValueError(tag))
            )
    if until == "process":
        # With no process to wait for: an event that never triggers.
        return processes[-1] if processes else env.event()
    if isinstance(until, tuple):
        return env.timeout(until[1], value="stop")
    return until


def _run(env, until):
    return env.run(until), env.now


def _run_by_steps(env, until):
    """``Environment.run`` spelled as one ``step()`` per entry."""
    stop_event = until if isinstance(until, Event) else None
    timed = until is not None and stop_event is None
    stop = float(until) if timed else float("inf")
    while env.queue_size and env.peek() <= stop:
        if stop_event is not None and stop_event.processed:
            return stop_event.value, env.now
        env.step()
    if stop_event is not None:
        if stop_event.processed:
            return stop_event.value, env.now
        raise SimulationError(
            "event queue exhausted before the awaited event triggered"
        )
    if timed:
        env._now = stop  # run(until=time) leaves the clock at that time
    return None, env.now


def _outcome(runner, ops, until):
    env = Environment()
    log = []
    results = []
    # The first call stops where ``until`` says; the second resumes the
    # same environment and drains what is left.
    for target in (_build(env, log, ops, until), None):
        try:
            results.append(runner(env, target))
        except (ValueError, SimulationError) as error:
            results.append((type(error), str(error), env.now))
    return log, results, env.queue_size


class TestRunMatchesStepLoop:
    @given(st.lists(_OPS, max_size=12), _UNTIL)
    @settings(max_examples=300, deadline=None)
    def test_run_equals_step_loop(self, ops, until):
        assert _outcome(_run, ops, until) == _outcome(_run_by_steps, ops, until)
