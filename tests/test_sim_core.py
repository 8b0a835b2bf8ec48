"""Unit tests for the discrete-event engine core."""

import pytest

from repro.sim.core import Simulator
from repro.sim.errors import EventAlreadyTriggered, Interrupt
from repro.sim.events import Event, Timeout

from conftest import drive


class TestEvent:
    def test_untriggered_initially(self, sim):
        event = sim.event()
        assert not event.triggered
        assert not event.processed

    def test_succeed_sets_value(self, sim):
        event = sim.event()
        event.succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_fail_sets_exception(self, sim):
        event = sim.event()
        event.fail(ValueError("boom"))
        event.defuse()
        assert event.triggered
        assert not event.ok
        assert isinstance(event.value, ValueError)

    def test_double_trigger_rejected(self, sim):
        event = sim.event()
        event.succeed()
        with pytest.raises(EventAlreadyTriggered):
            event.succeed()

    def test_fail_requires_exception(self, sim):
        event = sim.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_value_before_trigger_raises(self, sim):
        event = sim.event()
        with pytest.raises(AttributeError):
            _ = event.value

    def test_undefused_failure_crashes_run(self, sim):
        event = sim.event()
        event.fail(RuntimeError("unhandled"))
        with pytest.raises(RuntimeError, match="unhandled"):
            sim.run()


class TestTimeout:
    def test_timeout_advances_clock(self, sim):
        def proc():
            yield sim.timeout(25.5)
            return sim.now

        assert drive(sim, proc()) == pytest.approx(25.5)

    def test_timeout_carries_value(self, sim):
        def proc():
            got = yield sim.timeout(1, value="payload")
            return got

        assert drive(sim, proc()) == "payload"

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1)

    def test_zero_delay_runs_immediately(self, sim):
        def proc():
            yield sim.timeout(0)
            return sim.now

        assert drive(sim, proc()) == 0.0

    def test_timeouts_fire_in_order(self, sim):
        order = []
        sim.schedule(5, lambda: order.append("b"))
        sim.schedule(1, lambda: order.append("a"))
        sim.schedule(9, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_fifo(self, sim):
        order = []
        for label in "abc":
            sim.schedule(3, lambda label=label: order.append(label))
        sim.run()
        assert order == ["a", "b", "c"]


class TestProcess:
    def test_return_value(self, sim):
        def proc():
            yield sim.timeout(1)
            return "done"

        assert drive(sim, proc()) == "done"

    def test_nested_yield_from(self, sim):
        def inner():
            yield sim.timeout(2)
            return 10

        def outer():
            value = yield from inner()
            yield sim.timeout(3)
            return value + 1

        assert drive(sim, outer()) == 11
        assert sim.now == 5.0

    def test_exception_propagates_to_waiter(self, sim):
        def bad():
            yield sim.timeout(1)
            raise KeyError("oops")

        with pytest.raises(KeyError):
            drive(sim, bad())

    def test_process_is_event(self, sim):
        def child():
            yield sim.timeout(7)
            return "child-done"

        def parent():
            result = yield sim.process(child())
            return result

        assert drive(sim, parent()) == "child-done"

    def test_yield_non_event_raises(self, sim):
        def proc():
            yield 42

        process = sim.process(proc())
        with pytest.raises(TypeError):
            sim.run()

    def test_waiting_on_already_processed_event(self, sim):
        event = sim.event()
        event.succeed("early")

        def late():
            yield sim.timeout(5)
            value = yield event
            return value

        assert drive(sim, late()) == "early"

    def test_is_alive(self, sim):
        def proc():
            yield sim.timeout(10)

        process = sim.process(proc())
        assert process.is_alive
        sim.run()
        assert not process.is_alive

    def test_requires_generator(self, sim):
        with pytest.raises(TypeError):
            sim.process(lambda: None)


class TestUnwatchedFinish:
    """A process nobody waits on finishes in place, with no completion
    event; every later way of waiting on it must still work."""

    @staticmethod
    def _finished_unwatched(sim, value="v"):
        def child():
            yield sim.timeout(3)
            return value

        proc = sim.process(child())
        sim.run(until=5)
        assert proc.processed and proc.value == value
        return proc

    def test_finishes_without_a_completion_event(self, sim):
        def child():
            yield sim.timeout(3)

        sim.process(child())
        sim.run()
        # init + timeout; no completion event was dispatched.
        assert sim.events_dispatched == 2

    def test_later_yield_resumes(self, sim):
        proc = self._finished_unwatched(sim)

        def waiter():
            value = yield proc
            return value, sim.now

        assert drive(sim, waiter()) == ("v", 5.0)

    def test_later_all_of_resumes(self, sim):
        proc = self._finished_unwatched(sim)

        def waiter():
            result = yield sim.all_of([proc])
            return result[proc]

        assert drive(sim, waiter()) == "v"

    def test_later_run_until_returns_value(self, sim):
        proc = self._finished_unwatched(sim)
        assert sim.run(until=proc) == "v"
        assert sim.now == 5.0

    def test_run_until_live_process_stops_when_it_finishes(self, sim):
        def child():
            yield sim.timeout(3)
            return "done"

        proc = sim.process(child())
        sim.schedule(3, lambda: None)
        sim.schedule(9, lambda: None)
        assert sim.run(until=proc) == "done"
        assert sim.now == 3.0
        assert proc.processed

    def test_failed_process_still_raises(self, sim):
        def bad():
            yield sim.timeout(1)
            raise KeyError("unwatched")

        sim.process(bad())
        with pytest.raises(KeyError):
            sim.run()

    def test_run_until_failed_process_raises(self, sim):
        def bad():
            yield sim.timeout(1)
            raise KeyError("watched")

        proc = sim.process(bad())
        with pytest.raises(KeyError):
            sim.run(until=proc)
        sim.run()  # the defused failure does not crash the rest


class TestInterrupt:
    def test_interrupt_delivers_cause(self, sim):
        def sleeper():
            try:
                yield sim.timeout(1000)
                return "overslept"
            except Interrupt as interrupt:
                return interrupt.cause

        target = sim.process(sleeper())

        def killer():
            yield sim.timeout(10)
            target.interrupt("wake-up")

        sim.process(killer())
        assert sim.run(until=target) == "wake-up"
        assert sim.now == 10.0

    def test_interrupt_finished_process_rejected(self, sim):
        def quick():
            yield sim.timeout(1)

        process = sim.process(quick())
        sim.run()
        with pytest.raises(RuntimeError):
            process.interrupt()

    def test_self_interrupt_rejected(self, sim):
        def suicidal(handle):
            yield sim.timeout(1)
            handle[0].interrupt()

        handle = [None]
        process = sim.process(suicidal(handle))
        handle[0] = process
        with pytest.raises(RuntimeError):
            sim.run()

    def test_interrupted_process_can_continue(self, sim):
        def resilient():
            try:
                yield sim.timeout(100)
            except Interrupt:
                pass
            yield sim.timeout(5)
            return sim.now

        target = sim.process(resilient())

        def poker():
            yield sim.timeout(3)
            target.interrupt()

        sim.process(poker())
        assert sim.run(until=target) == 8.0


class TestConditions:
    def test_all_of_waits_for_all(self, sim):
        def proc():
            timeouts = [sim.timeout(t, value=t) for t in (3, 1, 7)]
            yield sim.all_of(timeouts)
            return sim.now

        assert drive(sim, proc()) == 7.0

    def test_any_of_fires_on_first(self, sim):
        def proc():
            timeouts = [sim.timeout(t, value=t) for t in (3, 1, 7)]
            result = yield sim.any_of(timeouts)
            return sim.now, list(result.values())

        now, values = drive(sim, proc())
        assert now == 1.0
        assert values == [1]

    def test_all_of_empty_fires_immediately(self, sim):
        def proc():
            yield sim.all_of([])
            return sim.now

        assert drive(sim, proc()) == 0.0

    def test_all_of_propagates_failure(self, sim):
        def failer():
            yield sim.timeout(1)
            raise ValueError("inner")

        def proc():
            yield sim.all_of([sim.process(failer()), sim.timeout(10)])

        with pytest.raises(ValueError):
            drive(sim, proc())


class TestRun:
    def test_run_until_time(self, sim):
        sim.schedule(5, lambda: None)
        sim.schedule(50, lambda: None)
        sim.run(until=10)
        assert sim.now == 10.0
        assert sim.pending_events == 1

    def test_run_until_past_raises(self, sim):
        sim.schedule(5, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.run(until=1)

    def test_run_until_event_returns_value(self, sim):
        event = sim.event()
        sim.schedule(4, lambda: event.succeed("yo"))
        assert sim.run(until=event) == "yo"
        assert sim.now == 4.0

    def test_run_until_never_triggering_event(self, sim):
        event = sim.event()
        sim.schedule(1, lambda: None)
        with pytest.raises(RuntimeError):
            sim.run(until=event)

    def test_run_empty_simulation(self, sim):
        sim.run()
        assert sim.now == 0.0

    def test_peek(self, sim):
        assert sim.peek() == float("inf")
        sim.schedule(3, lambda: None)
        assert sim.peek() == 3.0
