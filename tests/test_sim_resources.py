"""Tests for Resource, TokenBucket, Store, and PriorityStore."""

import pytest

from repro.sim.core import Simulator
from repro.sim.queues import PriorityStore, Store
from repro.sim.resources import Resource, TokenBucket

from conftest import drive


class TestResource:
    def test_acquire_release(self, sim):
        resource = Resource(sim, capacity=2)

        def proc():
            yield resource.acquire()
            assert resource.in_use == 1
            resource.release()
            return resource.in_use

        assert drive(sim, proc()) == 0

    def test_fcfs_ordering(self, sim):
        resource = Resource(sim, capacity=1)
        order = []

        def worker(name, hold):
            yield resource.acquire()
            order.append(name)
            yield sim.timeout(hold)
            resource.release()

        for name in ("a", "b", "c"):
            sim.process(worker(name, 5))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_capacity_enforced(self, sim):
        resource = Resource(sim, capacity=2)
        concurrent = []

        def worker():
            yield resource.acquire()
            concurrent.append(resource.in_use)
            yield sim.timeout(10)
            resource.release()

        for _ in range(5):
            sim.process(worker())
        sim.run()
        assert max(concurrent) <= 2

    def test_multi_slot_acquire(self, sim):
        resource = Resource(sim, capacity=4)

        def proc():
            yield resource.acquire(3)
            assert resource.available == 1
            resource.release(3)

        drive(sim, proc())

    def test_acquire_more_than_capacity_rejected(self, sim):
        resource = Resource(sim, capacity=2)
        with pytest.raises(ValueError):
            resource.acquire(3)

    def test_over_release_rejected(self, sim):
        resource = Resource(sim, capacity=1)
        with pytest.raises(ValueError):
            resource.release()

    def test_cancel_pending_request(self, sim):
        resource = Resource(sim, capacity=1)

        def holder():
            yield resource.acquire()
            yield sim.timeout(100)
            resource.release()

        sim.process(holder())
        sim.run(until=1)
        request = resource.acquire()
        assert resource.queue_length == 1
        request.cancel()
        assert resource.queue_length == 0

    def test_utilization_tracks_busy_time(self, sim):
        resource = Resource(sim, capacity=1)

        def proc():
            yield resource.acquire()
            yield sim.timeout(50)
            resource.release()
            yield sim.timeout(50)

        drive(sim, proc())
        assert resource.utilization() == pytest.approx(0.5)

    def test_invalid_capacity(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)


class TestTryAcquire:
    def test_grants_free_slot_without_an_event(self, sim):
        resource = Resource(sim, capacity=2)
        assert resource.try_acquire()
        assert resource.in_use == 1
        assert sim.pending_events == 0

    def test_refuses_when_full(self, sim):
        resource = Resource(sim, capacity=1)
        assert resource.try_acquire()
        assert not resource.try_acquire()
        assert resource.in_use == 1

    def test_refuses_behind_a_queued_larger_request(self, sim):
        """FCFS: a small request must not overtake a queued big one,
        even though it would fit in the free slots right now."""
        resource = Resource(sim, capacity=3)
        assert resource.try_acquire(2)
        big = resource.acquire(3)
        assert resource.queue_length == 1 and resource.available == 1
        assert not resource.try_acquire(1)
        assert resource.in_use == 2
        resource.release(2)
        assert big.triggered
        assert resource.in_use == 3

    def test_utilization_matches_acquire(self):
        def run(take):
            sim = Simulator()
            resource = Resource(sim, capacity=2)

            def worker(start, hold):
                yield sim.timeout(start)
                yield from take(resource)
                yield sim.timeout(hold)
                resource.release()

            for start, hold in ((0, 30), (5, 40), (10, 20), (12, 8)):
                sim.process(worker(start, hold))
            sim.run(until=100)
            return resource.utilization(), resource._busy_area

        def via_acquire(resource):
            yield resource.acquire()

        def via_try(resource):
            if not resource.try_acquire():
                yield resource.acquire()

        assert run(via_try) == run(via_acquire)


class TestTokenBucket:
    def test_try_consume(self, sim):
        bucket = TokenBucket(sim, tokens=3)
        assert bucket.try_consume(2)
        assert bucket.tokens == 1
        assert not bucket.try_consume(2)

    def test_consume_waits_for_grant(self, sim):
        bucket = TokenBucket(sim, tokens=0)
        got_at = []

        def consumer():
            yield bucket.consume(5)
            got_at.append(sim.now)

        sim.process(consumer())
        sim.schedule(20, lambda: bucket.grant(5))
        sim.run()
        assert got_at == [20.0]

    def test_capacity_clamps(self, sim):
        bucket = TokenBucket(sim, tokens=0, capacity=10)
        bucket.grant(100)
        assert bucket.tokens == 10

    def test_set_level(self, sim):
        bucket = TokenBucket(sim, tokens=7)
        bucket.set_level(2)
        assert bucket.tokens == 2

    def test_fcfs_consumers(self, sim):
        bucket = TokenBucket(sim, tokens=0)
        order = []

        def consumer(name, amount):
            yield bucket.consume(amount)
            order.append(name)

        sim.process(consumer("big", 5))
        sim.process(consumer("small", 1))
        sim.schedule(1, lambda: bucket.grant(6))
        sim.run()
        # Head-of-line: big waits first and is served first.
        assert order == ["big", "small"]

    def test_negative_grant_rejected(self, sim):
        bucket = TokenBucket(sim)
        with pytest.raises(ValueError):
            bucket.grant(-1)


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)

        def proc():
            yield store.put("x")
            item = yield store.get()
            return item

        assert drive(sim, proc()) == "x"

    def test_fifo_order(self, sim):
        store = Store(sim)
        got = []

        def producer():
            for index in range(5):
                yield store.put(index)

        def consumer():
            for _ in range(5):
                item = yield store.get()
                got.append(item)

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert got == [0, 1, 2, 3, 4]

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        when = []

        def consumer():
            yield store.get()
            when.append(sim.now)

        sim.process(consumer())
        sim.schedule(30, lambda: store.try_put("late"))
        sim.run()
        assert when == [30.0]

    def test_bounded_capacity_blocks_put(self, sim):
        store = Store(sim, capacity=1)
        times = []

        def producer():
            yield store.put("a")
            times.append(sim.now)
            yield store.put("b")
            times.append(sim.now)

        def consumer():
            yield sim.timeout(10)
            yield store.get()

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert times == [0.0, 10.0]

    def test_try_put_respects_capacity(self, sim):
        store = Store(sim, capacity=2)
        assert store.try_put(1)
        assert store.try_put(2)
        assert not store.try_put(3)
        assert store.is_full

    def test_try_get_empty_returns_none(self, sim):
        store = Store(sim)
        assert store.try_get() is None

    def test_len_and_peek(self, sim):
        store = Store(sim)
        store.try_put("first")
        store.try_put("second")
        assert len(store) == 2
        assert store.peek() == "first"

    def test_invalid_capacity(self, sim):
        with pytest.raises(ValueError):
            Store(sim, capacity=0)


class TestPriorityStore:
    def test_orders_by_item(self, sim):
        store = PriorityStore(sim)
        for value in (5, 1, 3):
            store.try_put(value)
        got = []

        def consumer():
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        drive(sim, consumer())
        assert got == [1, 3, 5]

    def test_tuple_priorities(self, sim):
        store = PriorityStore(sim)
        store.try_put((2, "low"))
        store.try_put((1, "high"))

        def consumer():
            first = yield store.get()
            return first

        assert drive(sim, consumer()) == (1, "high")
