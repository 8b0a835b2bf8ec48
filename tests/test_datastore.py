"""Tests for the LEED data store: GET/PUT/DEL semantics (§3.2-3.3)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.datastore import LeedDataStore, StoreConfig
from repro.core.segment import value_entry_size
from repro.hw.cpu import Core
from repro.hw.dram import Dram
from repro.hw.ssd import NVMeSSD, SSDProfile
from repro.sim.core import Simulator
from repro.sim.rng import RngRegistry

from conftest import drive


def make_store(sim, quiet=True, **config_kwargs):
    defaults = dict(num_segments=64, key_log_bytes=2 << 20,
                    value_log_bytes=8 << 20)
    defaults.update(config_kwargs)
    profile = SSDProfile(capacity_bytes=32 << 20, block_size=512,
                         jitter=0.0 if quiet else 0.1)
    ssd = NVMeSSD(sim, profile, rng=RngRegistry(5))
    return LeedDataStore(sim, ssd, StoreConfig(**defaults))


class TestBasicSemantics:
    def test_put_get_roundtrip(self, sim):
        store = make_store(sim)

        def proc():
            put = yield from store.put(b"key", b"value")
            got = yield from store.get(b"key")
            return put, got

        put, got = drive(sim, proc())
        assert put.ok
        assert got.ok
        assert got.value == b"value"

    def test_get_missing(self, sim):
        store = make_store(sim)

        def proc():
            return (yield from store.get(b"ghost"))

        assert drive(sim, proc()).status == "not_found"

    def test_overwrite_returns_latest(self, sim):
        store = make_store(sim)

        def proc():
            yield from store.put(b"k", b"v1")
            yield from store.put(b"k", b"v2")
            return (yield from store.get(b"k"))

        assert drive(sim, proc()).value == b"v2"

    def test_delete_then_get(self, sim):
        store = make_store(sim)

        def proc():
            yield from store.put(b"k", b"v")
            deleted = yield from store.delete(b"k")
            got = yield from store.get(b"k")
            return deleted, got

        deleted, got = drive(sim, proc())
        assert deleted.ok
        assert got.status == "not_found"

    def test_delete_missing(self, sim):
        store = make_store(sim)

        def proc():
            return (yield from store.delete(b"never"))

        assert drive(sim, proc()).status == "not_found"

    def test_reinsert_after_delete(self, sim):
        store = make_store(sim)

        def proc():
            yield from store.put(b"k", b"old")
            yield from store.delete(b"k")
            yield from store.put(b"k", b"new")
            return (yield from store.get(b"k"))

        assert drive(sim, proc()).value == b"new"

    def test_empty_value_rejected(self, sim):
        store = make_store(sim)
        with pytest.raises(ValueError):
            drive(sim, store.put(b"k", b""))

    def test_live_object_accounting(self, sim):
        store = make_store(sim)

        def proc():
            yield from store.put(b"a", b"1")
            yield from store.put(b"b", b"2")
            yield from store.put(b"a", b"3")  # overwrite: no change
            yield from store.delete(b"b")
            return store.live_objects

        assert drive(sim, proc()) == 1


class TestNVMeAccessCounts:
    """The paper's 2/3/2 device accesses for GET/PUT/DEL (§3.3)."""

    def test_get_two_accesses(self, sim):
        store = make_store(sim)

        def proc():
            yield from store.put(b"k", b"v")
            return (yield from store.get(b"k"))

        assert drive(sim, proc()).nvme_accesses == 2

    def test_put_three_accesses(self, sim):
        store = make_store(sim)

        def proc():
            yield from store.put(b"k", b"v")        # first: segment new
            return (yield from store.put(b"k", b"w"))

        assert drive(sim, proc()).nvme_accesses == 3

    def test_del_two_accesses(self, sim):
        store = make_store(sim)

        def proc():
            yield from store.put(b"k", b"v")
            return (yield from store.delete(b"k"))

        assert drive(sim, proc()).nvme_accesses == 2

    def test_put_overlaps_read_and_value_write(self, sim):
        """PUT is cheaper than GET despite one more access (Fig. 11)."""
        store = make_store(sim)

        def proc():
            yield from store.put(b"k", b"v" * 256)
            put = yield from store.put(b"k", b"w" * 256)
            got = yield from store.get(b"k")
            return put.total_us, got.total_us

        put_us, get_us = drive(sim, proc())
        assert put_us < get_us

    def test_ssd_time_dominates(self, sim):
        """SSD accesses are ~97% of command latency (Fig. 11)."""
        store = make_store(sim)

        def proc():
            yield from store.put(b"k", b"v" * 100)
            return (yield from store.get(b"k"))

        result = drive(sim, proc())
        assert result.ssd_us / result.total_us > 0.9


class TestCapacityLimits:
    def test_value_log_full(self, sim):
        store = make_store(sim, value_log_bytes=64 << 10,
                           key_log_bytes=1 << 20)

        def proc():
            status = None
            for index in range(200):
                result = yield from store.put(b"k%03d" % index, b"v" * 1024)
                if not result.ok:
                    status = result.status
                    break
            return status

        assert drive(sim, proc()) == "store_full"

    def test_segment_full(self, sim):
        store = make_store(sim, num_segments=1, max_chain=1)

        def proc():
            status = None
            for index in range(100):
                result = yield from store.put(b"key-%04d" % index, b"v")
                if not result.ok:
                    status = result.status
                    break
            return status

        assert drive(sim, proc()) == "store_full"

    def test_full_segment_chain_counts_orphaned_value(self, sim):
        """The value lands before the segment update; when the chain is
        full that entry is unreferenced, hence garbage."""
        store = make_store(sim, num_segments=1, max_chain=1)

        def proc():
            stored = []
            for index in range(100):
                key = b"key-%04d" % index
                result = yield from store.put(key, b"v")
                if not result.ok:
                    return stored, key, result.status
                stored.append(key)
            raise AssertionError("the single bucket never filled")

        stored, rejected, status = drive(sim, proc())
        assert status == "store_full"
        assert store.live_objects == len(stored)
        assert store.stats.value_garbage_bytes == value_entry_size(
            len(rejected), 1)

    def test_key_log_full_overwrite_keeps_previous_value(self, sim):
        """A segment append refused by the key-log reserve leaves the
        old value live: only the new, orphaned entry is garbage."""
        store = make_store(sim, key_log_bytes=64 << 10)

        def proc():
            written = []
            for index in range(1000):
                value = b"v" * (index + 1)
                result = yield from store.put(b"k", value)
                if not result.ok:
                    garbage = store.stats.value_garbage_bytes
                    deleted = yield from store.delete(b"k")
                    read = yield from store.get(b"k")
                    return (written, value, result.status, garbage,
                            deleted.status, read)
                written.append(value)
            raise AssertionError("the key log never filled")

        written, rejected, status, garbage, deleted, read = drive(sim, proc())
        assert status == "store_full"
        superseded = sum(value_entry_size(1, len(v)) for v in written[:-1])
        assert garbage == superseded + value_entry_size(1, len(rejected))
        # A tombstone refused the same way frees nothing either.
        assert deleted == "store_full"
        assert store.stats.value_garbage_bytes == garbage
        assert read.value == written[-1]
        assert store.live_objects == 1


class TestScan:
    def test_scan_returns_live_pairs(self, sim):
        store = make_store(sim)

        def proc():
            yield from store.put(b"a", b"1")
            yield from store.put(b"b", b"2")
            yield from store.put(b"c", b"3")
            yield from store.delete(b"b")
            pairs = yield from store.scan()
            return dict(pairs)

        assert drive(sim, proc()) == {b"a": b"1", b"c": b"3"}

    def test_scan_with_predicate(self, sim):
        store = make_store(sim)

        def proc():
            for index in range(10):
                yield from store.put(b"k%d" % index, b"v%d" % index)
            pairs = yield from store.scan(
                predicate=lambda key: key.endswith(b"3"))
            return dict(pairs)

        assert drive(sim, proc()) == {b"k3": b"v3"}

    def test_scan_streams_batches(self, sim):
        store = make_store(sim)
        batches = []

        def visit(batch):
            batches.append(list(batch))
            yield sim.timeout(0)

        def proc():
            for index in range(7):
                yield from store.put(b"k%d" % index, b"v")
            yield from store.scan(batch_size=3, visit=visit)

        drive(sim, proc())
        assert sum(len(b) for b in batches) == 7
        assert all(len(b) <= 3 for b in batches[:-1])


class TestConcurrency:
    def test_concurrent_puts_distinct_keys(self, sim):
        store = make_store(sim)

        def writer(key, value):
            return (yield from store.put(key, value))

        procs = [sim.process(writer(b"key-%d" % i, b"val-%d" % i))
                 for i in range(20)]
        sim.run()

        def check():
            for index in range(20):
                got = yield from store.get(b"key-%d" % index)
                assert got.ok and got.value == b"val-%d" % index

        drive(sim, check())

    def test_same_segment_writes_serialize(self, sim):
        """The lock bit forces same-key writers to serialize; the last
        value to commit wins and the store never corrupts."""
        store = make_store(sim)

        def writer(value):
            return (yield from store.put(b"hot", value))

        for index in range(10):
            sim.process(writer(b"v%d" % index))
        sim.run()

        def check():
            got = yield from store.get(b"hot")
            return got

        got = drive(sim, check())
        assert got.ok
        assert got.value in {b"v%d" % i for i in range(10)}

    def test_reads_concurrent_with_writes(self, sim):
        store = make_store(sim)
        results = []

        def writer():
            for index in range(30):
                yield from store.put(b"x", b"value-%02d" % index)

        def reader():
            for _ in range(30):
                result = yield from store.get(b"x")
                if result.ok:
                    results.append(result.value)
                yield sim.timeout(10)

        sim.process(writer())
        sim.process(reader())
        sim.run()
        assert all(value.startswith(b"value-") for value in results)


class TestShadowModel:
    """Randomized operation sequences against a dict reference."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_matches_dict_semantics(self, seed):
        sim = Simulator()
        store = make_store(sim)
        rng = random.Random(seed)

        def proc():
            shadow = {}
            for step in range(120):
                key = b"k%02d" % rng.randrange(25)
                action = rng.random()
                if action < 0.5:
                    value = b"v-%d-%d" % (seed, step)
                    result = yield from store.put(key, value)
                    assert result.ok
                    shadow[key] = value
                elif action < 0.8:
                    result = yield from store.get(key)
                    if key in shadow:
                        assert result.ok and result.value == shadow[key]
                    else:
                        assert result.status == "not_found"
                else:
                    result = yield from store.delete(key)
                    if key in shadow:
                        assert result.ok
                        del shadow[key]
                    else:
                        assert result.status == "not_found"
            assert store.live_objects == len(shadow)

        process = sim.process(proc())
        sim.run(until=process)
