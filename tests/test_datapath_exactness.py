"""Exactness and event-budget gate for the default (knobs-off) datapath.

Scheduling-only changes to ``sim``/``hw``/``net`` (granting a free
slot without an event round trip, delivering NIC traffic straight to
the RPC layer, finishing unwatched processes in place) must not move
any simulated result.  Each shape below pins a digest of every per-op
latency and every program counter *except* the event count, plus a
ceiling on events dispatched per op in the measured phase, which is
deterministic and therefore a regression gate rather than a timing.
"""

import hashlib
from collections import defaultdict

import pytest

from repro.bench.harness import build_cluster, load_cluster
from repro.workloads.driver import ClosedLoopDriver
from repro.workloads.ycsb import YCSBWorkload


def _add_fields(into, group, obj):
    for name, value in vars(obj).items():
        if name.startswith("_") or isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            into[group + "." + name] += value


def counters(cluster):
    """Every numeric program counter, summed by group; no event counts."""
    counts = defaultdict(float)
    counts["sim.now_us"] = cluster.sim.now
    counts["power.energy_j"] = cluster.energy_joules()
    counts["net.messages_delivered"] = cluster.network.messages_delivered
    for client in cluster.clients:
        _add_fields(counts, "client", client.stats)
        _add_fields(counts, "flow", client.flow.stats)
        _add_fields(counts, "client_rpc", client.rpc)
    for node in cluster.jbofs:
        counts["jbof.swap_redirects"] += node.swap_redirects
        counts["jbof.requests_completed"] += node.requests_completed
        _add_fields(counts, "jbof_rpc", node.rpc)
        for core in node.cpu.cores:
            counts["cpu.busy_time_us"] += core.busy_time_us
            counts["cpu.cycles_executed"] += core.cycles_executed
        for ssd in node.ssds:
            _add_fields(counts, "ssd", ssd.stats)
        for runtime in node.vnodes.values():
            _add_fields(counts, "vnode", runtime.stats)
            _add_fields(counts, "store", runtime.store.stats)
            _add_fields(counts, "engine", runtime.engine.stats)
            _add_fields(counts, "compaction", runtime.compactor.stats)
            for log_name in ("key_log", "value_log"):
                log = getattr(runtime.store, log_name)
                counts[log_name + ".appends"] += log.appends
                counts[log_name + ".bytes_appended"] += log.bytes_appended
    for address in cluster.network.addresses():
        _add_fields(counts, "nic", cluster.network.nic(address))
    return dict(counts)


def run_shape(mix, records, ops, concurrency, seed):
    """Load, drive ``ops`` closed-loop ops; return (digest, events/op)."""
    cluster = build_cluster("leed", scale="quick", value_size=256, seed=seed)
    workload = YCSBWorkload(mix, num_records=records, seed=seed,
                            value_size=256)
    load_cluster(cluster, workload, parallelism=16)
    sim = cluster.sim
    events_before = cluster.total_events_dispatched()
    share = ops // len(cluster.clients)
    drivers = [ClosedLoopDriver(sim, client, workload, share,
                                concurrency=concurrency)
               for client in cluster.clients]
    procs = [sim.process(driver.run(), name="drive") for driver in drivers]
    sim.run(until=sim.all_of(procs))
    events = cluster.total_events_dispatched() - events_before
    completed = sum(driver.stats.completed for driver in drivers)
    assert completed == share * len(drivers)
    assert all(driver.stats.failed == 0 for driver in drivers)
    digest = hashlib.sha256()
    for driver in drivers:
        for latency in driver.stats.latencies_us:
            digest.update(repr(latency).encode("ascii"))
        digest.update(b"|")
    for name, value in sorted(counters(cluster).items()):
        digest.update(("%s=%r;" % (name, value)).encode("ascii"))
    return digest.hexdigest(), events / completed


#: (mix, records, ops, concurrency per client, seed) ->
#: (digest, events/op ceiling).  The digests were generated before the
#: same-instant scheduling hops left the default path, and must not
#: move; the ceilings sit ~2% above the measured events/op.
SHAPES = {
    "chain-write": (
        ("WR", 200, 600, 16, 5),
        ("f3e383e7eba3657553670a22ca8099798f4a69565310f1da78bdfe1468538abc",
         63.0)),
    "get": (
        ("C", 200, 480, 16, 5),
        ("f663a4cc9e017ddefd4f58a2c487f62b417a9eecc1d705a3b00f964e7332dc5b",
         16.5)),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_default_path_exact_and_event_lean(shape):
    args, (want_digest, ceiling) = SHAPES[shape]
    digest, events_per_op = run_shape(*args)
    assert digest == want_digest
    assert events_per_op <= ceiling
