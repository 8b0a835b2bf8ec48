"""Workload definitions, cluster set-up, the measured phase and the sweep.

Every client write carries a :class:`repro.scenarios.load.WriteLedger`
token, including the load phase, so the final read-back sweep can judge
every key: an acknowledged write that is not readable afterwards (and
was not superseded) is a lost acked write.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Dict, List

from repro.baselines import make_cluster
from repro.core.datastore import StoreConfig
from repro.scenarios.load import WriteLedger
from repro.workloads.driver import ClosedLoopDriver, OpenLoopDriver
from repro.workloads.ycsb import YCSBWorkload, make_key

import counters
import hosttime

VALUE_SIZE = 256
KEY_SIZE = len(make_key(0))
#: Per-partition store geometry.  The harness's quick-scale rings,
#: except a 2 MB key log (default 4 MB) so that key-log compaction
#: completes rounds within one write-heavy run.
STORE = dict(num_segments=256, key_log_bytes=2 << 20,
             value_log_bytes=24 << 20)
SSDS_PER_JBOF = 2
LOAD_PARALLELISM = 16
SWEEP_PARALLELISM = 64
#: Chunks a timed measured phase and a timed load phase are split into
#: (see hosttime.ChunkMeter).  Passes that follow one another closely
#: run with the reference's data still cached, and faster than the
#: ones in the measured phase do.
HOST_CHUNKS = 200
LOAD_CHUNKS = 40


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; ``--seconds`` sets its op budget."""

    name: str
    mix: str
    num_jbofs: int
    num_clients: int
    records: int
    #: Closed loop: total outstanding ops across clients (0 = open loop).
    outstanding: int
    #: Open loop: offered rate in simulated ops/s (0 = closed loop).
    offered_qps: float
    #: Client ops per ``--seconds`` second: the op budget is
    #: ``seconds * ops_per_second``, a fixed number, so simulated results
    #: depend only on (seed, seconds) and never on host speed.  Set to
    #: roughly this workload's host throughput on a 2-CPU x86 box.
    ops_per_second: int
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("read-mostly", "B", 4, 8, 2000, 64, 0.0, 2400,
             "YCSB-B closed loop: the GET path (CRRS routing, rpc, engine "
             "admission, two SSD reads per GET); writes barely run"),
    Workload("write-heavy", "WR", 4, 8, 2000, 0, 15_000.0, 750,
             "YCSB-WR open loop at 15 kops/s: chain writes, WAL, log "
             "appends and key-log compaction rounds; no reads"),
    Workload("scale-out-open", "B", 16, 64, 8000, 0, 1_000_000.0, 2200,
             "YCSB-B open loop at 1 Mops/s on 16 JBOFs: latency at a fixed "
             "rate, per-event cost at scale, largest load phase"),
)}


class MeasuredClient:
    """Client-API proxy: tags writes with ledger tokens, records outcomes.

    Latency is simulated time from the call (an open-loop arrival's due
    time) to completion; a failed op is kept apart so percentiles can
    count it as infinite.
    """

    def __init__(self, client, ledger: WriteLedger, phase: "PhaseLog"):
        self.client = client
        self.ledger = ledger
        self.phase = phase
        self.sim = client.sim

    def get(self, key: bytes):
        begin = self.sim.now
        result = yield from self.client.get(key)
        self.phase.record("get", self.sim.now - begin,
                          result.status in ("ok", "not_found"))
        return result

    def put(self, key: bytes, value: bytes):
        begin = self.sim.now
        seq, tagged = self.ledger.begin(key)
        result = yield from self.client.put(key, tagged)
        ok = result.status == "ok"
        self.ledger.finish(key, seq, ok)
        self.phase.record("put", self.sim.now - begin, ok)
        return result


class PhaseLog:
    """Outcomes of the client ops of one phase."""

    def __init__(self, meter: "hosttime.ChunkMeter" = None):
        self.latencies_us: List[float] = []
        self.failed = 0
        self.refused = 0
        self.ops = {"get": 0, "put": 0}
        self.meter = meter

    def record(self, op: str, latency_us: float, ok: bool) -> None:
        self.ops[op] += 1
        if ok:
            self.latencies_us.append(latency_us)
        else:
            self.failed += 1
        if self.meter is not None:
            self.meter.tick(self.ops["get"] + self.ops["put"])

    @property
    def attempted(self) -> int:
        return self.ops["get"] + self.ops["put"] + self.refused

    def percentile_us(self, quantile: float) -> float:
        """Nearest-rank percentile; failed and refused ops are infinite."""
        ordered = sorted(self.latencies_us)
        ordered.extend([float("inf")] * (self.failed + self.refused))
        if not ordered:
            return float("inf")
        return ordered[min(int(quantile * len(ordered)), len(ordered) - 1)]

    def tail_samples(self, quantile: float) -> int:
        """Samples beyond the ``quantile`` percentile (the tail it rests on)."""
        n = self.attempted
        return n - min(int(quantile * n), n - 1) - 1


class Bench:
    """One built and loaded cluster for a workload and seed."""

    def __init__(self, spec: Workload, seed: int):
        self.spec = spec
        self.seed = seed
        self.cluster = make_cluster(
            "leed", num_nodes=spec.num_jbofs, ssds_per_node=SSDS_PER_JBOF,
            num_clients=spec.num_clients,
            store_config=StoreConfig(**STORE), seed=seed)
        self.workload = YCSBWorkload(spec.mix, num_records=spec.records,
                                     seed=seed, value_size=VALUE_SIZE)
        self.ledger = WriteLedger(VALUE_SIZE)

    def _run(self, generator, name: str):
        sim = self.cluster.sim
        return sim.run(until=sim.process(generator, name=name))

    # -- set-up ----------------------------------------------------------------

    def load(self, meter: "hosttime.ChunkMeter" = None) -> None:
        """YCSB load phase through client 0, every write ledger-tagged."""
        self.cluster.start()
        log = PhaseLog(meter)
        client = MeasuredClient(self.cluster.clients[0], self.ledger, log)
        sim = self.cluster.sim

        def loader():
            pending = []
            for key, value in self.workload.load_pairs():
                pending.append(sim.process(client.put(key, value)))
                if len(pending) >= LOAD_PARALLELISM:
                    yield sim.all_of(pending)
                    pending = []
            if pending:
                yield sim.all_of(pending)

        if meter is not None:
            meter.start()
        self._run(loader(), "bench.load")
        if log.failed:
            raise RuntimeError("load phase: %d of %d writes failed"
                               % (log.failed, self.spec.records))

    def load_digest(self) -> str:
        """Hash of every simulated counter after the load phase."""
        blob = json.dumps(counters.snapshot(self.cluster), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    # -- measured phase ----------------------------------------------------------

    def measure(self, num_ops: int, timed: bool = False) -> "Phase":
        """Drive ``num_ops`` client ops (open loop: their expected count).

        ``timed`` splits the phase into :data:`HOST_CHUNKS` chunks timed
        by a :class:`hosttime.ChunkMeter`; its reference passes then
        run inside the phase, so ``wall_ns`` includes them.
        """
        spec = self.spec
        cluster = self.cluster
        sim = cluster.sim
        meter = (hosttime.ChunkMeter(num_ops // HOST_CHUNKS) if timed
                 else None)
        log = PhaseLog(meter)
        clients = [MeasuredClient(c, self.ledger, log)
                   for c in cluster.clients]
        if spec.outstanding:
            drivers = [ClosedLoopDriver(
                sim, client, self.workload, num_ops // len(clients),
                concurrency=max(spec.outstanding // len(clients), 1))
                for client in clients]
        else:
            # Arrival streams of different run seeds must not overlap.
            duration_us = num_ops / spec.offered_qps * 1e6
            drivers = [OpenLoopDriver(
                sim, client, self.workload, spec.offered_qps / len(clients),
                duration_us, seed=self.seed * len(clients) + index)
                for index, client in enumerate(clients)]
        before = counters.snapshot(cluster)
        procs = [sim.process(d.run(), name="bench.driver") for d in drivers]
        start_ns = time.perf_counter_ns()
        if meter is not None:
            meter.start()
        sim.run(until=sim.all_of(procs))
        wall_ns = time.perf_counter_ns() - start_ns
        log.refused = sum(getattr(d, "dropped", 0) for d in drivers)
        phase_delta = counters.delta(before, counters.snapshot(cluster))
        completed = sum(d.stats.completed for d in drivers)
        if completed != log.attempted - log.refused:
            raise RuntimeError("driver completed %d ops, proxy saw %d"
                               % (completed, log.attempted - log.refused))
        return Phase(log, phase_delta, wall_ns, meter)

    # -- correctness -------------------------------------------------------------

    def sweep(self) -> Dict[str, int]:
        """Read back every record; judge each against the ledger."""
        sim = self.cluster.sim
        clients = self.cluster.clients
        keys = [make_key(i) for i in range(self.spec.records)]
        verdicts = {"ok": 0, "indeterminate": 0, "lost": 0}

        def reader(index):
            client = clients[index % len(clients)]
            for key in keys[index::SWEEP_PARALLELISM]:
                result = yield from client.get(key)
                verdicts[self.ledger.judge(key, result.status,
                                           result.value)] += 1

        def sweeper():
            yield sim.all_of([sim.process(reader(i))
                              for i in range(SWEEP_PARALLELISM)])

        self._run(sweeper(), "bench.sweep")
        return verdicts


@dataclass
class Phase:
    """One measured phase: client outcomes and counter deltas."""

    log: PhaseLog
    counts: Dict[str, float]
    wall_ns: int
    meter: "hosttime.ChunkMeter" = None

    def sim_metrics(self) -> Dict[str, float]:
        """Simulated end-to-end metrics (deterministic per seed)."""
        log = self.log
        counts = self.counts
        ok = log.attempted - log.failed - log.refused
        sim_s = counts["sim.now_us"] * 1e-6
        return {
            "sim_kqps": ok / sim_s / 1e3,
            "sim_p50_us": log.percentile_us(0.50),
            "sim_p99_us": log.percentile_us(0.99),
            "requests_per_joule": ok / counts["power.energy_j"],
            "ok_frac": ok / log.attempted,
        }

    def digest_source(self) -> Dict[str, object]:
        """Everything simulated about the phase, for determinism checks."""
        return {"counts": self.counts, "ops": self.log.ops,
                "failed": self.log.failed, "refused": self.log.refused,
                "latencies": self.log.latencies_us}


def budget(spec: Workload, seconds: float) -> int:
    """The op budget of a ``seconds``-long run."""
    return max(int(round(seconds * spec.ops_per_second)), 1)

