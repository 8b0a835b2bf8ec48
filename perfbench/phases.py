"""The two kinds of run: end-to-end metrics and per-layer metrics."""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import pkgutil
import resource
import statistics

import counters
import drive
import hosttime
from layertrace import LayerTracer

#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Reported in place of an infinite latency percentile (JSON has no
#: infinity): more failed or refused ops than the percentile's tail.
INFINITE_US = 1e12

#: Layer name -> modules or packages whose classes are timed.
LAYERS = {
    "workloads": ("repro.workloads",),
    "core.client": ("repro.core.client",),
    "core.flow_control": ("repro.core.flow_control",),
    "net.rpc": ("repro.net.rpc",),
    "net.rdma": ("repro.net.rdma",),
    "net.topology": ("repro.net.topology",),
    "core.jbof": ("repro.core.jbof",),
    "core.replication": ("repro.core.replication",),
    "core.membership": ("repro.core.membership",),
    "core.io_engine": ("repro.core.io_engine",),
    "core.datastore": ("repro.core.datastore",),
    "core.compaction": ("repro.core.compaction",),
    "core.circular_log": ("repro.core.circular_log",),
    "hw.ssd": ("repro.hw.ssd",),
    "hw.cpu": ("repro.hw.cpu",),
}

E2E_UNITS = {
    "host_ops_per_s": "ops/s", "setup_s": "s", "peak_rss_mb": "MB",
    "sim_kqps": "kops/s", "sim_p50_us": "us", "sim_p99_us": "us",
    "requests_per_joule": "req/J", "ok_frac": "ratio",
}


class BenchmarkError(Exception):
    """A correctness or determinism check failed."""


def _modules(names):
    """Modules named, expanding packages to their submodules."""
    found = []
    for name in names:
        module = importlib.import_module(name)
        found.append(name)
        for info in pkgutil.walk_packages(getattr(module, "__path__", []),
                                          name + "."):
            found.append(info.name)
    return found


def _digest(source) -> str:
    blob = json.dumps(source, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def _finite(value: float) -> float:
    return value if value != float("inf") else INFINITE_US


def _setup(spec, seed):
    """Build and load one cluster."""
    gc.collect()
    bench = drive.Bench(spec, seed)
    bench.load()
    return bench


def _timed_setup(spec, seed):
    """Build and load one cluster, reference passes interleaved with the load.

    Returns (bench, CPU seconds without the passes, host speed).
    """
    meter = hosttime.ChunkMeter(spec.records // drive.LOAD_CHUNKS)
    gc.collect()
    start = hosttime.clock_ns()
    bench = drive.Bench(spec, seed)
    bench.load(meter)
    cpu_ns = hosttime.clock_ns() - start - meter.paused_ns
    return bench, cpu_ns * 1e-9, meter.speed()


def _check_sweep(bench, report) -> None:
    verdicts = bench.sweep()
    report.append("sweep: %d keys ok, %d indeterminate, %d lost"
                  % (verdicts["ok"], verdicts["indeterminate"],
                     verdicts["lost"]))
    if verdicts["lost"]:
        raise BenchmarkError("%d acknowledged writes lost" % verdicts["lost"])


def end_to_end(spec, seed, seconds, report):
    """``--trace 0``: set up several times, measure once, sweep."""
    setups = []
    load_digests = set()
    for _ in range(SETUP_REPEATS):
        bench = None  # release the previous cluster before the next build
        bench, cpu_s, speed = _timed_setup(spec, seed)
        setups.append((cpu_s * speed, cpu_s, speed))
        load_digests.add(bench.load_digest())
    if len(load_digests) != 1:
        raise BenchmarkError("load phase simulated differently across "
                             "%d repeats of seed %d" % (SETUP_REPEATS, seed))
    phase = bench.measure(drive.budget(spec, seconds), timed=True)
    log = phase.log
    meter = phase.meter
    metrics = {
        "host_ops_per_s": meter.ops_per_s(),
        "setup_s": statistics.median(nominal for nominal, _, _ in setups),
    }
    metrics.update(phase.sim_metrics())
    report.append("setup at nominal speed: %s s (median of %d; CPU s x "
                  "host speed: %s)" % (
                      ", ".join("%.3f" % s[0] for s in setups), len(setups),
                      ", ".join("%.3f x %.3f" % s[1:] for s in setups)))
    report.append("measured phase: %d attempted, %d failed, %d refused, "
                  "%.3f wall s with references, %d events; failed_frac %.6f"
                  % (log.attempted, log.failed, log.refused,
                     phase.wall_ns * 1e-9, phase.counts["sim.events"],
                     1.0 - metrics["ok_frac"]))
    report.append("host_ops_per_s: %d chunks of %d ops, %.1f ops per CPU s, "
                  "host speed %.3f (median of %d reference passes, %.3f ms)"
                  % (len(meter.chunk_ns), meter.chunk_ops,
                     meter.raw_ops_per_s(), meter.speed(),
                     len(meter.reference_ns),
                     statistics.median(meter.reference_ns) * 1e-6))
    report.append("sim_p99_us rests on %d samples beyond it"
                  % log.tail_samples(0.99))
    report.append("sim digest %s" % _digest(phase.digest_source())[:16])
    _check_sweep(bench, report)
    metrics["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["sim_p50_us"] = _finite(metrics["sim_p50_us"])
    metrics["sim_p99_us"] = _finite(metrics["sim_p99_us"])
    return phase, {name: (value, E2E_UNITS[name])
                   for name, value in metrics.items()}


def per_layer(spec, seed, seconds, report):
    """``--trace 1``: plain measured phase, then a traced repeat."""
    ops = drive.budget(spec, seconds)
    bench = _setup(spec, seed)
    plain = bench.measure(ops)
    _check_sweep(bench, report)
    bench = None

    ios = {"get": [0, 0], "put": [0, 0]}

    def observe(op):
        def record(result):
            ios[op][0] += 1
            ios[op][1] += getattr(result, "nvme_accesses", 0)
        return record

    tracer = LayerTracer(
        {name: _modules(mods) for name, mods in LAYERS.items()},
        observers={("repro.core.datastore", "LeedDataStore", op): observe(op)
                   for op in ios})
    tracer.install()
    try:
        bench = _setup(spec, seed)
        tracer.reset()
        for counts in ios.values():
            counts[:] = [0, 0]
        traced = bench.measure(ops)
        layers = tracer.report()
    finally:
        tracer.uninstall()
    if _digest(plain.digest_source()) != _digest(traced.digest_source()):
        raise BenchmarkError("traced repeat of seed %d simulated differently "
                             "from the plain run" % seed)

    log = plain.log
    n = log.attempted
    counts = plain.counts
    metrics = {
        "sim.host_ns_per_event": plain.wall_ns / counts["sim.events"],
    }
    wall_ns = traced.wall_ns
    layer_ns = sum(self_ns for _calls, self_ns in layers.values())
    sim_ns = wall_ns - layer_ns
    if sim_ns < 0:
        raise BenchmarkError("layer self times exceed the traced wall time")
    metrics["sim.host_us_per_op"] = sim_ns / n / 1e3
    metrics["trace.wall_us_per_op"] = wall_ns / n / 1e3
    report.append("traced wall %.1f us/op over %d ops (%.3f s); self time "
                  "per layer, share of that wall:" % (wall_ns / n / 1e3, n,
                                                      wall_ns * 1e-9))
    for name, (calls, self_ns) in layers.items():
        metrics[name + ".calls_per_op"] = calls / n
        metrics[name + ".host_us_per_op"] = self_ns / n / 1e3
        report.append("  %-20s %9.2f us/op %6.2f%%  %8.2f calls/op"
                      % (name, self_ns / n / 1e3, 100.0 * self_ns / wall_ns,
                         calls / n))
    report.append("  %-20s %9.2f us/op %6.2f%%  (engine self time)"
                  % ("sim", sim_ns / n / 1e3, 100.0 * sim_ns / wall_ns))
    report.append("  layers + sim = %.1f us/op = traced wall"
                  % ((layer_ns + sim_ns) / n / 1e3))
    metrics.update(counters.layer_counters(
        counts, n, log.ops["get"], log.ops["put"],
        drive.KEY_SIZE + drive.VALUE_SIZE))
    for op, (calls, accesses) in ios.items():
        metrics["core.datastore.ssd_ios_per_" + op] = (
            accesses / calls if calls else 0.0)
    metrics["trace.overhead_frac"] = (traced.wall_ns - plain.wall_ns) \
        / plain.wall_ns
    report.append("trace overhead %.1f%% of the plain measured phase "
                  "(%.3f s)" % (100 * metrics["trace.overhead_frac"],
                                plain.wall_ns * 1e-9))
    report.append("sim digest %s (plain == traced)"
                  % _digest(plain.digest_source())[:16])
    return plain, {name: (value, LAYER_UNITS.get(name, _unit(name)))
                   for name, value in metrics.items()}


LAYER_UNITS = {
    "sim.events_per_op": "events/op",
    "sim.host_ns_per_event": "ns/event",
    "trace.wall_us_per_op": "us/op",
    "core.compaction.rounds": "count",
    "core.compaction.bytes_reclaimed": "B",
    "core.datastore.get_retries": "count",
    "core.io_engine.rejected": "count",
    "core.io_engine.mean_wait_us": "us",
    "core.io_engine.mean_service_us": "us",
    "hw.ssd.queue_wait_us_per_io": "us/io",
    "net.topology.messages_per_op": "msgs/op",
    "net.topology.bytes_per_op": "B/op",
    "core.datastore.ssd_ios_per_get": "ios/op",
    "core.datastore.ssd_ios_per_put": "ios/op",
    "power.mean_watts": "W",
}


def _unit(name: str) -> str:
    if name.endswith(".host_us_per_op"):
        return "us/op"
    if name.endswith(".calls_per_op"):
        return "calls/op"
    if name.endswith("_per_op"):
        return "count/op"
    if name.endswith("_per_write"):
        return "count/write"
    return "ratio"
