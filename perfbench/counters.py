"""Program counters: snapshot, delta over a phase, derived per-layer metrics.

Every stats object the program exposes accumulates from cluster
construction, so the load phase leaks into it.  :func:`snapshot` reads
them all into one flat ``{"group.field": number}`` dict (summed over
instances); the difference of two snapshots is the phase's own count.
Numeric fields are found by introspection, so a counter a later change
adds is picked up (and determinism-checked) without editing this file.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict


def _add_fields(into: Dict[str, float], group: str, obj) -> None:
    for name, value in vars(obj).items():
        if name.startswith("_") or isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            into[group + "." + name] += value


def snapshot(cluster) -> Dict[str, float]:
    """All simulated counters of a serial-engine cluster, summed by group."""
    counts: Dict[str, float] = defaultdict(float)
    sim = cluster.sim
    counts["sim.now_us"] = sim.now
    counts["sim.events"] = cluster.total_events_dispatched()
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
            counts["cpu.cores"] += 1
            counts["cpu.busy_time_us"] += core.busy_time_us
            counts["cpu.cycles_executed"] += core.cycles_executed
        for ssd in node.ssds:
            counts["ssd.devices"] += 1
            counts["ssd.channels"] += ssd.profile.channels
            _add_fields(counts, "ssd", ssd.stats)
        for runtime in node.vnodes.values():
            counts["vnode.partitions"] += 1
            _add_fields(counts, "vnode", runtime.stats)
            _add_fields(counts, "store", runtime.store.stats)
            _add_fields(counts, "engine", runtime.engine.stats)
            _add_fields(counts, "compaction", runtime.compactor.stats)
            for log_name in ("key_log", "value_log"):
                log = getattr(runtime.store, log_name)
                counts[log_name + ".appends"] += log.appends
                counts[log_name + ".bytes_appended"] += log.bytes_appended
    for address in cluster.network.addresses():
        nic = cluster.network.nic(address)
        counts["net.tx_messages"] += nic.tx_messages
        counts["net.tx_bytes"] += nic.tx_bytes
    return dict(counts)


def delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    """``after - before`` per counter (counters new in ``after`` start at 0).

    Instance counts (devices, channels, cores, partitions) are kept
    as-is, not differenced.
    """
    keep = ("ssd.devices", "ssd.channels", "cpu.cores", "vnode.partitions")
    return {key: (value if key in keep else value - before.get(key, 0.0))
            for key, value in after.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_counters(d: Dict[str, float], ops: int, gets: int, puts: int,
                   user_bytes_per_put: int) -> Dict[str, float]:
    """The benchmark's deterministic per-layer metrics from a phase delta.

    ``ops``/``gets``/``puts`` are the phase's attempted client
    operations; ``user_bytes_per_put`` is key plus value size.
    """
    sim_us = d["sim.now_us"]
    partitions_us = sim_us * d["vnode.partitions"]
    ios = d["ssd.reads_completed"] + d["ssd.writes_completed"]
    store_user_bytes = d["store.puts"] * user_bytes_per_put
    log_bytes = d["key_log.bytes_appended"] + d["value_log.bytes_appended"]
    return {
        "sim.events_per_op": _ratio(d["sim.events"], ops),
        "core.compaction.rounds": d["compaction.key_rounds"]
        + d["compaction.value_rounds"],
        "core.compaction.busy_frac": _ratio(d["compaction.busy_time_us"],
                                            partitions_us),
        "core.compaction.bytes_reclaimed": d["compaction.key_bytes_reclaimed"]
        + d["compaction.value_bytes_reclaimed"],
        "core.datastore.get_retries": d["store.get_retries"],
        "core.circular_log.bytes_per_user_byte": _ratio(log_bytes,
                                                        store_user_bytes),
        "hw.ssd.write_amp": _ratio(d["ssd.write_bytes"], store_user_bytes),
        "core.io_engine.mean_wait_us": _ratio(d["engine.total_wait_us"],
                                              d["engine.completed"]),
        "core.io_engine.mean_service_us": _ratio(d["engine.total_service_us"],
                                                 d["engine.completed"]),
        "core.io_engine.rejected": d["engine.rejected"],
        "core.flow_control.deferred_per_op": _ratio(d["flow.deferred"], ops),
        "core.client.retries_per_op": _ratio(d["client.retries"], ops),
        "core.client.nacks_per_op": _ratio(d["client.nacks"], ops),
        "core.client.timeouts_per_op": _ratio(d["client.timeouts"], ops),
        "core.client.overloads_per_op": _ratio(d["client.overloads"], ops),
        "core.jbof.reads_shipped_frac": _ratio(d["vnode.reads_shipped"], gets),
        "core.jbof.writes_forwarded_per_write": _ratio(
            d["vnode.writes_forwarded"], puts),
        "core.jbof.swap_redirects_per_write": _ratio(
            d["jbof.swap_redirects"], puts),
        "net.topology.messages_per_op": _ratio(d["net.messages_delivered"],
                                               ops),
        "net.topology.bytes_per_op": _ratio(d["net.tx_bytes"], ops),
        "hw.ssd.busy_frac": _ratio(d["ssd.busy_time_us"],
                                   sim_us * d["ssd.channels"]),
        "hw.ssd.queue_wait_us_per_io": _ratio(d["ssd.queue_wait_us"], ios),
        "hw.cpu.busy_frac": _ratio(d["cpu.busy_time_us"],
                                   sim_us * d["cpu.cores"]),
        "power.mean_watts": _ratio(d["power.energy_j"], sim_us * 1e-6),
    }

