"""Host time that tracks the program, not the machine it shares.

The benchmark's host metrics come from a shared machine whose speed
moves by tens of percent within seconds and between minutes (other
tenants on the same cores and caches).  Two things take most of that
out of the figures:

* host time is the CPU time of this process (``time.process_time_ns``),
  so time spent descheduled does not count;
* a fixed reference workload runs between chunks of the measured work,
  and its CPU time gives the machine's current speed.  Host times are
  reported at a nominal speed: scaled by ``REFERENCE_NS`` over the
  reference's median time in the same phase.

The reference is pure Python shaped like the simulator's inner loop
(generator processes resumed from a heap, dict lookups in a table of
a few MB, small-object allocation) and uses nothing from the program,
so a change to the program moves the figures and a change of machine
speed mostly does not.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from typing import List

clock_ns = time.process_time_ns

#: The reference's CPU time at nominal speed: a typical pass on the
#: 2-CPU 2.1 GHz Xeon host the benchmark was tuned on (Python 3.11).
#: Only scales the figures.
REFERENCE_NS = 5_000_000

_TABLE_SIZE = 1 << 15
_CLIENTS = 96
_STEPS = 24


class _Record:
    __slots__ = ("key", "version", "payload")

    def __init__(self, key, version, payload):
        self.key = key
        self.version = version
        self.payload = payload


_table = {}
_keys: List[bytes] = []


def _client(cid, log):
    table, keys, nkeys = _table, _keys, len(_keys)
    x = cid * 2654435761 & 0xFFFFFFFF
    for step in range(_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = keys[x % nkeys]
        record = table[key]
        if x & 7 == 0:
            table[key] = _Record(record.key, record.version + 1,
                                 record.payload)
        log.append((cid, step, record.version))
        yield 1.0 + (x & 15) * 0.25


def reference_ns() -> int:
    """CPU time of one pass of the reference workload (~5 ms)."""
    if not _table:
        payload = bytes(32)
        for index in range(_TABLE_SIZE):
            key = b"k%07d" % index
            _table[key] = _Record(index, 0, payload)
            _keys.append(key)
    enabled = gc.isenabled()
    gc.disable()  # a full collection would walk the program's heap
    start = clock_ns()
    try:
        heap, log, seq = [], [], 0
        for cid in range(_CLIENTS):
            seq += 1
            heapq.heappush(heap, (0.0, seq, _client(cid, log)))
        while heap:
            when, _, proc = heapq.heappop(heap)
            try:
                delay = next(proc)
            except StopIteration:
                continue
            seq += 1
            heapq.heappush(heap, (when + delay, seq, proc))
        return clock_ns() - start
    finally:
        if enabled:
            gc.enable()


class ChunkMeter:
    """Times a phase in chunks of ``chunk_ops`` completed ops.

    After each chunk it runs the reference once; the reference's time
    is excluded from the chunk after it.  The chunks' total CPU time and
    the references' median time give the phase's rate at nominal speed;
    ops after the last whole chunk are left out.
    """

    def __init__(self, chunk_ops: int):
        self.chunk_ops = max(chunk_ops, 1)
        self.chunk_ns: List[int] = []
        self.reference_ns: List[int] = []
        #: CPU time spent in :meth:`tick` on chunk ends, references included.
        self.paused_ns = 0
        self._mark = 0

    def start(self) -> None:
        self._mark = clock_ns()

    def tick(self, completed: int) -> None:
        """Called once per completed op with the phase's running count."""
        if completed % self.chunk_ops:
            return
        now = clock_ns()
        self.chunk_ns.append(now - self._mark)
        self.reference_ns.append(reference_ns())
        self._mark = clock_ns()
        self.paused_ns += self._mark - now

    def raw_ops_per_s(self) -> float:
        """Ops per CPU second over the whole chunks, unscaled."""
        return self.chunk_ops * len(self.chunk_ns) * 1e9 / sum(self.chunk_ns)

    def speed(self) -> float:
        """Host speed relative to nominal (> 1: faster)."""
        return REFERENCE_NS / statistics.median(self.reference_ns)

    def ops_per_s(self) -> float:
        """Ops per CPU second at nominal host speed."""
        return self.raw_ops_per_s() / self.speed()
