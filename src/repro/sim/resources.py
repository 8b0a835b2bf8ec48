"""Shared resources with bounded capacity.

:class:`Resource` models a pool of interchangeable slots (e.g. NVMe
submission-queue entries, CPU cores).  Processes request a slot, hold
it across simulated time, and release it; waiters queue FCFS — the
queueing discipline LEED uses throughout (§3.4).

:class:`TokenBucket` models the paper's token accounting: a counted
pool that can be granted/consumed without a strict acquire/release
pairing, used by the intra-JBOF I/O engine and the inter-JBOF flow
controller.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.sim.events import Event


class ResourceRequest(Event):
    """Pending acquisition of ``amount`` resource slots."""

    __slots__ = ("resource", "amount")

    def __init__(self, resource: "Resource", amount: int):
        super().__init__(resource.sim)
        self.resource = resource
        self.amount = amount

    def cancel(self) -> None:
        """Withdraw the request if it has not been granted yet."""
        if not self.triggered:
            try:
                self.resource._waiters.remove(self)
            except ValueError:
                pass


class Resource:
    """A counted resource with FCFS waiters."""

    def __init__(self, sim, capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise ValueError("capacity must be >= 1, got %r" % capacity)
        self.sim = sim
        self.name = name
        self.capacity = int(capacity)
        self._in_use = 0
        self._waiters: Deque[ResourceRequest] = deque()
        # Utilisation accounting: integral of in_use over time.
        self._busy_area = 0.0
        self._last_change = sim.now

    # -- inspection ---------------------------------------------------------

    @property
    def in_use(self) -> int:
        """Slots currently held."""
        return self._in_use

    @property
    def available(self) -> int:
        """Slots free right now."""
        return self.capacity - self._in_use

    @property
    def queue_length(self) -> int:
        """Number of pending (ungranted) requests."""
        return len(self._waiters)

    def utilization(self) -> float:
        """Mean fraction of capacity held since creation."""
        self._account()
        elapsed = self.sim.now
        if elapsed <= 0:
            return 0.0
        return self._busy_area / (elapsed * self.capacity)

    def _account(self) -> None:
        now = self.sim.now
        self._busy_area += self._in_use * (now - self._last_change)
        self._last_change = now

    # -- acquire / release ----------------------------------------------------

    def acquire(self, amount: int = 1) -> ResourceRequest:
        """Request ``amount`` slots; returns an event granting them."""
        if amount < 1 or amount > self.capacity:
            raise ValueError(
                "cannot acquire %r slots from %r with capacity %r"
                % (amount, self.name, self.capacity)
            )
        request = ResourceRequest(self, amount)
        self._waiters.append(request)
        self._grant()
        return request

    def try_acquire(self, amount: int = 1) -> bool:
        """Take ``amount`` slots now if :meth:`acquire` would grant them
        at once; never waits, never schedules an event.

        Refuses whenever any request is queued, even when this amount
        would fit beside it, so FCFS grant order is the same as through
        :meth:`acquire`.  The run-to-completion caller continues
        without a scheduler turn, as an SPDK handler that finds its
        queue free does.
        """
        if self._waiters or amount > self.capacity - self._in_use:
            return False
        self._account()
        self._in_use += amount
        return True

    def release(self, amount: int = 1) -> None:
        """Return ``amount`` previously-acquired slots."""
        if amount > self._in_use:
            raise ValueError(
                "release(%r) exceeds in_use=%r on %r" % (amount, self._in_use, self.name)
            )
        self._account()
        self._in_use -= amount
        self._grant()

    def _grant(self) -> None:
        while self._waiters:
            request = self._waiters[0]
            if request.triggered:
                self._waiters.popleft()
                continue
            if request.amount > self.capacity - self._in_use:
                break
            self._waiters.popleft()
            self._account()
            self._in_use += request.amount
            request.succeed(self)

    def __repr__(self):
        return "<Resource %s %d/%d queued=%d>" % (
            self.name, self._in_use, self.capacity, len(self._waiters))


class TokenBucket:
    """A replenishable token pool with waiting consumers.

    Unlike :class:`Resource`, tokens are granted by an external
    authority (``grant``) rather than released by holders — matching
    how a back-end SSD allocates tokens to tenants and piggybacks them
    on responses (§3.5).
    """

    def __init__(self, sim, tokens: int = 0, capacity: Optional[int] = None,
                 name: str = "tokens"):
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._tokens = int(tokens)
        self._waiters: Deque[ResourceRequest] = deque()

    @property
    def tokens(self) -> int:
        """Tokens currently available."""
        return self._tokens

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def grant(self, amount: int) -> None:
        """Add ``amount`` tokens (clamped to capacity when set)."""
        if amount < 0:
            raise ValueError("cannot grant negative tokens")
        self._tokens += amount
        if self.capacity is not None:
            self._tokens = min(self._tokens, self.capacity)
        self._wake()

    def set_level(self, amount: int) -> None:
        """Overwrite the token level (used when a response reports it)."""
        if amount < 0:
            raise ValueError("token level cannot be negative")
        self._tokens = amount
        if self.capacity is not None:
            self._tokens = min(self._tokens, self.capacity)
        self._wake()

    def try_consume(self, amount: int = 1) -> bool:
        """Consume immediately when possible; never waits."""
        if amount <= self._tokens:
            self._tokens -= amount
            return True
        return False

    def consume(self, amount: int = 1) -> ResourceRequest:
        """Event that fires once ``amount`` tokens have been consumed."""
        request = ResourceRequest(self, amount)  # type: ignore[arg-type]
        self._waiters.append(request)
        self._wake()
        return request

    def _wake(self) -> None:
        while self._waiters:
            request = self._waiters[0]
            if request.triggered:
                self._waiters.popleft()
                continue
            if request.amount > self._tokens:
                break
            self._waiters.popleft()
            self._tokens -= request.amount
            request.succeed(self)

    def __repr__(self):
        return "<TokenBucket %s tokens=%d queued=%d>" % (
            self.name, self._tokens, len(self._waiters))
