"""Flow-state lifecycle: reclaiming decision state under churn.

The ident++ design caches every decision in two places — the
controller :class:`~repro.core.cache.DecisionCache` (whose ``keep
state`` passes also answer the reverse direction) and the switch flow
tables (§3.1's "the flow table ... is also the ident++ decision cache").
At enterprise scale those caches see heavy churn: short-lived flows
arrive far faster than their TTLs expire, so without an explicit
lifecycle the working set grows without bound and a long-running
controller eventually holds state for millions of dead flows.

Two pieces keep state bounded:

* :class:`~repro.netsim.events.ExpiryHeap` — a lazily-invalidated
  min-heap of deadlines, so sweeping a cache costs ``O(expired log n)``
  instead of a full scan (it lives beside the simulator clock so the
  query engine, a layer below this package, shares it);
* :class:`LifecycleService` — a sweep scheduler that periodically runs
  every registered reclaimer (decision cache, query engine, per-switch
  flow tables, standing subscriptions) while there is state left to
  reclaim, then goes quiet so the event queue can drain.
"""

from __future__ import annotations

from typing import Callable, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.events import RepeatingEvent, Simulator

#: How often the lifecycle sweeps when enabled, seconds of simulated time.
DEFAULT_SWEEP_INTERVAL = 1.0


class LifecycleService:
    """Periodic reclamation across every cache a controller owns.

    Reclaimers register as ``(label, sweep, reclaimable[, next_deadline])``
    where ``sweep(now)`` removes expired entries and returns how many it
    dropped, and ``reclaimable()`` reports how many entries a *future*
    sweep could still remove (entries without any timeout must not be
    counted, or the service would tick forever over state that can never
    expire and an unbounded ``Simulator.run()`` would never drain).
    While attached to a simulator with a positive ``interval``, the
    service keeps sweeping for as long as any reclaimer reports
    reclaimable state; once nothing is left to expire it deschedules
    itself (so an idle simulation can finish) and is re-armed by the
    next :meth:`kick`.

    The optional ``next_deadline()`` hint returns the earliest moment a
    reclaimer's state can expire (or ``None`` for "unknown").  When every
    reclaimer that still holds state provides one, the service sleeps
    straight to the earliest deadline instead of polling every
    ``interval`` — so a flow entry with a 300 s timeout costs one
    wake-up, not three thousand.  A stale (too early) hint merely causes
    one extra no-op sweep.

    With ``interval == 0`` nothing is ever scheduled; :meth:`sweep` can
    still be called manually, which is what the soak harness does.
    """

    def __init__(self, name: str = "lifecycle", *, interval: float = DEFAULT_SWEEP_INTERVAL) -> None:
        self.name = name
        self.interval = interval
        self._targets: list[
            tuple[
                str,
                Callable[[float], int],
                Callable[[], int],
                Optional[Callable[[], Optional[float]]],
            ]
        ] = []
        self._sim: Optional["Simulator"] = None
        self._ticker: Optional["RepeatingEvent"] = None
        self.sweeps = 0
        self.reclaimed: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def register(
        self,
        label: str,
        sweep: Callable[[float], int],
        reclaimable: Callable[[], int],
        next_deadline: Optional[Callable[[], Optional[float]]] = None,
    ) -> None:
        """Add one reclaimer (idempotent per label; later wins)."""
        self._targets = [t for t in self._targets if t[0] != label]
        self._targets.append((label, sweep, reclaimable, next_deadline))
        self.reclaimed.setdefault(label, 0)

    def attach(self, sim: "Simulator") -> None:
        """Bind to a simulator clock (sweeps are scheduled on :meth:`kick`)."""
        self._sim = sim

    def kick(self) -> None:
        """Ensure a sweep is queued (no-op when disabled or already queued)."""
        ticker = self._ticker
        if ticker is not None and ticker.scheduled or not self.interval > 0 or self._sim is None:
            return
        if ticker is None:
            # Formatted once per ticker: the repeating event keeps it.
            label = f"{self.name}:sweep"
            self._ticker = self._sim.schedule_repeating(self.interval, self._tick, label=label)
        else:
            # _tick may have stretched the delay toward a far deadline;
            # a fresh kick means fresh state, so restart at the base rate.
            ticker.interval = self.interval
            ticker.start()

    # ------------------------------------------------------------------
    # Sweeping
    # ------------------------------------------------------------------

    def sweep(self, now: float) -> dict[str, int]:
        """Run every reclaimer once; returns per-label counts for this sweep."""
        self.sweeps += 1
        dropped: dict[str, int] = {}
        for label, sweep_fn, _, _ in self._targets:
            count = int(sweep_fn(now))
            dropped[label] = count
            self.reclaimed[label] = self.reclaimed.get(label, 0) + count
        return dropped

    def reclaimable_state(self) -> int:
        """Return how many entries future sweeps could still remove."""
        return sum(reclaimable() for _, _, reclaimable, _ in self._targets)

    def _next_delay(self, now: float) -> float:
        """Return how long to sleep before the next sweep.

        Falls back to the fixed ``interval`` as soon as one reclaimer
        with reclaimable state cannot say when it next expires.
        """
        earliest: Optional[float] = None
        for _, _, reclaimable, next_deadline in self._targets:
            if reclaimable() <= 0:
                continue
            due = next_deadline() if next_deadline is not None else None
            if due is None:
                return self.interval
            if earliest is None or due < earliest:
                earliest = due
        if earliest is None:
            return self.interval
        return max(self.interval, earliest - now)

    def _tick(self) -> bool:
        assert self._sim is not None
        now = self._sim.now
        self.sweep(now)
        # Keep ticking only while a future sweep can actually reclaim
        # something; otherwise go quiet and wait for the next kick().
        # Keying on raw entry counts instead would spin forever over
        # timeout-less state and hang an unbounded Simulator.run().
        if self.reclaimable_state() <= 0:
            return False
        if self._ticker is not None:
            # Sleep straight to the earliest known deadline rather than
            # polling: the ticker re-reads its interval on reschedule.
            self._ticker.interval = self._next_delay(now)
        return True

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def total_reclaimed(self) -> int:
        """Return how many entries all sweeps together removed."""
        return sum(self.reclaimed.values())
