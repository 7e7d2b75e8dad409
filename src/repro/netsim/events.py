"""Deterministic discrete-event scheduler.

The simulator is single-threaded and deterministic: events are ordered by
``(time, sequence number)`` so two runs of the same scenario produce the
same packet orderings, which the integration tests rely on.
"""

from __future__ import annotations

import heapq
import itertools
from operator import itemgetter
from typing import Any, Callable, Iterator, Optional

from repro.exceptions import SimulationError
from repro.netsim.sanitizer import SimulationSanitizer


class Event(list):
    """A scheduled callback, and the simulator's heap record for it.

    One list per event, ``[time, tie_key, callback, args, label, riders,
    sim, seq]``: the heap orders records by their unique ``(time,
    tie_key)`` prefix, so it never compares a callback.  ``seq`` is the
    schedule sequence number, and ``tie_key`` is ``seq`` negated under
    ``perturb_ties``.  ``sim`` is the simulator while the record is
    queued and ``None`` once it fired or was cancelled.  ``riders``
    holds the items of later deliveries that share this event
    (:meth:`Simulator.deliver`), each handed to ``callback`` alone, in
    arrival order, after the event's own call.  Cancelling clears the
    callback slot.

    The attributes are read-only views of the slots; the simulator reads
    the slots themselves.
    """

    __slots__ = ()

    time = property(itemgetter(0))
    callback = property(itemgetter(2))
    args = property(itemgetter(3))
    label = property(itemgetter(4))
    riders = property(itemgetter(5))
    seq = property(itemgetter(7))

    @property
    def cancelled(self) -> bool:
        """Return ``True`` once :meth:`cancel` ran."""
        return self[2] is None

    def cancel(self) -> None:
        """Prevent the event from firing.  Cancelling twice, or after it fired, is harmless."""
        self[2] = None
        sim = self[6]
        if sim is not None:
            self[6] = None
            sim._note_cancelled()

    def __repr__(self) -> str:
        state = ", cancelled" if self[2] is None else ""
        return f"Event(time={self[0]!r}, seq={self[7]}, label={self[4]!r}{state})"


class Future:
    """A one-shot completion slot for continuation-scheduled pipelines.

    The producer calls :meth:`set_result` (usually from a scheduled
    event) and every continuation registered with
    :meth:`add_done_callback` runs immediately, at the producer's
    simulated instant.  A callback added after completion runs at once,
    so late subscribers (a coalescing waiter joining an already-answered
    query) need no special casing.

    It carries one endpoint answer of :meth:`QueryEngine.query_async
    <repro.identpp.engine.QueryEngine.query_async>`: cached, coalesced,
    resident and intercepted lookups complete theirs through it.  It is
    not the punt's barrier: a pass-through punt's two answers arrive as
    one event, and the engine joins any other pair itself.

    Callbacks are deliberately synchronous — the *producer* is the
    scheduled event, so continuations inherit its timestamp without
    burning an extra queue entry per hop.  A step that must advance the
    clock schedules its own follow-up event.
    """

    __slots__ = ("_done", "_result", "_callbacks")

    def __init__(self) -> None:
        self._done = False
        self._result: Any = None
        self._callbacks: list[Callable[[Any], None]] = []

    def result(self) -> Any:
        """Return the completed value; raises if the future is still open."""
        if not self._done:
            raise SimulationError("future result read before completion")
        return self._result

    def set_result(self, value: Any = None) -> None:
        """Complete the future and run every registered continuation."""
        if self._done:
            raise SimulationError("future completed twice")
        self._done = True
        self._result = value
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(value)

    def add_done_callback(self, callback: Callable[[Any], None]) -> None:
        """Run ``callback(result)`` on completion (immediately if already done)."""
        if self._done:
            callback(self._result)
        else:
            self._callbacks.append(callback)


class RepeatingEvent:
    """A self-rescheduling callback with a termination condition.

    The callback runs every ``interval`` seconds of simulated time and
    returns whether to keep running: a falsy return (or :meth:`cancel`)
    stops the cycle and lets the event queue drain.  Services that sweep
    periodically (flow-state lifecycle, statistics collection) use this
    instead of scheduling themselves unconditionally, which would keep
    :meth:`Simulator.run` from ever reaching an empty queue.
    """

    def __init__(
        self,
        sim: "Simulator",
        interval: float,
        callback: Callable[[], object],
        *,
        label: str = "",
    ) -> None:
        if interval <= 0:
            raise SimulationError(f"repeating interval must be positive (got {interval})")
        self.sim = sim
        self.interval = interval
        self.callback = callback
        self.label = label
        self._event: Optional[Event] = None
        self._cancelled = False

    @property
    def scheduled(self) -> bool:
        """Return ``True`` while a next firing is queued.

        :meth:`_fire` and :meth:`cancel` drop the record they end, and
        nothing else holds it, so a held record is a queued one.
        """
        return self._event is not None

    def start(self) -> "RepeatingEvent":
        """Queue the next firing (idempotent while already scheduled)."""
        if not self.scheduled:
            self._cancelled = False
            self._event = self.sim.schedule(self.interval, self._fire, label=self.label)
        return self

    def cancel(self) -> None:
        """Stop the cycle; the pending firing (if any) is cancelled.

        Cancelling from *inside* the callback also stops the cycle, even
        when the callback returns truthy — at that point no firing is
        queued, so the intent is recorded in a flag that vetoes the
        reschedule.
        """
        self._cancelled = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._cancelled = False
        if self.callback() and not self._cancelled:
            self.start()


class ExpiryHeap:
    """A min-heap of ``(due, key, token)`` deadlines with lazy invalidation.

    Owners push a deadline whenever they (re)insert an entry; a refreshed
    or replaced entry simply pushes a new deadline and leaves the old one
    in the heap.  :meth:`pop_due` therefore yields *candidates*: the
    owner must check the entry is still the one the deadline was pushed
    for (the ``token``, typically the decision cookie) before evicting.
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, tuple[object, object]]] = []
        # Insertion-order tiebreaker keeps equal-deadline pops deterministic.
        self._seq = itertools.count()

    def push(self, due: float, key: object, token: object = None) -> None:
        """Register that ``key`` (qualified by ``token``) expires at ``due``."""
        heapq.heappush(self._heap, (due, next(self._seq), (key, token)))

    def pop_due(self, now: float) -> Iterator[tuple[object, object]]:
        """Yield and remove every ``(key, token)`` whose deadline has passed."""
        heap = self._heap
        while heap and heap[0][0] <= now:
            _, _, payload = heapq.heappop(heap)
            yield payload

    def next_due(
        self, is_live: Optional[Callable[[object, object], bool]] = None
    ) -> Optional[float]:
        """Return the earliest pending deadline.

        Without ``is_live`` stale deadlines are included (a sweep woken
        by one is a harmless no-op).  With it, leading records whose
        ``is_live(key, token)`` is false are discarded first, so the
        answer is the earliest deadline of an entry that still exists.
        """
        heap = self._heap
        if is_live is not None:
            while heap and not is_live(*heap[0][2]):
                heapq.heappop(heap)
        return heap[0][0] if heap else None

    def retain(self, is_live: Callable[[object, object], bool]) -> None:
        """Drop every record whose ``is_live(key, token)`` is false.

        Lazy invalidation leaves a dead entry's record in the heap until
        its deadline passes; an owner whose entries die long before they
        are due calls this once dead records outnumber live ones, so the
        heap stays proportional to what it tracks (O(n), amortised).
        """
        self._heap[:] = [record for record in self._heap if is_live(*record[2])]
        heapq.heapify(self._heap)

    def __len__(self) -> int:
        return len(self._heap)


class Simulator:
    """A discrete-event simulator clock and event queue.

    Typical use::

        sim = Simulator()
        sim.schedule(0.5, node.receive, packet, port)
        sim.run()

    Time is measured in seconds (floats).  The simulator never advances
    wall-clock time; :meth:`run` drains the event queue in timestamp
    order until it is empty or a time/event limit is hit.

    With ``sanitize=True`` a :class:`~repro.netsim.sanitizer.
    SimulationSanitizer` instruments the loop: every fired event is
    folded into a deterministic trace hash, same-instant event groups
    are counted, and library code files findings (stale continuations,
    order divergences) on :attr:`sanitizer` instead of discarding them
    silently.  ``perturb_ties=True`` serves same-instant ties in
    *reverse* schedule order — the shadow half of
    :func:`~repro.netsim.sanitizer.shadow_replay`'s ordering-race
    detector; never enable it on a run whose results you keep.
    """

    def __init__(self, *, sanitize: bool = False, perturb_ties: bool = False) -> None:
        #: The current simulated time in seconds.  A plain attribute, not
        #: a property: the clock is read on every hop and every punt
        #: stage, and only :meth:`_drain` (and :meth:`reset`) write it.
        self.now = 0.0
        # Heap of Event records, ordered by their (time, tie_key)
        # prefix: the tie key lets the sanitizer's shadow replay flip
        # same-instant service order, and keeps heap comparisons on
        # floats and ints.
        self._queue: list[Event] = []
        # Cancelled events whose record is still in the heap.
        self._dead = 0
        # The event scheduled last and, when deliver() scheduled it, the
        # lane it carries: what a same-instant delivery may ride.
        self._newest: Optional[Event] = None
        self._newest_lane: object = None
        self._seq = itertools.count()
        self._events_processed = 0
        self._running = False
        self._tie_sign = -1 if perturb_ties else 1
        self.sanitizer: Optional[SimulationSanitizer] = (
            SimulationSanitizer(self) if sanitize else None
        )

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    @property
    def events_processed(self) -> int:
        """Return how many events have fired so far."""
        return self._events_processed

    def enable_sanitizer(self, *, perturb_ties: bool = False) -> SimulationSanitizer:
        """Attach a sanitizer to an already-built simulator.

        Convenience for retrofitting networks that construct their own
        simulator (``net.topology.sim.enable_sanitizer()``); the trace
        hash covers events fired from this point on.  Idempotent: an
        already-attached sanitizer is returned unchanged (though the tie
        order follows the *latest* ``perturb_ties`` requested).
        """
        self._tie_sign = -1 if perturb_ties else 1
        if self.sanitizer is None:
            self.sanitizer = SimulationSanitizer(self)
        return self.sanitizer

    def pending(self) -> int:
        """Return the number of queued records (cancelled ones included until compacted)."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Returns the :class:`Event`, which the caller may :meth:`Event.cancel`.
        A delay that is not ``>= 0`` (negative, or NaN) raises
        :class:`~repro.exceptions.SimulationError`.  This is the only way
        onto the queue: the sanitizer and external tracing both rely on
        seeing every event here.
        """
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seq = next(self._seq)
        event = Event(
            (self.now + delay, self._tie_sign * seq, callback, args, label, None, self, seq)
        )
        heapq.heappush(self._queue, event)
        self._newest = event
        self._newest_lane = None
        return event

    def deliver(
        self,
        delay: float,
        lane: object,
        callback: Callable[[Any], None],
        item: Any,
        *,
        label: str = "",
    ) -> Event:
        """Schedule ``callback(item)`` like :meth:`schedule`, on one ``lane``.

        A lane is one direction of a link or control channel (any object
        that stands for it).  The delivery rides the lane's previous
        delivery event instead of scheduling its own when that event is
        still queued, is due at the same instant, and is the newest event
        this simulator holds.  Nothing can run between two such events —
        the second would get the very next sequence number at the same
        time — so the shared event changes no service order, callback,
        clock reading or record.  Under ``perturb_ties`` a shared event
        keeps its deliveries in arrival order, which a link, never
        reordering, is entitled to.  Returns the event that carries
        ``item``.
        """
        newest = self._newest
        if (
            self._newest_lane is lane
            and newest is not None
            and newest[6] is not None
            and newest[0] == self.now + delay
        ):
            riders = newest[5]
            if riders is None:
                newest[5] = [item]
            else:
                riders.append(item)
            return newest
        event = self.schedule(delay, callback, item, label=label)
        self._newest_lane = lane
        return event

    def schedule_at(
        self,
        when: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> Event:
        """Schedule a callback at an absolute simulated time."""
        return self.schedule(when - self.now, callback, *args, label=label)

    def schedule_repeating(
        self,
        interval: float,
        callback: Callable[[], object],
        *,
        label: str = "",
    ) -> RepeatingEvent:
        """Run ``callback`` every ``interval`` seconds while it returns truthy.

        Returns the started :class:`RepeatingEvent`; the caller may
        :meth:`RepeatingEvent.cancel` it or :meth:`RepeatingEvent.start`
        it again after it stopped itself.
        """
        return RepeatingEvent(self, interval, callback, label=label).start()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> Optional[Event]:
        """Fire the earliest pending event and return it.

        Returns ``None`` when the queue is empty.  Cancelled events are
        skipped silently.
        """
        return self._drain(None, 1)[1]

    def run(self, until: float | None = None) -> int:
        """Run until the queue drains or ``until`` seconds of simulated time.

        Returns the number of events processed by this call.  Nested calls
        to :meth:`run` are rejected to avoid re-entrancy bugs in node
        callbacks.  An ``until`` earlier than :attr:`now` fires nothing
        and leaves the clock where it is: simulated time never rewinds.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        self._running = True
        try:
            return self._drain(until, None)[0]
        finally:
            self._running = False

    def _drain(
        self, until: float | None, max_events: int | None
    ) -> tuple[int, Optional[Event]]:
        """Fire events in order; return how many fired and the last one.

        The one event loop: each heap record is looked at once at the
        head and popped once.  Stops after ``max_events``, at the first
        live event later than ``until``, or at an empty queue; in the
        last two cases the clock moves up to ``until`` (never back).
        """
        queue = self._queue
        pop = heapq.heappop
        processed = 0
        event = None
        while queue:
            if max_events is not None and processed >= max_events:
                break
            head = queue[0]
            callback = head[2]
            if callback is None:
                pop(queue)
                self._dead -= 1
                continue
            time = head[0]
            if until is not None and time > until:
                if self.now < until:
                    self.now = until
                break
            pop(queue)
            if time < self.now:
                raise SimulationError("event queue corrupted: time went backwards")
            event = head
            event[6] = None
            self.now = time
            self._events_processed += 1
            processed += 1
            if self.sanitizer is not None:
                self.sanitizer.on_event(event)
            callback(*event[3])
            riders = event[5]
            if riders is not None:
                for item in riders:
                    callback(item)
        if until is not None and not queue and self.now < until:
            self.now = until
        newest = self._newest
        if newest is not None and newest[6] is None:
            # Fired or cancelled: nothing can ride it, so hold nothing it carried.
            self._newest = None
        return processed, event

    def _note_cancelled(self) -> None:
        """Count one more dead record; compact once they outnumber live ones.

        A cancelled event otherwise keeps its record until its time
        comes (a pending-deadline backstop cancelled milliseconds after
        its punt would sit there for whole virtual seconds), so the heap
        would track everything ever cancelled instead of what is
        pending.  Compaction is in place and O(n), amortised O(1) per
        cancel; the ``(time, tie_key)`` prefix of the surviving records
        is untouched, so service order is too.
        """
        self._dead += 1
        queue = self._queue
        if 2 * self._dead > len(queue):
            queue[:] = [record for record in queue if record[2] is not None]
            heapq.heapify(queue)
            self._dead = 0
