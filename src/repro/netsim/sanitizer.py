"""Runtime simulation sanitizer: trace hashing and ordering race detection.

The repo's correctness story rests on the simulator being *bit-for-bit
deterministic*: two runs of the same scenario must fire the same events
in the same order and leave the same state behind, or the experiment
harness and the committed benchmark trajectory measure noise.  Three
failure classes silently break that promise:

* **Hidden nondeterminism** — wall-clock reads or unseeded randomness
  leaking into simulation logic (the static rules R1/R2 in
  ``tools/analysis`` catch these at the source level; the trace hasher
  here catches anything they miss at runtime, because the two runs
  produce different hashes).
* **Same-instant ordering sensitivity** — two events scheduled at one
  virtual instant whose *relative* order decides the outcome.  The
  ``(time, seq)`` tie-break makes any one run reproducible, but the
  outcome then hangs off scheduling-call order, which refactors change
  freely.  The :func:`shadow_replay` helper is the virtual-time
  analogue of a race detector: it re-runs the scenario with same-instant
  ties served in the opposite order and flags state divergence.
* **Stale continuations** — a continuation firing for a
  :class:`~repro.core.controller.DecisionTask` whose generation token no
  longer matches (the punt was failed closed, exported, or re-punted).
  The decision core *discards* these by design; with the sanitizer
  attached the discard is also *reported*, so a scenario that quietly
  races its own deadline becomes visible instead of just slow.

Enable it per simulator::

    sim = Simulator(sanitize=True)
    ...
    sim.run()
    print(sim.sanitizer.trace_hash)       # deterministic event-trace digest
    print(sim.sanitizer.summary()["reports_by_kind"])  # findings per kind

or retroactively on an already-built network::

    net = IdentPPNetwork("x")
    net.topology.sim.enable_sanitizer()
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (events imports us)
    from repro.netsim.events import Event, Simulator

#: Report kinds the library itself emits (scenarios may add their own).
KIND_STALE_CONTINUATION = "stale-continuation"
KIND_ORDER_DIVERGENCE = "order-divergence"


def callback_name(callback: Callable[..., Any]) -> str:
    """Return a stable, address-free name for an event callback.

    ``repr()`` of a bound method embeds the instance's memory address,
    which would make trace hashes differ between identical runs; the
    qualified name (plus the owner's ``name`` attribute when it has one)
    is deterministic and still tells a human which component fired.
    """
    owner = getattr(callback, "__self__", None)
    qualname = getattr(callback, "__qualname__", None)
    if qualname is None:
        qualname = type(callback).__qualname__
    owner_name = getattr(owner, "name", None)
    if isinstance(owner_name, str):
        return f"{qualname}@{owner_name}"
    return qualname


@dataclass(frozen=True)
class SanitizerReport:
    """One sanitizer finding (not an exception: the run continues)."""

    kind: str
    time: float
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.kind}] t={self.time:g}: {self.detail}"


class EventTraceHasher:
    """Folds the fired-event stream into one deterministic SHA-256 digest.

    Two runs of the same scenario produce the same digest if and only if
    they fired the same callbacks, under the same labels, at the same
    virtual times, in the same order.  Wall-clock reads, unseeded RNGs
    and iteration-order leaks all surface as a digest mismatch.
    """

    __slots__ = ("_hash",)

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def fold(self, event: "Event") -> None:
        """Mix one fired event into the digest.

        An event that carries more than one delivery also folds how many
        rode it, so dropping or adding one still moves the digest.
        """
        line = f"{event.time!r}|{event.label}|{callback_name(event.callback)}"
        if event.riders:
            line += f"|+{len(event.riders)}"
        self._hash.update(f"{line}\n".encode())

    @property
    def hexdigest(self) -> str:
        """Return the digest over every event folded so far."""
        return self._hash.hexdigest()


class SimulationSanitizer:
    """Per-simulator instrumentation: trace hash, tie stats, findings.

    Attached by ``Simulator(sanitize=True)`` or
    :meth:`~repro.netsim.events.Simulator.enable_sanitizer`; the
    simulator calls :meth:`on_event` for every event it fires.
    """

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.hasher = EventTraceHasher()
        self.reports: list[SanitizerReport] = []
        #: Largest number of events sharing one instant.
        self.max_same_instant = 0
        self._last_time: Optional[float] = None
        self._group_size = 0

    # ------------------------------------------------------------------
    # Hooks called by the simulator
    # ------------------------------------------------------------------

    def on_event(self, event: "Event") -> None:
        """Record one fired event (called by ``Simulator.step``)."""
        self.hasher.fold(event)
        if event.time == self._last_time:
            self._group_size += 1
            self.max_same_instant = max(self.max_same_instant, self._group_size)
        else:
            self._last_time = event.time
            self._group_size = 1
            self.max_same_instant = max(self.max_same_instant, 1)

    # ------------------------------------------------------------------
    # Findings
    # ------------------------------------------------------------------

    def report(self, kind: str, detail: str) -> SanitizerReport:
        """File a finding at the current simulated time and return it."""
        finding = SanitizerReport(kind=kind, time=self.sim.now, detail=detail)
        self.reports.append(finding)
        return finding

    @property
    def trace_hash(self) -> str:
        """Return the deterministic digest of the event trace so far."""
        return self.hasher.hexdigest

    def summary(self) -> dict[str, object]:
        """Return how many findings of each kind were filed (benchmarks embed this)."""
        by_kind: dict[str, int] = {}
        for finding in self.reports:
            by_kind[finding.kind] = by_kind.get(finding.kind, 0) + 1
        return {"reports_by_kind": by_kind}


@dataclass
class ShadowReplayReport:
    """The outcome of one baseline-vs-perturbed scenario pair."""

    #: ``repr(state)`` of the baseline (seq-order ties) run.
    baseline_digest: str
    #: ``repr(state)`` of the shadow (reversed ties) run.
    shadow_digest: str
    baseline_trace_hash: str
    shadow_trace_hash: str
    #: Findings filed during either run (stale continuations etc.),
    #: plus the order-divergence finding when the digests differ.
    reports: list[SanitizerReport] = field(default_factory=list)

    @property
    def diverged(self) -> bool:
        """True when same-instant ordering changed the scenario's outcome."""
        return self.baseline_digest != self.shadow_digest


def shadow_replay(
    scenario: Callable[["Simulator"], Any],
) -> ShadowReplayReport:
    """Run ``scenario`` twice — normal and with same-instant ties reversed.

    ``scenario`` receives a fresh sanitized :class:`Simulator`, must
    drive it (build nodes, schedule work, call ``run()``) and return the
    state the outcome is judged by, compared through its ``repr``.  The baseline run serves same-instant ties in
    schedule order (the deterministic contract); the shadow run serves
    them in *reverse* order — any legal tie-break.  A digest mismatch
    means the scenario's outcome depends on same-instant event ordering:
    the virtual-time analogue of a data race, filed as an
    ``order-divergence`` finding on the shadow run.
    """
    from repro.netsim.events import Simulator

    baseline = Simulator(sanitize=True)
    baseline_state = scenario(baseline)
    shadow = Simulator(sanitize=True, perturb_ties=True)
    shadow_state = scenario(shadow)

    baseline_digest = repr(baseline_state)
    shadow_digest = repr(shadow_state)
    reports = list(baseline.sanitizer.reports) + list(shadow.sanitizer.reports)
    if baseline_digest != shadow_digest:
        reports.append(
            shadow.sanitizer.report(
                KIND_ORDER_DIVERGENCE,
                f"state digest changed under same-instant reordering "
                f"({baseline_digest!r} != {shadow_digest!r})",
            )
        )
    return ShadowReplayReport(
        baseline_digest=baseline_digest,
        shadow_digest=shadow_digest,
        baseline_trace_hash=baseline.sanitizer.trace_hash,
        shadow_trace_hash=shadow.sanitizer.trace_hash,
        reports=reports,
    )
