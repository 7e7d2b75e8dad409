"""The single-pass event loop against the loop it replaced.

``tests/reference_simulator.py`` is the scheduler as it stood before the
rebuild.  The state machine below drives it and the real
:class:`~repro.netsim.events.Simulator` with the same operations —
including callbacks that schedule and cancel other events while the loop
runs — and requires, after every step, the same firings in the same
order, the same clock and counters, the same return values and the same
sanitizer trace hash.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.netsim.events import RepeatingEvent, Simulator
from tests.reference_simulator import ReferenceSimulator


class _World:
    """One simulator, the handles it gave out and everything that fired on it."""

    name = "world"

    def __init__(self, sim):
        self.sim = sim
        #: Every Event / RepeatingEvent created, in creation order; the
        #: two worlds' lists line up index by index.
        self.handles = []
        self.fired = []

    def act(self, label, program=(), **kwargs):
        self.fired.append((self.sim.now, label, "act", sorted(kwargs.items())))
        self.execute(program)

    def execute(self, program):
        """Run ``program``: a tuple of ("schedule", delay, label, nested) / ("cancel", n)."""
        for op in program:
            if op[0] == "schedule":
                _, delay, label, nested = op
                self.handles.append(
                    self.sim.schedule(delay, self.act, label, nested, label=label)
                )
            elif self.handles:
                self.handles[op[1] % len(self.handles)].cancel()


class _Ticker:
    """A repeating callback that stops after ``fires``, or cancels itself from inside."""

    def __init__(self, world, name, fires, cancel_at):
        self.world, self.name, self.fires, self.cancel_at = world, name, fires, cancel_at
        self.count = 0
        self.handle = None

    def tick(self):
        self.count += 1
        self.world.fired.append((self.world.sim.now, self.name, "tick", self.count))
        if self.count == self.cancel_at:
            # Truthy return, but the cancel from inside must win.
            self.handle.cancel()
            return True
        return self.count < self.fires


_delays = st.sampled_from([0.0, 0.0, 0.25, 0.5, 0.5, 1.0, 3.0])
_labels = st.sampled_from(["a", "b", "c", "d", "e"])
_cancels = st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=63))
_leaves = st.one_of(st.tuples(st.just("schedule"), _delays, _labels, st.just(())), _cancels)
_ops = st.one_of(
    _leaves,
    st.tuples(st.just("schedule"), _delays, _labels, st.lists(_leaves, max_size=2).map(tuple)),
)
_programs = st.lists(_ops, max_size=3).map(tuple)
_kwargs = st.dictionaries(st.sampled_from(["x", "y"]), st.integers(0, 3), max_size=2)


def _describe(result):
    """Reduce a return value to what both simulators must agree on."""
    if result is None or isinstance(result, int):
        return result
    return (result.time, result.seq, result.label, result.cancelled)


class SimulatorDifferential(RuleBasedStateMachine):
    """Drive the real simulator and the reference with the same calls."""

    @initialize(perturb_ties=st.booleans())
    def build(self, perturb_ties):
        self.worlds = (
            _World(Simulator(sanitize=True, perturb_ties=perturb_ties)),
            _World(ReferenceSimulator(sanitize=True, perturb_ties=perturb_ties)),
        )
        self.tickers = 0

    def both(self, call):
        results = [_describe(call(world)) for world in self.worlds]
        assert results[0] == results[1]
        return results[0]

    def keep(self, world, handle):
        world.handles.append(handle)
        return handle

    @rule(delay=_delays, label=_labels, program=_programs, kwargs=_kwargs)
    def schedule(self, delay, label, program, kwargs):
        self.both(lambda w: self.keep(w, w.sim.schedule(
            delay, w.act, label, program, label=label, **kwargs
        )))

    @rule(offset=_delays, label=_labels, program=_programs)
    def schedule_at(self, offset, label, program):
        self.both(lambda w: self.keep(w, w.sim.schedule_at(
            w.sim.now + offset, w.act, label, program, label=label
        )))

    @precondition(lambda self: self.worlds[0].handles)
    @rule(pick=st.integers(min_value=0))
    def cancel(self, pick):
        # Whatever the handle is by now: pending, fired, already cancelled.
        self.both(lambda w: w.handles[pick % len(w.handles)].cancel())

    @rule(burst=st.lists(st.tuples(_delays, _labels, st.booleans()), min_size=4, max_size=12))
    def schedule_burst_and_cancel_most(self, burst):
        # Dead records outnumbering live ones is what triggers compaction;
        # the survivors must still fire in (time, schedule order).
        def run_burst(world):
            events = [
                self.keep(world, world.sim.schedule(delay, world.act, label, label=label))
                for delay, label, _ in burst
            ]
            for event, (_, _, cancel) in zip(events, burst):
                if cancel:
                    event.cancel()

        self.both(run_burst)

    @rule(
        interval=st.sampled_from([0.25, 0.5, 1.0]),
        fires=st.integers(min_value=1, max_value=4),
        cancel_at=st.sampled_from([None, None, 1, 2]),
    )
    def start_repeating(self, interval, fires, cancel_at):
        self.tickers += 1
        name = f"tick{self.tickers}"
        for world in self.worlds:
            ticker = _Ticker(world, name, fires, cancel_at)
            ticker.handle = world.sim.schedule_repeating(interval, ticker.tick, label=name)
            world.handles.append(ticker.handle)

    @precondition(lambda self: self.worlds[0].handles)
    @rule(pick=st.integers(min_value=0))
    def restart_repeating(self, pick):
        for world in self.worlds:
            handle = world.handles[pick % len(world.handles)]
            if isinstance(handle, RepeatingEvent):
                handle.start()

    @rule()
    def run(self):
        self.both(lambda w: w.sim.run())

    @rule(offset=_delays)
    def run_until(self, offset):
        self.both(lambda w: w.sim.run(until=w.sim.now + offset))

    @rule(limit=st.integers(min_value=0, max_value=5))
    def run_max_events(self, limit):
        self.both(lambda w: w.sim.run(max_events=limit))

    @rule()
    def step(self):
        self.both(lambda w: w.sim.step())

    @invariant()
    def same_observable_state(self):
        if not hasattr(self, "worlds"):
            return
        real, reference = self.worlds
        assert real.fired == reference.fired
        assert real.sim.now == reference.sim.now
        assert real.sim.events_processed == reference.sim.events_processed
        assert real.sim.sanitizer.summary() == reference.sim.sanitizer.summary()
        assert [_describe_handle(h) for h in real.handles] == [
            _describe_handle(h) for h in reference.handles
        ]
        # Compaction only ever drops records the reference still carries.
        assert real.sim.pending() <= reference.sim.pending()


def _describe_handle(handle):
    if isinstance(handle, RepeatingEvent):
        return ("repeating", handle.scheduled, handle.fires)
    return _describe(handle)


SimulatorDifferential.TestCase.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)
TestSimulatorDifferential = SimulatorDifferential.TestCase
