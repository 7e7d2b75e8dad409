"""R9 fixture (bad): side doors onto the event heap, per-event labels."""

import heapq


def deliver_fast(link, packet, destination):
    # Pushes a record no sanitizer or tracing hook will ever see.
    sim = destination.node.sim
    heapq.heappush(sim._queue, (sim.now + link.latency, 0, packet))


def backlog(self):
    return len(self.sim._queue)


def send(self, message):
    self.sim.schedule(
        self.latency, self.controller.handle_message, message,
        label=f"ctrl-rx:{self.switch.name}",
    )


def sweep_every(self, interval):
    return self._sim.schedule_repeating(interval, self._tick, label=f"{self.name}:sweep")
