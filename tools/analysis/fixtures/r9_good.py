"""R9 fixture (good): everything through schedule(), labels built once."""

from collections import deque


class Channel:
    def __init__(self, sim, switch):
        self.sim = sim
        self.switch = switch
        # A queue of its own is not the simulator's heap.
        self._queue = deque()
        self._relabel()

    def _relabel(self):
        name = self._labelled_name = self.switch.name
        self._rx_label = f"ctrl-rx:{name}"

    def send(self, message):
        if self.switch.name is not self._labelled_name:
            self._relabel()
        self._queue.append(message)
        self.sim.schedule(0.0, self.drain, label=self._rx_label)

    def drain(self):
        self._queue.clear()

    def backlog(self):
        return self.sim.pending()


def arrival(sim, role, future, outcome, labels):
    # A fixed text, or one picked from a table built up front, is fine.
    sim.schedule(outcome.latency, future.set_result, outcome, label=labels[role])
    sim.schedule_at(1.0, future.set_result, outcome, label="identpp:answer-shared")
