"""R14 fixture (bad): counts and report keys only the tests read, a Counter perf/ does not."""

from repro.netsim.statistics import Counter


class Port:
    def __init__(self):
        self.tx_bytes = 0
        self.rx_bytes = 0

    def send(self, size):
        self.tx_bytes += size
        self.rx_bytes += size


class Link:
    def __init__(self):
        self.tx_bytes = 0
        self.hops = 0
        self.carried_bytes = 0

    def transmit(self, size):
        self.tx_bytes += size  # two packet-path classes give a count one name
        self.hops += 1  # an unread int count on a link
        self.carried_bytes += size


class Entry:
    def __init__(self):
        self.uses = 0


class Table:
    def __init__(self):
        self.lookups = 0
        self.probes = 0
        self.sweeps = 0
        self.flushes = 0
        self.resets = 0
        self.drops = Counter("table.drops")  # a Counter outside the pins

    def lookup(self, entry):
        self.lookups += 1
        self.probes += 1  # read only inside its report
        entry.uses += 1  # an obj.x += 1 through another object
        self.drops.value += 1

    def sweep(self):
        self.sweeps += 1  # read only in __repr__
        self.flushes += 1
        self.resets += 1

    def stats(self):
        flushed = self.flushes
        return {"probes": self.probes, "flushes": flushed, "resets": self.resets, "spare": 0}

    def __repr__(self):
        return f"Table({self.sweeps})"


table, port, link = Table(), Port(), Link()
table.lookup(Entry())
table.sweep()
port.send(1)
link.transmit(1)
print(table.lookups, port.tx_bytes, port.rx_bytes, link.tx_bytes, link.carried_bytes)
print(table.drops.value)
stats = table.stats()
print(stats["resets"])
for key in ("flushes",):
    print(stats.get(key))
