"""R14 fixture (good): every count and report key is read, and the Counter is a pin."""

from repro.netsim.statistics import Counter


class Table:
    def __init__(self):
        self.lookups = 0

    def lookup(self):
        self.lookups += 1

    def stats(self):
        return {"lookups": self.lookups}


class OpenFlowSwitch:
    def __init__(self):
        self.punts = Counter("switch.punts")  # perf/ reads it through .value

    def punt(self):
        self.punts.increment(1)


table, switch = Table(), OpenFlowSwitch()
table.lookup()
switch.punt()
print(table.stats()["lookups"], switch.punts.value)
