"""R13 fixture (bad): settings nothing outside the tests gives a second value."""

from dataclasses import dataclass, field, replace


@dataclass
class Record:
    size: int = 1
    label: str = ""
    color: str = "red"
    shade: str = "dark"  # nothing sets it
    tags: list = field(default_factory=list, init=False)


class Base:
    def __init__(self, depth=0, width=0):  # nothing sets the width
        self.depth, self.width = depth, width


class Child(Base):
    def __init__(self):
        super().__init__(depth=3)


class Table:
    def __init__(self, capacity=None):
        self.capacity = capacity


class Config:
    def __init__(self, capacity=None):  # only a Table(capacity=) call passes a capacity
        self.capacity = capacity


class Rule:
    def __init__(self, action, port=None, proto=None):  # the forwarder's callers pass no proto
        self.action, self.port, self.proto = action, port, proto


def rule(action, **options):
    return Rule(action, **options)


# mode: a value equal to the default does not count; only_tests: its own body passes it on.
def knob(value=1, flag=False, mode="a", *, level=0, only_tests=0):
    return knob(value, flag, mode, level=level + 1, only_tests=only_tests)


def forward(level=0):
    return knob(level=level)


def relay(depth=0):  # nothing passes it...
    return chained(depth=depth)


def chained(depth=0):  # ...so neither does the bare parameter relay forwards
    return depth


def labelled(**overrides):
    settings = dict(label="x")
    settings.update(overrides)
    return Record(**settings)


knob(5, flag=True, mode="a")
forward(level=2)
relay()
record = replace(Record(), size=4)
labelled()
record.color = "blue"
Child()
Table(capacity=64)
Config()
rule("pass", port=80)
