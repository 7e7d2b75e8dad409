"""R13 fixture (good): every setting gets a second value."""

from dataclasses import dataclass, replace


@dataclass
class Record:
    size: int = 1
    color: str = "red"


def knob(value=1, *, flag=False):
    return value, flag


record = replace(Record(), size=4)
record.color = "blue"
knob(5, flag=True)
