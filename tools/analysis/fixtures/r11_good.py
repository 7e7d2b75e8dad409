"""R11 fixture (good): the Python 3.10 spellings of the same things."""

from __future__ import annotations

import datetime
import enum
import re
from dataclasses import dataclass
from typing import TypeVar

# A non-capturing group, literal pluses and a lazy quantifier.
WORD = re.compile(r"(?:[a-z]+)\s*")
PLUSES = re.compile(r"[+*]+|\++|C\+\+|a+?|[]+]")
ZONE = datetime.timezone.utc
NOTE = "C++ and x*+y in prose are not patterns"

T = TypeVar("T", bound="Node")


@dataclass(slots=True)
class Node:
    name: str = ""

    def renamed(self: T, name: str) -> T:
        return type(self)(name)


class Colour(str, enum.Enum):
    RED = "red"


def fail(errors):
    raise RuntimeError(f"{len(errors)} failures")
