"""R11 fixture (bad): APIs and regular-expression syntax newer than Python 3.10.

(``except*`` and ``import tomllib`` are exercised from the tests: the one
does not parse on 3.10, the other is not in 3.10's standard library.)
"""

import asyncio
import datetime as dt
import re
from dataclasses import dataclass
from enum import StrEnum
from typing import Self

WORD = re.compile(r"(?>[a-z]+)\s*")
REPEATS = re.compile(r"[0-9]++|x*+|y?+|z{2}+")
ZONE = dt.UTC


@dataclass(slots=True, weakref_slot=True)
class Node:
    name: str = ""

    def renamed(self, name: str) -> Self:
        return Node(name)


class Colour(StrEnum):
    RED = "red"


async def run_all(jobs):
    async with asyncio.TaskGroup() as group:
        for job in jobs:
            group.create_task(job)


def fail(errors):
    raise ExceptionGroup("several failures", errors)
