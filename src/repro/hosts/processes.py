"""Process table for simulated end-hosts.

The ident++ daemon "uses the 5-tuple in the query packet to find the
process ID and user ID associated with the flow ... [and] uses the
process ID to find the file name of the process's executable image"
(§3.5).  :class:`ProcessTable` provides exactly those lookups.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from repro.exceptions import ProcessError
from repro.hosts.applications import Application
from repro.hosts.users import User


@dataclass
class Process:
    """A running process.

    Attributes:
        pid: Process id, unique per host.
        user: The account the process runs as.
        application: The executable image backing the process.
    """

    pid: int
    user: User
    application: Application

    def __str__(self) -> str:
        return f"pid={self.pid} user={self.user.name} exe={self.application.path}"


class ProcessTable:
    """All running processes on one end-host."""

    def __init__(self) -> None:
        self._processes: dict[int, Process] = {}
        self._pid_counter = itertools.count(100)

    def spawn(self, user: User, application: Application) -> Process:
        """Start a new process for ``user`` running ``application``."""
        process = Process(pid=next(self._pid_counter), user=user, application=application)
        self._processes[process.pid] = process
        return process

    def kill(self, pid: int) -> None:
        """Terminate the process with the given pid."""
        if pid not in self._processes:
            raise ProcessError(f"no such process: {pid}")
        del self._processes[pid]

    def __iter__(self) -> Iterator[Process]:
        for pid in sorted(self._processes):
            yield self._processes[pid]

    def __len__(self) -> int:
        return len(self._processes)

    def __contains__(self, pid: int) -> bool:
        return pid in self._processes
