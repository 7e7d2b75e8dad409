"""Every collected test gets a wall budget: a hang ends as a failure that names it.

A wrong constant (a TTL-less cache that reports a pending expiry, say)
can keep a drain ``run()`` going for ever, and a test suite with no
budget then never ends.  ``pytest-timeout`` is not a dependency, so the
budget is the standard library's interval timer around each test's call.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

import pytest

#: Wall seconds one test's call may take: well above the slowest test
#: (about 6 s on a 2-core box), well below a CI job's own timeout.
TEST_BUDGET = 60.0


class OverBudget(BaseException):
    """Raised in a test that outran its budget.  Not an ``Exception``, so
    nothing that catches those (hypothesis retrying an example, a
    fail-closed handler) swallows it and runs on."""


@contextmanager
def wall_budget(seconds: float, name: str):
    """Raise :class:`OverBudget` naming ``name`` if the block runs past ``seconds``.

    Nests: an enclosing budget is re-armed with what is left of it.
    """

    def expire(_signum, _frame):
        raise OverBudget(f"{name} ran past its {seconds:g} s wall budget")

    started = time.monotonic()
    handler = signal.signal(signal.SIGALRM, expire)
    outer, _ = signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
        if outer:
            signal.setitimer(signal.ITIMER_REAL, max(outer - (time.monotonic() - started), 1e-3))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    with wall_budget(TEST_BUDGET, item.nodeid):
        yield
