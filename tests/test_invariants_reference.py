"""The one-pass fail-closed / zero-loss checkers against the ones they replaced.

Generated record streams mix fresh decisions, cache replays and
fail-closed verdicts, repeat flows, and leave some punted flows with no
record at all; the drain counts vary too.  Both checkers must return
equal :class:`~repro.workloads.invariants.InvariantResult` objects:
name, every violation string in order, and ``details``.
"""

from dataclasses import dataclass

from hypothesis import given, strategies as st

from repro.workloads import invariants
from tests import reference_invariants as reference

FLOWS = [f"f{index}" for index in range(6)]


@dataclass(frozen=True)
class Record:
    flow: str
    cached: bool
    rule_origin: str


records = st.lists(
    st.builds(
        Record,
        flow=st.sampled_from(FLOWS),
        cached=st.booleans(),
        rule_origin=st.sampled_from(["rule", "cache", "error"]),
    ),
    max_size=20,
)
punted = st.lists(st.sampled_from(FLOWS + ["unseen"]), max_size=8)
drained = st.integers(0, 3)


@given(flows=punted, records=records, pending=drained, buffered=drained)
def test_checkers_agree_with_the_reference(flows, records, pending, buffered):
    for check, oracle in (
        (invariants.check_fail_closed, reference.check_fail_closed),
        (invariants.check_zero_loss, reference.check_zero_loss),
    ):
        got = check(flows, records, pending=pending, buffered=buffered)
        expected = oracle(flows, records, pending=pending, buffered=buffered)
        assert got == expected
        assert list(got.details) == list(expected.details)
