"""The per-test wall budget of the root ``conftest.py``: a hang ends, and says where."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import OverBudget, wall_budget


def spin() -> None:
    while True:
        pass


@settings(database=None)
@given(st.integers())
def spin_per_example(_value) -> None:
    spin()


@pytest.mark.parametrize("hang", [spin, spin_per_example], ids=["plain", "given"])
def test_an_endless_loop_ends_as_a_failure_that_names_it(hang):
    with pytest.raises(OverBudget, match="spinner ran past its 0.1 s wall budget"):
        with wall_budget(0.1, "spinner"):
            hang()
