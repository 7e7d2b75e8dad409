"""Rule registry: one module per rule, instantiated once here."""

from tools.analysis.rules.r1_wall_clock import WallClockRule
from tools.analysis.rules.r2_unseeded_random import UnseededRandomRule
from tools.analysis.rules.r3_broad_except import BroadExceptRule
from tools.analysis.rules.r4_blocking_callback import BlockingCallbackRule
from tools.analysis.rules.r5_mutable_defaults import MutableDefaultsRule
from tools.analysis.rules.r7_engine_facade import EngineFacadeRule
from tools.analysis.rules.r8_identity_index import IdentityIndexRule
from tools.analysis.rules.r9_event_queue import EventQueueRule
from tools.analysis.rules.r10_stdlib_only import StdlibOnlyRule
from tools.analysis.rules.r11_python_floor import PythonFloorRule
from tools.analysis.rules.r12_unused_imports import UnusedImportsRule

#: Every rule, in id order — the default rule set of ``run_lint.py``.
ALL_RULES = (
    WallClockRule(),
    UnseededRandomRule(),
    BroadExceptRule(),
    BlockingCallbackRule(),
    MutableDefaultsRule(),
    EngineFacadeRule(),
    IdentityIndexRule(),
    EventQueueRule(),
    StdlibOnlyRule(),
    PythonFloorRule(),
    UnusedImportsRule(),
)


def rules_by_id() -> dict[str, object]:
    """Return ``{rule_id: rule}`` for the full rule set."""
    return {rule.rule_id: rule for rule in ALL_RULES}


__all__ = [
    "ALL_RULES",
    "rules_by_id",
    "WallClockRule",
    "UnseededRandomRule",
    "BroadExceptRule",
    "BlockingCallbackRule",
    "MutableDefaultsRule",
    "EngineFacadeRule",
    "IdentityIndexRule",
    "EventQueueRule",
    "StdlibOnlyRule",
    "PythonFloorRule",
    "UnusedImportsRule",
]
