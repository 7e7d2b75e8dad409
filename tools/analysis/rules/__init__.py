"""Rule registry: one module per rule, instantiated once here.

R1-R12 are module rules (``check(module)``); R13-R16 are program rules
(``check_program(program)``), which judge ``src/repro`` against the whole
tree.  Number 6 is retired and not reused.
"""

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
from tools.analysis.rules.r13_second_values import SecondValuesRule
from tools.analysis.rules.r14_readers import ReadersRule
from tools.analysis.rules.r15_messages_sent import MessagesSentRule
from tools.analysis.rules.r16_definitions_named import DefinitionsNamedRule

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
    SecondValuesRule(),
    ReadersRule(),
    MessagesSentRule(),
    DefinitionsNamedRule(),
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
    "SecondValuesRule",
    "ReadersRule",
    "MessagesSentRule",
    "DefinitionsNamedRule",
]
