"""The daemon answer and the per-decision verdict fields the templates replaced, kept as test oracles.

``reference_answer(daemon, query)`` is ``IdentPPDaemon.answer`` as it
stood before answers were built over an
:class:`~repro.identpp.keyvalue.AnswerTemplate`: every answer assembles
its :class:`~repro.identpp.keyvalue.ResponseDocument` section by section
(the OS-derived section, the configuration-file sections, the run-time
pairs), with the memo taken out, so each one is built from scratch out
of the daemon's current state.  It counts nothing and remembers nothing.

``reference_verdict_fields(verdict)`` is what ``PolicyDecision`` and
``PolicyEngine._decision_from_verdict`` derived from the deciding rule
for every decision before each compiled rule carried a
:class:`~repro.pf.compiler.VerdictShape`.

``tests/test_answer_reference.py`` drives both against the real code.
Nothing outside the tests may use this module.
"""

from __future__ import annotations

from typing import Optional

from repro.exceptions import QueryError
from repro.hosts.processes import Process
from repro.identpp.daemon import IdentPPDaemon
from repro.identpp.keyvalue import KeyValueSection, ResponseDocument
from repro.identpp.wire import ROLE_DESTINATION, ROLE_SOURCE, IdentQuery, IdentResponse
from repro.pf.ast_nodes import ACTION_PASS, DictAccess, Rule
from repro.pf.evaluator import Verdict

#: Function names whose presence in the deciding rule marks the decision
#: as relying on delegated (externally supplied) rules.
DELEGATION_FUNCTIONS = ("allowed", "verify")


def reference_answer(daemon: IdentPPDaemon, query: IdentQuery) -> IdentResponse:
    """Build the response document for a query, one section at a time."""
    flow = query.flow
    expected_ip = flow.src_ip if query.target_role == ROLE_SOURCE else flow.dst_ip
    if expected_ip != daemon.host.ip:
        raise QueryError(
            f"daemon on {daemon.host.name} ({daemon.host.ip}) queried as {query.target_role} "
            f"of flow {flow}, which names {expected_ip}"
        )
    if daemon.spoofed_pairs is not None:
        document = ResponseDocument()
        document.add_section(dict(daemon.spoofed_pairs), source=f"{daemon.host.name}:spoofed")
        return IdentResponse(flow=flow, document=document, responder=daemon.host.name)

    as_destination = query.target_role == ROLE_DESTINATION
    process = daemon.host.sockets.process_for_flow(
        flow.src_ip, flow.dst_ip, flow.proto, flow.src_port, flow.dst_port,
        as_destination=as_destination,
    )
    document = ResponseDocument()
    document.add_section(_base_section(daemon, process))
    for section in _config_sections(daemon, process):
        document.add_section(section)
    runtime_pairs = daemon.runtime.pairs_for(flow, process)
    if runtime_pairs:
        document.add_section(
            KeyValueSection.from_dict(runtime_pairs, source=f"{daemon.host.name}:runtime")
        )
    return IdentResponse(flow=flow, document=document, responder=daemon.host.name)


def _base_section(daemon: IdentPPDaemon, process: Optional[Process]) -> KeyValueSection:
    """Return the OS-derived section (user, group, application identity, host facts)."""
    section = KeyValueSection(source=f"{daemon.host.name}:daemon")
    if process is None:
        section.add("responder", daemon.host.name)
        section.add("no-process", "true")
    else:
        section.add("responder", daemon.host.name)
        section.add("userID", process.user.name)
        section.add("groupID", " ".join(sorted(process.user.groups)) or process.user.name)
        section.add("pid", str(process.pid))
        for key, value in process.application.identity_keys().items():
            section.add(key, value)
    for key, value in sorted(daemon.host_facts.items()):
        section.add(key, value)
    return section


def _config_sections(daemon: IdentPPDaemon, process: Optional[Process]) -> list[KeyValueSection]:
    """Return the configuration-file sections that apply to the owning process."""
    if process is None:
        return []
    path = process.application.path
    return (
        daemon.system_config.sections_for_path(path)
        + daemon.user_config.sections_for_path(path)
    )


def reference_verdict_fields(verdict: Verdict) -> dict:
    """Return what a decision said about its verdict, derived from the rule afresh."""
    rule = verdict.rule
    functions = _delegation_functions_used(rule)
    return {
        "action": verdict.action,
        "is_pass": verdict.action == ACTION_PASS,
        "keep_state": bool(rule is not None and rule.keep_state),
        "rule_text": str(rule) if rule is not None else "",
        "rule_origin": rule.origin if rule is not None else "",
        "delegated": bool(functions),
        "delegation_functions": functions,
        "principals": _principals_used(rule),
    }


def _delegation_functions_used(rule: Optional[Rule]) -> tuple[str, ...]:
    """Return which delegation functions appear in the deciding rule's conditions."""
    if rule is None:
        return ()
    used = []
    for condition in rule.conditions:
        if condition.name.lower() in DELEGATION_FUNCTIONS and condition.name.lower() not in used:
            used.append(condition.name.lower())
    return tuple(used)


def _principals_used(rule: Optional[Rule]) -> tuple[str, ...]:
    """Return the ``@pubkeys[...]`` principals referenced by the deciding rule."""
    if rule is None:
        return ()
    principals: list[str] = []
    for condition in rule.conditions:
        for argument in condition.args:
            if isinstance(argument, DictAccess) and argument.dict_name == "pubkeys":
                if argument.key not in principals:
                    principals.append(argument.key)
    return tuple(principals)
