"""Intercepting and augmenting ident++ queries and responses (§3.4).

"ident++ controllers can intercept queries and responses.  However,
intercepted queries are not allowed to cause new queries.  To respond to
an intercepted query on behalf of an end-host, the controller spoofs the
IP address of the end-host, sends a response itself, but does not
forward the query.  To augment an intercepted response with additional
information, the controller inserts an empty line followed by the
key-value pairs it wishes to add."

Two of the paper's §4 applications rest on this:

* **Incremental benefit** — a controller answers queries about legacy
  hosts in its domain that run no daemon, so the rest of the network can
  still apply ident++ policies to them.
* **Network collaboration** — a branch's controller augments responses
  for flows headed toward it with (signed) rules describing what the
  branch is willing to accept, so the *remote* branch can filter at the
  source and spare the bottleneck link.

:class:`InterceptionPolicy` is the configuration object behind both; an
:class:`~repro.core.controller.IdentPPController` exposes it through the
``QueryInterceptor`` protocol the query client walks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.identpp.flowspec import FlowSpec
from repro.identpp.keyvalue import KeyValueSection, ResponseDocument
from repro.identpp.wire import IdentQuery, IdentResponse
from repro.netsim.addresses import IPv4Address, IPv4Network
from repro.netsim.statistics import Counter

#: Predicate deciding whether an augmentation applies to a query.
QueryPredicate = Callable[[IdentQuery], bool]


@dataclass
class StaticAnswer:
    """A canned response served on behalf of hosts in a subnet (no daemon needed)."""

    network: IPv4Network
    pairs: dict[str, str]
    source: str = "controller:static"

    def covers(self, address: IPv4Address) -> bool:
        """Return ``True`` if the answered-for host falls in this subnet."""
        return address in self.network


@dataclass
class AugmentationRule:
    """Key/value pairs appended (as a new section) to responses passing through."""

    pairs: dict[str, str]
    source: str = "controller:augment"
    applies_to: Optional[QueryPredicate] = None

    def matches(self, query: IdentQuery) -> bool:
        """Return ``True`` if this augmentation applies to the given query."""
        if self.applies_to is None:
            return True
        return bool(self.applies_to(query))


class InterceptionPolicy:
    """What one controller does to ident++ traffic it sees on the path."""

    def __init__(self, name: str = "interception") -> None:
        self.name = name
        self._static_answers: list[StaticAnswer] = []
        self._augmentations: list[AugmentationRule] = []
        self.queries_answered = Counter(f"{name}.queries_answered")
        self.responses_augmented = Counter(f"{name}.responses_augmented")

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------

    def answer_for_subnet(
        self,
        network: IPv4Network | str,
        pairs: dict[str, str],
        *,
        source: str = "",
    ) -> StaticAnswer:
        """Answer queries on behalf of every host in ``network`` with ``pairs``."""
        answer = StaticAnswer(
            network=IPv4Network(network),
            pairs=dict(pairs),
            source=source or f"{self.name}:static",
        )
        self._static_answers.append(answer)
        return answer

    def answer_for_host(self, address: IPv4Address | str, pairs: dict[str, str]) -> StaticAnswer:
        """Answer queries on behalf of a single host."""
        return self.answer_for_subnet(f"{IPv4Address(address)}/32", pairs)

    def augment_with(
        self,
        pairs: dict[str, str],
        *,
        source: str = "",
        applies_to: Optional[QueryPredicate] = None,
    ) -> AugmentationRule:
        """Append ``pairs`` as a new section to matching responses passing through."""
        rule = AugmentationRule(
            pairs=dict(pairs),
            source=source or f"{self.name}:augment",
            applies_to=applies_to,
        )
        self._augmentations.append(rule)
        return rule

    def augment_flows_to(
        self,
        network: IPv4Network | str,
        pairs: dict[str, str],
        *,
        source: str = "",
    ) -> AugmentationRule:
        """Augment responses for flows whose destination lies in ``network``.

        This is the network-collaboration shape: branch B augments
        responses about flows heading to its own address space.
        """
        prefix = IPv4Network(network)

        def _applies(query: IdentQuery) -> bool:
            return query.flow.dst_ip in prefix

        return self.augment_with(pairs, source=source, applies_to=_applies)

    def clear(self) -> None:
        """Remove every configured answer and augmentation."""
        self._static_answers.clear()
        self._augmentations.clear()

    # ------------------------------------------------------------------
    # QueryInterceptor protocol
    # ------------------------------------------------------------------

    def intercept_query(self, query: IdentQuery) -> Optional[IdentResponse]:
        """Answer the query from a static answer, or pass it through (``None``)."""
        for answer in self._static_answers:
            if answer.covers(query.target_ip):
                self.queries_answered.value += 1
                document = ResponseDocument()
                document.add_section(
                    KeyValueSection.from_dict(answer.pairs, source=answer.source)
                )
                return IdentResponse(flow=query.flow, document=document, responder=answer.source)
        return None

    def augment_response(self, query: IdentQuery, response: IdentResponse) -> None:
        """Append the configured augmentation sections to a passing response."""
        for rule in self._augmentations:
            if rule.matches(query):
                response.document.augment(rule.pairs, source=rule.source)
                self.responses_augmented.value += 1

    def __repr__(self) -> str:
        return (
            f"InterceptionPolicy({self.name!r}, answers={len(self._static_answers)}, "
            f"augmentations={len(self._augmentations)})"
        )
