"""Attack probes and compromise-impact accounting.

The §5 comparison boils down to a question per (architecture,
compromise) pair: *which flows can the attacker now open that it could
not open before?*  An :class:`AttackProbe` is one flow the attacker
would like to open together with the identity claims it can plausibly
present; a *decider* is any callable mapping a probe to ``True``
(allowed) / ``False`` (blocked) under one architecture.  The impact
calculator runs every probe through every decider before and after a
compromise and reports the gained set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Sequence

from repro.identpp.flowspec import FlowSpec
from repro.security.threat_model import CompromiseScenario

#: A decider maps a probe to "is this flow allowed?".
ProbeDecider = Callable[["AttackProbe"], bool]


@dataclass(frozen=True)
class AttackProbe:
    """One flow an attacker attempts, with the identity it claims.

    Attributes:
        flow: The 5-tuple the attacker tries to open.
        claimed_src: Key/value pairs the attacker's side would present to
            an ident++ query (what a compromised daemon would spoof).
        description: Label used in reports ("reach file server as system",
            "worm probe to Server service", ...).
        requires_spoofing: ``True`` when the claimed identity is a lie —
            useful when reporting which architectures were fooled by it.
    """

    flow: FlowSpec
    claimed_src: tuple[tuple[str, str], ...] = ()
    description: str = ""
    requires_spoofing: bool = False

    @classmethod
    def build(
        cls,
        flow: FlowSpec,
        claimed_src: Optional[Mapping[str, str]] = None,
        *,
        description: str = "",
        requires_spoofing: bool = False,
    ) -> "AttackProbe":
        """Convenience constructor accepting a dict of claims."""
        claims = tuple(sorted((claimed_src or {}).items()))
        return cls(
            flow=flow,
            claimed_src=claims,
            description=description,
            requires_spoofing=requires_spoofing,
        )

    def claims(self) -> dict[str, str]:
        """Return the claimed source identity as a dict."""
        return dict(self.claimed_src)


@dataclass
class ImpactResult:
    """The impact of one compromise under one architecture."""

    architecture: str
    scenario: CompromiseScenario
    allowed_before: set[AttackProbe] = field(default_factory=set)
    allowed_after: set[AttackProbe] = field(default_factory=set)
    total_probes: int = 0

    @property
    def gained(self) -> set[AttackProbe]:
        """Return the probes that succeed only after the compromise."""
        return self.allowed_after - self.allowed_before

    @property
    def gained_count(self) -> int:
        """Return how many probes the attacker gained."""
        return len(self.gained)

    @property
    def exposure_after(self) -> float:
        """Return the fraction of probes that succeed after the compromise."""
        if self.total_probes == 0:
            return 0.0
        return len(self.allowed_after) / self.total_probes


def allowed_set(decider: ProbeDecider, probes: Iterable[AttackProbe]) -> set[AttackProbe]:
    """Return the probes a decider allows."""
    return {probe for probe in probes if decider(probe)}


def impact_of_compromise(
    architecture: str,
    scenario: CompromiseScenario,
    decider_before: ProbeDecider,
    decider_after: ProbeDecider,
    probes: Sequence[AttackProbe],
) -> ImpactResult:
    """Measure one (architecture, compromise) cell of the §5 matrix."""
    probes = list(probes)
    return ImpactResult(
        architecture=architecture,
        scenario=scenario,
        allowed_before=allowed_set(decider_before, probes),
        allowed_after=allowed_set(decider_after, probes),
        total_probes=len(probes),
    )


class SecurityMatrix:
    """The full §5 comparison: architectures × compromise scenarios."""

    def __init__(self) -> None:
        self._cells: dict[tuple[str, str], ImpactResult] = {}

    def add(self, result: ImpactResult) -> None:
        """Record one cell."""
        self._cells[(result.architecture, str(result.scenario))] = result

    def architectures(self) -> list[str]:
        """Return the architectures present, sorted."""
        return sorted({arch for arch, _ in self._cells})

    def scenarios(self) -> list[str]:
        """Return the compromise scenarios present, sorted by first appearance."""
        seen: list[str] = []
        for _, scenario in self._cells:
            if scenario not in seen:
                seen.append(scenario)
        return seen

    def rows(self) -> list[dict[str, object]]:
        """Return the matrix as a list of row dictionaries (scenario × architecture)."""
        table = []
        for scenario in self.scenarios():
            row: dict[str, object] = {"scenario": scenario}
            for architecture in self.architectures():
                result = self._cells.get((architecture, scenario))
                row[architecture] = result.gained_count if result is not None else None
            table.append(row)
        return table

    def exposure_rows(self) -> list[dict[str, object]]:
        """Return rows of post-compromise exposure fractions."""
        table = []
        for scenario in self.scenarios():
            row: dict[str, object] = {"scenario": scenario}
            for architecture in self.architectures():
                result = self._cells.get((architecture, scenario))
                row[architecture] = (
                    round(result.exposure_after, 3) if result is not None else None
                )
            table.append(row)
        return table

    def __len__(self) -> int:
        return len(self._cells)
