"""The paper's threat model (§2) and compromise taxonomy (§5).

"We assume that most users are honest ... users might inadvertently
create security holes or allow their accounts to be compromised.
Attackers might be able to compromise end-hosts, but it is more
difficult to gain access as a super-user or administrator than as
non-privileged users.  Finally, the components of the network themselves
can be attacked and compromised, though these are more difficult targets
than end-hosts."
"""

from __future__ import annotations

from dataclasses import dataclass

#: The four component classes §5 analyses.
COMPONENT_CONTROLLER = "controller"
COMPONENT_SWITCH = "switch"
COMPONENT_END_HOST = "end-host"
COMPONENT_USER_APPLICATION = "user-application"

ALL_COMPONENTS = (
    COMPONENT_CONTROLLER,
    COMPONENT_SWITCH,
    COMPONENT_END_HOST,
    COMPONENT_USER_APPLICATION,
)

@dataclass(frozen=True)
class CompromiseScenario:
    """One compromise: which component class, and which concrete target."""

    component: str
    target: str
    superuser: bool = False
    description: str = ""

    def __post_init__(self) -> None:
        if self.component not in ALL_COMPONENTS:
            raise ValueError(f"unknown component class: {self.component!r}")

    def __str__(self) -> str:
        privilege = " (superuser)" if self.superuser else ""
        return f"{self.component}:{self.target}{privilege}"
