"""Users and groups on simulated end-hosts.

PF+=2 policies match on ``userID`` and ``groupID`` keys reported by the
ident++ daemon (Figures 2, 5 and 8 use ``users``, ``research``,
``system`` and ``smtp`` principals), so the end-host model needs a small
account database.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.exceptions import UserError


@dataclass(frozen=True)
class Group:
    """A named group with a numeric gid."""

    name: str
    gid: int

    def __str__(self) -> str:
        return self.name


@dataclass
class User:
    """A user account.

    Attributes:
        name: Login name; this is the value reported as ``userID`` in
            ident++ responses.
        uid: Numeric user id.  uid 0 is the superuser.
        groups: Names of the groups the user belongs to (reported as
            ``groupID`` values).
        privileged: Whether the account may bind privileged (< 1024)
            ports without being uid 0 — the Windows ``system`` account
            behaves this way (Figure 8 runs the ``Server`` service as
            ``system`` on port 445).
    """

    name: str
    uid: int
    groups: set[str] = field(default_factory=set)
    privileged: bool = False

    @property
    def is_superuser(self) -> bool:
        """Return ``True`` for uid 0."""
        return self.uid == 0

    @property
    def can_bind_privileged_ports(self) -> bool:
        """Return ``True`` when the account may bind ports below 1024."""
        return self.is_superuser or self.privileged

    def __str__(self) -> str:
        return self.name


class UserDatabase:
    """The account database of one end-host (``/etc/passwd`` + ``/etc/group``)."""

    def __init__(self) -> None:
        self._users: dict[str, User] = {}
        self._groups: dict[str, Group] = {}
        self._next_uid = 1000
        self._next_gid = 1000
        # Group membership is reported as ``groupID`` in ident++ answers;
        # the daemon listens here so controller-side caches drop answers
        # assembled before a membership change.
        self._change_listeners: list[Callable[[], None]] = []
        # Every host has a superuser and a system account out of the box,
        # mirroring the paper's Figure 8 "system" principal.
        self.add_group("root", gid=0)
        self.add_group("system", gid=1)
        self.add_user("root", uid=0, groups=["root"])
        self.add_user("system", uid=1, groups=["system"], privileged=True)

    def add_change_listener(self, listener: Callable[[], None]) -> None:
        """Register a callback fired after a user's group membership changes."""
        if listener not in self._change_listeners:
            self._change_listeners.append(listener)

    # ------------------------------------------------------------------
    # Groups
    # ------------------------------------------------------------------

    def add_group(self, name: str, gid: int | None = None) -> Group:
        """Create a group.  Re-adding an existing group returns it unchanged."""
        if name in self._groups:
            return self._groups[name]
        if gid is None:
            gid = self._next_gid
            self._next_gid += 1
        group = Group(name=name, gid=gid)
        self._groups[name] = group
        return group

    def group(self, name: str) -> Group:
        """Return the group with the given name."""
        try:
            return self._groups[name]
        except KeyError as exc:
            raise UserError(f"unknown group: {name}") from exc

    def groups(self) -> Iterator[Group]:
        """Iterate over groups sorted by name."""
        for name in sorted(self._groups):
            yield self._groups[name]

    # ------------------------------------------------------------------
    # Users
    # ------------------------------------------------------------------

    def add_user(
        self,
        name: str,
        uid: int | None = None,
        groups: Iterable[str] = (),
        *,
        privileged: bool = False,
    ) -> User:
        """Create a user, creating any missing groups on the fly."""
        if name in self._users:
            raise UserError(f"user already exists: {name}")
        if uid is None:
            uid = self._next_uid
            self._next_uid += 1
        group_names = set(groups)
        for group_name in group_names:
            self.add_group(group_name)
        user = User(name=name, uid=uid, groups=group_names, privileged=privileged)
        self._users[name] = user
        return user

    def user(self, name: str) -> User:
        """Return the user with the given login name."""
        try:
            return self._users[name]
        except KeyError as exc:
            raise UserError(f"unknown user: {name}") from exc

    def has_user(self, name: str) -> bool:
        """Return ``True`` if the login name exists."""
        return name in self._users

    def users(self) -> Iterator[User]:
        """Iterate over users sorted by name."""
        for name in sorted(self._users):
            yield self._users[name]

    def add_to_group(self, user_name: str, group_name: str) -> None:
        """Add an existing user to a group (creating the group if needed)."""
        user = self.user(user_name)
        self.add_group(group_name)
        if group_name in user.groups:
            return
        user.groups.add(group_name)
        for listener in list(self._change_listeners):
            listener()

    def __len__(self) -> int:
        return len(self._users)
