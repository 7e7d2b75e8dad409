"""Installed applications on simulated end-hosts.

ident++ responses report application-level facts the network cannot see
on its own — the application *name*, the *hash of the executable*, its
*version* and *vendor* (§2, Figure 3).  An :class:`Application` models an
installed program; the :class:`ApplicationRegistry` is the host's
"filesystem view" mapping executable paths to applications, which is how
the daemon resolves a process to its configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.exceptions import HostError
from repro.crypto.hashing import executable_hash


@dataclass
class Application:
    """An installed application (an executable image plus metadata).

    Attributes:
        name: Short application name as reported in the ``name`` /
            ``app-name`` keys (``skype``, ``pine``, ``thunderbird`` ...).
        path: Absolute executable path (``/usr/bin/skype``); daemon
            configuration ``@app`` blocks are keyed by this path.
        version: Version as an integer-like string; Figure 2's
            ``lt(@src[version], 200)`` compares it numerically.
        vendor: Vendor string (``skype.com``).
        app_type: Free-form type tag (``voip``, ``email-client``); used by
            the thunderbird example's ``eq(@dst[type], email-server)``.
        contents: Synthetic executable contents; only the hash matters.
        default_port: The server port the application listens on when run
            as a service (0 for pure clients).
        extra_keys: Additional static key/value pairs the application
            wants reported for its flows.
    """

    name: str
    path: str
    version: str = "1"
    vendor: str = ""
    app_type: str = ""
    contents: str = ""
    default_port: int = 0
    extra_keys: dict[str, str] = field(default_factory=dict)

    @property
    def exe_hash(self) -> str:
        """Return the stable hash of the executable image."""
        return executable_hash(self.path, self.contents or self.name, self.version)

    def identity_keys(self) -> dict[str, str]:
        """Return the key/value pairs the daemon reports for this application.

        These are the application-intrinsic facts; user- and flow-specific
        keys are added by the daemon itself.
        """
        pairs = {
            "name": self.name,
            "app-name": self.name,
            "exe-hash": self.exe_hash,
            "version": self.version,
        }
        if self.vendor:
            pairs["vendor"] = self.vendor
        if self.app_type:
            pairs["type"] = self.app_type
        pairs.update(self.extra_keys)
        return pairs

    def __str__(self) -> str:
        return f"{self.name} ({self.path}, v{self.version})"


class ApplicationRegistry:
    """The set of applications installed on one end-host."""

    def __init__(self) -> None:
        self._by_path: dict[str, Application] = {}
        self._by_name: dict[str, Application] = {}

    def install(self, app: Application) -> Application:
        """Install an application; reinstalling a path replaces the old binary."""
        self._by_path[app.path] = app
        self._by_name[app.name] = app
        return app

    def require(self, name_or_path: str) -> Application:
        """Return an installed application by name or path, raising if absent."""
        app = self._by_path.get(name_or_path) or self._by_name.get(name_or_path)
        if app is None:
            raise HostError(f"application not installed: {name_or_path}")
        return app

    def __contains__(self, name_or_path: str) -> bool:
        return name_or_path in self._by_path or name_or_path in self._by_name

    def __len__(self) -> int:
        return len(self._by_path)

    def __iter__(self) -> Iterator[Application]:
        for path in sorted(self._by_path):
            yield self._by_path[path]


def standard_applications() -> list[Application]:
    """Return the catalogue of applications used throughout the paper's examples.

    Includes every application the paper's figures mention (skype, pine,
    thunderbird, the research application, the Windows ``Server`` service)
    plus common enterprise applications used by the workload generators.
    """
    return [
        Application(
            name="skype", path="/usr/bin/skype", version="210", vendor="skype.com",
            app_type="voip", default_port=0,
        ),
        Application(
            name="skype-old", path="/opt/old/skype", version="150", vendor="skype.com",
            app_type="voip", default_port=0, extra_keys={"name": "skype", "app-name": "skype"},
        ),
        Application(
            name="pine", path="/usr/bin/pine", version="46", vendor="uw.edu",
            app_type="email-client",
        ),
        Application(
            name="thunderbird", path="/usr/bin/thunderbird", version="3", vendor="mozilla.org",
            app_type="email-client",
        ),
        Application(
            name="research-app", path="/usr/bin/research-app", version="1", vendor="local",
            app_type="research", default_port=7777,
        ),
        Application(
            name="Server", path="C:/Windows/System32/services.exe", version="6", vendor="microsoft.com",
            app_type="windows-service", default_port=445,
        ),
        Application(
            name="smtp-server", path="/usr/sbin/sendmail", version="8", vendor="sendmail.org",
            app_type="email-server", default_port=25,
        ),
        Application(
            name="http", path="/usr/bin/firefox", version="68", vendor="mozilla.org",
            app_type="browser", default_port=0,
        ),
        Application(
            name="httpd", path="/usr/sbin/httpd", version="2", vendor="apache.org",
            app_type="web-server", default_port=80,
        ),
        Application(
            name="ssh", path="/usr/bin/ssh", version="7", vendor="openssh.org",
            app_type="remote-shell", default_port=0,
        ),
        Application(
            name="sshd", path="/usr/sbin/sshd", version="7", vendor="openssh.org",
            app_type="remote-shell-server", default_port=22,
        ),
        Application(
            name="telnet", path="/usr/bin/telnet", version="1", vendor="gnu.org",
            app_type="remote-shell",
        ),
        Application(
            name="conficker", path="/tmp/.x/conficker.exe", version="2", vendor="",
            app_type="worm",
        ),
    ]
