"""ident++ daemon configuration files (the ``@app { ... }`` format).

Figures 3, 4 and 6 of the paper show end-host configuration files of the
form::

    @app /usr/bin/skype {
    name : skype
    version : 210
    vendor : skype.com
    type : voip
    requirements : \\
    pass from any port http \\
    with eq(@src[name], skype) \\
    pass from any port https \\
    with eq(@src[name], skype)
    req-sig : 21oir...w3eda
    }

Each ``@app`` block is keyed by the executable path; the daemon uses the
path of the process owning a queried flow to find the block whose
key/value pairs go into the response.  Values may span lines using
trailing-backslash continuation (used heavily for ``requirements``, which
hold PF+=2 rule text).  Lines outside any ``@app`` block are *global*
pairs reported for every flow (e.g. ``os-patch`` facts in Figure 8's
scenario).

Configuration files carry a provenance label ("system", "user",
"third-party:Secur", ...) because §3.5 distinguishes files "modifiable by
users" from those "only modifiable by the local end-host administrator",
and the daemon emits separate response sections per provenance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.exceptions import DaemonConfigError
from repro.identpp.keyvalue import KeyValueSection


@dataclass
class AppConfig:
    """The key/value pairs configured for one application (one ``@app`` block)."""

    path: str
    pairs: dict[str, str] = field(default_factory=dict)
    source: str = ""

    def get(self, key: str) -> Optional[str]:
        """Return the configured value for ``key``, or ``None``."""
        return self.pairs.get(key)

    def section(self) -> KeyValueSection:
        """Return the pairs as a response section labelled with the provenance."""
        label = f"{self.source or 'config'}:{self.path}"
        return KeyValueSection.from_dict(self.pairs, source=label)

    def __contains__(self, key: str) -> bool:
        return key in self.pairs


@dataclass
class DaemonConfigFile:
    """One parsed configuration file: global pairs plus per-application blocks."""

    source: str = ""
    global_pairs: dict[str, str] = field(default_factory=dict)
    app_configs: dict[str, AppConfig] = field(default_factory=dict)

    def app_for_path(self, path: str) -> Optional[AppConfig]:
        """Return the ``@app`` block for an executable path, or ``None``."""
        return self.app_configs.get(path)


def _join_continuations(text: str) -> list[str]:
    """Collapse trailing-backslash continuations into single logical lines."""
    logical: list[str] = []
    buffer = ""
    for raw_line in text.splitlines():
        line = raw_line.rstrip()
        if line.endswith("\\"):
            buffer += line[:-1].rstrip() + " "
            continue
        buffer += line
        logical.append(buffer)
        buffer = ""
    if buffer:
        logical.append(buffer)
    return logical


def _strip_comment(line: str) -> str:
    """Remove a ``#`` comment unless the ``#`` sits inside quotes."""
    in_quote = False
    for index, char in enumerate(line):
        if char == '"':
            in_quote = not in_quote
        elif char == "#" and not in_quote:
            return line[:index]
    return line


def parse_daemon_config(text: str, source: str = "") -> DaemonConfigFile:
    """Parse one configuration file in the Figure 3/4/6 format.

    Raises :class:`~repro.exceptions.DaemonConfigError` on malformed
    blocks (unterminated ``@app``, key lines without a colon, nesting).
    """
    config = DaemonConfigFile(source=source)
    current_app: Optional[AppConfig] = None
    for line_no, logical in enumerate(_join_continuations(text), start=1):
        line = _strip_comment(logical).strip()
        if not line:
            continue
        if line.startswith("@app"):
            if current_app is not None:
                raise DaemonConfigError(
                    f"{source}: nested @app block at line {line_no} "
                    f"(missing closing '}}' for {current_app.path})"
                )
            remainder = line[len("@app"):].strip()
            if not remainder.endswith("{"):
                raise DaemonConfigError(f"{source}: @app line must end with '{{' (line {line_no})")
            path = remainder[:-1].strip()
            if not path:
                raise DaemonConfigError(f"{source}: @app block without a path (line {line_no})")
            current_app = AppConfig(path=path, source=source)
            continue
        if line == "}":
            if current_app is None:
                raise DaemonConfigError(f"{source}: unexpected '}}' at line {line_no}")
            config.app_configs[current_app.path] = current_app
            current_app = None
            continue
        if ":" not in line:
            raise DaemonConfigError(f"{source}: malformed key-value line {line_no}: {logical!r}")
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if not key:
            raise DaemonConfigError(f"{source}: empty key at line {line_no}")
        if current_app is not None:
            current_app.pairs[key] = value
        else:
            config.global_pairs[key] = value
    if current_app is not None:
        raise DaemonConfigError(f"{source}: unterminated @app block for {current_app.path}")
    return config


class DaemonConfig:
    """The full configuration of one ident++ daemon, across provenances.

    The daemon reads files from two well-known locations (§3.5): the
    system configuration directory (only the local administrator can
    write there) and the user's own configuration.  Provenance matters
    because the response places pairs from different sources in
    different sections.
    """

    #: Canonical provenance labels, in the order their sections appear in
    #: a response.
    PROVENANCES = ("system", "vendor", "third-party", "user")

    def __init__(self) -> None:
        self._files: list[DaemonConfigFile] = []

    def load(self, text: str, *, source: str = "system") -> DaemonConfigFile:
        """Parse and register a configuration file with the given provenance label."""
        parsed = parse_daemon_config(text, source=source)
        self._files.append(parsed)
        return parsed

    def add_file(self, config_file: DaemonConfigFile) -> None:
        """Register an already-parsed configuration file."""
        self._files.append(config_file)

    def files(self) -> Iterator[DaemonConfigFile]:
        """Iterate over registered files in load order."""
        return iter(list(self._files))

    def global_pairs(self) -> dict[str, str]:
        """Return merged global pairs (later files override earlier ones)."""
        merged: dict[str, str] = {}
        for config_file in self._files:
            merged.update(config_file.global_pairs)
        return merged

    def sections_for_path(self, path: str) -> list[KeyValueSection]:
        """Return every configured section that applies to an executable path.

        One section per file that has an ``@app`` block for the path, in
        load order, so a later (e.g. user-provided) file appears after an
        earlier (system) one — matching the "latest value wins" lookup.
        """
        sections = []
        for config_file in self._files:
            app = config_file.app_for_path(path)
            if app is not None:
                sections.append(app.section())
        return sections

    def __len__(self) -> int:
        return len(self._files)
