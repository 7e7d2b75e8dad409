"""Loading ``.control`` configuration files.

§3.4: "The controller's configuration files reside in a well known
location and have the ``.control`` extension.  The files are read in
alphabetical order and their contents are concatenated.  Some of these
configuration files can be written by the administrator, while others
can be provided by application developers or third-party security
companies."

:class:`RulesetLoader` implements exactly that: files are registered by
name (from memory or from a directory on disk), sorted alphabetically,
parsed and concatenated into a single :class:`~repro.pf.ast_nodes.Ruleset`.
A reload normally changes one file of several, so a registered file
carries its own parse and its own compile: :meth:`RulesetLoader.build`
lexes only the files whose text moved since the last build and
re-concatenates the rest, and the policy compiled from the result
recompiles only those files (or every file, when the merged macros or
tables moved).  The alphabetical convention is what makes the Figure 2 layout work:
``00-local-header.control`` (defaults and the ``block all``),
``50-skype.control`` (application-supplied rules) and
``99-local-footer.control`` (administrator constraints that must come
last so they win under last-match semantics).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Optional

from repro.pf.ast_nodes import Ruleset
from repro.pf.compiler import CompiledRule, compile_rules
from repro.pf.parser import parse_ruleset
from repro.pf.tables import TableSet

#: The configuration file extension the controller looks for.
CONTROL_EXTENSION = ".control"


@dataclass(frozen=True)
class ControlFile:
    """One named configuration file: immutable, so its parse and compile can be kept with it."""

    name: str
    text: str
    provenance: str = "administrator"
    # (macro values, table definitions, compiled rules): the last compile
    # of this file's rules and what it was compiled against.
    _compiled: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    @cached_property
    def ruleset(self) -> Ruleset:
        """This file's statements, parsed on first use.

        Shared by every loader the file is registered on and by every
        build: statements are copied out of it, it must not be mutated.
        A text that does not parse raises on every access.
        """
        return parse_ruleset(self.text, origin=self.name)

    def compiled_rules(
        self, macros: dict[str, str], tables: TableSet
    ) -> tuple[tuple[CompiledRule, ...], bool]:
        """Return this file's rules compiled against the merged ``macros`` and
        ``tables``, and whether this call compiled them.

        One slot beside the parse, shared like it: the rules are compiled
        again only when the macro values or table definitions differ from
        the ones they were compiled against, whichever file moved them.
        """
        kept = self._compiled
        if kept is not None and kept[0] == macros and kept[1] == tables.definitions:
            return kept[2], False
        rules = compile_rules(self.ruleset.rules(), macros, tables)
        object.__setattr__(self, "_compiled", (dict(macros), dict(tables.definitions), rules))
        return rules, True


class RulesetLoader:
    """Collects ``.control`` files and concatenates them in alphabetical order."""

    def __init__(self) -> None:
        self._files: dict[str, ControlFile] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def add_file(self, name: str, text: str, *, provenance: str = "administrator") -> ControlFile:
        """Register a configuration file by name.

        Re-registering a name replaces the previous contents (the way
        overwriting the file on disk would).
        """
        if not name.endswith(CONTROL_EXTENSION):
            name = name + CONTROL_EXTENSION
        return self.register(ControlFile(name=name, text=text, provenance=provenance))

    def register(self, control_file: ControlFile) -> ControlFile:
        """Register an already built file; returns the one now registered.

        A file equal to the one registered under its name (same text,
        same provenance) leaves that one — and its parse — in place.
        """
        registered = self._files.get(control_file.name)
        if registered != control_file:
            registered = self._files[control_file.name] = control_file
        return registered

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def file_names(self) -> list[str]:
        """Return registered file names in the order they will be concatenated."""
        return sorted(self._files)

    def files(self) -> Iterator[ControlFile]:
        """Iterate over files in concatenation (alphabetical) order."""
        for name in self.file_names():
            yield self._files[name]

    def __len__(self) -> int:
        return len(self._files)

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------

    def build(self) -> Ruleset:
        """Concatenate every registered file's statements, alphabetically.

        The result names the files as its ``parts``, so compiling it
        reuses each file's kept compile.
        """
        files = tuple(self.files())
        return Ruleset(
            [statement for control_file in files for statement in control_file.ruleset.statements],
            name="+".join(control_file.name for control_file in files),
            parts=files,
        )
