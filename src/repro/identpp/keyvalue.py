"""Key/value pairs, sections and response documents.

§3.2 of the paper: a response "contains ... a list of key-value pairs
separated by line breaks.  The list is broken up into sections delineated
by empty lines.  New sections correspond to key-value pairs from
different sources" — the user, the application, the local administrator,
and controllers on the path that augment the response.

§3.3 defines how PF+=2 reads the document:

* indexing ``@src[key]`` returns "the latest value added to the
  response" (the last section containing the key wins, because "a
  controller can overwrite or modify any responses that it sees"), and
* ``*@src[key]`` returns "a concatenation of the values in all sections",
  which lets a policy check a chain of endorsements.

:class:`ResponseDocument` implements exactly those semantics, and
:class:`KeyView` is the flat ``@src`` / ``@dst`` view a decision keeps.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.exceptions import WireFormatError

#: Separator used when concatenating ``*@src[key]`` values across sections.
CONCAT_SEPARATOR = " "


class _TrackedPairs(list):
    """A ``pairs`` list that counts its own mutations.

    ``KeyValueSection.pairs`` is a public list and callers do append to
    it directly, so the section's key index cannot rely on
    :meth:`KeyValueSection.add` being the only writer: it records the
    ``version`` it was built from and is rebuilt once the list moved on.
    """

    __slots__ = ("version",)

    def __init__(self, items=()) -> None:
        super().__init__(items)
        self.version = 0


def _counting(name: str):
    mutate = getattr(list, name)

    def method(self, *args, **kwargs):
        self.version += 1
        return mutate(self, *args, **kwargs)

    method.__name__ = name
    return method


for _name in (
    "append", "extend", "insert", "remove", "pop", "clear", "sort", "reverse",
    "__setitem__", "__delitem__", "__iadd__", "__imul__",
):
    setattr(_TrackedPairs, _name, _counting(_name))


@dataclass
class KeyValueSection:
    """One section of a response: an ordered list of key/value pairs.

    Keys may repeat *within* a section (the last occurrence wins on
    lookup, all occurrences survive serialisation).  ``source`` labels
    where the section came from ("daemon", "user", "app:/usr/bin/skype",
    "controller:branch-b") — it is not part of the wire format but makes
    audit logs and tests much clearer.

    Lookups read a ``{key: last value}`` index (first-appearance key
    order) that is rebuilt whenever ``pairs`` was mutated or replaced,
    so a lookup costs one dict read however long the section is.
    """

    pairs: list[tuple[str, str]] = field(default_factory=list)
    source: str = ""
    # (the pairs list the index was built from, its version then, the index)
    _indexed: tuple = field(default=(None, 0, None), init=False, repr=False, compare=False)

    def __setattr__(self, name: str, value) -> None:
        if name == "pairs" and type(value) is not _TrackedPairs:
            value = _TrackedPairs(value)
        object.__setattr__(self, name, value)

    @classmethod
    def from_dict(cls, mapping: dict[str, str], source: str = "") -> "KeyValueSection":
        """Build a section from a plain dictionary (insertion order preserved)."""
        return cls(pairs=[(str(k), str(v)) for k, v in mapping.items()], source=source)

    def add(self, key: str, value: str) -> None:
        """Append one key/value pair."""
        key = str(key).strip()
        if not key:
            raise WireFormatError("empty key in key-value section")
        self.pairs.append((key, str(value).strip()))

    def _index(self) -> dict[str, str]:
        """Return the shared ``{key: last value}`` index, rebuilding it when stale."""
        pairs = self.pairs
        built_from, version, index = self._indexed
        if built_from is not pairs or version != pairs.version:
            index = dict(pairs)
            self._indexed = (pairs, pairs.version, index)
        return index

    def get(self, key: str) -> Optional[str]:
        """Return the last value recorded for ``key`` in this section, or ``None``."""
        return self._index().get(key)

    def __len__(self) -> int:
        return len(self.pairs)

    def __bool__(self) -> bool:
        return bool(self.pairs)

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(self.pairs)


class AnswerTemplate:
    """What every answer of one identity shares, built once (§3.2, §3.5).

    A daemon's answer is the same sections for every flow of one
    (user, application) but for one value, the answering process's
    ``pid``.  The template holds those sections as ``(source, pairs)``
    with the value at ``slot`` (section, pair) left to each answer, and
    the document's flat ``{key: latest value}`` view as a keys tuple, a
    values tuple (with the value of the answer the template was built
    from) and a key index.  ``at`` is the flat position the per-answer
    value shows at, ``None`` when it shows nowhere (no slot, or a later
    section has its key).  ``frame`` is that flat view as a
    :class:`KeyView`, which every answer's view shares.
    """

    __slots__ = ("sections", "slot", "keys", "values", "index", "at", "frame")

    def __init__(self, sections: list[KeyValueSection], slot: Optional[tuple[int, int]] = None) -> None:
        # Empty sections are kept out, as ResponseDocument.add_section
        # does; a slot is in the first section, which is never empty.
        kept = [section for section in sections if section]
        self.sections = tuple((section.source, tuple(section.pairs)) for section in kept)
        self.slot = slot
        flat: dict[str, str] = {}
        winner: dict[str, tuple[int, int]] = {}
        for number, (_, pairs) in enumerate(self.sections):
            flat.update(pairs)
            for position, (key, _) in enumerate(pairs):
                winner[key] = (number, position)
        self.keys = tuple(flat)
        self.values = tuple(flat.values())
        self.index = {key: position for position, key in enumerate(self.keys)}
        self.at = None
        if slot is not None:
            key = self.sections[slot[0]][1][slot[1]][0]
            if winner[key] == slot:
                self.at = self.index[key]
        self.frame = KeyView(self.keys, self.values) if self.keys else EMPTY_KEYS

    def document(self, value: Optional[str]) -> "ResponseDocument":
        """Return one answer's document: these sections with ``value`` at the slot."""
        document = _new_document(ResponseDocument)
        document._sections = None
        document._template = self
        document._value = value
        return document

    def build_sections(self, value: Optional[str]) -> list[KeyValueSection]:
        """Return fresh sections of one answer (the caller may mutate them)."""
        sections = [KeyValueSection(pairs=list(pairs), source=source) for source, pairs in self.sections]
        if self.slot is not None:
            number, position = self.slot
            pairs = sections[number].pairs
            pairs[position] = (pairs[position][0], value)
        return sections


_new_document = object.__new__


class ResponseDocument:
    """An ordered list of :class:`KeyValueSection` objects.

    Section order is provenance order: the sections supplied by the
    queried end-host come first, and each controller that augments the
    response appends a new section at the end (§3.4: "the controller
    inserts an empty line followed by the key-value pairs it wishes to
    add").

    A daemon's answer is an :class:`AnswerTemplate` and its one value
    (:meth:`AnswerTemplate.document`): ``@src[key]`` is then one index
    read, and the sections are built the first time a reader asks for
    them (wire encoding, an interceptor's augment, ``*@src[key]``).
    From then on the sections are the document.
    """

    __slots__ = ("_sections", "_template", "_value")

    def __init__(self, sections: Optional[list[KeyValueSection]] = None) -> None:
        self._sections: Optional[list[KeyValueSection]] = list(sections or [])
        self._template: Optional[AnswerTemplate] = None
        self._value: Optional[str] = None

    @property
    def sections(self) -> list[KeyValueSection]:
        """The document's sections, built from its template on first use."""
        template = self._template
        if template is not None:
            self._sections = template.build_sections(self._value)
            self._template = None
        return self._sections

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------

    def add_section(self, section: KeyValueSection | dict[str, str], source: str = "") -> KeyValueSection:
        """Append a section (dicts are converted).  Empty sections are kept out."""
        if isinstance(section, dict):
            section = KeyValueSection.from_dict(section, source=source)
        elif source and not section.source:
            section.source = source
        if section:
            self.sections.append(section)
        return section

    def augment(self, pairs: dict[str, str], source: str = "controller") -> KeyValueSection:
        """Append a new section the way an on-path controller does (§3.4)."""
        return self.add_section(KeyValueSection.from_dict(pairs, source=source))

    # ------------------------------------------------------------------
    # PF+=2 lookup semantics
    # ------------------------------------------------------------------

    def latest(self, key: str) -> Optional[str]:
        """Return the most recently added value for ``key`` (``@src[key]`` semantics).

        "Indexing the dictionaries will give the latest value added to
        the response" (§3.3) — i.e. the last section wins.  One index
        read per section, newest first; one read in all over a template.
        """
        template = self._template
        if template is not None:
            at = template.index.get(key)
            if at is None:
                return None
            return self._value if at == template.at else template.values[at]
        for section in reversed(self._sections):
            value = section.get(key)
            if value is not None:
                return value
        return None

    def concatenated(self, key: str) -> str:
        """Return all values for ``key`` joined in section order (``*@src[key]`` semantics)."""
        return CONCAT_SEPARATOR.join(self.all_values(key))

    def all_values(self, key: str) -> list[str]:
        """Return every value recorded for ``key`` in section order."""
        values = [section.get(key) for section in self.sections]
        return [value for value in values if value is not None]

    def as_flat_dict(self) -> dict[str, str]:
        """Return a {key: latest value} dictionary (the ``@src``/``@dst`` view).

        One ordered pass: keys in first-appearance order, the last
        section (and within it the last duplicate) supplying the value.
        """
        template = self._template
        if template is not None:
            flat = dict(zip(template.keys, template.values))
            if template.at is not None:
                flat[template.keys[template.at]] = self._value
            return flat
        flat: dict[str, str] = {}
        for section in self._sections:
            flat.update(section.pairs)
        return flat

    def section_count(self) -> int:
        """Return the number of sections."""
        return len(self)

    # ------------------------------------------------------------------
    # Serialisation (body only; the first line of the wire format is
    # handled by repro.identpp.wire)
    # ------------------------------------------------------------------

    def to_body(self) -> str:
        """Serialise the sections to the ``key: value`` / blank-line body format."""
        blocks = []
        for section in self.sections:
            lines = [f"{key}: {value}" for key, value in section.pairs]
            blocks.append("\n".join(lines))
        return "\n\n".join(blocks)

    @classmethod
    def from_body(cls, body: str) -> "ResponseDocument":
        """Parse a body produced by :meth:`to_body` (or written by hand)."""
        document = cls()
        current = KeyValueSection()
        for raw_line in body.splitlines():
            line = raw_line.rstrip()
            if not line.strip():
                if current:
                    document._sections.append(current)
                    current = KeyValueSection()
                continue
            if ":" not in line:
                raise WireFormatError(f"malformed key-value line: {raw_line!r}")
            key, _, value = line.partition(":")
            current.add(key.strip(), value.strip())
        if current:
            document._sections.append(current)
        return document

    def __len__(self) -> int:
        template = self._template
        return len(self._sections if template is None else template.sections)

    def __bool__(self) -> bool:
        template = self._template
        return any(self._sections) if template is None else bool(template.sections)

    def __repr__(self) -> str:
        return f"ResponseDocument(sections={len(self)}, keys={list(self.as_flat_dict())})"


class _View(Mapping):
    """The ``Mapping`` side of an identity view, in key order: a
    :class:`KeyView` holds its keys tuple, a :class:`_OneValueView`
    reads its keyframe's."""

    __slots__ = ()

    def _frame(self) -> "KeyView":
        """The full view a one-value view of this one is taken against."""
        return self

    def __iter__(self) -> Iterator[str]:
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __hash__(self) -> int:
        return hash(frozenset(self.items()))

    def __repr__(self) -> str:
        return f"KeyView({dict(self)!r})"


class KeyView(_View):
    """An immutable ``{key: latest value}`` view of a document, as two tuples.

    Same content and key order as :meth:`ResponseDocument.as_flat_dict`.
    Every decision keeps the views of both ends for its audit record,
    and a stream of them is mostly the same answer over and over, so
    :meth:`of` lets a new view share what it can with the previous one:
    the very object when nothing moved, the previous view's keyframe
    and the one value that moved when one did (a source's ``pid``), the
    keys tuple when more did.  Compares equal to a dict with the same
    items.
    """

    __slots__ = ("_keys", "_values")

    def __init__(self, keys: tuple[str, ...] = (), values: tuple[str, ...] = ()) -> None:
        self._keys = keys
        self._values = values

    @classmethod
    def of(cls, document: ResponseDocument, last: _View) -> _View:
        """Return ``document``'s view: ``last`` itself when the content is
        the same (or its keyframe's), a :class:`_OneValueView` of
        ``last``'s keyframe when exactly one of the keyframe's values
        moved, and a view sharing ``last``'s keys tuple when more did.

        A document over an :class:`AnswerTemplate` takes the template's
        frame with its one value swapped in, whatever ``last`` is."""
        template = document._template
        if template is not None:
            frame = template.frame
            at = template.at
            value = document._value
            if at is None or value == frame._values[at]:
                return frame
            if type(last) is _OneValueView and last._keyframe is frame and last._value == value:
                return last
            return _OneValueView(frame, at, value)
        flat = document.as_flat_dict()
        keys, values = tuple(flat), tuple(flat.values())
        frame = last._frame()
        if keys == frame._keys:
            frame_values = frame._values
            if values == frame_values:
                return frame
            if last is not frame:
                # Most often the value that moved is the one ``last`` holds.
                at = last._at
                if values[:at] == frame_values[:at] and values[at + 1:] == frame_values[at + 1:]:
                    return last if values[at] == last._value else _OneValueView(frame, at, values[at])
            moved = [at for at, (old, new) in enumerate(zip(frame_values, values)) if old != new]
            if len(moved) == 1:
                return _OneValueView(frame, moved[0], values[moved[0]])
            keys = frame._keys
        elif not keys:
            return EMPTY_KEYS
        return cls(keys, values)

    def __getitem__(self, key: str) -> str:
        try:
            return self._values[self._keys.index(key)]
        except ValueError:
            raise KeyError(key) from None


class _OneValueView(_View):
    """A view equal to a full view but for the value at one position.

    What a stream of one source's answers mostly is: the same keys and
    values, a new ``pid`` each time.  The keyframe is always a full
    :class:`KeyView`, so a view never chains through another delta.
    """

    __slots__ = ("_keyframe", "_at", "_value")

    def __init__(self, keyframe: KeyView, at: int, value: str) -> None:
        self._keyframe = keyframe
        self._at = at
        self._value = value

    @property
    def _keys(self) -> tuple[str, ...]:
        return self._keyframe._keys

    def _frame(self) -> KeyView:
        return self._keyframe

    def __getitem__(self, key: str) -> str:
        try:
            at = self._keyframe._keys.index(key)
        except ValueError:
            raise KeyError(key) from None
        return self._value if at == self._at else self._keyframe._values[at]


#: The view of no document (a cache hit or a fail-closed verdict saw none).
EMPTY_KEYS = KeyView()
