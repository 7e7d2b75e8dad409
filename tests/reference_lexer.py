"""The character-walking PF+=2 lexer ``repro.pf.lexer`` replaced, kept as a test oracle.

``reference_tokenize`` is the lexer the product shipped before one
compiled regular expression found its tokens: it steps through the text
a character at a time, counting lines and columns as it goes.  It is the
definition of what a token, its line and its column are — including the
quirks (a string may span lines without the line count moving; the end
token after a final comment sits at the comment's column).
``tests/test_pf_lexer_reference.py`` requires the same tokens, lines and
columns, and the same error class and position, from both.  Nothing
outside the tests may use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.exceptions import PFLexError
from repro.pf.lexer import (
    AT,
    BANG,
    COLON,
    COMMA,
    DOLLAR,
    EOF,
    EQUALS,
    LANGLE,
    LBRACE,
    LBRACKET,
    LPAREN,
    RANGLE,
    RBRACE,
    RBRACKET,
    RPAREN,
    STAR,
    STRING,
    WORD,
)

_SINGLE_CHAR_TOKENS = {
    "<": LANGLE,
    ">": RANGLE,
    "{": LBRACE,
    "}": RBRACE,
    "(": LPAREN,
    ")": RPAREN,
    "[": LBRACKET,
    "]": RBRACKET,
    ",": COMMA,
    ":": COLON,
    "!": BANG,
    "=": EQUALS,
    "$": DOLLAR,
    "@": AT,
    "*": STAR,
}

_WORD_CHARS = set(
    "abcdefghijklmnopqrstuvwxyz"
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    "0123456789"
    "._-/+"
)


@dataclass(frozen=True)
class ReferenceToken:
    """One lexical token, as the character walk made it."""

    type: str
    value: str
    line: int
    column: int


def reference_tokenize(text: str) -> list[ReferenceToken]:
    """Tokenise PF+=2 source text one character at a time."""
    return list(_tokenize_iter(text.replace("\\\r\n", " ").replace("\\\n", " ")))


def _tokenize_iter(text: str) -> Iterator[ReferenceToken]:
    line = 1
    column = 1
    index = 0
    length = len(text)
    while index < length:
        char = text[index]
        if char == "\n":
            line += 1
            column = 1
            index += 1
            continue
        if char in " \t\r":
            index += 1
            column += 1
            continue
        if char == "#":
            while index < length and text[index] != "\n":
                index += 1
            continue
        if char == '"':
            end = text.find('"', index + 1)
            if end == -1:
                raise PFLexError("unterminated string literal", line, column)
            value = text[index + 1 : end]
            yield ReferenceToken(STRING, value, line, column)
            column += end - index + 1
            index = end + 1
            continue
        if char in _SINGLE_CHAR_TOKENS:
            yield ReferenceToken(_SINGLE_CHAR_TOKENS[char], char, line, column)
            index += 1
            column += 1
            continue
        if char in _WORD_CHARS:
            start = index
            while index < length and text[index] in _WORD_CHARS:
                index += 1
            value = text[start:index]
            yield ReferenceToken(WORD, value, line, column)
            column += index - start
            continue
        raise PFLexError(f"unexpected character {char!r}", line, column)
    yield ReferenceToken(EOF, "", line, column)
