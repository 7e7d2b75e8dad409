"""Lexer for PF+=2.

The lexer is deliberately newline-insensitive: the paper's configuration
files make heavy use of trailing-backslash line continuations (every
multi-line rule in Figures 2–8), so by the time rule text reaches the
parser, line structure carries no meaning — rules are delimited by their
leading ``pass`` / ``block`` action keywords instead.

Comments run from ``#`` to end of line.  Quoted strings keep their inner
whitespace (used by macros such as ``allowed = "{ http ssh }"``) and may
span lines; a line break inside a string does not advance the line count.

One compiled regular expression finds every token, so a 1 001-rule file
costs one match per token rather than a Python step per character.  The
character walk it replaced is the test oracle
(``tests/reference_lexer.py``): same tokens, lines, columns and errors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.exceptions import PFLexError

# Token types.
WORD = "WORD"
STRING = "STRING"
LANGLE = "LANGLE"
RANGLE = "RANGLE"
LBRACE = "LBRACE"
RBRACE = "RBRACE"
LPAREN = "LPAREN"
RPAREN = "RPAREN"
LBRACKET = "LBRACKET"
RBRACKET = "RBRACKET"
COMMA = "COMMA"
COLON = "COLON"
BANG = "BANG"
EQUALS = "EQUALS"
DOLLAR = "DOLLAR"
AT = "AT"
STAR = "STAR"
EOF = "EOF"

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

#: One alternative per kind of lexeme, most frequent first; spaces, tabs
#: and carriage returns match nothing and are skipped.  A bare WORD is an
#: identifier, a key name with dashes (``req-sig``, ``os-patch``), a
#: number, an IPv4 address or CIDR prefix, a signature/hash blob, a
#: domain name or an executable path.  The last alternative catches what
#: can start no token: a ``"`` with no closing quote, or a stray character.
_TOKEN_RE = re.compile(
    r"([A-Za-z0-9._/+-]+)"  # 1: WORD
    r"|([<>{}()\[\],:!=$@*])"  # 2: a single-character token
    r"|(\n)"  # 3: a line break
    r'|"([^"]*)"'  # 4: STRING, possibly spanning lines
    r"|(#[^\n]*)"  # 5: a comment
    r"|([^ \t\r])"  # 6: an error
)


@dataclass(slots=True)
class Token:
    """One lexical token."""

    type: str
    value: str
    line: int
    column: int

    def is_word(self, *values: str) -> bool:
        """Return ``True`` if this is a WORD token equal to any of ``values`` (case-insensitive)."""
        if self.type != WORD:
            return False
        word = self.value.lower()
        for value in values:
            if value.lower() == word:
                return True
        return False

    def __repr__(self) -> str:
        return f"Token({self.type}, {self.value!r}, line {self.line})"


def tokenize(text: str) -> list[Token]:
    """Tokenise PF+=2 source text.

    Backslash-newline continuations become plain spaces first.  Raises
    :class:`~repro.exceptions.PFLexError` on characters that cannot start
    a token.
    """
    text = text.replace("\\\r\n", " ").replace("\\\n", " ")
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    # Index just past the last counted line break: a column is the
    # distance from it, so a string spanning lines runs the column on.
    line_start = 0
    end = length = len(text)
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastindex
        if kind == 1:
            append(Token(WORD, match.group(1), line, match.start() - line_start + 1))
        elif kind == 2:
            char = match.group(2)
            append(Token(_SINGLE_CHAR_TOKENS[char], char, line, match.start() - line_start + 1))
        elif kind == 3:
            line += 1
            line_start = match.end()
        elif kind == 4:
            append(Token(STRING, match.group(4), line, match.start() - line_start + 1))
        elif kind == 5:
            if match.end() == length:
                # The end token of text closing on a comment sits at the '#'.
                end = match.start()
        else:
            char = match.group(6)
            column = match.start() - line_start + 1
            if char == '"':
                raise PFLexError("unterminated string literal", line, column)
            raise PFLexError(f"unexpected character {char!r}", line, column)
    append(Token(EOF, "", line, end - line_start + 1))
    return tokens
