"""The regex lexer against the character walk it replaced: same tokens, same errors.

``repro.pf.lexer.tokenize`` finds tokens with one compiled regular
expression; ``tests/reference_lexer.py`` is the lexer it replaced, one
character at a time.  Both must produce the same token types, values,
lines and columns, or raise the same :class:`PFLexError` at the same
line and column, on text drawn from the language's own pieces (words,
punctuation, strings that span lines, comments, continuations, stray
characters) and on the paper's configuration files mutated a few
characters at a time.
"""

from hypothesis import example, given, settings, strategies as st

from repro.crypto.signatures import Signer
from repro.exceptions import PFLexError
from repro.pf.lexer import tokenize
from repro.workloads.paper_configs import (
    RESEARCH_REQUIREMENTS,
    THUNDERBIRD_REQUIREMENTS,
    figure2_control_files,
    figure5_research_control,
    figure7_secur_control,
    figure8_control_files,
)
from tests.reference_lexer import reference_tokenize

#: Lexemes and near-lexemes, whitespace of every kind the lexer skips or
#: rejects, and characters that can start no token.
PIECES = (
    "pass", "block", "quick", "from", "to", "any", "port", "with", "keep state",
    "192.168.0.0/24", "10.1.2.3", "MS08-067", "req-sig", "/usr/bin/skype", "+x", "_a.b",
    "<", ">", "{", "}", "(", ")", "[", "]", ",", ":", "!", "=", "$", "@", "*",
    " ", "  ", "\t", "\r", "\n", "\r\n", "\\\n", "\\\r\n", "\\", "\\ \n",
    '"', '""', '"a b"', '"{ http ssh }"', '"two\nlines"', "#", "# a comment", "#\n",
    "^", ";", "'", "é", "\f", "\v", "\x00", " ",
)

#: The paper's own configuration text, whole files.
PAPER_TEXTS = (
    *figure2_control_files().values(),
    *figure5_research_control(Signer("research", seed=3).public_key_hex).values(),
    *figure7_secur_control(Signer("Secur", seed=5).public_key_hex).values(),
    *figure8_control_files().values(),
    RESEARCH_REQUIREMENTS,
    THUNDERBIRD_REQUIREMENTS,
)

#: What a mutation may write into the text.
MUTATION_CHARS = ('"', "#", "\n", "\\", " ", "\t", "\r", "<", "a", "1", "/", "^", "é", "\x00")


def outcome(lex, text: str):
    """Every token as ``(type, value, line, column)``, or the error raised."""
    try:
        return [(t.type, t.value, t.line, t.column) for t in lex(text)]
    except PFLexError as error:
        return (type(error), str(error), error.line, error.column)


def mutate(text: str, mutations) -> str:
    for position, operation, char in mutations:
        index = position % (len(text) + 1)
        if operation == "insert":
            text = text[:index] + char + text[index:]
        elif operation == "delete":
            text = text[:index] + text[index + 1:]
        else:
            text = text[:index] + char + text[index + 1:]
    return text


generated = st.lists(st.sampled_from(PIECES), max_size=40).map("".join)
mutations = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(("insert", "delete", "replace")),
        st.sampled_from(MUTATION_CHARS),
    ),
    max_size=4,
)


class TestLexerAgreesWithTheCharacterWalk:
    @settings(max_examples=300, deadline=None)
    @given(text=generated | st.text(max_size=40))
    # A string spanning lines moves neither the line nor the column reset.
    @example(text='a = "x\ny" b\nc')
    # The end token after a final comment sits at the '#'.
    @example(text="pass all # trailing")
    @example(text='macro = "unterminated\npass all')
    @example(text="pass from any \\\r\n  to any ^")
    @example(text="")
    def test_generated_text(self, text):
        assert outcome(tokenize, text) == outcome(reference_tokenize, text)

    @settings(max_examples=150, deadline=None)
    @given(text=st.sampled_from(PAPER_TEXTS), edits=mutations)
    def test_mutated_paper_configurations(self, text, edits):
        text = mutate(text, edits)
        assert outcome(tokenize, text) == outcome(reference_tokenize, text)

    def test_paper_configurations_lex_identically(self):
        for text in PAPER_TEXTS:
            tokens = outcome(tokenize, text)
            assert isinstance(tokens, list) and tokens == outcome(reference_tokenize, text)
