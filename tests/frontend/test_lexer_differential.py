"""Differential tests: the regex lexer against the per-character reference.

On every ASCII input both lexers must give the same token tuples, or raise
:class:`LexerError` with the same message, line and column.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend.lexer import KEYWORDS, OPERATORS, LexerError, tokenize
from tests.frontend.naive_lexer import naive_tokenize
from tests.helpers import perfbench_sources


def _outcome(lex, source):
    try:
        return lex(source)
    except LexerError as error:
        return (str(error), error.line, error.column)


@pytest.mark.parametrize("seed", range(3))
def test_benchmark_sources_lex_identically(seed):
    for name, source in perfbench_sources([seed]):
        assert tokenize(source) == naive_tokenize(source), name


@pytest.mark.parametrize("source", [
    "",
    "x",
    "a // trailing comment",
    "a // comment\n  b",
    "a /* inline */ b",
    "/* two\nlines */ c d",
    "/*/ still open */ x",
    "a/**/b",
    "<<= >>= &&& ||| +++ --- /=/",
    "  \t\r",
    "x\r\n\ty",
    "123abc _9 __",
    "a @ b",
    "/* never closed",
    "//",
    "\n\n/* x */",
])
def test_edge_cases_lex_identically(source):
    assert _outcome(tokenize, source) == _outcome(naive_tokenize, source)


_WORDS = st.sampled_from(sorted(KEYWORDS)) | st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}",
                                                           fullmatch=True)
_FRAGMENTS = st.one_of(
    _WORDS,
    st.from_regex(r"[0-9]{1,5}", fullmatch=True),
    st.sampled_from(OPERATORS),
    st.sampled_from([" ", "  ", "\t", "\r", "\n", "\r\n"]),
    st.from_regex(r"//[ -~]{0,8}", fullmatch=True),
    st.from_regex(r"/\*[ -~\n]{0,10}\*/", fullmatch=True),
    st.just("/*"),
    st.sampled_from(["@", "#", "$", "`", "\\", "'", '"', "?", ":", "~", ".",
                     "\x00", "\x0b", "\x0c", "\x7f"]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_FRAGMENTS, max_size=24).map("".join))
def test_random_ascii_texts_lex_identically(source):
    assert _outcome(tokenize, source) == _outcome(naive_tokenize, source)
