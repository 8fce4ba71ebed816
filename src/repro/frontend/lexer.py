"""Tokenizer for the mini-C language.

One compiled master regex recognises every token.  Its alternatives are
tried in order: a newline, an identifier or keyword, an ASCII integer, a
``//`` comment, a closed ``/* ... */`` comment, an unclosed ``/*``, the
operators longest first, the end of the text, and a catch-all bad
character.  Each alternative may be preceded by blanks (space, tab, carriage
return), so one match is one token.  Columns are counted from the offset
where the current line starts.

Two column rules are historical and kept on purpose: a block comment
restarts column counting at 1 right after its ``*/``, and the ``eof`` token
after a trailing ``//`` comment takes the column where that comment starts.

Letters and digits are ASCII only.  Any other character, a non-ASCII digit
such as ``²`` included, raises :class:`LexerError` with its line and column.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

KEYWORDS = {
    "int", "void", "if", "else", "while", "for", "return", "break", "continue",
}

# Multi-character operators must be listed before their prefixes.
OPERATORS = [
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=",
    "++", "--",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^",
    "(", ")", "{", "}", "[", "]", ";", ",",
]


class LexerError(Exception):
    """Raised on malformed input text."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__("{} (line {}, column {})".format(message, line, column))
        self.message = message
        self.line = line
        self.column = column

    def __reduce__(self):
        # Pickle by constructor arguments: the default reduction replays
        # ``self.args`` (the formatted text alone), which cannot rebuild the
        # error — a pool's result thread would die unpickling it.
        return type(self), (self.message, self.line, self.column)


class Token(NamedTuple):
    """One lexical token."""

    kind: str        # "int", "ident", "keyword", "op", "eof"
    text: str
    line: int
    column: int

    def is_op(self, text: str) -> bool:
        return self.kind == "op" and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind == "keyword" and self.text == text


# Longer operators first, then one class for the single characters.
_OPERATOR_PATTERN = "|".join(
    [re.escape(op) for op in sorted(OPERATORS, key=len, reverse=True) if len(op) > 1]
    + ["[" + re.escape("".join(op for op in OPERATORS if len(op) == 1)) + "]"])

_TOKEN = re.compile(
    r"[ \t\r]*(?:"
    r"(?P<newline>\n)"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<int>[0-9]+)"
    r"|(?P<line_comment>//[^\n]*)"
    r"|(?P<block_comment>/\*.*?\*/)"
    r"|(?P<open_comment>/\*)"
    r"|(?P<op>" + _OPERATOR_PATTERN + r")"
    r"|(?P<end>\Z)"
    r"|(?P<bad>.))",
    re.DOTALL,
)


def tokenize(source: str) -> List[Token]:
    """Convert ``source`` into a token list terminated by an ``eof`` token."""
    tokens: List[Token] = []
    append = tokens.append
    line = 1
    line_start = 0      # offset of column 1 on the current line
    eof = len(source)   # offset of the eof token
    for match in _TOKEN.finditer(source):
        group = match.lastgroup
        start, end = match.span(group)
        if group == "op":
            append(Token("op", match[group], line, start - line_start + 1))
        elif group == "word":
            text = match[group]
            kind = "keyword" if text in KEYWORDS else "ident"
            append(Token(kind, text, line, start - line_start + 1))
        elif group == "int":
            append(Token("int", match[group], line, start - line_start + 1))
        elif group == "newline":
            line += 1
            line_start = end
        elif group == "end":
            break
        elif group == "line_comment":
            if end == eof:      # eof takes a trailing comment's column
                eof = start
        elif group == "block_comment":
            line += source.count("\n", start, end)
            line_start = end
        elif group == "open_comment":
            raise LexerError("unterminated block comment", line, start - line_start + 1)
        else:
            raise LexerError("unexpected character {!r}".format(match[group]),
                             line, start - line_start + 1)
    append(Token("eof", "", line, eof - line_start + 1))
    return tokens
