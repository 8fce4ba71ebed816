"""The per-character mini-C tokenizer, kept as a naive test reference.

This is the lexer the frontend used before the single compiled-regex
:func:`repro.frontend.lexer.tokenize`.  It scans one character at a time and
tries every operator with ``str.startswith``.  The differential tests in
``test_lexer_differential.py`` check that both produce the same tokens, or
the same :class:`LexerError`, on every ASCII input.  It classifies characters
with ``str.isdigit``/``str.isalpha``, so on non-ASCII text it differs from
the production lexer (which accepts ASCII letters and digits only).
"""

from __future__ import annotations

from typing import List, Optional

from repro.frontend.lexer import KEYWORDS, OPERATORS, LexerError, Token


def naive_tokenize(source: str) -> List[Token]:
    """Convert ``source`` into a token list terminated by an ``eof`` token."""
    tokens: List[Token] = []
    line, column = 1, 1
    index = 0
    length = len(source)

    def error(message: str) -> LexerError:
        return LexerError(message, line, column)

    while index < length:
        ch = source[index]
        # Whitespace.
        if ch in " \t\r":
            index += 1
            column += 1
            continue
        if ch == "\n":
            index += 1
            line += 1
            column = 1
            continue
        # Comments.
        if source.startswith("//", index):
            while index < length and source[index] != "\n":
                index += 1
            continue
        if source.startswith("/*", index):
            end = source.find("*/", index + 2)
            if end == -1:
                raise error("unterminated block comment")
            skipped = source[index:end + 2]
            line += skipped.count("\n")
            index = end + 2
            column = 1
            continue
        # Numbers.
        if ch.isdigit():
            start = index
            while index < length and source[index].isdigit():
                index += 1
            text = source[start:index]
            tokens.append(Token("int", text, line, column))
            column += len(text)
            continue
        # Identifiers and keywords.
        if ch.isalpha() or ch == "_":
            start = index
            while index < length and (source[index].isalnum() or source[index] == "_"):
                index += 1
            text = source[start:index]
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, line, column))
            column += len(text)
            continue
        # Operators and punctuation.
        matched: Optional[str] = None
        for op in OPERATORS:
            if source.startswith(op, index):
                matched = op
                break
        if matched is None:
            raise error("unexpected character {!r}".format(ch))
        tokens.append(Token("op", matched, line, column))
        index += len(matched)
        column += len(matched)
    tokens.append(Token("eof", "", line, column))
    return tokens
