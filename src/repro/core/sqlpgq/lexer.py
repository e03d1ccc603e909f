"""Tokenizer for the SQL/PGQ subset."""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.errors import ParseError

KEYWORDS = {
    "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "LIMIT",
    "AS", "ON", "JOIN", "AND", "OR", "NOT", "LIKE", "IN", "BETWEEN", "IS",
    "NULL", "ASC", "DESC", "GRAPH_TABLE", "MATCH", "COLUMNS", "CREATE",
    "PROPERTY", "GRAPH", "VERTEX", "EDGE", "TABLES", "KEY", "SOURCE",
    "DESTINATION", "REFERENCES", "REFERENCE", "LABEL", "PROPERTIES",
    "MIN", "MAX", "COUNT", "SUM", "AVG", "TRUE", "FALSE", "STARTS", "WITH",
    "ID",
}

SYMBOLS = [
    "<=", ">=", "<>", "->", "<-", "(", ")", "[", "]", ",", ".", "=", "<",
    ">", "+", "-", "*", "/", "%", ";", ":",
]


class Token(NamedTuple):
    kind: str  # "KEYWORD" | "IDENT" | "NUMBER" | "STRING" | "PARAM" | "SYMBOL" | "EOF"
    value: str
    line: int
    column: int

    def is_keyword(self, *names: str) -> bool:
        return self.kind == "KEYWORD" and self.value in names

    def is_symbol(self, *symbols: str) -> bool:
        return self.kind == "SYMBOL" and self.value in symbols


#: One alternation tried at the cursor, in the order the cases are decided:
#: newline (counted), other whitespace, ``--`` comment to end of line, a
#: quoted string with ``''`` escapes (possessive, so an unterminated string
#: fails at its opening quote instead of backtracking to an earlier ``''``),
#: a number (decimal digits, one fractional part only when a digit follows
#: the dot), a ``?`` placeholder, a word, a symbol (two-character ones
#: first), and any other single character, which is an error.
_TOKEN = re.compile(
    r"(?P<newline>\n)"
    r"|(?P<space>[^\S\n]+)"
    r"|(?P<comment>--[^\n]*)"
    r"|(?P<STRING>'(?:[^']|'')*+')"
    r"|(?P<NUMBER>\d+(?:\.\d+)?)"
    r"|(?P<PARAM>\?)"
    r"|(?P<word>\w+)"
    r"|(?P<SYMBOL>"
    + "|".join(re.escape(symbol) for symbol in SYMBOLS)
    + r")"
    r"|(?P<error>[\s\S])"
)


def tokenize(text: str) -> list[Token]:
    """``text`` as tokens ending in EOF; lines and columns count from 1.

    A word is a KEYWORD (value upper-cased) or an IDENT and must start with
    a letter or ``_``; a STRING's value has its quotes removed and ``''``
    unescaped.  Raises :class:`ParseError` at the offending character.
    """
    tokens: list[Token] = []
    line = 1
    line_start = 0
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind == "space" or kind == "comment":
            continue
        start = match.start()
        if kind == "newline":
            line += 1
            line_start = start + 1
            continue
        value = match.group()
        column = start - line_start + 1
        if kind == "word":
            if not (value[0].isalpha() or value[0] == "_"):
                raise ParseError(f"unexpected character {value[0]!r}", line, column)
            upper = value.upper()
            if upper in KEYWORDS:
                tokens.append(Token("KEYWORD", upper, line, column))
            else:
                tokens.append(Token("IDENT", value, line, column))
        elif kind == "STRING":
            tokens.append(Token("STRING", value[1:-1].replace("''", "'"), line, column))
        elif kind == "error":
            if value == "'":
                raise ParseError("unterminated string literal", line, column)
            raise ParseError(f"unexpected character {value!r}", line, column)
        else:
            tokens.append(Token(kind, value, line, column))
    tokens.append(Token("EOF", "", line, len(text) - line_start + 1))
    return tokens
