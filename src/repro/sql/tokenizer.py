"""Lexical analysis for the SQL dialect understood by the CQMS.

The tokenizer is deliberately standalone (no third-party dependency) because
the Query Profiler must be able to shred every incoming query with very low
overhead (paper Section 2.1), and the assisted-interaction client needs to
tokenize partially written queries that may end mid-clause.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from repro.errors import TokenizeError


class TokenType(enum.Enum):
    """Classification of a lexical token."""

    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCTUATION = "punctuation"
    PARAMETER = "parameter"
    EOF = "eof"


#: Reserved words recognised as keywords (upper-cased).  Anything else that
#: looks like a word is an identifier.
KEYWORDS = frozenset(
    {
        "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT",
        "OFFSET", "AS", "AND", "OR", "NOT", "IN", "IS", "NULL", "LIKE",
        "BETWEEN", "EXISTS", "DISTINCT", "JOIN", "INNER", "LEFT", "RIGHT",
        "FULL", "OUTER", "CROSS", "ON", "UNION", "ALL", "INSERT", "INTO",
        "VALUES", "UPDATE", "SET", "DELETE", "CREATE", "TABLE", "DROP",
        "ALTER", "ADD", "COLUMN", "RENAME", "TO", "PRIMARY", "KEY", "UNIQUE",
        "ASC", "DESC", "CASE", "WHEN", "THEN", "ELSE", "END", "TRUE", "FALSE",
        "COUNT", "SUM", "AVG", "MIN", "MAX", "CAST", "INDEX", "IF",
    }
)

#: Multi-character operators, longest first so that e.g. ``<=`` wins over ``<``.
_MULTI_CHAR_OPERATORS = ("<>", "<=", ">=", "!=", "||")
_SINGLE_CHAR_OPERATORS = "=<>+-*/%"
_PUNCTUATION = "(),.;"
#: A number: ASCII digits with an optional fraction, or a bare fraction, and
#: an exponent only when digits follow its ``e`` (``1e`` reads as ``1`` and the
#: identifier ``e``), so a NUMBER token converts with ``int`` or ``float``
#: (``parser.number_value`` raises ``ParseError`` past ``int``'s digit limit).
_NUMBER = re.compile(r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


@dataclass(frozen=True)
class Token:
    """A single lexical token.

    Attributes
    ----------
    type:
        The :class:`TokenType` of the token.
    value:
        The token text.  Keywords are upper-cased; identifiers keep their
        original case (SQL identifiers are matched case-insensitively later);
        string literals are stored *without* the surrounding quotes.
    position:
        Character offset of the first character of the token in the input.
    """

    type: TokenType
    value: str
    position: int

    def is_keyword(self, *names: str) -> bool:
        """Return True when this token is one of the given keywords."""
        return self.type is TokenType.KEYWORD and self.value in names

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.type.name}, {self.value!r}@{self.position})"


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text`` into a list of :class:`Token`.

    The returned list always ends with a single ``EOF`` token, which
    simplifies the parser's lookahead logic.

    Raises
    ------
    TokenizeError
        If an unterminated string literal or an illegal character is found.
    """
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and i + 1 < n and text[i + 1] == "-":
            # Line comment: skip to end of line.
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            end = text.find("*/", i + 2)
            if end == -1:
                raise TokenizeError("unterminated block comment", position=i)
            i = end + 2
            continue
        if ch == "'":
            token, i = _read_string(text, i)
            tokens.append(token)
            continue
        if ch == '"':
            token, i = _read_quoted_identifier(text, i)
            tokens.append(token)
            continue
        if "0" <= ch <= "9" or (ch == "." and i + 1 < n and "0" <= text[i + 1] <= "9"):
            number = _NUMBER.match(text, i)
            tokens.append(Token(TokenType.NUMBER, number.group(), i))
            i = number.end()
            continue
        if ch.isalpha() or ch == "_":
            token, i = _read_word(text, i)
            tokens.append(token)
            continue
        if ch == "?":
            tokens.append(Token(TokenType.PARAMETER, "?", i))
            i += 1
            continue
        multi = _match_multi_char_operator(text, i)
        if multi is not None:
            tokens.append(Token(TokenType.OPERATOR, multi, i))
            i += len(multi)
            continue
        if ch in _SINGLE_CHAR_OPERATORS:
            tokens.append(Token(TokenType.OPERATOR, ch, i))
            i += 1
            continue
        if ch in _PUNCTUATION:
            tokens.append(Token(TokenType.PUNCTUATION, ch, i))
            i += 1
            continue
        raise TokenizeError(f"illegal character {ch!r}", position=i)
    tokens.append(Token(TokenType.EOF, "", n))
    return tokens


def _match_multi_char_operator(text: str, i: int) -> str | None:
    for op in _MULTI_CHAR_OPERATORS:
        if text.startswith(op, i):
            return op
    return None


def _read_string(text: str, start: int) -> tuple[Token, int]:
    """Read a single-quoted string literal; ``''`` escapes a quote."""
    i = start + 1
    parts: list[str] = []
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "'":
            if i + 1 < n and text[i + 1] == "'":
                parts.append("'")
                i += 2
                continue
            return Token(TokenType.STRING, "".join(parts), start), i + 1
        parts.append(ch)
        i += 1
    raise TokenizeError("unterminated string literal", position=start)


def _read_quoted_identifier(text: str, start: int) -> tuple[Token, int]:
    """Read a double-quoted identifier."""
    i = start + 1
    parts: list[str] = []
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == '"':
            return Token(TokenType.IDENTIFIER, "".join(parts), start), i + 1
        parts.append(ch)
        i += 1
    raise TokenizeError("unterminated quoted identifier", position=start)


def _read_word(text: str, start: int) -> tuple[Token, int]:
    i = start
    n = len(text)
    while i < n and (text[i].isalnum() or text[i] == "_"):
        i += 1
    word = text[start:i]
    upper = word.upper()
    if upper in KEYWORDS:
        return Token(TokenType.KEYWORD, upper, start), i
    return Token(TokenType.IDENTIFIER, word, start), i


def strip_comments(text: str) -> str:
    """Return ``text`` with SQL comments removed (whitespace preserved).

    Used by the profiler when storing raw query text so that meta-query
    substring search does not match inside comments.  A block comment between
    two non-space characters leaves one space, as it separates tokens:
    ``SELECT/**/name`` reads ``SELECT name``, so the result tokenizes as the
    text does.
    """
    out: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "'":
            token, j = _read_string(text, i)
            out.append(text[i:j])
            i = j
            continue
        if ch == "-" and i + 1 < n and text[i + 1] == "-":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            end = text.find("*/", i + 2)
            if end == -1:
                raise TokenizeError("unterminated block comment", position=i)
            i = end + 2
            if out and not out[-1][-1].isspace() and i < n and not text[i].isspace():
                out.append(" ")
            continue
        out.append(ch)
        i += 1
    return "".join(out)
