"""Character-loop formula scanner: the differential oracle for ``cellgauge.lexer``.

Reference implementation of the token stream contract, written one
character at a time; the master-pattern scanner in ``cellgauge.lexer`` must
produce identical tokens and errors for every input.
"""

from __future__ import annotations

from typing import NamedTuple

from cellgauge.tokens import (
    ERROR_LITERALS,
    MAX_COL,
    MAX_ROW,
    LexError,
    TokenKind,
)


class Token(NamedTuple):
    """One scanned token, with its fields named; ``cellgauge.lexer.tokenize``
    returns the same four fields as a plain tuple."""

    kind: TokenKind
    lexeme: str
    start: int
    end: int


_KIND_NUMBER = TokenKind.NUMBER
_KIND_STRING = TokenKind.STRING
_KIND_BOOLEAN = TokenKind.BOOLEAN
_KIND_ERROR = TokenKind.ERROR_LITERAL
_KIND_IDENT = TokenKind.IDENTIFIER
_KIND_CELL = TokenKind.CELL_REF
_KIND_OP = TokenKind.OPERATOR
_KIND_LPAREN = TokenKind.LPAREN
_KIND_RPAREN = TokenKind.RPAREN
_KIND_COMMA = TokenKind.COMMA
_KIND_COLON = TokenKind.COLON
_KIND_BANG = TokenKind.EXCLAMATION


def _is_digit(c: str) -> bool:
    return "0" <= c <= "9"


def _is_alpha(c: str) -> bool:
    return "A" <= c <= "Z" or "a" <= c <= "z"


def _is_name_char(c: str) -> bool:
    # Unquoted names: ASCII letters/digits, _ . \ $, plus any non-ASCII
    # codepoint (defined names and sheet names may carry unicode letters).
    return _is_alpha(c) or _is_digit(c) or c in "_.\\$" or ord(c) > 127


def classify_name(lexeme: str) -> TokenKind:
    """Decide cellRef / boolean / identifier for a name-shaped lexeme.

    A lexeme is a cell reference when it matches ``$?LL$?digits`` with 1-3
    ASCII letters, no leading zero in the row, and both axes within the grid
    bounds; anything longer (e.g. XFE1) is a plain name, mirroring how
    spreadsheet software disambiguates.
    """
    n = len(lexeme)
    i = 0
    if i < n and lexeme[i] == "$":
        i += 1
    letters_start = i
    while i < n and _is_alpha(lexeme[i]):
        i += 1
    letters = lexeme[letters_start:i]
    if 1 <= len(letters) <= 3:
        if i < n and lexeme[i] == "$":
            i += 1
        digits_start = i
        while i < n and _is_digit(lexeme[i]):
            i += 1
        digits = lexeme[digits_start:i]
        if i == n and digits and digits[0] != "0":
            col = 0
            for ch in letters:
                col = col * 26 + (ord(ch.upper()) - 64)
            if col <= MAX_COL and int(digits) <= MAX_ROW:
                return _KIND_CELL
    if lexeme.upper() in ("TRUE", "FALSE"):
        return _KIND_BOOLEAN
    return _KIND_IDENT


def scan(text: str) -> list[Token]:
    """Scan a formula body into tokens.

    Whitespace is skipped but preserved in token spans: the source between
    consecutive spans is whitespace only. Raises LexError on an unterminated
    string/quote or an illegal character.
    """
    tokens: list[Token] = []
    n = len(text)
    i = 0
    while i < n:
        c = text[i]
        if c == " " or c == "\t" or c == "\r" or c == "\n":
            i += 1
            continue
        start = i
        if c == '"':
            i += 1
            while True:
                if i >= n:
                    raise LexError("unterminated string", start)
                if text[i] == '"':
                    if i + 1 < n and text[i + 1] == '"':
                        i += 2  # doubled quote escape
                        continue
                    i += 1
                    break
                i += 1
            tokens.append(Token(_KIND_STRING, text[start:i], start, i))
        elif c == "'":
            # Quoted sheet name, '' doubling; lexeme keeps the quotes.
            i += 1
            while True:
                if i >= n:
                    raise LexError("unterminated sheet name quote", start)
                if text[i] == "'":
                    if i + 1 < n and text[i + 1] == "'":
                        i += 2
                        continue
                    i += 1
                    break
                i += 1
            tokens.append(Token(_KIND_IDENT, text[start:i], start, i))
        elif c == "[":
            # External workbook prefix: [book]sheet scans as one identifier.
            i += 1
            while i < n and text[i] != "]":
                i += 1
            if i >= n:
                raise LexError("unterminated external reference bracket", start)
            i += 1
            while i < n and _is_name_char(text[i]):
                i += 1
            tokens.append(Token(_KIND_IDENT, text[start:i], start, i))
        elif c == "#":
            upper = text[i : i + 8].upper()
            for lit in ERROR_LITERALS:
                if upper.startswith(lit):
                    end = i + len(lit)
                    tokens.append(Token(_KIND_ERROR, text[start:end], start, end))
                    i = end
                    break
            else:
                raise LexError("illegal character '#'", start)
        elif _is_digit(c) or (c == "." and i + 1 < n and _is_digit(text[i + 1])):
            while i < n and _is_digit(text[i]):
                i += 1
            if i < n and text[i] == ".":
                i += 1
                while i < n and _is_digit(text[i]):
                    i += 1
            if i < n and (text[i] == "e" or text[i] == "E"):
                j = i + 1
                if j < n and (text[j] == "+" or text[j] == "-"):
                    j += 1
                if j < n and _is_digit(text[j]):
                    i = j
                    while i < n and _is_digit(text[i]):
                        i += 1
            tokens.append(Token(_KIND_NUMBER, text[start:i], start, i))
        elif c == "$" and i + 1 < n and _is_digit(text[i + 1]):
            # Absolute row locator ($3); only valid inside a row range.
            i += 1
            while i < n and _is_digit(text[i]):
                i += 1
            tokens.append(Token(_KIND_NUMBER, text[start:i], start, i))
        elif _is_name_char(c):
            while i < n and _is_name_char(text[i]):
                i += 1
            lexeme = text[start:i]
            if lexeme == "$":
                raise LexError("illegal character '$'", start)
            tokens.append(Token(classify_name(lexeme), lexeme, start, i))
        elif c == "<":
            if i + 1 < n and (text[i + 1] == "=" or text[i + 1] == ">"):
                i += 2
            else:
                i += 1
            tokens.append(Token(_KIND_OP, text[start:i], start, i))
        elif c == ">":
            if i + 1 < n and text[i + 1] == "=":
                i += 2
            else:
                i += 1
            tokens.append(Token(_KIND_OP, text[start:i], start, i))
        elif c in "+-*/^&%=":
            i += 1
            tokens.append(Token(_KIND_OP, c, start, i))
        elif c == "(":
            i += 1
            tokens.append(Token(_KIND_LPAREN, c, start, i))
        elif c == ")":
            i += 1
            tokens.append(Token(_KIND_RPAREN, c, start, i))
        elif c == ",":
            i += 1
            tokens.append(Token(_KIND_COMMA, c, start, i))
        elif c == ":":
            i += 1
            tokens.append(Token(_KIND_COLON, c, start, i))
        elif c == "!":
            i += 1
            tokens.append(Token(_KIND_BANG, c, start, i))
        else:
            raise LexError(f"illegal character {c!r}", start)
    return tokens
