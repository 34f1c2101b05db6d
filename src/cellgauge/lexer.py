"""Formula scanner: one compiled master pattern of named groups.

``tokenize`` walks the pattern with ``finditer`` and dispatches on
``lastgroup``. The catch-all ``bad`` group matches any character no other
group accepts and raises the matching LexError, so every position of the
input belongs to exactly one match.

A token is a plain tuple ``(kind, lexeme, start, end)``: its TokenKind, its
text, and the offsets of its first character and one past its last. Not a
named tuple: building a tuple subclass costs a Python-level ``__new__`` per
token, and the parser reads the fields by position anyway.

The reference group, second after punctuation, takes a whole cell or cell
range with an optional sheet prefix and no whitespace inside (``Data!C45``,
``'Q1 Sales'!$A$1:$D$9``, ``B7``, ``A1:B2``) as one REFERENCE token, so the
parser reads it in one step. It matches only where the parser would read
exactly those fine tokens (the ones of the other groups) as that reference:
both ends inside the grid, a sheet that scans as one name other than TRUE or
FALSE, and nothing after it, past optional whitespace, that continues it
(``(``, ``!`` or ``:``). A match right after a ``!`` or ``:`` token is part
of a longer, whitespace-split reference; its span is scanned again with the
fine groups alone.
"""

from __future__ import annotations

import re

from .tokens import ERROR_LITERALS, LexError, TokenKind

# One unquoted name character: an ASCII letter or digit, one of _ . \ $, or
# any non-ASCII code point. Spelled as a negated ASCII class: the positive
# form [\x80-\U0010ffff] makes re.compile several times slower.
_NAME = r"[^\x00-\x23\x25-\x2d\x2f\x3a-\x40\x5b\x5d\x5e\x60\x7b-\x7f]"

# Grid-bounded cell parts: columns A-XFD and rows 1-1048576, so a cell-shaped
# name past the grid (XFE1, A1048577) matches neither the reference nor the
# CELL_REF group and scans as a name.
_COLUMN = r"(?:[A-Wa-w][A-Za-z]{2}|[Xx](?:[A-Ea-e][A-Za-z]|[Ff][A-Da-d])|[A-Za-z]{1,2})"
_ROW = r"(?:10(?:[0-3][0-9]{4}|4(?:[0-7][0-9]{3}|8(?:[0-4][0-9]{2}|5(?:[0-6][0-9]|7[0-6]))))|[1-9][0-9]{0,5})"
_CELL = rf"\$?{_COLUMN}\$?{_ROW}(?!{_NAME})"
# A sheet prefix is the quoted or external form of the IDENTIFIER group, or
# a name that the NUMBER group does not take first and that is neither a
# lone $ (a LexError) nor TRUE/FALSE (a BOOLEAN). The ignore-case match
# accepts exactly the spellings whose str.upper() is TRUE or FALSE. The
# leading lookahead (a quote, a bracket or a name character other than a
# digit) makes the failed attempt at every other token start cheap.
_REFERENCE = (
    r"(?=[^\x00-\x23\x25\x26\x28-\x2d\x2f-\x40\x5d\x5e\x60\x7b-\x7f])"
    rf"(?:(?P<sheet>'[^']*(?:''[^']*)*'|\[[^\]]*\]{_NAME}*|(?![.$]?[0-9]|\$!|(?i:true|false)!){_NAME}+)!)?"
    rf"(?P<first>{_CELL})(?::(?P<last>{_CELL}))?(?![ \t\r\n]*[(!:])"
)

# Group order is match priority. Quoted text may not end on a doubled quote
# ("a""b is unterminated, not "a" then "b), and digits are ASCII [0-9] only.
# The punctuation group (operators, parentheses, comma, colon and !) comes
# first, ahead of the reference group too: no other group can start with
# one of its characters, so trying it first changes no match, and it is
# the most common token. Its kind is looked up from the lexeme.
_PUNCT = dict.fromkeys(("<=", "<>", "<", ">=", ">", *"-+*/^&%="), TokenKind.OPERATOR) | {
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    ",": TokenKind.COMMA,
    ":": TokenKind.COLON,
    "!": TokenKind.EXCLAMATION,
}
_GROUPS = (
    ("punct", r"<[=>]?|>=?|[-+*/^&%=(),:!]"),
    ("space", r"[ \t\r\n]+"),
    ("STRING", r'"[^"]*(?:""[^"]*)*"(?!")'),
    ("IDENTIFIER", rf"'[^']*(?:''[^']*)*'(?!')|\[[^\]]*\]{_NAME}*"),
    ("error", r"#"),
    ("NUMBER", r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|\$[0-9]+"),
    ("CELL_REF", _CELL),
    ("name", rf"{_NAME}+"),
    ("bad", r"."),
)
_FINE = re.compile("|".join(f"(?P<{name}>{body})" for name, body in _GROUPS), re.DOTALL)
_MASTER = re.compile(
    "|".join(f"(?P<{name}>{body})" for name, body in (_GROUPS[0], ("reference", _REFERENCE), *_GROUPS[1:])),
    re.DOTALL,
)
_PLAIN = {name: TokenKind[name] for name, _ in _GROUPS if name.isupper()}
_UNTERMINATED = {
    '"': "unterminated string",
    "'": "unterminated sheet name quote",
    "[": "unterminated external reference bracket",
}
_BOOLEANS = ("TRUE", "FALSE")
_REFERENCE_KIND = TokenKind.REFERENCE
_SPLITS = (TokenKind.EXCLAMATION, TokenKind.COLON)


def _error_literal(text: str, start: int) -> int:
    """End offset of the error literal at ``start``; raises LexError if none."""
    upper = text[start : start + 8].upper()
    for literal in ERROR_LITERALS:
        if upper.startswith(literal):
            return start + len(literal)
    raise LexError("illegal character '#'", start)


def reference_parts(lexeme: str) -> tuple[str | None, str, str | None]:
    """The sheet prefix as written (or None), the first cell and the last
    cell (or None) of a REFERENCE lexeme."""
    # Only the punctuation group comes before the reference group in the
    # master pattern, and it cannot match a reference's first character.
    return _MASTER.fullmatch(lexeme).group("sheet", "first", "last")


def tokenize(formula_text: str) -> list[tuple[TokenKind, str, int, int]]:
    """Tokenize a formula body (leading "=" already stripped by the caller)
    into ``(kind, lexeme, start, end)`` tuples.

    Whitespace is skipped but preserved in token spans. Raises LexError on an
    unterminated string, quote or bracket, or on an illegal character.
    """
    tokens: list[tuple[TokenKind, str, int, int]] = []
    append = tokens.append
    pattern, pos, stop = _MASTER, 0, len(formula_text)
    while True:
        for match in pattern.finditer(formula_text, pos, stop):
            group = match.lastgroup
            start, end = match.span()
            if group == "punct":
                lexeme = match.group()
                append((_PUNCT[lexeme], lexeme, start, end))
                continue
            kind = _PLAIN.get(group)
            if kind is not None:
                append((kind, match.group(), start, end))
            elif group == "reference":
                if tokens and tokens[-1][0] in _SPLITS:
                    # The tail of a whitespace-split reference: scan this
                    # span with the fine groups, then go on after it.
                    pattern, pos, stop = _FINE, start, end
                    break
                append((_REFERENCE_KIND, match.group(), start, end))
            elif group == "name":
                lexeme = match.group()
                if lexeme == "$":
                    raise LexError("illegal character '$'", start)
                kind = TokenKind.BOOLEAN if lexeme.upper() in _BOOLEANS else TokenKind.IDENTIFIER
                append((kind, lexeme, start, end))
            elif group == "error":
                # Matched with str.upper(), like spreadsheet software, so the
                # literal's length is known only here; resume scanning after it.
                pos = _error_literal(formula_text, start)
                append((TokenKind.ERROR_LITERAL, formula_text[start:pos], start, pos))
                break
            elif group == "bad":
                char = match.group()
                raise LexError(_UNTERMINATED.get(char, f"illegal character {char!r}"), start)
        else:
            if pattern is _MASTER:
                return tokens
            pattern, pos, stop = _MASTER, stop, len(formula_text)
