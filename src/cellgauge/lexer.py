"""Formula scanner: one compiled master pattern, one named group per token class.

``tokenize`` walks the pattern with ``finditer`` and dispatches on
``lastgroup``. The catch-all ``bad`` group matches any character no other
group accepts and raises the matching LexError, so every position of the
input belongs to exactly one match.
"""

from __future__ import annotations

import re

from .expressions import column_index_to_letter
from .tokens import ERROR_LITERALS, MAX_COL, MAX_ROW, LexError, Token, TokenKind

# One unquoted name character: an ASCII letter or digit, one of _ . \ $, or
# any non-ASCII code point. Spelled as a negated ASCII class: the positive
# form [\x80-\U0010ffff] makes re.compile several times slower.
_NAME = r"[^\x00-\x23\x25-\x2d\x2f\x3a-\x40\x5b\x5d\x5e\x60\x7b-\x7f]"

# Group order is match priority. Quoted text may not end on a doubled quote
# ("a""b is unterminated, not "a" then "b), and digits are ASCII [0-9] only.
_GROUPS = (
    ("space", r"[ \t\r\n]+"),
    ("STRING", r'"[^"]*(?:""[^"]*)*"(?!")'),
    ("IDENTIFIER", rf"'[^']*(?:''[^']*)*'(?!')|\[[^\]]*\]{_NAME}*"),
    ("error", r"#"),
    ("NUMBER", r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|\$[0-9]+"),
    ("cell", rf"\$?(?P<col>[A-Za-z]{{1,3}})\$?(?P<row>[1-9][0-9]*)(?!{_NAME})"),
    ("name", rf"{_NAME}+"),
    ("OPERATOR", r"<[=>]?|>=?|[-+*/^&%=]"),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
    ("COMMA", r","),
    ("COLON", r":"),
    ("EXCLAMATION", r"!"),
    ("bad", r"."),
)
_MASTER = re.compile("|".join(f"(?P<{name}>{body})" for name, body in _GROUPS), re.DOTALL)
_PLAIN = {name: TokenKind[name] for name, _ in _GROUPS if name.isupper()}
_UNTERMINATED = {
    '"': "unterminated string",
    "'": "unterminated sheet name quote",
    "[": "unterminated external reference bracket",
}
_BOOLEANS = ("TRUE", "FALSE")
_LAST_COLUMN = column_index_to_letter(MAX_COL)  # three letters, like every column past ZZ


def _error_literal(text: str, start: int) -> int:
    """End offset of the error literal at ``start``; raises LexError if none."""
    upper = text[start : start + 8].upper()
    for literal in ERROR_LITERALS:
        if upper.startswith(literal):
            return start + len(literal)
    raise LexError("illegal character '#'", start)


def tokenize(formula_text: str) -> list[Token]:
    """Tokenize a formula body (leading "=" already stripped by the caller).

    Whitespace is skipped but preserved in token spans. Raises LexError on an
    unterminated string, quote or bracket, or on an illegal character.
    """
    tokens: list[Token] = []
    append = tokens.append
    pos = 0
    while True:
        for match in _MASTER.finditer(formula_text, pos):
            group = match.lastgroup
            start, end = match.span()
            kind = _PLAIN.get(group)
            if kind is not None:
                append(Token(kind, match.group(), start, end))
            elif group == "cell":
                # Cell-shaped names past the grid (XFE1, A1048577) are plain
                # names. Column names of equal length order like their indices.
                col, row = match.group("col", "row")
                in_grid = int(row) <= MAX_ROW and (len(col) < len(_LAST_COLUMN) or col.upper() <= _LAST_COLUMN)
                append(Token(TokenKind.CELL_REF if in_grid else TokenKind.IDENTIFIER, match.group(), start, end))
            elif group == "name":
                lexeme = match.group()
                if lexeme == "$":
                    raise LexError("illegal character '$'", start)
                kind = TokenKind.BOOLEAN if lexeme.upper() in _BOOLEANS else TokenKind.IDENTIFIER
                append(Token(kind, lexeme, start, end))
            elif group == "error":
                # Matched with str.upper(), like spreadsheet software, so the
                # literal's length is known only here; resume scanning after it.
                pos = _error_literal(formula_text, start)
                append(Token(TokenKind.ERROR_LITERAL, formula_text[start:pos], start, pos))
                break
            elif group == "bad":
                char = match.group()
                raise LexError(_UNTERMINATED.get(char, f"illegal character {char!r}"), start)
        else:
            return tokens
