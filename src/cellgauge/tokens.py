"""Token primitives shared by the scanner (``lexer``) and the parser."""

from __future__ import annotations

import enum


class TokenKind(enum.IntEnum):
    NUMBER = 0
    STRING = 1
    BOOLEAN = 2
    ERROR_LITERAL = 3
    IDENTIFIER = 4
    CELL_REF = 5
    OPERATOR = 6
    LPAREN = 7
    RPAREN = 8
    COMMA = 9
    COLON = 10
    EXCLAMATION = 11
    REFERENCE = 12  # a whole cell or cell range, optionally sheet-qualified


class FormulaError(ValueError):
    """Base class for scan and parse failures; carries a character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class LexError(FormulaError):
    pass


# The seven spreadsheet error literals, each scanned as a single token.
ERROR_LITERALS = ("#DIV/0!", "#VALUE!", "#NULL!", "#NAME?", "#REF!", "#NUM!", "#N/A")

# Hard grid limits (A1-notation bounds of modern spreadsheet software).
MAX_ROW = 1_048_576
MAX_COL = 16_384
