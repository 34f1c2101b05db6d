"""Formula parser: one operator-precedence loop with explicit stacks.

``_Parser.expression`` keeps the operands it has built, the operators waiting
for a right operand and the open groups (parentheses and function calls) on
lists, not on the call stack, so only a formula's length bounds what parses.
It reads the scanner's ``(kind, lexeme, start, end)`` tuples by position and
takes the two commonest leaves itself: a whole reference, and a number that
is not the start of a row range (``1:3``) or an absolute row (``$3``).
``primary`` reads every other leaf: a constant, a reference or a range.

Scanning and parsing stay two phases: ``tokenize`` scans the whole formula to
a list before ``parse`` starts. A LexError anywhere in a formula wins over a
ParseError earlier in it, so a parser that pulled tokens from the scanner
would have to scan on to the end after every parse error anyway.

A REFERENCE token (a whole reference the scanner took as one lexeme) becomes
its Reference or Range through one module-level dict keyed by lexeme, so
each distinct reference text is built once per process and its node shared
by every formula that writes it. Sharing is safe because no code mutates a
node (see `expressions.Value`) and a reference resolves the same wherever it
appears. The dict holds at most ``_NODE_CAP`` entries and is cleared when
full. References split by whitespace, row and column ranges, names and
``#REF!`` arrive as fine tokens and are read token by token.

Precedence, loosest to tightest: comparisons; & ; + - ; * / ; ^ ; postfix % ;
unary +- ; range colon and parentheses. All binary operators associate left,
including ^. Unary minus binds tighter than ^, so -2^2 parses as (-2)^2.
"""

from __future__ import annotations

from .expressions import (
    CellLocator,
    Constant,
    Expr,
    Function,
    OpKind,
    Operator,
    Parenthesis,
    Range,
    Reference,
    ValueType,
    column_letter_to_index,
)
from .lexer import reference_parts, tokenize
from .model import Formula
from .tokens import MAX_COL, MAX_ROW, FormulaError, TokenKind


class ParseError(FormulaError):
    def __init__(self, message: str, position: int, expected: frozenset[str] = frozenset()):
        super().__init__(message, position)
        self.expected = frozenset(expected)


# Binary and postfix operators: lexeme -> (precedence, kind); higher binds
# tighter. Postfix % sits at the tightest binary level.
_OPERATORS = {
    "=": (1, OpKind.EQ),
    "<>": (1, OpKind.NEQ),
    "<": (1, OpKind.LT),
    ">": (1, OpKind.GT),
    "<=": (1, OpKind.LE),
    ">=": (1, OpKind.GE),
    "&": (2, OpKind.CONCAT),
    "+": (3, OpKind.ADD),
    "-": (3, OpKind.SUB),
    "*": (4, OpKind.MUL),
    "/": (4, OpKind.DIV),
    "^": (5, OpKind.POW),
    "%": (6, OpKind.PERCENT),
}
# Prefix signs bind tighter than every binary operator and postfix %.
_PREFIX_PRECEDENCE = 7
_PREFIX = {"+": (_PREFIX_PRECEDENCE, OpKind.UNARY_PLUS), "-": (_PREFIX_PRECEDENCE, OpKind.UNARY_MINUS)}
# Pending-operator entry that opens a group; every reduction stops at it.
_GROUP = (0, None)

# Members the parse loop compares on every token.
_OPERATOR = TokenKind.OPERATOR
_LPAREN = TokenKind.LPAREN
_RPAREN = TokenKind.RPAREN
_COMMA = TokenKind.COMMA
_COLON = TokenKind.COLON
_NUMBER = TokenKind.NUMBER
_NUMBER_VALUE = ValueType.NUMBER
_CALLABLE = (TokenKind.IDENTIFIER, TokenKind.CELL_REF, TokenKind.BOOLEAN)
_PERCENT = OpKind.PERCENT
_REFERENCE = TokenKind.REFERENCE

# Reference and Range nodes by REFERENCE lexeme; cleared when it reaches the cap.
_NODE_CAP = 8192
_NODES: dict[str, Reference | Range] = {}


def _column_locator(lexeme: str) -> CellLocator | None:
    """Locator of a full-column range end like B or $B."""
    absolute = lexeme.startswith("$")
    letters = lexeme[1:] if absolute else lexeme
    if not letters or not all("A" <= c <= "Z" or "a" <= c <= "z" for c in letters):
        return None
    col = column_letter_to_index(letters)
    if col > MAX_COL:
        return None
    return CellLocator(row=None, col=col, col_abs=absolute)


def _row_locator(lexeme: str) -> CellLocator | None:
    """Locator of a full-row range end like 3 or $3."""
    absolute = lexeme.startswith("$")
    digits = lexeme[1:] if absolute else lexeme
    # MAX_ROW has 7 digits, so a longer text is out of the grid; checked
    # before int(), which refuses texts of more than 4,300 digits.
    if not digits.isascii() or not digits.isdigit() or digits[0] == "0" or len(digits) > 7:
        return None
    row = int(digits)
    if row > MAX_ROW:
        return None
    return CellLocator(row=row, col=None, row_abs=absolute)


def _cellref_locator(lexeme: str) -> CellLocator:
    """Locator for a CELL_REF token ($?letters$?digits, pre-validated by the scanner)."""
    i = 0
    col_abs = lexeme[0] == "$"
    if col_abs:
        i = 1
    start = i
    while "A" <= lexeme[i].upper() <= "Z":
        i += 1
    col = column_letter_to_index(lexeme[start:i])
    row_abs = lexeme[i] == "$"
    if row_abs:
        i += 1
    return CellLocator(row=int(lexeme[i:]), col=col, row_abs=row_abs, col_abs=col_abs)


_RANGE_END = {
    TokenKind.CELL_REF: _cellref_locator,
    TokenKind.NUMBER: _row_locator,
    TokenKind.IDENTIFIER: _column_locator,
}


def _unquote_sheet(lexeme: str) -> str:
    if lexeme.startswith("'") and lexeme.endswith("'") and len(lexeme) >= 2:
        return lexeme[1:-1].replace("''", "'")
    return lexeme


def _reference_node(lexeme: str) -> Reference | Range:
    """Build the node of a REFERENCE lexeme not in ``_NODES`` and keep it there."""
    sheet, first, last = reference_parts(lexeme)
    external = False
    if sheet is not None:
        sheet = _unquote_sheet(sheet)
        external = "[" in sheet
    start = _cellref_locator(first)
    if last is None:
        node = Reference(sheet=sheet, locator=start, external=external)
    else:
        node = Range(start, _cellref_locator(last), sheet=sheet, external=external)
    if len(_NODES) >= _NODE_CAP:
        _NODES.clear()
    _NODES[lexeme] = node
    return node


def _shown(tok: tuple) -> str:
    """The lexeme an error message quotes: for a whole reference, the first
    fine token it was scanned in place of (its sheet prefix or first cell)."""
    if tok[0] != _REFERENCE:
        return tok[1]
    sheet, first, _ = reference_parts(tok[1])
    return first if sheet is None else sheet


class _Parser:
    def __init__(self, tokens: list[tuple[TokenKind, str, int, int]]):
        self.tokens = tokens
        self.pos = 0
        self.end_offset = tokens[-1][3] if tokens else 0

    def peek(self, ahead: int = 0) -> tuple | None:
        i = self.pos + ahead
        return self.tokens[i] if i < len(self.tokens) else None

    def advance(self) -> tuple:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, position: int | None = None, expected=()) -> ParseError:
        if position is None:
            tok = self.peek()
            position = tok[2] if tok else self.end_offset
        return ParseError(message, position, frozenset(expected))

    def expression(self) -> Expr:
        """The expression at the cursor, up to the first token that cannot
        continue it. The outer loop reads an operand's prefix signs, then a
        group opening or a leaf; the inner loop the operators after it. The
        two commonest leaves, a whole reference and a number that starts no
        row range, are read here; ``primary`` reads the others."""
        tokens = self.tokens
        count = len(tokens)
        values: list[Expr] = []
        # (precedence, kind) of each pending operator; _GROUP marks where an
        # open group starts, the first one the whole expression.
        ops: list[tuple[int, OpKind | None]] = [_GROUP]
        # (opening token, upper-cased function name or None for a
        # parenthesis, index of the group's first operand in values)
        groups: list[tuple[tuple, str | None, int]] = []
        pos = self.pos
        while True:
            tok = tokens[pos] if pos < count else None
            while tok is not None and tok[0] == _OPERATOR and tok[1] in _PREFIX:
                ops.append(_PREFIX[tok[1]])
                pos += 1
                tok = tokens[pos] if pos < count else None
            kind = tok[0] if tok is not None else None
            if kind == _REFERENCE:
                lexeme = tok[1]
                values.append(_NODES.get(lexeme) or _reference_node(lexeme))
                pos += 1
            elif kind == _NUMBER and (pos + 1 == count or tokens[pos + 1][0] != _COLON) and tok[1][0] != "$":
                values.append(Constant(_NUMBER_VALUE, tok[1]))
                pos += 1
            elif kind == _LPAREN:
                pos += 1
                ops.append(_GROUP)
                groups.append((tok, None, len(values)))
                continue
            elif pos + 1 < count and tokens[pos + 1][0] == _LPAREN and kind in _CALLABLE:
                name = tok[1]
                if name.startswith("'") or "[" in name or "$" in name:
                    raise self.fail(f"illegal function name {name!r}", tok[2])
                pos += 2
                first = tokens[pos] if pos < count else None
                if first is None or first[0] != _RPAREN:
                    if first is not None and first[0] == _COMMA:
                        raise self.fail("empty function argument", first[2])
                    ops.append(_GROUP)
                    groups.append((tok, name.upper(), len(values)))
                    continue
                pos += 1
                values.append(Function(name.upper(), ()))
            else:
                self.pos = pos
                values.append(self.primary())
                pos = self.pos
            while True:
                tok = tokens[pos] if pos < count else None
                entry = _OPERATORS.get(tok[1]) if tok is not None and tok[0] == _OPERATOR else None
                # Apply the pending operators that bind at least as tightly
                # as this one (left association); without one, every
                # operator of the innermost open group.
                precedence = entry[0] if entry is not None else 1
                while ops[-1][0] >= precedence:
                    op_precedence, op_kind = ops.pop()
                    if op_precedence == _PREFIX_PRECEDENCE:
                        values[-1] = Operator(op_kind, (values[-1],))
                    else:
                        right = values.pop()
                        values[-1] = Operator(op_kind, (values[-1], right))
                if entry is not None:
                    pos += 1
                    if entry[1] is _PERCENT:
                        values[-1] = Operator(_PERCENT, (values[-1],))
                        continue
                    ops.append(entry)
                    break
                if not groups:
                    self.pos = pos
                    return values[0]
                opener, name, base = groups[-1]
                if name is None:
                    if tok is None or tok[0] != _RPAREN:
                        raise self.fail("unbalanced parentheses: expected ')'", opener[2], {")"})
                    values[-1] = Parenthesis(values[-1])
                elif tok is None:
                    raise self.fail("unbalanced parentheses: expected ',' or ')'", self.end_offset, {",", ")"})
                elif tok[0] == _COMMA:
                    pos += 1
                    nxt = tokens[pos] if pos < count else None
                    if nxt is not None and nxt[0] in (_COMMA, _RPAREN):
                        raise self.fail("empty function argument", nxt[2])
                    break
                elif tok[0] == _RPAREN:
                    args = tuple(values[base:])
                    del values[base:]
                    values.append(Function(name, args))
                else:
                    raise self.fail(f"expected ',' or ')' in argument list, got {_shown(tok)!r}", tok[2], {",", ")"})
                pos += 1
                ops.pop()
                groups.pop()

    def primary(self) -> Expr:
        """A leaf at the cursor that ``expression`` does not read itself: a
        constant, a cell, a name or a range written as fine tokens."""
        tok = self.peek()
        if tok is None:
            raise self.fail("expected expression", expected={"expression"})
        kind, lexeme = tok[0], tok[1]
        if kind == _NUMBER:
            return self._number(tok)
        if kind == TokenKind.STRING:
            self.advance()
            return Constant(ValueType.TEXT, lexeme)
        if kind == TokenKind.BOOLEAN:
            self.advance()
            return Constant(ValueType.BOOLEAN, lexeme)
        if kind == TokenKind.ERROR_LITERAL:
            self.advance()
            if lexeme.upper() == "#REF!":
                return Reference(ref_error=True)
            return Constant(ValueType.ERROR, lexeme)
        if kind in (TokenKind.IDENTIFIER, TokenKind.CELL_REF):
            return self._reference(tok)
        raise self.fail(f"unexpected {lexeme!r}", tok[2], {"expression"})

    def _number(self, tok: tuple) -> Expr:
        row_range = self._range_tail()
        if row_range is not None:
            return row_range
        if tok[1].startswith("$"):
            raise self.fail("absolute row locator outside a range", tok[2])
        self.advance()
        return Constant(_NUMBER_VALUE, tok[1])

    def _range_tail(self, sheet: str | None = None, external: bool = False) -> Range | None:
        """A cell (A1:B2), row (1:3) or column (A:C) range at the cursor, or
        None. A cell reference followed by ':' must end in another one."""
        tokens, pos = self.tokens, self.pos
        if pos + 1 >= len(tokens) or tokens[pos + 1][0] != _COLON:
            return None
        first = tokens[pos]
        last = tokens[pos + 2] if pos + 2 < len(tokens) else None
        if first[0] == TokenKind.CELL_REF and (last is None or last[0] != TokenKind.CELL_REF):
            raise self.fail("expected cell reference after ':'", tokens[pos + 1][2], {"cell reference"})
        locator = _RANGE_END.get(first[0])
        if locator is None or last is None or last[0] != first[0]:
            return None
        start, end = locator(first[1]), locator(last[1])
        if start is None or end is None:
            return None
        self.pos = pos + 3
        return Range(start, end, sheet=sheet, external=external)

    def _reference(self, tok: tuple) -> Expr:
        nxt = self.peek(1)
        if nxt is not None and nxt[0] == TokenKind.EXCLAMATION:
            self.pos += 2  # sheet and !
            return self._sheet_suffix(_unquote_sheet(tok[1]))
        cell_range = self._range_tail()
        if cell_range is not None:
            return cell_range
        lexeme = tok[1]
        if tok[0] == TokenKind.CELL_REF:
            self.advance()
            return Reference(locator=_cellref_locator(lexeme))
        # Plain identifier: a defined-name reference.
        if lexeme.startswith("'") or "[" in lexeme:
            raise self.fail("sheet name must be followed by '!'", tok[2], {"!"})
        if "$" in lexeme:
            raise self.fail(f"'$' not allowed in a name: {lexeme!r}", tok[2])
        self.advance()
        return Reference(name=lexeme)

    def _sheet_suffix(self, sheet: str) -> Expr:
        external = "[" in sheet
        tok = self.peek()
        if tok is None:
            raise self.fail("expected reference after '!'", expected={"reference"})
        cell_range = self._range_tail(sheet, external)
        if cell_range is not None:
            return cell_range
        kind, lexeme = tok[0], tok[1]
        if kind == TokenKind.CELL_REF:
            self.advance()
            return Reference(sheet=sheet, locator=_cellref_locator(lexeme), external=external)
        if kind == TokenKind.IDENTIFIER:
            if lexeme.startswith("'") or "[" in lexeme or "$" in lexeme:
                raise self.fail(f"illegal name after '!': {lexeme!r}", tok[2])
            self.advance()
            return Reference(sheet=sheet, name=lexeme, external=external)
        if kind == TokenKind.ERROR_LITERAL and lexeme.upper() == "#REF!":
            self.advance()
            return Reference(sheet=sheet, ref_error=True, external=external)
        raise self.fail("expected reference after '!'", tok[2], {"reference"})


def parse(tokens: list[tuple[TokenKind, str, int, int]]) -> Expr:
    """Parse a list of ``(kind, lexeme, start, end)`` tokens, as ``tokenize``
    returns them, into an expression tree; raises ParseError."""
    parser = _Parser(tokens)
    expr = parser.expression()
    leftover = parser.peek()
    if leftover is not None:
        raise parser.fail(f"unexpected {_shown(leftover)!r} after expression", leftover[2])
    return expr


def parse_text(formula_text: str) -> Expr:
    """Tokenize and parse a formula body; raises LexError or ParseError."""
    return parse(tokenize(formula_text))


def parse_formula(formula_text: str) -> Formula:
    """Total wrapper: failures are captured on the Formula, never raised."""
    try:
        return Formula(text=formula_text, expr=parse_text(formula_text))
    except FormulaError as exc:
        return Formula(text=formula_text, expr=None, error=str(exc))
