"""Formula parser: one operator-precedence loop with explicit stacks.

``_Parser.expression`` keeps the operands it has built, the operators waiting
for a right operand and the open groups (parentheses and function calls) on
lists, not on the call stack, so only a formula's length bounds what parses.
``primary`` reads one leaf: a constant, a reference or a range.

A REFERENCE token (a whole reference the scanner took as one lexeme) becomes
its Reference or Range through one module-level dict keyed by lexeme, so
each distinct reference text is built once per process and its node shared
by every formula that writes it. Sharing is safe because nodes are frozen
and a reference resolves the same wherever it appears. The dict holds at
most ``_NODE_CAP`` entries and is cleared when full. References split by
whitespace, row and column ranges, names and ``#REF!`` arrive as fine tokens
and are read token by token.

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
from .tokens import MAX_COL, MAX_ROW, FormulaError, Token, TokenKind


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
    if not digits.isascii() or not digits.isdigit() or digits[0] == "0":
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


def _shown(tok: Token) -> str:
    """The lexeme an error message quotes: for a whole reference, the first
    fine token it was scanned in place of (its sheet prefix or first cell)."""
    if tok.kind != _REFERENCE:
        return tok.lexeme
    sheet, first, _ = reference_parts(tok.lexeme)
    return first if sheet is None else sheet


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.end_offset = tokens[-1].end if tokens else 0

    def peek(self, ahead: int = 0) -> Token | None:
        i = self.pos + ahead
        return self.tokens[i] if i < len(self.tokens) else None

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, position: int | None = None, expected=()) -> ParseError:
        if position is None:
            tok = self.peek()
            position = tok.start if tok else self.end_offset
        return ParseError(message, position, frozenset(expected))

    def expression(self) -> Expr:
        """The expression at the cursor, up to the first token that cannot
        continue it. The outer loop reads an operand's prefix signs, then a
        group opening or a leaf; the inner loop the operators after it."""
        tokens = self.tokens
        count = len(tokens)
        values: list[Expr] = []
        # (precedence, kind) of each pending operator; _GROUP marks where an
        # open group starts, the first one the whole expression.
        ops: list[tuple[int, OpKind | None]] = [_GROUP]
        # (opening token, upper-cased function name or None for a
        # parenthesis, index of the group's first operand in values)
        groups: list[tuple[Token, str | None, int]] = []
        while True:
            pos = self.pos
            tok = tokens[pos] if pos < count else None
            while tok is not None and tok.kind == _OPERATOR and tok.lexeme in _PREFIX:
                ops.append(_PREFIX[tok.lexeme])
                pos += 1
                tok = tokens[pos] if pos < count else None
            self.pos = pos
            if tok is not None and tok.kind == _LPAREN:
                self.pos = pos + 1
                ops.append(_GROUP)
                groups.append((tok, None, len(values)))
                continue
            if pos + 1 < count and tokens[pos + 1].kind == _LPAREN and tok.kind in _CALLABLE:
                name = tok.lexeme
                if name.startswith("'") or "[" in name or "$" in name:
                    raise self.fail(f"illegal function name {name!r}", tok.start)
                self.pos = pos + 2
                first = self.peek()
                if first is None or first.kind != _RPAREN:
                    if first is not None and first.kind == _COMMA:
                        raise self.fail("empty function argument")
                    ops.append(_GROUP)
                    groups.append((tok, name.upper(), len(values)))
                    continue
                self.pos += 1
                values.append(Function(name.upper(), ()))
            else:
                values.append(self.primary())
            while True:
                pos = self.pos
                tok = tokens[pos] if pos < count else None
                entry = _OPERATORS.get(tok.lexeme) if tok is not None and tok.kind == _OPERATOR else None
                # Apply the pending operators that bind at least as tightly
                # as this one (left association); without one, every
                # operator of the innermost open group.
                precedence = entry[0] if entry is not None else 1
                while ops[-1][0] >= precedence:
                    op_precedence, kind = ops.pop()
                    if op_precedence == _PREFIX_PRECEDENCE:
                        values[-1] = Operator(kind, (values[-1],))
                    else:
                        right = values.pop()
                        values[-1] = Operator(kind, (values[-1], right))
                if entry is not None:
                    self.pos = pos + 1
                    if entry[1] is _PERCENT:
                        values[-1] = Operator(_PERCENT, (values[-1],))
                        continue
                    ops.append(entry)
                    break
                if not groups:
                    return values[0]
                opener, name, base = groups[-1]
                if name is None:
                    if tok is None or tok.kind != _RPAREN:
                        raise self.fail("unbalanced parentheses: expected ')'", opener.start, {")"})
                    values[-1] = Parenthesis(values[-1])
                elif tok is None:
                    raise self.fail("unbalanced parentheses: expected ',' or ')'", expected={",", ")"})
                elif tok.kind == _COMMA:
                    self.pos = pos + 1
                    nxt = self.peek()
                    if nxt is not None and nxt.kind in (_COMMA, _RPAREN):
                        raise self.fail("empty function argument")
                    break
                elif tok.kind == _RPAREN:
                    args = tuple(values[base:])
                    del values[base:]
                    values.append(Function(name, args))
                else:
                    raise self.fail(f"expected ',' or ')' in argument list, got {_shown(tok)!r}", tok.start, {",", ")"})
                self.pos = pos + 1
                ops.pop()
                groups.pop()

    def primary(self) -> Expr:
        """The leaf at the cursor: a constant, a reference or a range."""
        tok = self.peek()
        if tok is None:
            raise self.fail("expected expression", expected={"expression"})
        kind = tok.kind
        if kind == _REFERENCE:
            self.pos += 1
            return _NODES.get(tok.lexeme) or _reference_node(tok.lexeme)
        if kind == TokenKind.NUMBER:
            return self._number(tok)
        if kind == TokenKind.STRING:
            self.advance()
            return Constant(ValueType.TEXT, tok.lexeme)
        if kind == TokenKind.BOOLEAN:
            self.advance()
            return Constant(ValueType.BOOLEAN, tok.lexeme)
        if kind == TokenKind.ERROR_LITERAL:
            self.advance()
            if tok.lexeme.upper() == "#REF!":
                return Reference(ref_error=True)
            return Constant(ValueType.ERROR, tok.lexeme)
        if kind in (TokenKind.IDENTIFIER, TokenKind.CELL_REF):
            return self._reference(tok)
        raise self.fail(f"unexpected {tok.lexeme!r}", tok.start, {"expression"})

    def _number(self, tok: Token) -> Expr:
        row_range = self._range_tail()
        if row_range is not None:
            return row_range
        if tok.lexeme.startswith("$"):
            raise self.fail("absolute row locator outside a range", tok.start)
        self.advance()
        return Constant(ValueType.NUMBER, tok.lexeme)

    def _range_tail(self, sheet: str | None = None, external: bool = False) -> Range | None:
        """A cell (A1:B2), row (1:3) or column (A:C) range at the cursor, or
        None. A cell reference followed by ':' must end in another one."""
        tokens, pos = self.tokens, self.pos
        if pos + 1 >= len(tokens) or tokens[pos + 1].kind != TokenKind.COLON:
            return None
        first = tokens[pos]
        last = tokens[pos + 2] if pos + 2 < len(tokens) else None
        if first.kind == TokenKind.CELL_REF and (last is None or last.kind != TokenKind.CELL_REF):
            raise self.fail("expected cell reference after ':'", tokens[pos + 1].start, {"cell reference"})
        locator = _RANGE_END.get(first.kind)
        if locator is None or last is None or last.kind != first.kind:
            return None
        start, end = locator(first.lexeme), locator(last.lexeme)
        if start is None or end is None:
            return None
        self.pos = pos + 3
        return Range(start, end, sheet=sheet, external=external)

    def _reference(self, tok: Token) -> Expr:
        nxt = self.peek(1)
        if nxt is not None and nxt.kind == TokenKind.EXCLAMATION:
            self.pos += 2  # sheet and !
            return self._sheet_suffix(_unquote_sheet(tok.lexeme))
        cell_range = self._range_tail()
        if cell_range is not None:
            return cell_range
        if tok.kind == TokenKind.CELL_REF:
            self.advance()
            return Reference(locator=_cellref_locator(tok.lexeme))
        # Plain identifier: a defined-name reference.
        lexeme = tok.lexeme
        if lexeme.startswith("'") or "[" in lexeme:
            raise self.fail("sheet name must be followed by '!'", tok.start, {"!"})
        if "$" in lexeme:
            raise self.fail(f"'$' not allowed in a name: {lexeme!r}", tok.start)
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
        if tok.kind == TokenKind.CELL_REF:
            self.advance()
            return Reference(sheet=sheet, locator=_cellref_locator(tok.lexeme), external=external)
        if tok.kind == TokenKind.IDENTIFIER:
            lexeme = tok.lexeme
            if lexeme.startswith("'") or "[" in lexeme or "$" in lexeme:
                raise self.fail(f"illegal name after '!': {lexeme!r}", tok.start)
            self.advance()
            return Reference(sheet=sheet, name=lexeme, external=external)
        if tok.kind == TokenKind.ERROR_LITERAL and tok.lexeme.upper() == "#REF!":
            self.advance()
            return Reference(sheet=sheet, ref_error=True, external=external)
        raise self.fail("expected reference after '!'", tok.start, {"reference"})


def parse(tokens: list[Token]) -> Expr:
    """Parse a token list into an expression tree; raises ParseError."""
    parser = _Parser(tokens)
    expr = parser.expression()
    leftover = parser.peek()
    if leftover is not None:
        raise parser.fail(f"unexpected {_shown(leftover)!r} after expression", leftover.start)
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
