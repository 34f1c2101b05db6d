"""Formula parser: one operator-precedence loop with explicit stacks.

``parse`` keeps the operands it has built, the operators waiting for a right
operand and the open groups (parentheses and function calls) on lists, not
on the call stack, so only a formula's length bounds what parses. It walks
the scanner's ``(kind, lexeme, start, end)`` tuples with one cursor, reads
them by position and takes the two commonest leaves itself: a whole
reference, and a number that is not the start of a row range (``1:3``) or an
absolute row (``$3``). ``_leaf`` reads every other leaf and returns the
cursor after it: a constant, or a cell, range, name or ``#REF!`` with or
without a ``sheet!`` prefix, which it reads once for all of them.

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
    # MAX_COL is XFD, so a longer text is out of the grid; checked before
    # column_letter_to_index, whose cost grows with the square of its length.
    if not letters or len(letters) > 3 or not all("A" <= c <= "Z" or "a" <= c <= "z" for c in letters):
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


def _fail(tokens: list[tuple], message: str, position: int | None, expected=()) -> ParseError:
    """A ParseError at ``position``, or at the end of the formula when None."""
    if position is None:
        position = tokens[-1][3] if tokens else 0
    return ParseError(message, position, frozenset(expected))


def parse(tokens: list[tuple[TokenKind, str, int, int]]) -> Expr:
    """Parse a list of ``(kind, lexeme, start, end)`` tokens, as ``tokenize``
    returns them, into an expression tree; raises ParseError.

    The outer loop reads an operand's prefix signs, then a group opening or
    a leaf; the inner loop the operators after it, and ends the parse where
    the outermost group ends."""
    count = len(tokens)
    values: list[Expr] = []
    # (precedence, kind) of each pending operator; _GROUP marks where an
    # open group starts, the first one the whole expression.
    ops: list[tuple[int, OpKind | None]] = [_GROUP]
    # (opening token, upper-cased function name or None for a
    # parenthesis, index of the group's first operand in values)
    groups: list[tuple[tuple, str | None, int]] = []
    pos = 0
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
                raise _fail(tokens, f"illegal function name {name!r}", tok[2])
            pos += 2
            first = tokens[pos] if pos < count else None
            if first is None or first[0] != _RPAREN:
                if first is not None and first[0] == _COMMA:
                    raise _fail(tokens, "empty function argument", first[2])
                ops.append(_GROUP)
                groups.append((tok, name.upper(), len(values)))
                continue
            pos += 1
            values.append(Function(name.upper(), ()))
        else:
            node, pos = _leaf(tokens, pos)
            values.append(node)
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
                if tok is not None:
                    raise _fail(tokens, f"unexpected {_shown(tok)!r} after expression", tok[2])
                return values[0]
            opener, name, base = groups[-1]
            if name is None:
                if tok is None or tok[0] != _RPAREN:
                    raise _fail(tokens, "unbalanced parentheses: expected ')'", opener[2], {")"})
                values[-1] = Parenthesis(values[-1])
            elif tok is None:
                raise _fail(tokens, "unbalanced parentheses: expected ',' or ')'", None, {",", ")"})
            elif tok[0] == _COMMA:
                pos += 1
                nxt = tokens[pos] if pos < count else None
                if nxt is not None and nxt[0] in (_COMMA, _RPAREN):
                    raise _fail(tokens, "empty function argument", nxt[2])
                break
            elif tok[0] == _RPAREN:
                args = tuple(values[base:])
                del values[base:]
                values.append(Function(name, args))
            else:
                raise _fail(tokens, f"expected ',' or ')' in argument list, got {_shown(tok)!r}", tok[2], {",", ")"})
            pos += 1
            ops.pop()
            groups.pop()


def _leaf(tokens: list[tuple], pos: int) -> tuple[Expr, int]:
    """The leaf at ``pos`` that ``parse`` does not read inline, and the
    position after it: a constant, or a cell, range, name or ``#REF!``
    written as fine tokens, after an optional ``sheet!`` prefix."""
    if pos == len(tokens):
        raise _fail(tokens, "expected expression", None, {"expression"})
    tok = tokens[pos]
    sheet, external = None, False
    if (tok[0] in (TokenKind.IDENTIFIER, TokenKind.CELL_REF) and pos + 1 < len(tokens)
            and tokens[pos + 1][0] == TokenKind.EXCLAMATION):
        sheet = _unquote_sheet(tok[1])
        external = "[" in sheet
        pos += 2
        if pos == len(tokens):
            raise _fail(tokens, "expected reference after '!'", None, {"reference"})
        tok = tokens[pos]
    kind, lexeme = tok[0], tok[1]
    cell_range = _range_tail(tokens, pos, sheet, external)
    if cell_range is not None:
        return cell_range, pos + 3
    if kind == TokenKind.CELL_REF:
        return Reference(sheet=sheet, locator=_cellref_locator(lexeme), external=external), pos + 1
    if kind == TokenKind.IDENTIFIER:
        if sheet is not None and (lexeme.startswith("'") or "[" in lexeme or "$" in lexeme):
            raise _fail(tokens, f"illegal name after '!': {lexeme!r}", tok[2])
        if lexeme.startswith("'") or "[" in lexeme:
            raise _fail(tokens, "sheet name must be followed by '!'", tok[2], {"!"})
        if "$" in lexeme:
            raise _fail(tokens, f"'$' not allowed in a name: {lexeme!r}", tok[2])
        return Reference(sheet=sheet, name=lexeme, external=external), pos + 1
    if kind == TokenKind.ERROR_LITERAL and lexeme.upper() == "#REF!":
        return Reference(sheet=sheet, ref_error=True, external=external), pos + 1
    if sheet is not None:
        raise _fail(tokens, "expected reference after '!'", tok[2], {"reference"})
    if kind == _NUMBER:
        if lexeme.startswith("$"):
            raise _fail(tokens, "absolute row locator outside a range", tok[2])
        return Constant(_NUMBER_VALUE, lexeme), pos + 1
    if kind == TokenKind.STRING:
        return Constant(ValueType.TEXT, lexeme), pos + 1
    if kind == TokenKind.BOOLEAN:
        return Constant(ValueType.BOOLEAN, lexeme), pos + 1
    if kind == TokenKind.ERROR_LITERAL:
        return Constant(ValueType.ERROR, lexeme), pos + 1
    raise _fail(tokens, f"unexpected {lexeme!r}", tok[2], {"expression"})


def _range_tail(tokens: list[tuple], pos: int, sheet: str | None, external: bool) -> Range | None:
    """The cell (A1:B2), row (1:3) or column (A:C) range of the three tokens
    at ``pos``, or None. A cell reference followed by ':' must end in another one."""
    if pos + 1 >= len(tokens) or tokens[pos + 1][0] != _COLON:
        return None
    first = tokens[pos]
    last = tokens[pos + 2] if pos + 2 < len(tokens) else None
    if first[0] == TokenKind.CELL_REF and (last is None or last[0] != TokenKind.CELL_REF):
        raise _fail(tokens, "expected cell reference after ':'", tokens[pos + 1][2], {"cell reference"})
    locator = _RANGE_END.get(first[0])
    if locator is None or last is None or last[0] != first[0]:
        return None
    start, end = locator(first[1]), locator(last[1])
    if start is None or end is None:
        return None
    return Range(start, end, sheet=sheet, external=external)


def parse_text(formula_text: str) -> Expr:
    """Tokenize and parse a formula body; raises LexError or ParseError."""
    return parse(tokenize(formula_text))


def parse_formula(formula_text: str) -> Formula:
    """Total wrapper: failures are captured on the Formula, never raised."""
    try:
        return Formula(text=formula_text, expr=parse_text(formula_text))
    except FormulaError as exc:
        return Formula(text=formula_text, expr=None, error=str(exc))
