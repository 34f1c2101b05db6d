"""Formula parser: recursive descent with one precedence-climbing operator loop.

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
from .lexer import tokenize
from .model import Formula
from .tokens import (
    MAX_COL,
    MAX_ROW,
    FormulaError,
    Token,
    TokenKind,
)

# Bound on the parser's own recursion: each full expression (the whole
# formula, a function argument, a parenthesised group), each opening
# parenthesis and each unary operator counts one level. It must sit well
# under the interpreter recursion limit; spreadsheet software itself allows
# far less nesting than this. Operator chains build depth in a loop and are
# not bounded: nothing downstream walks a tree recursively.
MAX_NESTING = 200


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


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
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

    def nest(self) -> None:
        """Count one nesting level; callers undo it with ``self.depth -= 1``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.fail("formula too deeply nested")

    # --- operators --------------------------------------------------------

    def expression(self) -> Expr:
        self.nest()
        try:
            return self.binary(1)
        finally:
            self.depth -= 1

    def binary(self, min_precedence: int) -> Expr:
        """Precedence climbing: operators at ``min_precedence`` or tighter,
        all associating left."""
        node = self.unary()
        tokens = self.tokens
        while self.pos < len(tokens):
            tok = tokens[self.pos]
            entry = _OPERATORS.get(tok.lexeme) if tok.kind == TokenKind.OPERATOR else None
            if entry is None or entry[0] < min_precedence:
                break
            precedence, kind = entry
            self.pos += 1
            if kind is OpKind.PERCENT:
                node = Operator(kind, (node,))
            else:
                node = Operator(kind, (node, self.binary(precedence + 1)))
        return node

    def unary(self) -> Expr:
        tok = self.peek()
        if tok is not None and tok.kind == TokenKind.OPERATOR and tok.lexeme in ("+", "-"):
            self.nest()
            try:
                self.advance()
                kind = OpKind.UNARY_MINUS if tok.lexeme == "-" else OpKind.UNARY_PLUS
                return Operator(kind, (self.unary(),))
            finally:
                self.depth -= 1
        return self.primary()

    # --- primaries ------------------------------------------------------

    def primary(self) -> Expr:
        tok = self.peek()
        if tok is None:
            raise self.fail("expected expression", expected={"expression"})
        kind = tok.kind
        if kind == TokenKind.NUMBER:
            return self._number(tok)
        if kind == TokenKind.STRING:
            self.advance()
            return Constant(ValueType.TEXT, tok.lexeme)
        if kind == TokenKind.BOOLEAN:
            nxt = self.peek(1)
            if nxt is not None and nxt.kind == TokenKind.LPAREN:
                return self._function_call(tok)
            self.advance()
            return Constant(ValueType.BOOLEAN, tok.lexeme)
        if kind == TokenKind.ERROR_LITERAL:
            self.advance()
            if tok.lexeme.upper() == "#REF!":
                return Reference(ref_error=True)
            return Constant(ValueType.ERROR, tok.lexeme)
        if kind in (TokenKind.IDENTIFIER, TokenKind.CELL_REF):
            return self._reference_or_call(tok)
        if kind == TokenKind.LPAREN:
            self.nest()
            try:
                self.advance()
                inner = self.expression()
            finally:
                self.depth -= 1
            closing = self.peek()
            if closing is None or closing.kind != TokenKind.RPAREN:
                raise self.fail("unbalanced parentheses: expected ')'", tok.start, {")"})
            self.advance()
            return Parenthesis(inner)
        raise self.fail(f"unexpected {tok.lexeme!r}", tok.start, {"expression"})

    def _number(self, tok: Token) -> Expr:
        row_range = self._range_tail()
        if row_range is not None:
            return row_range
        if tok.lexeme.startswith("$"):
            raise self.fail("absolute row locator outside a range", tok.start)
        self.advance()
        return Constant(ValueType.NUMBER, tok.lexeme)

    def _function_call(self, name_tok: Token) -> Expr:
        lexeme = name_tok.lexeme
        if lexeme.startswith("'") or "[" in lexeme or "$" in lexeme:
            raise self.fail(f"illegal function name {lexeme!r}", name_tok.start)
        self.advance()  # name
        self.advance()  # (
        args: list[Expr] = []
        closing = self.peek()
        if closing is not None and closing.kind == TokenKind.RPAREN:
            self.advance()
            return Function(lexeme.upper(), ())
        while True:
            nxt = self.peek()
            if nxt is not None and nxt.kind in (TokenKind.COMMA, TokenKind.RPAREN):
                raise self.fail("empty function argument")
            args.append(self.expression())
            nxt = self.peek()
            if nxt is None:
                raise self.fail("unbalanced parentheses: expected ',' or ')'", expected={",", ")"})
            if nxt.kind == TokenKind.COMMA:
                self.advance()
                continue
            if nxt.kind == TokenKind.RPAREN:
                self.advance()
                return Function(lexeme.upper(), tuple(args))
            raise self.fail(f"expected ',' or ')' in argument list, got {nxt.lexeme!r}", nxt.start, {",", ")"})

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

    def _reference_or_call(self, tok: Token) -> Expr:
        nxt = self.peek(1)
        if nxt is not None and nxt.kind == TokenKind.LPAREN:
            return self._function_call(tok)
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
        raise parser.fail(f"unexpected {leftover.lexeme!r} after expression", leftover.start)
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
    except RecursionError:
        return Formula(text=formula_text, expr=None, error="formula too deeply nested")
