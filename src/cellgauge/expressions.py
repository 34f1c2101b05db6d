"""Formula AST: node types, canonical serialization, column-letter arithmetic,
fill-copy shifts.

Leaves are constants and references/ranges; internal nodes are functions,
operators, and explicit parentheses. Nodes are `Value`s: equal by class and
fields, hashable, and immutable by convention. Equality and hash recurse once
per level, so library code uses neither; every function here that visits a
tree keeps its own stack. So does ``repr``: it gives the dataclass-style text
at any depth.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .tokens import MAX_COL, MAX_ROW


class ValueType(enum.Enum):
    NUMBER = "number"
    TEXT = "text"
    BOOLEAN = "boolean"
    ERROR = "error"


class OpKind(enum.Enum):
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    POW = "pow"
    CONCAT = "concat"
    EQ = "eq"
    NEQ = "neq"
    LT = "lt"
    GT = "gt"
    LE = "le"
    GE = "ge"
    PERCENT = "percent"
    UNARY_MINUS = "unaryMinus"
    UNARY_PLUS = "unaryPlus"


# Each operator's symbol, keyed by its kind's string value: `write_tree`
# looks up every operator node, and hashing an Enum member runs
# Enum.__hash__ in Python, while a str caches its hash.
_SYMBOL = {
    "add": "+", "sub": "-", "mul": "*", "div": "/", "pow": "^", "concat": "&",
    "eq": "=", "neq": "<>", "lt": "<", "gt": ">", "le": "<=", "ge": ">=",
    "percent": "%", "unaryMinus": "-", "unaryPlus": "+",
}


class BadColumnError(ValueError):
    pass


def column_letter_to_index(letters: str) -> int:
    """Bijective base-26 column value: "A" -> 1, "Z" -> 26, "AA" -> 27."""
    if not letters:
        raise BadColumnError("empty column string")
    value = 0
    for ch in letters:
        if "a" <= ch <= "z":
            ch = ch.upper()
        if not "A" <= ch <= "Z":
            raise BadColumnError(f"illegal column character {ch!r}")
        value = value * 26 + (ord(ch) - 64)
    return value


def column_index_to_letter(index: int) -> str:
    """Inverse of column_letter_to_index; index must be >= 1."""
    if index < 1:
        raise BadColumnError(f"column index must be >= 1, got {index}")
    out = []
    while index:
        index, rem = divmod(index - 1, 26)
        out.append(chr(65 + rem))
    return "".join(reversed(out))


class Value:
    """Base of the plain value classes: models, tree nodes, report values.

    A subclass lists its fields, in order, as ``__slots__`` and sets them in
    ``__init__``. A value equals only a value of the same class with equal
    fields, hashes over its fields and has a dataclass-style repr. Values are
    immutable by convention, with nothing checking it: they are hashed,
    pickled and shared (the parser reuses one node per reference text).
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return _node_repr(self)


class Expr(Value):
    """Base class for all AST nodes."""

    __slots__ = ()


class CellLocator(Value):
    """Pre-resolution grid position inside a reference.

    row is None for full-column locators (A:A), col is None for full-row
    locators (1:1); a single-cell locator has both.
    """

    __slots__ = ("row", "col", "row_abs", "col_abs")

    def __init__(self, row: int | None, col: int | None, row_abs: bool = False, col_abs: bool = False):
        self.row = row
        self.col = col
        self.row_abs = row_abs
        self.col_abs = col_abs


class Function(Expr):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple[Expr, ...]):
        self.name = name  # stored uppercase
        self.args = args


class Operator(Expr):
    __slots__ = ("kind", "operands")

    def __init__(self, kind: OpKind, operands: tuple[Expr, ...]):
        self.kind = kind
        self.operands = operands  # one operand for unary kinds, two otherwise


class Constant(Expr):
    __slots__ = ("value_type", "lexeme")

    def __init__(self, value_type: ValueType, lexeme: str):
        self.value_type = value_type
        self.lexeme = lexeme  # verbatim source text (strings keep their quotes)


class Parenthesis(Expr):
    __slots__ = ("inner",)

    def __init__(self, inner: Expr):
        self.inner = inner


class Reference(Expr):
    """Single-cell reference: a grid locator, a defined name, or a #REF! error."""

    __slots__ = ("sheet", "locator", "name", "external", "ref_error")

    def __init__(self, sheet: str | None = None, locator: CellLocator | None = None, name: str | None = None,
                 external: bool = False, ref_error: bool = False):
        self.sheet = sheet
        self.locator = locator
        self.name = name
        self.external = external
        self.ref_error = ref_error

    @property
    def by_name(self) -> bool:
        return self.name is not None


class Range(Expr):
    """Rectangular cell block; endpoints share the optional sheet qualifier."""

    __slots__ = ("start", "end", "sheet", "external")

    def __init__(self, start: CellLocator, end: CellLocator, sheet: str | None = None, external: bool = False):
        self.start = start
        self.end = end
        self.sheet = sheet
        self.external = external


def _node_repr(node: Value) -> str:
    """The text a dataclass repr would give, built with an explicit stack so
    a tree of any depth has one."""
    out: list[str] = []
    # (True, text to emit as is) or (False, value to write)
    stack: list = [(False, node)]
    pop, push, emit = stack.pop, stack.append, out.append
    while stack:
        is_text, value = pop()
        if is_text:
            emit(value)
            continue
        if isinstance(value, Value):
            emit(type(value).__qualname__ + "(")
            push((True, ")"))
            names = value.__slots__
            for i in range(len(names) - 1, -1, -1):
                push((False, getattr(value, names[i])))
                push((True, f", {names[i]}=" if i else f"{names[i]}="))
        elif type(value) is tuple:
            emit("(")
            push((True, ",)" if len(value) == 1 else ")"))
            for i in range(len(value) - 1, -1, -1):
                push((False, value[i]))
                if i:
                    push((True, ", "))
        else:
            emit(repr(value))
    return "".join(out)


# Quote the sheet prefix unless it scans back as a plain identifier.
def _sheet_needs_quoting(name: str) -> bool:
    if not name:
        return True
    first = name[0]
    if not (first.isalpha() or first == "_"):
        return True
    if name.upper() in ("TRUE", "FALSE"):  # would scan as a boolean constant
        return True
    return any(not (ch.isalnum() or ch in "_.") for ch in name)


def _sheet_prefix(sheet: str | None) -> str:
    if sheet is None:
        return ""
    if _sheet_needs_quoting(sheet):
        return "'" + sheet.replace("'", "''") + "'!"
    return sheet + "!"


def _locator_text(loc: CellLocator) -> str:
    parts = []
    if loc.col is not None:
        if loc.col_abs:
            parts.append("$")
        parts.append(column_index_to_letter(loc.col))
    if loc.row is not None:
        if loc.row_abs:
            parts.append("$")
        parts.append(str(loc.row))
    return "".join(parts)


def _reference_text(ref: Reference) -> str:
    if ref.ref_error:
        return _sheet_prefix(ref.sheet) + "#REF!"
    if ref.name is not None:
        return _sheet_prefix(ref.sheet) + ref.name
    assert ref.locator is not None
    return _sheet_prefix(ref.sheet) + _locator_text(ref.locator)


def _range_text(rng: Range) -> str:
    return _sheet_prefix(rng.sheet) + _locator_text(rng.start) + ":" + _locator_text(rng.end)


class WrittenTree(NamedTuple):
    """A tree's text and shape, from one pass."""

    text: str
    depth: int  # a lone leaf is 1; parentheses add a level
    node_count: int  # every variant included
    functions: list[str]  # uppercase name of every Function node, preorder


def write_tree(expr: Expr, wildcard_refs: bool = False) -> WrittenTree:
    """Serialize the tree and measure it in one pass.

    The pass keeps an explicit stack, so operator chains and nests of any
    depth are safe. With ``wildcard_refs`` every Reference is written as REF
    and every Range as RANGE.
    """
    out: list[str] = []
    functions: list[str] = []
    node_count = 0
    deepest = 0
    # Items are (node, depth) pairs still to write, or text to emit as is.
    stack: list = [(expr, 1)]
    pop, push, emit = stack.pop, stack.append, out.append
    while stack:
        item = pop()
        if type(item) is str:
            emit(item)
            continue
        node, depth = item
        node_count += 1
        if depth > deepest:
            deepest = depth
        kind = type(node)
        if kind is Operator:
            symbol = _SYMBOL[node.kind._value_]
            operands = node.operands
            if len(operands) == 2:
                push((operands[1], depth + 1))
                push(symbol)
                push((operands[0], depth + 1))
            elif symbol == "%":
                push(symbol)
                push((operands[0], depth + 1))
            else:
                emit(symbol)
                push((operands[0], depth + 1))
        elif kind is Constant:
            emit(node.lexeme)
        elif kind is Reference:
            emit("REF" if wildcard_refs else _reference_text(node))
        elif kind is Range:
            emit("RANGE" if wildcard_refs else _range_text(node))
        elif kind is Function:
            functions.append(node.name)
            emit(node.name + "(")
            push(")")
            args = node.args
            for i in range(len(args) - 1, 0, -1):
                push((args[i], depth + 1))
                push(",")
            if args:
                push((args[0], depth + 1))
        elif kind is Parenthesis:
            emit("(")
            push(")")
            push((node.inner, depth + 1))
        else:
            raise TypeError(f"not an Expr node: {node!r}")
    return WrittenTree("".join(out), deepest, node_count, functions)


def serialize(expr: Expr) -> str:
    """Canonical formula text; re-parsing yields a structurally equal tree."""
    return write_tree(expr).text


def walk(expr: Expr):
    """Yield every node of the tree, preorder."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Function):
            stack.extend(reversed(node.args))
        elif isinstance(node, Operator):
            stack.extend(reversed(node.operands))
        elif isinstance(node, Parenthesis):
            stack.append(node.inner)


def reference_nodes(expr: Expr) -> list[Reference | Range]:
    """Every Reference and Range node of the tree, in no particular order.

    Cheaper than filtering `walk`, which yields every node through a
    generator."""
    found: list[Reference | Range] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Function:
            stack.extend(node.args)  # type: ignore[attr-defined]
        elif kind is Operator:
            stack.extend(node.operands)  # type: ignore[attr-defined]
        elif kind is Parenthesis:
            stack.append(node.inner)  # type: ignore[attr-defined]
        elif kind is Reference or kind is Range:
            found.append(node)  # type: ignore[arg-type]
    return found


def shift_locator(loc: CellLocator, d_row: int, d_col: int) -> CellLocator | None:
    """The locator moved by the offset in its relative parts; None off the grid."""
    row = loc.row if loc.row is None or loc.row_abs else loc.row + d_row
    col = loc.col if loc.col is None or loc.col_abs else loc.col + d_col
    if (row is not None and not 1 <= row <= MAX_ROW) or (col is not None and not 1 <= col <= MAX_COL):
        return None
    return CellLocator(row, col, loc.row_abs, loc.col_abs)


def shift_reference(node: Reference | Range, d_row: int, d_col: int) -> Reference | Range:
    """The reference or range moved by the offset in its relative parts; a
    #REF! reference, keeping its sheet and external flag, when a part
    leaves the grid. Names and #REF! stay as they are."""
    if type(node) is Range:
        start, end = shift_locator(node.start, d_row, d_col), shift_locator(node.end, d_row, d_col)
        if start is not None and end is not None:
            return Range(start, end, node.sheet, node.external)
    elif node.locator is None:
        return node
    elif (locator := shift_locator(node.locator, d_row, d_col)) is not None:
        return Reference(node.sheet, locator, None, node.external)
    return Reference(node.sheet, None, None, node.external, True)


def shift_expr(expr: Expr, d_row: int, d_col: int) -> Expr:
    """Translate relative references by a row/column offset (see
    `shift_reference`), mirroring spreadsheet fill semantics.

    Rebuilds the tree bottom-up with an explicit stack, so chains and nests
    of any depth are safe."""
    built: list[Expr] = []  # shifted subtrees, in the order they finish
    # (node, children already built?) pairs still to visit
    stack: list[tuple[Expr, bool]] = [(expr, False)]
    while stack:
        node, ready = stack.pop()
        kind = type(node)
        if kind is Range or kind is Reference:
            built.append(shift_reference(node, d_row, d_col))  # type: ignore[arg-type]
            continue
        if kind is Function:
            children = node.args  # type: ignore[attr-defined]
        elif kind is Operator:
            children = node.operands  # type: ignore[attr-defined]
        elif kind is Parenthesis:
            children = (node.inner,)  # type: ignore[attr-defined]
        else:
            children = ()
        if not children:
            built.append(node)
        elif not ready:
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(children))
        else:
            shifted = tuple(built[-len(children):])
            del built[-len(children):]
            if kind is Function:
                built.append(Function(node.name, shifted))  # type: ignore[attr-defined]
            elif kind is Operator:
                built.append(Operator(node.kind, shifted))  # type: ignore[attr-defined]
            else:
                built.append(Parenthesis(shifted[0]))
    return built[0]
