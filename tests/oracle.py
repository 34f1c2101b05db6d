"""Independent brute-force reference computations.

Everything here recomputes resolution, classification, and the 22 metrics
with naive walks and full range expansion (no corner shortcut, no shared
code with the graph/metrics modules). Used to cross-check the engine.
"""

from __future__ import annotations

import math

from cellgauge.expressions import (
    Constant,
    Function,
    OpKind,
    Operator,
    Parenthesis,
    Range,
    Reference,
)
from cellgauge.model import CellCoordinate, Workbook

GRID_MAX_ROW = 1_048_576
GRID_MAX_COL = 16_384

CONDITIONALS = frozenset(
    {"IF", "IFS", "IFERROR", "IFNA", "COUNTIF", "COUNTIFS", "SUMIF", "SUMIFS", "AVERAGEIF", "AVERAGEIFS"}
)


def children(expr):
    if isinstance(expr, Function):
        return list(expr.args)
    if isinstance(expr, Operator):
        return list(expr.operands)
    if isinstance(expr, Parenthesis):
        return [expr.inner]
    return []


def depth(expr) -> int:
    kids = children(expr)
    return 1 + (max(depth(k) for k in kids) if kids else 0)


def count_nodes(expr) -> int:
    return 1 + sum(count_nodes(k) for k in children(expr))


def function_names(expr) -> list[str]:
    names = [expr.name] if isinstance(expr, Function) else []
    for kid in children(expr):
        names.extend(function_names(kid))
    return names


def conditionals(expr, allowed=CONDITIONALS) -> int:
    return sum(1 for name in function_names(expr) if name in allowed)


_OP_TEXT = {
    OpKind.ADD: "+",
    OpKind.SUB: "-",
    OpKind.MUL: "*",
    OpKind.DIV: "/",
    OpKind.POW: "^",
    OpKind.CONCAT: "&",
    OpKind.EQ: "=",
    OpKind.NEQ: "<>",
    OpKind.LT: "<",
    OpKind.GT: ">",
    OpKind.LE: "<=",
    OpKind.GE: ">=",
}


def copy_key(expr) -> str:
    """Independent wildcard writer for copy-equivalence classes."""
    if isinstance(expr, Reference):
        return "REF"
    if isinstance(expr, Range):
        return "RANGE"
    if isinstance(expr, Constant):
        return expr.lexeme
    if isinstance(expr, Parenthesis):
        return "(" + copy_key(expr.inner) + ")"
    if isinstance(expr, Function):
        return expr.name + "(" + ",".join(copy_key(a) for a in expr.args) + ")"
    if isinstance(expr, Operator):
        if expr.kind is OpKind.PERCENT:
            return copy_key(expr.operands[0]) + "%"
        if expr.kind is OpKind.UNARY_MINUS:
            return "-" + copy_key(expr.operands[0])
        if expr.kind is OpKind.UNARY_PLUS:
            return "+" + copy_key(expr.operands[0])
        a, b = expr.operands
        return copy_key(a) + _OP_TEXT[expr.kind] + copy_key(b)
    raise TypeError(expr)


def _sheet_box(workbook: Workbook, sheet_index: int):
    cells = workbook.sheets[sheet_index - 1].cells
    if not cells:
        return None
    rows = sorted(r for r, _ in cells)
    cols = sorted(c for _, c in cells)
    return rows[0], cols[0], rows[-1], cols[-1]


def expand(expr, own_sheet: int, workbook: Workbook):
    """(cells, dangling) by naive full expansion of every reference node."""
    cells: set[tuple[int, int, int]] = set()
    dangling = 0

    def sheet_of(name):
        if name is None:
            return own_sheet
        for sheet in workbook.sheets:
            if sheet.name.casefold() == name.casefold():
                return sheet.index
        return None

    def add_locator(sheet_name, locator):
        nonlocal dangling
        sheet = sheet_of(sheet_name)
        if sheet is None or locator.row is None or locator.col is None:
            dangling += 1
            return
        if not (1 <= locator.row <= GRID_MAX_ROW and 1 <= locator.col <= GRID_MAX_COL):
            dangling += 1
            return
        cells.add((sheet, locator.row, locator.col))

    def add_block(sheet_name, start, end):
        nonlocal dangling
        sheet = sheet_of(sheet_name)
        if sheet is None:
            dangling += 1
            return
        if start.row is None or end.row is None:
            box = _sheet_box(workbook, sheet)
            if box is None:
                return
            rows = range(box[0], box[2] + 1)
        else:
            lo, hi = sorted((start.row, end.row))
            rows = range(max(1, lo), min(GRID_MAX_ROW, hi) + 1)
        if start.col is None or end.col is None:
            box = _sheet_box(workbook, sheet)
            if box is None:
                return
            cols = range(box[1], box[3] + 1)
        else:
            lo, hi = sorted((start.col, end.col))
            cols = range(max(1, lo), min(GRID_MAX_COL, hi) + 1)
        for r in rows:
            for c in cols:
                cells.add((sheet, r, c))

    def visit(node):
        nonlocal dangling
        if isinstance(node, Reference):
            if node.ref_error or node.external:
                dangling += 1
            elif node.name is not None:
                # local to the sheet it is qualified with, else the own sheet
                key = node.name.casefold()
                names = workbook.defined_names
                defined = names.get((sheet_of(node.sheet), key)) or names.get((None, key))
                target = defined.expr if defined else None
                if isinstance(target, Reference) and target.sheet and target.locator and not (
                    target.external or target.ref_error
                ):
                    add_locator(target.sheet, target.locator)
                elif isinstance(target, Range) and target.sheet and not target.external:
                    add_block(target.sheet, target.start, target.end)
                else:
                    dangling += 1
            else:
                add_locator(node.sheet, node.locator)
        elif isinstance(node, Range):
            if node.external:
                dangling += 1
            else:
                add_block(node.sheet, node.start, node.end)
        for kid in children(node):
            visit(kid)

    visit(expr)
    return cells, dangling


def spreading(points) -> float:
    """Max pairwise distance over ALL points, no corner shortcut."""
    pts = sorted(points)
    best = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            s1, r1, c1 = pts[i]
            s2, r2, c2 = pts[j]
            d = math.sqrt((r1 - r2) ** 2 + (c1 - c2) ** 2 + (s1 - s2) ** 2)
            if d > best:
                best = d
    return best


def expansions(workbook: Workbook) -> dict:
    """Each parsed formula cell's coordinate -> (cells, dangling) of `expand`."""
    return {
        CellCoordinate(sheet.index, row, col): expand(cell.formula.expr, sheet.index, workbook)
        for sheet in workbook.sheets
        for (row, col), cell in sheet.cells.items()
        if cell.formula is not None and cell.formula.expr is not None
    }


def record(workbook: Workbook, conditional_set=CONDITIONALS) -> dict:
    """All 22 metric values (keyed M01..M22) plus bookkeeping, brute force."""
    all_cells = {
        (sheet.index, row, col): cell for sheet in workbook.sheets for (row, col), cell in sheet.cells.items()
    }
    non_empty = sum(1 for c in all_cells.values() if c.literal or c.formula is not None)
    formula_cells = {coord: c.formula for coord, c in all_cells.items() if c.formula is not None}
    parsed = {coord: f.expr for coord, f in formula_cells.items() if f.expr is not None}
    expanded = expansions(workbook)

    referenced = set()
    for cells, _ in expanded.values():
        referenced |= cells
    formula_coords = set(formula_cells)
    stored_nonformula_content = {
        coord for coord, c in all_cells.items() if c.formula is None and c.literal
    }
    # input cells: referenced and not a formula cell (stored literal or blank)
    input_coords = referenced - formula_coords
    labels = {c for c in stored_nonformula_content if c not in referenced}

    fan_in = {
        coord: sum(1 for cells, _ in expanded.values() if tuple(coord) in cells)
        for coord in expanded
    }

    values: dict[str, object] = {f"M{i:02d}": None for i in range(1, 23)}
    values["M03"] = len(formula_cells)
    values["M04"] = len(formula_cells) / non_empty if non_empty else None
    values["M05"] = len(input_coords)
    values["M06"] = len(input_coords) / non_empty if non_empty else None
    values["M07"] = len(formula_cells) / len(input_coords) if input_coords else None

    if parsed:
        depths = [depth(e) for e in parsed.values()]
        elements = [count_nodes(e) for e in parsed.values()]
        funcs = [len(function_names(e)) for e in parsed.values()]
        distinct = [len(set(function_names(e))) for e in parsed.values()]
        conds = [conditionals(e, conditional_set) for e in parsed.values()]
        fan_outs = [len(expanded[c][0]) for c in parsed]
        fan_ins = [fan_in[c] for c in parsed]
        spreads = [spreading(expanded[c][0]) for c in parsed]
        keys = {copy_key(e) for e in parsed.values()}

        def put(avg_id, max_id, vals):
            values[avg_id] = sum(vals) / len(vals)
            values[max_id] = max(vals)

        put("M01", "M02", depths)
        put("M09", "M10", fan_outs)
        put("M11", "M12", fan_ins)
        put("M13", "M14", conds)
        put("M15", "M16", spreads)
        put("M17", "M18", funcs)
        put("M19", "M20", distinct)
        put("M21", "M22", elements)
        values["M08"] = len(keys)

    values["nonEmptyCells"] = non_empty
    values["inputCells"] = len(input_coords)
    values["formulaCells"] = len(formula_cells)
    values["parseFailures"] = len(formula_cells) - len(parsed)
    values["labelCells"] = len(labels)
    values["sheetCount"] = len(workbook.sheets)
    return values
