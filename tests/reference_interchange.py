"""Check-by-check interchange reader: the differential oracle for
``cellgauge.interchange.read_interchange``.

Every schema check runs through ``_expect`` with its JSON path built in
advance; the library reader must store the same cells and raise the same
``SchemaError`` path and message for every document.
"""

from __future__ import annotations

import re
from typing import Any

from cellgauge.expressions import ValueType, column_letter_to_index
from cellgauge.interchange import SchemaError
from cellgauge.model import Cell, DefinedName, Workbook, Worksheet
from cellgauge.parser import parse_formula, parse_text
from cellgauge.tokens import MAX_COL, MAX_ROW, FormulaError


_REF_RE = re.compile(r"([A-Za-z]{1,3})([1-9][0-9]*)")


def parse_cell_ref(text: str) -> tuple[int, int]:
    """(row, col) for an A1-style reference; raises ValueError when invalid."""
    match = _REF_RE.fullmatch(text)
    if not match:
        raise ValueError(f"not an A1-style reference: {text!r}")
    col = column_letter_to_index(match.group(1))
    digits = match.group(2)
    # MAX_ROW has 7 digits, so a longer row is out of the grid; checked
    # before int(), which refuses texts of more than 4,300 digits.
    row = int(digits) if len(digits) <= 7 else MAX_ROW + 1
    if col > MAX_COL or row > MAX_ROW:
        raise ValueError(f"reference out of bounds: {text!r}")
    return row, col


def _expect(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise SchemaError(path, message)


def _parse_defined_target(target: str):
    text = target[1:] if target.startswith("=") else target
    try:
        return parse_text(text)
    except FormulaError:
        return None


def _read_cell(entry: Any, path: str) -> tuple[tuple[int, int], Cell]:
    """The cell's (row, col) key and its content."""
    _expect(isinstance(entry, dict), path, "expected a cell object")
    ref = entry.get("ref")
    _expect(isinstance(ref, str), path + ".ref", "expected an A1-style string")
    try:
        row, col = parse_cell_ref(ref)
    except ValueError as exc:
        raise SchemaError(path + ".ref", str(exc)) from None
    has_formula = "formula" in entry
    has_value = "value" in entry
    _expect(
        has_formula != has_value,
        path,
        "cell must carry exactly one of formula/value",
    )
    fill = entry.get("fill")
    if fill is not None:
        _expect(isinstance(fill, str), path + ".fill", "expected a color string")
    if has_formula:
        text = entry["formula"]
        _expect(isinstance(text, str), path + ".formula", "expected a string")
        _expect(text.startswith("="), path + ".formula", 'formula must start with "="')
        return (row, col), Cell(parse_formula(text[1:]))
    type_name = entry.get("type")
    _expect(
        isinstance(type_name, str),
        path + ".type",
        '"type" is required alongside "value"',
    )
    try:
        value_type = ValueType(type_name)
    except ValueError:
        raise SchemaError(path + ".type", f"unknown value type {type_name!r}") from None
    value = entry["value"]
    if value_type is ValueType.NUMBER:
        _expect(
            isinstance(value, (int, float)) and not isinstance(value, bool),
            path + ".value",
            "expected a number",
        )
    elif value_type is ValueType.BOOLEAN:
        _expect(isinstance(value, bool), path + ".value", "expected a boolean")
    else:
        _expect(isinstance(value, str), path + ".value", "expected a string")
    return (row, col), Cell(literal=True)


def read_interchange(document: Any, *, default_name: str | None = None) -> Workbook:
    """Build a Workbook from a parsed interchange document."""
    _expect(isinstance(document, dict), "$", "expected a workbook object")
    name = document.get("name", default_name)
    _expect(isinstance(name, str), "$.name", "expected a string")
    sheets_doc = document.get("sheets")
    _expect(isinstance(sheets_doc, list), "$.sheets", "expected a list of sheets")
    sheets: list[Worksheet] = []
    for s_idx, sheet_doc in enumerate(sheets_doc):
        s_path = f"$.sheets[{s_idx}]"
        _expect(isinstance(sheet_doc, dict), s_path, "expected a sheet object")
        sheet_name = sheet_doc.get("name")
        _expect(isinstance(sheet_name, str), s_path + ".name", "expected a string")
        cells_doc = sheet_doc.get("cells", [])
        _expect(isinstance(cells_doc, list), s_path + ".cells", "expected a list of cells")
        cells: dict[tuple[int, int], Cell] = {}
        for c_idx, entry in enumerate(cells_doc):
            key, cell = _read_cell(entry, f"{s_path}.cells[{c_idx}]")
            _expect(
                key not in cells,
                f"{s_path}.cells[{c_idx}].ref",
                f"duplicate cell {entry.get('ref')!r}",
            )
            cells[key] = cell
        sheets.append(Worksheet(sheet_name, s_idx + 1, cells))
    defined: dict[tuple[None, str], DefinedName] = {}
    names_doc = document.get("definedNames", [])
    _expect(isinstance(names_doc, list), "$.definedNames", "expected a list")
    for n_idx, entry in enumerate(names_doc):
        n_path = f"$.definedNames[{n_idx}]"
        _expect(isinstance(entry, dict), n_path, "expected a defined-name object")
        dn_name = entry.get("name")
        target = entry.get("target")
        _expect(isinstance(dn_name, str) and dn_name != "", n_path + ".name", "expected a name")
        _expect(isinstance(target, str), n_path + ".target", "expected a target string")
        key = (None, dn_name.casefold())
        if key not in defined:  # first definition wins
            defined[key] = DefinedName(dn_name, target, _parse_defined_target(target))
    try:
        return Workbook(name, tuple(sheets), defined)
    except ValueError as exc:
        raise SchemaError("$.sheets", str(exc)) from None
