"""JSON interchange format: a lossless, deterministic workbook fixture format.

Schema (values in <> are JSON types):
    { "name": <string>,
      "definedNames": [ { "name": <string>, "target": <string> } ],
      "sheets": [ { "name": <string>,
                    "cells": [ { "ref": "A1"-style <string>,
                                 "formula": <string> starting with "=",
                                 "value": <number|string|boolean>,
                                 "type": "number"|"text"|"boolean"|"error",
                                 "fill": <string> } ] } ] }

Exactly one of formula/value per cell; "type" is required alongside "value";
empty cells are omitted. Defined names are global only: the schema has no
sheet-local names, and writing a workbook leaves its sheet-local names out.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any

from .expressions import ValueType, column_index_to_letter, column_letter_to_index
from .model import (
    Cell,
    CellCoordinate,
    DefinedName,
    VisualProperty,
    Workbook,
    Worksheet,
)
from .parser import parse_formula, parse_text
from .tokens import MAX_COL, MAX_ROW, FormulaError


class SchemaError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


_REF_RE = re.compile(r"([A-Za-z]{1,3})([1-9][0-9]*)")


def parse_cell_ref(text: str) -> tuple[int, int]:
    """(row, col) for an A1-style reference; raises ValueError when invalid."""
    match = _REF_RE.fullmatch(text)
    if not match:
        raise ValueError(f"not an A1-style reference: {text!r}")
    col = column_letter_to_index(match.group(1))
    row = int(match.group(2))
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


def _read_cell(entry: Any, sheet_index: int, path: str) -> Cell:
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
    visual = (VisualProperty("fillColor", fill),) if fill is not None else ()
    coordinate = CellCoordinate(sheet_index, row, col)
    if has_formula:
        text = entry["formula"]
        _expect(isinstance(text, str), path + ".formula", "expected a string")
        _expect(text.startswith("="), path + ".formula", 'formula must start with "="')
        return Cell(
            coordinate=coordinate,
            formula=parse_formula(text[1:]),
            visual_properties=visual,
        )
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
    return Cell(
        coordinate=coordinate,
        value=value,
        value_type=value_type,
        visual_properties=visual,
    )


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
            cell = _read_cell(entry, s_idx + 1, f"{s_path}.cells[{c_idx}]")
            key = (cell.coordinate.row, cell.coordinate.col)
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


def read_interchange_file(path: str | Path) -> Workbook:
    path = Path(path)
    with open(path, encoding="utf-8") as fp:
        try:
            document = json.load(fp)
        except json.JSONDecodeError as exc:
            raise SchemaError("$", f"not valid JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise SchemaError("$", f"not UTF-8 text: {exc}") from None
        except RecursionError:
            raise SchemaError("$", "JSON nested too deeply to decode") from None
    return read_interchange(document, default_name=path.stem)


def _cell_to_doc(cell: Cell) -> dict[str, Any] | None:
    if not cell.has_content:
        return None  # schema has no representation for content-less cells
    ref = column_index_to_letter(cell.coordinate.col) + str(cell.coordinate.row)
    doc: dict[str, Any] = {"ref": ref}
    if cell.formula is not None:
        doc["formula"] = "=" + cell.formula.text
    else:
        doc["value"] = cell.value
        doc["type"] = cell.value_type.value  # type: ignore[union-attr]
    for prop in cell.visual_properties:
        if prop.key == "fillColor":
            doc["fill"] = prop.value
    return doc


def write_interchange(workbook: Workbook) -> dict[str, Any]:
    """Inverse of read_interchange (content-less cells are omitted)."""
    sheets = []
    for sheet in workbook.sheets:
        cell_docs = []
        for key in sorted(sheet.cells):
            doc = _cell_to_doc(sheet.cells[key])
            if doc is not None:
                cell_docs.append(doc)
        sheets.append({"name": sheet.name, "cells": cell_docs})
    return {
        "name": workbook.name,
        "definedNames": [
            {"name": dn.name, "target": dn.target}
            for dn in workbook.defined_names.values()
            if dn.scope is None
        ],
        "sheets": sheets,
    }


def write_interchange_file(workbook: Workbook, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(write_interchange(workbook), fp, ensure_ascii=False, indent=2)
        fp.write("\n")
