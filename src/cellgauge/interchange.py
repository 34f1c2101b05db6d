"""JSON interchange format: a deterministic workbook fixture format.

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
sheet-local names. Every value, type and fill is checked against the schema,
but the model keeps only whether a cell holds a literal. A document that breaks
the schema raises SchemaError naming the first failing check and its full JSON
path, e.g. "$.sheets[1].cells[2].value: expected a number"; each cell's checks
run in one pass, and its path is built only when one fails. A file may start
with a UTF-8 byte order mark.
"""

from __future__ import annotations

import functools
import json
import re
from pathlib import Path
from typing import Any

from .expressions import column_letter_to_index
from .model import LITERAL_CELL, Cell, DefinedName, Workbook, Worksheet
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


# The same ref texts recur in every interchange workbook of a corpus; a call
# that raises is not cached. The xlsx reader calls parse_cell_ref uncached:
# there the cache raised peak memory without a measurable gain.
_cached_cell_ref = functools.lru_cache(maxsize=8192)(parse_cell_ref)


def _parse_defined_target(target: str):
    text = target[1:] if target.startswith("=") else target
    try:
        return parse_text(text)
    except FormulaError:
        return None


def _cell_error(s_idx: int, c_idx: int, field: str, message: str) -> SchemaError:
    return SchemaError(f"$.sheets[{s_idx}].cells[{c_idx}]{field}", message)


def _read_cells(cells_doc: list, s_idx: int) -> dict[tuple[int, int], Cell]:
    """The cells of sheet ``s_idx``: each entry checked in one pass, its JSON
    path built only when a check fails."""
    cells: dict[tuple[int, int], Cell] = {}
    for c_idx, entry in enumerate(cells_doc):
        if not isinstance(entry, dict):
            raise _cell_error(s_idx, c_idx, "", "expected a cell object")
        ref = entry.get("ref")
        if not isinstance(ref, str):
            raise _cell_error(s_idx, c_idx, ".ref", "expected an A1-style string")
        try:
            key = _cached_cell_ref(ref)
        except ValueError as exc:
            raise _cell_error(s_idx, c_idx, ".ref", str(exc)) from None
        has_formula = "formula" in entry
        if has_formula == ("value" in entry):
            raise _cell_error(s_idx, c_idx, "", "cell must carry exactly one of formula/value")
        fill = entry.get("fill")
        if fill is not None and not isinstance(fill, str):
            raise _cell_error(s_idx, c_idx, ".fill", "expected a color string")
        if has_formula:
            text = entry["formula"]
            if not isinstance(text, str):
                raise _cell_error(s_idx, c_idx, ".formula", "expected a string")
            if not text.startswith("="):
                raise _cell_error(s_idx, c_idx, ".formula", 'formula must start with "="')
            cell = Cell(parse_formula(text[1:]))
        else:
            type_name = entry.get("type")
            if not isinstance(type_name, str):
                raise _cell_error(s_idx, c_idx, ".type", '"type" is required alongside "value"')
            value = entry["value"]
            if type_name == "number":
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise _cell_error(s_idx, c_idx, ".value", "expected a number")
            elif type_name == "text" or type_name == "error":
                if not isinstance(value, str):
                    raise _cell_error(s_idx, c_idx, ".value", "expected a string")
            elif type_name == "boolean":
                if not isinstance(value, bool):
                    raise _cell_error(s_idx, c_idx, ".value", "expected a boolean")
            else:
                raise _cell_error(s_idx, c_idx, ".type", f"unknown value type {type_name!r}")
            cell = LITERAL_CELL
        if key in cells:
            raise _cell_error(s_idx, c_idx, ".ref", f"duplicate cell {ref!r}")
        cells[key] = cell
    return cells


def read_interchange(document: Any, *, default_name: str | None = None) -> Workbook:
    """Build a Workbook from a parsed interchange document."""
    if not isinstance(document, dict):
        raise SchemaError("$", "expected a workbook object")
    name = document.get("name", default_name)
    if not isinstance(name, str):
        raise SchemaError("$.name", "expected a string")
    sheets_doc = document.get("sheets")
    if not isinstance(sheets_doc, list):
        raise SchemaError("$.sheets", "expected a list of sheets")
    sheets: list[Worksheet] = []
    for s_idx, sheet_doc in enumerate(sheets_doc):
        if not isinstance(sheet_doc, dict):
            raise SchemaError(f"$.sheets[{s_idx}]", "expected a sheet object")
        sheet_name = sheet_doc.get("name")
        if not isinstance(sheet_name, str):
            raise SchemaError(f"$.sheets[{s_idx}].name", "expected a string")
        cells_doc = sheet_doc.get("cells", [])
        if not isinstance(cells_doc, list):
            raise SchemaError(f"$.sheets[{s_idx}].cells", "expected a list of cells")
        sheets.append(Worksheet(sheet_name, s_idx + 1, _read_cells(cells_doc, s_idx)))
    defined: dict[tuple[None, str], DefinedName] = {}
    names_doc = document.get("definedNames", [])
    if not isinstance(names_doc, list):
        raise SchemaError("$.definedNames", "expected a list")
    for n_idx, entry in enumerate(names_doc):
        if not isinstance(entry, dict):
            raise SchemaError(f"$.definedNames[{n_idx}]", "expected a defined-name object")
        dn_name = entry.get("name")
        target = entry.get("target")
        if not isinstance(dn_name, str) or dn_name == "":
            raise SchemaError(f"$.definedNames[{n_idx}].name", "expected a name")
        if not isinstance(target, str):
            raise SchemaError(f"$.definedNames[{n_idx}].target", "expected a target string")
        key = (None, dn_name.casefold())
        if key not in defined:  # first definition wins
            defined[key] = DefinedName(dn_name, target, _parse_defined_target(target))
    try:
        return Workbook(name, tuple(sheets), defined)
    except ValueError as exc:
        raise SchemaError("$.sheets", str(exc)) from None


def read_interchange_file(path: str | Path) -> Workbook:
    path = Path(path)
    with open(path, encoding="utf-8-sig") as fp:
        try:
            document = json.load(fp)
        except json.JSONDecodeError as exc:
            raise SchemaError("$", f"not valid JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise SchemaError("$", f"not UTF-8 text: {exc}") from None
        except RecursionError:
            raise SchemaError("$", "JSON nested too deeply to decode") from None
    return read_interchange(document, default_name=path.stem)
