"""Seeded random generators for formulas, workbooks, and corpora.

Formula text is assembled directly at the string level so that generated
inputs do not depend on the engine's own serializer.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from cellgauge.expressions import column_index_to_letter
from cellgauge.interchange import parse_cell_ref, parse_defined_target
from cellgauge.model import Cell, DefinedName, Workbook, Worksheet
from cellgauge.parser import parse_formula

NAMES = ("alpha", "beta_1", "net.total", "_scratch", "grandTotal", "TOTAL")
FUNCS = (
    "SUM",
    "MIN",
    "MAX",
    "AVERAGE",
    "COUNT",
    "ROUND",
    "ABS",
    "IF",
    "IFERROR",
    "COUNTIF",
    "SUMIF",
    "CONCATENATE",
    "LOG10",
)
ERROR_LITERALS = ("#DIV/0!", "#VALUE!", "#NULL!", "#NAME?", "#REF!", "#NUM!", "#N/A")
BINARY_OPS = ("+", "-", "*", "/", "^", "&", "=", "<>", "<", ">", "<=", ">=")
STRING_CONTENTS = ("", "a", 'a"b', "units", "x,y", "  pad ", "100%")


def gen_number(rng: random.Random) -> str:
    pick = rng.randrange(5)
    if pick == 0:
        return str(rng.randint(0, 9999))
    if pick == 1:
        return f"{rng.uniform(0, 100):.4f}"
    if pick == 2:
        return f".{rng.randint(1, 99)}"
    if pick == 3:
        return f"{rng.randint(1, 9)}e{rng.choice(('', '+', '-'))}{rng.randint(0, 8)}"
    return f"{rng.randint(1, 99)}."


def gen_string(rng: random.Random) -> str:
    content = rng.choice(STRING_CONTENTS)
    return '"' + content.replace('"', '""') + '"'


def _maybe_abs(rng: random.Random) -> str:
    return "$" if rng.random() < 0.25 else ""


def gen_cell(rng: random.Random, max_row: int = 12, max_col: int = 8) -> str:
    col = column_index_to_letter(rng.randint(1, max_col))
    row = rng.randint(1, max_row)
    return f"{_maybe_abs(rng)}{col}{_maybe_abs(rng)}{row}"


def _sheet_prefix(rng: random.Random, sheets: tuple[str, ...] | None) -> str:
    if not sheets or rng.random() < 0.6:
        return ""
    sheet = rng.choice(sheets)
    must_quote = (
        any(not (ch.isalnum() or ch == "_") for ch in sheet)
        or sheet[0].isdigit()
        or sheet.upper() in ("TRUE", "FALSE")
    )
    if must_quote or rng.random() < 0.2:
        return "'" + sheet.replace("'", "''") + "'!"
    return sheet + "!"


def gen_reference(rng: random.Random, sheets: tuple[str, ...] | None = None) -> str:
    return _sheet_prefix(rng, sheets) + gen_cell(rng)


def gen_range(rng: random.Random, sheets: tuple[str, ...] | None = None) -> str:
    prefix = _sheet_prefix(rng, sheets)
    pick = rng.randrange(6)
    if pick == 0:  # full column(s)
        c1 = rng.randint(1, 8)
        c2 = min(8, c1 + rng.randint(0, 2))
        return f"{prefix}{_maybe_abs(rng)}{column_index_to_letter(c1)}:{_maybe_abs(rng)}{column_index_to_letter(c2)}"
    if pick == 1:  # full row(s)
        r1 = rng.randint(1, 12)
        r2 = min(12, r1 + rng.randint(0, 2))
        return f"{prefix}{_maybe_abs(rng)}{r1}:{_maybe_abs(rng)}{r2}"
    return f"{prefix}{gen_cell(rng, max_row=6, max_col=6)}:{gen_cell(rng, max_row=6, max_col=6)}"


def gen_primary(rng: random.Random, depth: int, sheets: tuple[str, ...] | None) -> str:
    roll = rng.random()
    if depth > 0 and roll < 0.25:
        name = rng.choice(FUNCS)
        n_args = rng.randint(0, 3) if name not in ("COUNTIF", "SUMIF") else 2
        args = ",".join(gen_expr(rng, depth - 1, sheets) for _ in range(n_args))
        return f"{name}({args})"
    if depth > 0 and roll < 0.35:
        return "(" + gen_expr(rng, depth - 1, sheets) + ")"
    roll = rng.random()
    if roll < 0.3:
        return gen_number(rng)
    if roll < 0.4:
        return gen_string(rng)
    if roll < 0.45:
        return rng.choice(("TRUE", "FALSE", "true"))
    if roll < 0.5:
        return rng.choice(ERROR_LITERALS)
    if roll < 0.56:
        return rng.choice(NAMES)
    if roll < 0.78:
        return gen_reference(rng, sheets)
    return gen_range(rng, sheets)


def gen_expr(rng: random.Random, depth: int = 3, sheets: tuple[str, ...] | None = None) -> str:
    parts = [gen_unary(rng, depth, sheets)]
    for _ in range(rng.randrange(3) if depth > 0 else 0):
        parts.append(rng.choice(BINARY_OPS))
        parts.append(gen_unary(rng, depth - 1, sheets))
    return "".join(parts)


def gen_unary(rng: random.Random, depth: int, sheets: tuple[str, ...] | None) -> str:
    prefix = ""
    if rng.random() < 0.15:
        prefix = rng.choice(("-", "+"))
    text = prefix + gen_primary(rng, depth, sheets)
    if rng.random() < 0.1:
        text += "%"
    return text


# --- direct workbook construction ----------------------------------------


def make_workbook(sheets, defined_names=None, name="test"):
    """Build a Workbook from [(sheet_name, {"A1": content})].

    Content: "=..." strings become formulas, None a cell stored without
    content (as a fill-only cell is), anything else a literal.
    """
    worksheets = []
    for index, (sheet_name, spec) in enumerate(sheets, start=1):
        cells = {}
        for ref_text, content in spec.items():
            row, col = parse_cell_ref(ref_text)
            if isinstance(content, str) and content.startswith("="):
                cells[(row, col)] = Cell(parse_formula(content[1:]))
            else:
                cells[(row, col)] = Cell(literal=content is not None)
        worksheets.append(Worksheet(sheet_name, index, cells))
    defined = {
        (None, name_.casefold()): DefinedName(name_, target, parse_defined_target(target))
        for name_, target in (defined_names or {}).items()
    }
    return Workbook(name, tuple(worksheets), defined)


# --- workbook documents -------------------------------------------------


def gen_workbook_doc(rng: random.Random, name: str = "wb") -> dict:
    sheet_names = ("Alpha", "Beta Data", "Sheet3")[: rng.randint(1, 3)]
    sheets = []
    for sheet_name in sheet_names:
        cells = []
        used = set()
        for _ in range(rng.randint(0, 10)):
            ref = f"{column_index_to_letter(rng.randint(1, 8))}{rng.randint(1, 12)}"
            if ref in used:
                continue
            used.add(ref)
            entry: dict = {"ref": ref}
            roll = rng.random()
            if roll < 0.45:
                entry["formula"] = "=" + gen_expr(rng, depth=2, sheets=sheet_names)
            elif roll < 0.7:
                entry["value"] = rng.choice((0, 1, -3.5, 42, 2.25))
                entry["type"] = "number"
            elif roll < 0.85:
                entry["value"] = rng.choice(("label", "Revenue", "x"))
                entry["type"] = "text"
            elif roll < 0.95:
                entry["value"] = rng.random() < 0.5
                entry["type"] = "boolean"
            else:
                entry["value"] = "#N/A"
                entry["type"] = "error"
            if rng.random() < 0.1:
                entry["fill"] = "#FFCC00"
            cells.append(entry)
        sheets.append({"name": sheet_name, "cells": cells})
    defined = []
    if rng.random() < 0.5:
        defined.append({"name": "TOTAL", "target": f"{sheet_names[0]}!$A$1:$B$3"})
    if rng.random() < 0.3:
        defined.append({"name": "one_cell", "target": f"{sheet_names[0]}!$C$2"})
    if rng.random() < 0.2:
        defined.append({"name": "broken", "target": "NoSuchSheet!A1"})
    return {"name": name, "definedNames": defined, "sheets": sheets}


def write_corpus(directory: Path, count: int, seed: int = 0) -> list[Path]:
    """Write `count` generated interchange files under `directory`."""
    rng = random.Random(seed)
    paths = []
    directory.mkdir(parents=True, exist_ok=True)
    for i in range(count):
        doc = gen_workbook_doc(rng, name=f"wb{i:04d}")
        path = directory / f"wb{i:04d}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths.append(path)
    return paths
