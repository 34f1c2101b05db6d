"""XLSX (ZIP-packaged SpreadsheetML) reader.

Reads sheets in workbook order, keeps each shared-formula follower as its
master plus an offset, and loads defined names, global and sheet-local
(``localSheetId``), in the Transitional or Strict SpreadsheetML namespace of
the workbook's root. A literal is kept as one content bit, set when its
cell-type marker finds a value: an in-range shared-string index, a numeric
``n`` value, any other ``<v>`` or an inline string. Cached formula results
are never read. A data-table cell (``<f t="dataTable">``) holds no formula
and is read by its ``<v>``, as any value cell is. A value with no ``<f>`` in
the ``ref`` of an array formula of its sheet (``<f t="array" ref="...">``)
is one of its cached results, whatever the order of the rows; it is stored
without content, as is a cell with a solid fill and no value. Of two cells
at one position the first is kept. Per-cell anomalies are logged, not fatal.
"""

from __future__ import annotations

import logging
import zipfile
import zlib
from pathlib import Path
from xml.etree import ElementTree

from .expressions import column_index_to_letter
from .graph import covered_points
from .interchange import parse_cell_ref, parse_defined_target, path_text
from .model import (
    BLANK_CELL,
    LITERAL_CELL,
    Cell,
    CellCoordinate,
    DefinedName,
    Formula,
    SharedFormula,
    Workbook,
    Worksheet,
)
from .parser import parse_formula
from .tokens import MAX_COL, MAX_ROW

logger = logging.getLogger(__name__)

_REL_IDS = {  # the workbook root's namespace -> a sheet's relationship id: Transitional, Strict
    "{http://schemas.openxmlformats.org/spreadsheetml/2006/main}":
        "{http://schemas.openxmlformats.org/officeDocument/2006/relationships}id",
    "{http://purl.oclc.org/ooxml/spreadsheetml/main}": "{http://purl.oclc.org/ooxml/officeDocument/relationships}id",
}
_PKG_REL = "{http://schemas.openxmlformats.org/package/2006/relationships}Relationship"

_WORKBOOK_PART = "xl/workbook.xml"
_WORKBOOK_RELS_PART = "xl/_rels/workbook.xml.rels"
_SHARED_STRINGS_PART = "xl/sharedStrings.xml"
_STYLES_PART = "xl/styles.xml"


class XlsxError(Exception):
    """Base class; carries the offending package part name."""

    def __init__(self, part: str, message: str):
        super().__init__(f"{part}: {message}")
        self.part = part


class NotAZipError(XlsxError):
    pass


class MissingWorkbookPartError(XlsxError):
    pass


class MalformedSheetXmlError(XlsxError):
    pass


class CorruptPartError(XlsxError):
    """A package member fails its CRC, does not decompress or uses a
    compression method the reader does not support."""


def _parse_part(archive: zipfile.ZipFile, part: str) -> ElementTree.Element:
    try:
        data = archive.read(part)
    except KeyError:
        raise MissingWorkbookPartError(part, "part not found in package") from None
    except (zipfile.BadZipFile, zlib.error, EOFError, NotImplementedError, OSError) as exc:
        raise CorruptPartError(part, f"unreadable ZIP member: {exc}") from None
    try:
        return ElementTree.fromstring(data)
    except (ElementTree.ParseError, LookupError) as exc:  # LookupError: an unknown declared encoding
        raise MalformedSheetXmlError(part, f"malformed XML: {exc}") from None


def _count_shared_strings(archive: zipfile.ZipFile, main: str) -> int:
    """The number of shared strings; their text is never read."""
    if _SHARED_STRINGS_PART not in archive.namelist():
        return 0
    return len(_parse_part(archive, _SHARED_STRINGS_PART).findall(main + "si"))


def _read_filled_styles(archive: zipfile.ZipFile, main: str) -> set[int]:
    """Indices of the cell styles (``cellXfs``) whose fill is solid with a
    6- or 8-digit color; best effort, never fatal."""
    if _STYLES_PART not in archive.namelist():
        return set()
    try:
        root = _parse_part(archive, _STYLES_PART)
    except XlsxError:
        logger.warning("unreadable styles part; fills skipped")
        return set()
    solid: list[bool] = []
    fills = root.find(main + "fills")
    if fills is not None:
        for fill in fills.findall(main + "fill"):
            pattern = fill.find(main + "patternFill")
            fg = None
            if pattern is not None and pattern.get("patternType") == "solid":
                fg = pattern.find(main + "fgColor")
            solid.append(fg is not None and len(fg.get("rgb", "")) in (6, 8))
    filled: set[int] = set()
    cell_xfs = root.find(main + "cellXfs")
    if cell_xfs is not None:
        for style, xf in enumerate(cell_xfs.findall(main + "xf")):
            try:
                idx = int(xf.get("fillId", ""))
            except ValueError:
                continue
            if 0 <= idx < len(solid) and solid[idx]:
                filled.add(style)
    return filled


def _read_rels(archive: zipfile.ZipFile) -> dict[str, str]:
    root = _parse_part(archive, _WORKBOOK_RELS_PART)
    rels: dict[str, str] = {}
    for rel in root.findall(_PKG_REL):
        rid = rel.get("Id")
        target = rel.get("Target")
        if not rid or not target:
            continue
        if target.startswith("/"):
            target = target[1:]
        elif not target.startswith("xl/"):
            target = "xl/" + target
        rels[rid] = target
    return rels


def _holds_value(t: str, v_text: str, string_count: int, part: str, sheet: int, row: int, col: int) -> bool:
    """Whether a ``<v>`` text is a value of its cell-type marker."""
    if t == "s":
        try:
            if 0 <= int(v_text) < string_count:
                return True
        except ValueError:
            pass
        problem = "bad shared-string index"
    elif t in ("str", "d", "b", "e"):
        return True
    else:  # "n" or unknown marker: numeric
        try:
            float(v_text)
            return True
        except ValueError:
            problem = "non-numeric value"
    logger.warning("%s: %s %r at %s", part, problem, v_text, CellCoordinate(sheet, row, col))
    return False


def _array_block(ref: str | None, part: str) -> tuple[int, int, int, int] | None:
    """The block an array formula's ``ref`` spans; None when unreadable."""
    first, _, last = (ref or "").replace("$", "").partition(":")
    try:
        (r1, c1), (r2, c2) = parse_cell_ref(first), parse_cell_ref(last or first)
    except ValueError:
        logger.warning("%s: array formula with bad range %r", part, ref)
        return None
    return min(r1, r2), min(c1, c2), max(r1, r2), max(c1, c2)


def _read_sheet(root: ElementTree.Element, main: str, part: str, name: str, index: int, string_count: int,
                filled_styles: set[int]) -> Worksheet:
    """The sheet's stored cells. A shared-formula master is parsed once and
    each follower is stored as the master plus its offset."""
    cells: dict[tuple[int, int], Cell] = {}
    shared: dict[str, tuple[int, int, Formula]] = {}  # group id -> (anchor row, anchor col, parsed master)
    arrays: list[tuple[int, int, int, int]] = []  # the block of each readable array formula's ref
    sheet_data = root.find(main + "sheetData")
    for row_el in sheet_data.findall(main + "row") if sheet_data is not None else ():
        try:
            row_number = int(row_el.get("r", "0"))
        except ValueError:
            row_number = 0
        if not 1 <= row_number <= MAX_ROW:
            row_number = 0
        last_col = 0
        for c_el in row_el.findall(main + "c"):
            ref = c_el.get("r")
            if ref:
                try:
                    row, col = parse_cell_ref(ref.replace("$", ""))
                except ValueError:
                    logger.warning("%s: skipping cell with bad reference %r", part, ref)
                    continue
                if row == row_number:
                    row = row_number  # one int per row in the cells' keys, not one per cell
            elif row_number and last_col < MAX_COL:
                row, col = row_number, last_col + 1
            else:
                logger.warning("%s: skipping cell with no resolvable position", part)
                continue
            last_col = col
            if (row, col) in cells:
                logger.warning("%s: skipping second cell at %s%d", part, column_index_to_letter(col), row)
                continue
            f_el = c_el.find(main + "f")
            # A data table's <f> holds its parameters, not a formula.
            if f_el is not None and (kind := f_el.get("t")) != "dataTable":
                text = (f_el.text or "").lstrip("=")
                group = f_el.get("si", "") if kind == "shared" else None
                if group is None or text:
                    formula = parse_formula(text)
                    if group is not None:
                        shared[group] = (row, col, formula)
                    elif kind == "array" and (block := _array_block(f_el.get("ref"), part)) is not None:
                        arrays.append(block)
                elif group not in shared:
                    logger.warning("%s: shared formula follower before master (si=%s)", part, group)
                    formula = parse_formula("")
                else:
                    a_row, a_col, formula = shared[group]
                    if formula.expr is not None:  # a master that failed to parse is inherited verbatim
                        formula = SharedFormula(formula, row - a_row, col - a_col)
                cells[(row, col)] = Cell(formula)
                continue
            t = c_el.get("t", "n")
            if t == "inlineStr":
                literal = c_el.find(main + "is") is not None
            else:
                v_el = c_el.find(main + "v")
                v_text = v_el.text if v_el is not None else None
                literal = v_text is not None and _holds_value(t, v_text, string_count, part, index, row, col)
            if literal:
                cells[(row, col)] = LITERAL_CELL
            elif filled_styles and (style := c_el.get("s")) is not None:
                try:
                    if int(style) in filled_styles:
                        cells[(row, col)] = BLANK_CELL
                except ValueError:
                    pass  # not a style index: a default cell, nothing to store
    if arrays:  # a value in an array formula's ref is one of its cached results
        for key in covered_points(arrays, (key for key, cell in cells.items() if cell is LITERAL_CELL)):
            cells[key] = BLANK_CELL
    return Worksheet(name, index, cells)


def read_xlsx(path: str | Path) -> Workbook:
    """Read an XLSX workbook into the model; raises a typed XlsxError on
    structural problems, logs and continues on per-cell anomalies."""
    path = Path(path)
    try:
        archive = zipfile.ZipFile(path)
    except zipfile.BadZipFile:
        raise NotAZipError(str(path), "not a ZIP archive") from None
    with archive:
        workbook_root = _parse_part(archive, _WORKBOOK_PART)
        main = workbook_root.tag.rpartition("}")[0] + "}"
        rels = _read_rels(archive)
        shared_string_count = _count_shared_strings(archive, main)
        filled_styles = _read_filled_styles(archive, main)

        sheets_el = workbook_root.find(main + "sheets")
        if sheets_el is None or main not in _REL_IDS:
            raise MalformedSheetXmlError(_WORKBOOK_PART, "no SpreadsheetML <sheets> element")
        worksheets: list[Worksheet] = []
        for position, sheet_el in enumerate(sheets_el.findall(main + "sheet"), start=1):
            sheet_name = sheet_el.get("name") or f"Sheet{position}"
            part = rels.get(sheet_el.get(_REL_IDS[main]) or "")
            if part is None:
                raise MissingWorkbookPartError(
                    _WORKBOOK_RELS_PART, f"no relationship for sheet {sheet_name!r}"
                )
            root = _parse_part(archive, part)
            worksheets.append(_read_sheet(root, main, part, sheet_name, position, shared_string_count, filled_styles))

        defined: dict[tuple[int | None, str], DefinedName] = {}
        names_el = workbook_root.find(main + "definedNames")
        if names_el is not None:
            for dn_el in names_el.findall(main + "definedName"):
                dn_name = dn_el.get("name")
                target = (dn_el.text or "").strip()
                if not dn_name or not target:
                    continue
                scope = None
                local = dn_el.get("localSheetId")
                if local is not None:
                    # 0-based position in <sheets>; sheet indices are 1-based.
                    # The length check keeps int() off texts it refuses.
                    if not (local.isdecimal() and len(local) <= 7 and int(local) < len(worksheets)):
                        logger.warning("skipping defined name %r: bad localSheetId %r", dn_name, local)
                        continue
                    scope = int(local) + 1
                key = (scope, dn_name.casefold())
                if key in defined:
                    continue  # first definition in each scope wins
                defined[key] = DefinedName(dn_name, target, parse_defined_target(target), scope)

    try:
        return Workbook(path_text(path.stem), tuple(worksheets), defined)
    except ValueError as exc:  # sheet names that differ only in case, or a default Sheet<n> taken
        raise MalformedSheetXmlError(_WORKBOOK_PART, str(exc)) from None
