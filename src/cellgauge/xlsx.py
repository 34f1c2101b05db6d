"""XLSX (ZIP-packaged SpreadsheetML) reader.

Reads sheets in workbook order, expands shared-formula groups per cell, and
loads defined names, global and sheet-local (``localSheetId``). A literal is
kept as one content bit, set when its cell-type marker finds a value: an
in-range shared-string index, a numeric ``n`` value, any other ``<v>`` or an
inline string. Cached formula results are never read. A data-table cell
(``<f t="dataTable">``) holds no formula and is read by its ``<v>``, as any
value cell is. A cell with a solid fill and no value is stored without
content. Of two cells at one position the first is kept and the second
skipped. Per-cell anomalies are logged, not fatal.
"""

from __future__ import annotations

import logging
import zipfile
import zlib
from pathlib import Path
from xml.etree import ElementTree

from .expressions import (
    CellLocator,
    Expr,
    Function,
    Operator,
    Parenthesis,
    Range,
    Reference,
    column_index_to_letter,
    serialize,
)
from .interchange import _parse_defined_target, parse_cell_ref
from .model import BLANK_CELL, LITERAL_CELL, Cell, CellCoordinate, DefinedName, Formula, Workbook, Worksheet
from .parser import parse_formula
from .tokens import MAX_COL, MAX_ROW

logger = logging.getLogger(__name__)

_MAIN = "{http://schemas.openxmlformats.org/spreadsheetml/2006/main}"
_REL_ID = "{http://schemas.openxmlformats.org/officeDocument/2006/relationships}id"
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
    except (zipfile.BadZipFile, zlib.error, EOFError, NotImplementedError) as exc:
        raise CorruptPartError(part, f"unreadable ZIP member: {exc}") from None
    try:
        return ElementTree.fromstring(data)
    except (ElementTree.ParseError, LookupError) as exc:  # LookupError: an unknown declared encoding
        raise MalformedSheetXmlError(part, f"malformed XML: {exc}") from None


def _count_shared_strings(archive: zipfile.ZipFile) -> int:
    """The number of shared strings; their text is never read."""
    if _SHARED_STRINGS_PART not in archive.namelist():
        return 0
    return len(_parse_part(archive, _SHARED_STRINGS_PART).findall(_MAIN + "si"))


def _read_filled_styles(archive: zipfile.ZipFile) -> set[int]:
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
    fills = root.find(_MAIN + "fills")
    if fills is not None:
        for fill in fills.findall(_MAIN + "fill"):
            pattern = fill.find(_MAIN + "patternFill")
            fg = None
            if pattern is not None and pattern.get("patternType") == "solid":
                fg = pattern.find(_MAIN + "fgColor")
            solid.append(fg is not None and len(fg.get("rgb", "")) in (6, 8))
    filled: set[int] = set()
    cell_xfs = root.find(_MAIN + "cellXfs")
    if cell_xfs is not None:
        for style, xf in enumerate(cell_xfs.findall(_MAIN + "xf")):
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


def _shift_locator(loc: CellLocator, d_row: int, d_col: int) -> CellLocator | None:
    """The locator moved by the offset in its relative parts; None off the grid."""
    row = loc.row if loc.row is None or loc.row_abs else loc.row + d_row
    col = loc.col if loc.col is None or loc.col_abs else loc.col + d_col
    if (row is not None and not 1 <= row <= MAX_ROW) or (col is not None and not 1 <= col <= MAX_COL):
        return None
    return CellLocator(row=row, col=col, row_abs=loc.row_abs, col_abs=loc.col_abs)


def _shift_expr(expr: Expr, d_row: int, d_col: int) -> Expr:
    """Translate relative references by a row/column offset; out-of-grid
    results become #REF! references, mirroring spreadsheet fill semantics.

    Rebuilds the tree bottom-up with an explicit stack, so chains and nests
    of any depth are safe."""
    built: list[Expr] = []  # shifted subtrees, in the order they finish
    # (node, children already built?) pairs still to visit
    stack: list[tuple[Expr, bool]] = [(expr, False)]
    while stack:
        node, ready = stack.pop()
        kind = type(node)
        if kind is Range or (kind is Reference and node.locator is not None):  # type: ignore[attr-defined]
            ends = (node.start, node.end) if kind is Range else (node.locator,)  # type: ignore[attr-defined]
            moved = [_shift_locator(loc, d_row, d_col) for loc in ends]
            sheet, external = node.sheet, node.external  # type: ignore[attr-defined]
            if None in moved:
                built.append(Reference(sheet=sheet, ref_error=True, external=external))
            elif kind is Range:
                built.append(Range(*moved, sheet=sheet, external=external))  # type: ignore[arg-type]
            else:
                built.append(Reference(sheet=sheet, locator=moved[0], external=external))
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


def _read_sheet(root: ElementTree.Element, part: str, name: str, index: int, string_count: int,
                filled_styles: set[int]) -> Worksheet:
    """The sheet's stored cells. A shared-formula master is parsed once; each
    follower shifts the master's tree instead of parsing text again."""
    cells: dict[tuple[int, int], Cell] = {}
    shared: dict[str, tuple[int, int, Formula]] = {}  # group id -> (anchor row, anchor col, parsed master)
    sheet_data = root.find(_MAIN + "sheetData")
    for row_el in sheet_data.findall(_MAIN + "row") if sheet_data is not None else ():
        try:
            row_number = int(row_el.get("r", "0"))
        except ValueError:
            row_number = 0
        if not 1 <= row_number <= MAX_ROW:
            row_number = 0
        last_col = 0
        for c_el in row_el.findall(_MAIN + "c"):
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
            f_el = c_el.find(_MAIN + "f")
            # A data table's <f> holds its parameters, not a formula.
            if f_el is not None and f_el.get("t") != "dataTable":
                text = (f_el.text or "").lstrip("=")
                group = f_el.get("si", "") if f_el.get("t") == "shared" else None
                if group is None or text:
                    formula = parse_formula(text)
                    if group is not None:
                        shared[group] = (row, col, formula)
                elif group not in shared:
                    logger.warning("%s: shared formula follower before master (si=%s)", part, group)
                    formula = parse_formula("")
                else:
                    a_row, a_col, formula = shared[group]
                    if formula.expr is not None:  # else the master failed to parse: inherit it verbatim
                        shifted = _shift_expr(formula.expr, row - a_row, col - a_col)
                        formula = Formula(serialize(shifted), shifted)
                cells[(row, col)] = Cell(formula)
                continue
            t = c_el.get("t", "n")
            if t == "inlineStr":
                literal = c_el.find(_MAIN + "is") is not None
            else:
                v_el = c_el.find(_MAIN + "v")
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
        rels = _read_rels(archive)
        shared_string_count = _count_shared_strings(archive)
        filled_styles = _read_filled_styles(archive)

        sheets_el = workbook_root.find(_MAIN + "sheets")
        if sheets_el is None:
            raise MalformedSheetXmlError(_WORKBOOK_PART, "no <sheets> element")
        worksheets: list[Worksheet] = []
        for position, sheet_el in enumerate(sheets_el.findall(_MAIN + "sheet"), start=1):
            sheet_name = sheet_el.get("name") or f"Sheet{position}"
            rid = sheet_el.get(_REL_ID)
            part = rels.get(rid or "")
            if part is None:
                raise MissingWorkbookPartError(
                    _WORKBOOK_RELS_PART, f"no relationship for sheet {sheet_name!r}"
                )
            root = _parse_part(archive, part)
            worksheets.append(_read_sheet(root, part, sheet_name, position, shared_string_count, filled_styles))

        defined: dict[tuple[int | None, str], DefinedName] = {}
        names_el = workbook_root.find(_MAIN + "definedNames")
        if names_el is not None:
            for dn_el in names_el.findall(_MAIN + "definedName"):
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
                defined[key] = DefinedName(dn_name, target, _parse_defined_target(target), scope)

    try:
        return Workbook(path.stem, tuple(worksheets), defined)
    except ValueError as exc:  # sheet names that differ only in case, or a default Sheet<n> taken
        raise MalformedSheetXmlError(_WORKBOOK_PART, str(exc)) from None
