"""XLSX (ZIP-packaged SpreadsheetML) reader.

Reads sheets in workbook order, expands shared-formula groups per cell, and
loads defined names, global and sheet-local (``localSheetId``). A literal is
kept as one content bit, set when its cell-type marker finds a value: an
in-range shared-string index, a numeric ``n`` value, any other ``<v>`` or an
inline string. Cached formula results are never read. A cell with a solid
fill and no value is stored without content. Per-cell anomalies are logged,
not fatal.
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
    row = loc.row
    col = loc.col
    if row is not None and not loc.row_abs:
        row += d_row
        if not 1 <= row <= MAX_ROW:
            return None
    if col is not None and not loc.col_abs:
        col += d_col
        if not 1 <= col <= MAX_COL:
            return None
    return CellLocator(row=row, col=col, row_abs=loc.row_abs, col_abs=loc.col_abs)


def _shift_leaf(node: Reference | Range, d_row: int, d_col: int) -> Expr:
    if type(node) is Range:
        start = _shift_locator(node.start, d_row, d_col)
        end = _shift_locator(node.end, d_row, d_col)
        if start is None or end is None:
            return Reference(sheet=node.sheet, ref_error=True, external=node.external)
        return Range(start, end, sheet=node.sheet, external=node.external)
    if node.locator is None:
        return node
    shifted = _shift_locator(node.locator, d_row, d_col)
    if shifted is None:
        return Reference(sheet=node.sheet, ref_error=True, external=node.external)
    return Reference(sheet=node.sheet, locator=shifted, external=node.external)


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
        if kind is Reference or kind is Range:
            built.append(_shift_leaf(node, d_row, d_col))  # type: ignore[arg-type]
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


class _SheetReader:
    def __init__(
        self,
        part: str,
        sheet_name: str,
        sheet_index: int,
        shared_string_count: int,
        filled_styles: set[int],
    ):
        self.part = part
        self.sheet_name = sheet_name
        self.sheet_index = sheet_index
        self.shared_string_count = shared_string_count
        self.filled_styles = filled_styles
        self.cells: dict[tuple[int, int], Cell] = {}
        # shared-formula group id -> (anchor_row, anchor_col, parsed master)
        self.shared: dict[str, tuple[int, int, Formula]] = {}

    def _filled(self, style_attr: str | None) -> bool:
        if style_attr is None or not self.filled_styles:
            return False
        try:
            return int(style_attr) in self.filled_styles
        except ValueError:
            return False

    def _formula(self, f_el: ElementTree.Element, row: int, col: int) -> Formula:
        """The cell's formula. A shared-formula master is parsed once; each
        follower shifts the master's tree instead of parsing text again."""
        text = (f_el.text or "").lstrip("=")
        if f_el.get("t") != "shared":
            return parse_formula(text)
        group = f_el.get("si", "")
        if text:
            master = parse_formula(text)
            self.shared[group] = (row, col, master)
            return master
        anchor = self.shared.get(group)
        if anchor is None:
            logger.warning("%s: shared formula follower before master (si=%s)", self.part, group)
            return parse_formula("")
        a_row, a_col, master = anchor
        if master.expr is None:
            return master  # master failed to parse; inherit it verbatim
        shifted = _shift_expr(master.expr, row - a_row, col - a_col)
        return Formula(serialize(shifted), shifted)

    def read(self, root: ElementTree.Element) -> Worksheet:
        sheet_data = root.find(_MAIN + "sheetData")
        if sheet_data is not None:
            for row_el in sheet_data.findall(_MAIN + "row"):
                self._read_row(row_el)
        return Worksheet(self.sheet_name, self.sheet_index, self.cells)

    def _read_row(self, row_el: ElementTree.Element) -> None:
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
                    logger.warning("%s: skipping cell with bad reference %r", self.part, ref)
                    continue
            elif row_number and last_col < MAX_COL:
                row, col = row_number, last_col + 1
            else:
                logger.warning("%s: skipping cell with no resolvable position", self.part)
                continue
            last_col = col
            self._read_cell(c_el, row, col)

    def _read_cell(self, c_el: ElementTree.Element, row: int, col: int) -> None:
        f_el = c_el.find(_MAIN + "f")
        if f_el is not None:
            formula = self._formula(f_el, row, col)
            self.cells[(row, col)] = Cell(formula)
            return
        t = c_el.get("t", "n")
        if t == "inlineStr":
            literal = c_el.find(_MAIN + "is") is not None
        else:
            v_el = c_el.find(_MAIN + "v")
            v_text = v_el.text if v_el is not None else None
            literal = v_text is not None and self._holds_value(t, v_text, row, col)
        if literal or self._filled(c_el.get("s")):  # else a default cell: nothing to store
            self.cells[(row, col)] = LITERAL_CELL if literal else BLANK_CELL

    def _holds_value(self, t: str, v_text: str, row: int, col: int) -> bool:
        """Whether a ``<v>`` text is a value of its cell-type marker."""
        if t == "s":
            try:
                if 0 <= int(v_text) < self.shared_string_count:
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
        logger.warning("%s: %s %r at %s", self.part, problem, v_text, CellCoordinate(self.sheet_index, row, col))
        return False


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
            reader = _SheetReader(part, sheet_name, position, shared_string_count, filled_styles)
            worksheets.append(reader.read(root))

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
                    # 0-based position in <sheets>; sheet indices are 1-based
                    if not (local.isdecimal() and int(local) < len(worksheets)):
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
