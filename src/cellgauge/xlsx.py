"""XLSX (ZIP-packaged SpreadsheetML) reader.

Reads sheets in workbook order, types literals via cell-type markers and the
shared-strings table, expands shared-formula groups per cell, and loads
defined names, global and sheet-local (``localSheetId``). Cached formula
results are used only to infer a result value type, never as literals.
Per-cell anomalies are logged, not fatal.
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
    ValueType,
    serialize,
)
from .interchange import _parse_defined_target, parse_cell_ref
from .model import Cell, CellCoordinate, DefinedName, Formula, VisualProperty, Workbook, Worksheet
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


def _read_shared_strings(archive: zipfile.ZipFile) -> list[str]:
    if _SHARED_STRINGS_PART not in archive.namelist():
        return []
    root = _parse_part(archive, _SHARED_STRINGS_PART)
    strings = []
    for si in root.findall(_MAIN + "si"):
        strings.append("".join(t.text or "" for t in si.iter(_MAIN + "t")))
    return strings


def _read_fills(archive: zipfile.ZipFile) -> list[str | None]:
    """Per-style-index fill color ("#RRGGBB"); best effort, never fatal."""
    if _STYLES_PART not in archive.namelist():
        return []
    try:
        root = _parse_part(archive, _STYLES_PART)
    except XlsxError:
        logger.warning("unreadable styles part; fill colors skipped")
        return []
    fill_colors: list[str | None] = []
    fills = root.find(_MAIN + "fills")
    if fills is not None:
        for fill in fills.findall(_MAIN + "fill"):
            color = None
            pattern = fill.find(_MAIN + "patternFill")
            if pattern is not None and pattern.get("patternType") == "solid":
                fg = pattern.find(_MAIN + "fgColor")
                rgb = fg.get("rgb") if fg is not None else None
                if rgb and len(rgb) in (6, 8):
                    color = "#" + rgb[-6:].upper()
            fill_colors.append(color)
    xf_colors: list[str | None] = []
    cell_xfs = root.find(_MAIN + "cellXfs")
    if cell_xfs is not None:
        for xf in cell_xfs.findall(_MAIN + "xf"):
            color = None
            fill_id = xf.get("fillId")
            if fill_id is not None:
                try:
                    idx = int(fill_id)
                except ValueError:
                    idx = -1
                if 0 <= idx < len(fill_colors):
                    color = fill_colors[idx]
            xf_colors.append(color)
    return xf_colors


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


def _cached_value_type(t: str, has_value: bool) -> ValueType | None:
    if not has_value:
        return None
    return {
        "s": ValueType.TEXT,
        "str": ValueType.TEXT,
        "inlineStr": ValueType.TEXT,
        "b": ValueType.BOOLEAN,
        "e": ValueType.ERROR,
    }.get(t, ValueType.NUMBER)


class _SheetReader:
    def __init__(
        self,
        part: str,
        sheet_name: str,
        sheet_index: int,
        shared_strings: list[str],
        fills: list[str | None],
    ):
        self.part = part
        self.sheet_name = sheet_name
        self.sheet_index = sheet_index
        self.shared_strings = shared_strings
        self.fills = fills
        self.cells: dict[tuple[int, int], Cell] = {}
        # shared-formula group id -> (anchor_row, anchor_col, parsed master)
        self.shared: dict[str, tuple[int, int, Formula]] = {}

    def _fill_for(self, style_attr: str | None) -> tuple[VisualProperty, ...]:
        if style_attr is None:
            return ()
        try:
            idx = int(style_attr)
        except ValueError:
            return ()
        if 0 <= idx < len(self.fills) and self.fills[idx] is not None:
            return (VisualProperty("fillColor", self.fills[idx]),)
        return ()

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
                    row, col = parse_cell_ref("".join(ch for ch in ref if ch != "$"))
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
        coordinate = CellCoordinate(self.sheet_index, row, col)
        visual = self._fill_for(c_el.get("s"))
        t = c_el.get("t", "n")
        f_el = c_el.find(_MAIN + "f")
        v_el = c_el.find(_MAIN + "v")
        v_text = v_el.text if v_el is not None and v_el.text is not None else None

        if f_el is not None:
            self.cells[(row, col)] = Cell(
                coordinate=coordinate,
                value_type=_cached_value_type(t, v_text is not None),
                formula=self._formula(f_el, row, col),
                visual_properties=visual,
            )
            return

        value: float | str | bool | None = None
        value_type: ValueType | None = None
        if t == "s":
            if v_text is not None:
                try:
                    value = self.shared_strings[int(v_text)]
                    value_type = ValueType.TEXT
                except (ValueError, IndexError):
                    logger.warning("%s: bad shared-string index %r at %s", self.part, v_text, coordinate)
        elif t == "inlineStr":
            is_el = c_el.find(_MAIN + "is")
            if is_el is not None:
                value = "".join(el.text or "" for el in is_el.iter(_MAIN + "t"))
                value_type = ValueType.TEXT
        elif t in ("str", "d"):
            if v_text is not None:
                value = v_text
                value_type = ValueType.TEXT
        elif t == "b":
            if v_text is not None:
                value = v_text.strip() not in ("0", "FALSE", "false", "")
                value_type = ValueType.BOOLEAN
        elif t == "e":
            if v_text is not None:
                value = v_text
                value_type = ValueType.ERROR
        else:  # "n" or unknown marker: numeric
            if v_text is not None:
                try:
                    value = float(v_text)
                    value_type = ValueType.NUMBER
                except ValueError:
                    logger.warning("%s: non-numeric value %r at %s", self.part, v_text, coordinate)

        if value is None and not visual:
            return  # default cell: nothing to store
        self.cells[(row, col)] = Cell(
            coordinate=coordinate,
            value=value,
            value_type=value_type,
            visual_properties=visual,
        )


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
        shared_strings = _read_shared_strings(archive)
        fills = _read_fills(archive)

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
            reader = _SheetReader(part, sheet_name, position, shared_strings, fills)
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

    return Workbook(path.stem, tuple(worksheets), defined)
