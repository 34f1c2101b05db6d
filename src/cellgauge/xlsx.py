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
Every part is streamed through expat in 64 KiB chunks by one element
walker, `_walk`, which reaches only the elements its part names and keeps no
text but that of a cell's first ``<f>`` and ``<v>`` and of a
``<definedName>``; no part becomes a tree.
"""

from __future__ import annotations

import logging
import zipfile
import zlib
from pathlib import Path
from xml.parsers import expat

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

_REL_IDS = {  # the workbook root's namespace -> a sheet's relationship id, as expat names both: Transitional, Strict
    "http://schemas.openxmlformats.org/spreadsheetml/2006/main}":
        "http://schemas.openxmlformats.org/officeDocument/2006/relationships}id",
    "http://purl.oclc.org/ooxml/spreadsheetml/main}": "http://purl.oclc.org/ooxml/officeDocument/relationships}id",
}
_PKG_NS = "http://schemas.openxmlformats.org/package/2006/relationships}"

# What the walker reaches of a part: parent -> {child: every such child (True) or the first (False)}
_WORKBOOK_REACH = {"": {"sheets": False, "definedNames": False}, "sheets": {"sheet": True},
                   "definedNames": {"definedName": True}}
_SHEET_REACH = {"": {"sheetData": False}, "sheetData": {"row": True}, "row": {"c": True},
                "c": {"f": False, "v": False, "is": True}}

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


_READ_ERRORS = (zipfile.BadZipFile, zlib.error, EOFError, NotImplementedError, OSError)
_CHUNK = 1 << 16  # bytes of a streamed part fed to its parser at a time
_BATCH = 128  # rows and cells of a sheet gathered before they are stored
_UNKNOWN_ENCODING = expat.errors.codes[expat.errors.XML_ERROR_UNKNOWN_ENCODING]


def _undefined_entity(name: str, is_parameter_entity: bool) -> None:
    # expat alone would skip an entity that a document with an external DTD
    # leaves undefined; such a part is refused as malformed.
    if not is_parameter_entity:
        raise expat.ExpatError(f"undefined entity &{name};")


def _read_chunk(stream, part: str) -> bytes:
    try:
        return stream.read(_CHUNK)
    except _READ_ERRORS as exc:
        raise CorruptPartError(part, f"unreadable ZIP member: {exc}") from None


def _open_part(archive: zipfile.ZipFile, part: str):
    try:
        return archive.open(part)
    except KeyError:
        raise MissingWorkbookPartError(part, "part not found in package") from None
    except _READ_ERRORS as exc:
        raise CorruptPartError(part, f"unreadable ZIP member: {exc}") from None


def _stream_part(archive: zipfile.ZipFile, part: str, parser: expat.XMLParserType) -> None:
    """Feed `part` to `parser` in chunks, raising a bad part's typed error (a read
    error wins over an XML error); then clear the handlers, which may refer to it."""
    try:
        with _open_part(archive, part) as stream:
            try:
                while chunk := _read_chunk(stream, part):
                    parser.Parse(chunk, False)
                parser.Parse(b"", True)
            except (expat.ExpatError, LookupError, ValueError) as exc:  # the last two: an encoding expat cannot map
                if not isinstance(exc, expat.ExpatError) and parser.ErrorCode != _UNKNOWN_ENCODING:
                    raise  # raised by a handler: the reader's own fault
                while _read_chunk(stream, part):
                    pass
                raise MalformedSheetXmlError(part, f"malformed XML: {exc}") from None
    finally:
        parser.StartElementHandler = parser.EndElementHandler = parser.CharacterDataHandler = None


def _walk(archive: zipfile.ZipFile, part: str, ns: str | None, reach: dict[str, dict[str, bool]], visit) -> str:
    """Stream `part` through expat, calling ``visit(local name, attributes)``
    on each element it reaches, and return the root's namespace as expat
    names it: ``uri}``, or ``}``, which names no element, for none. The root
    is reached, not visited. A child of a reached element is reached when it
    is in namespace `ns` (None: the root's) and ``reach[the parent's local
    name]`` (``reach[""]`` for the root) maps its local name to True (every
    such child) or False (the first only). The list a visit returns, if any,
    gets the element's text up to its end or first child; no other text
    reaches Python."""
    parser = expat.ParserCreate(None, "}")  # names an element or attribute "uri}local"
    parser.buffer_text = True
    parser.SkippedEntityHandler = _undefined_entity
    # Per open reached element, the children it reaches: full name -> (local
    # name, every, that child's own map). A first-only child is deleted once
    # reached, so each element gets its own copy of a non-empty map.
    frames: list[dict[str, tuple]] = [{}]
    skipped = 0  # open elements from the innermost unreached one in
    text: list[str] | None = None
    root_ns = "}"

    def start(name, attrs):
        nonlocal skipped, text, root_ns
        if text is not None:
            parser.CharacterDataHandler = text = None
        if skipped:
            skipped += 1
            return
        kids = frames[-1]
        hit = kids.get(name)
        if hit is None:
            if len(frames) > 1:
                skipped = 1
            else:  # the root, whose namespace is now known
                root_ns = name.rpartition("}")[0] + "}"
                prefix = root_ns if ns is None else ns
                maps: dict[str, dict[str, tuple]] = {parent: {} for parent in reach}
                for parent, children in reach.items():
                    maps[parent].update((prefix + local, (local, every, maps.get(local, {})))
                                        for local, every in children.items())
                frames.append(maps[""])
            return
        local, every, grandchildren = hit
        if not every:
            del kids[name]
        frames.append(grandchildren.copy() if grandchildren else grandchildren)
        text = visit(local, attrs)
        if text is not None:
            parser.CharacterDataHandler = text.append

    def end(name):
        nonlocal skipped, text
        if skipped:
            skipped -= 1
        else:
            frames.pop()
        if text is not None:
            parser.CharacterDataHandler = text = None

    parser.StartElementHandler, parser.EndElementHandler = start, end
    _stream_part(archive, part, parser)
    return root_ns


def _count_shared_strings(archive: zipfile.ZipFile, main: str) -> int:
    """The number of shared strings (``<si>`` children of the root), whose text is never read."""
    if _SHARED_STRINGS_PART not in archive.namelist():
        return 0
    count = 0

    def visit(name, attrs):
        nonlocal count
        count += 1

    _walk(archive, _SHARED_STRINGS_PART, main, {"": {"si": True}}, visit)
    return count


def _read_filled_styles(archive: zipfile.ZipFile, main: str) -> set[int]:
    """Indices of the cell styles (``<xf>`` of the root's first ``<cellXfs>``)
    whose fill (of the root's first ``<fills>``) has a solid first
    ``<patternFill>`` whose first ``<fgColor>`` has a 6- or 8-digit color;
    best effort, never fatal."""
    if _STYLES_PART not in archive.namelist():
        return set()
    solid: list[bool] = []  # per fill
    fill_ids: list[int] = []  # per cell style, -1 for an unreadable one
    pattern_solid = False  # of the last fill's first pattern

    def visit(name, attrs):
        nonlocal pattern_solid
        if name == "xf":
            try:
                fill_ids.append(int(attrs.get("fillId", "")))
            except ValueError:
                fill_ids.append(-1)
        elif name == "fill":
            solid.append(False)
        elif name == "patternFill":
            pattern_solid = attrs.get("patternType") == "solid"
        elif name == "fgColor" and pattern_solid:
            solid[-1] = len(attrs.get("rgb", "")) in (6, 8)

    reach = {"": {"fills": False, "cellXfs": False}, "fills": {"fill": True}, "fill": {"patternFill": False},
             "patternFill": {"fgColor": False}, "cellXfs": {"xf": True}}
    try:
        _walk(archive, _STYLES_PART, main, reach, visit)
    except XlsxError:
        logger.warning("unreadable styles part; fills skipped")
        return set()
    return {style for style, fill in enumerate(fill_ids) if 0 <= fill < len(solid) and solid[fill]}


def _read_rels(archive: zipfile.ZipFile) -> dict[str, str]:
    rels: dict[str, str] = {}

    def visit(name, attrs):
        rid, target = attrs.get("Id"), attrs.get("Target")
        if rid and target:  # "/x" names part x; any other target outside xl/ is taken as relative to it
            rels[rid] = target[1:] if target[0] == "/" else target if target.startswith("xl/") else "xl/" + target

    _walk(archive, _WORKBOOK_RELS_PART, _PKG_NS, {"": {"Relationship": True}}, visit)
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


def _read_sheet(archive: zipfile.ZipFile, part: str, main: str, name: str, index: int, string_count: int,
                filled_styles: set[int]) -> Worksheet:
    """The sheet's stored cells. Only the rows of the root's first
    ``<sheetData>``, their ``<c>`` children and a cell's first ``<f>`` and
    ``<v>`` are read, and of those two only the text before a child element;
    no other text is kept. A shared-formula master is parsed once and each
    follower is stored as the master plus its offset."""
    cells: dict[tuple[int, int], Cell] = {}
    shared: dict[str, tuple[int, int, Formula]] = {}  # group id -> (anchor row, anchor col, parsed master)
    arrays: list[tuple[int, int, int, int]] = []  # the block of each readable array formula's ref
    # A <row> adds its number to `pending` and a <c> a record that its
    # children fill in: [attributes, first <f>'s attributes, its text, first
    # <v>'s text, has an <is>]. `store` keeps them `_BATCH` at a time, at a
    # <row> or <c> start, when every record is complete; keeping each cell at
    # its </c> made the benchmark's xlsx_formulas workload 5% slower.
    pending: list[int | list] = []

    def visit(name, attrs):
        if name == "c":
            if len(pending) >= _BATCH:
                store()
            pending.append([attrs, None, None, None, False])
        elif name == "v":
            text = pending[-1][3] = []
            return text
        elif name == "f":
            cell = pending[-1]
            cell[1], cell[2] = attrs, []
            return cell[2]
        elif name == "row":
            try:
                number = int(attrs.get("r", "0"))
            except ValueError:
                number = 0
            if len(pending) >= _BATCH:
                store()
            pending.append(number if 1 <= number <= MAX_ROW else 0)
        elif name == "is":
            pending[-1][4] = True

    row_number = last_col = 0

    def store():
        nonlocal row_number, last_col
        for item in pending:
            if item.__class__ is int:  # a row starts
                row_number, last_col = item, 0
                continue
            c_attrs, f_attrs, f_text, v_text, inline = item
            ref = c_attrs.get("r")
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
            # A data table's <f> holds its parameters, not a formula.
            if f_attrs is not None and (kind := f_attrs.get("t")) != "dataTable":
                text = "".join(f_text).lstrip("=")
                group = f_attrs.get("si", "") if kind == "shared" else None
                if group is None or text:
                    formula = parse_formula(text)
                    if group is not None:
                        shared[group] = (row, col, formula)
                    elif kind == "array" and (block := _array_block(f_attrs.get("ref"), part)) is not None:
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
            t = c_attrs.get("t", "n")
            if t == "inlineStr":
                literal = inline
            else:  # no <v>, or one with no text, holds no value
                literal = bool(v_text) and _holds_value(t, "".join(v_text), string_count, part, index, row, col)
            if literal:
                cells[(row, col)] = LITERAL_CELL
            elif filled_styles and (style := c_attrs.get("s")) is not None:
                try:
                    if int(style) in filled_styles:
                        cells[(row, col)] = BLANK_CELL
                except ValueError:
                    pass  # not a style index: a default cell, nothing to store
        pending.clear()

    _walk(archive, part, main, _SHEET_REACH, visit)
    store()
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
        sheet_attrs: list[dict[str, str]] | None = None  # of the root's first <sheets>' <sheet> children
        names: list[tuple[dict[str, str], list[str]]] = []  # attributes and text of each <definedName>

        def visit(name, attrs):
            nonlocal sheet_attrs
            if name == "sheet":
                sheet_attrs.append(attrs)
            elif name == "definedName":
                names.append((attrs, text := []))
                return text
            elif name == "sheets":
                sheet_attrs = []

        main = _walk(archive, _WORKBOOK_PART, None, _WORKBOOK_REACH, visit)
        rels = _read_rels(archive)
        string_count = _count_shared_strings(archive, main)
        filled_styles = _read_filled_styles(archive, main)

        if sheet_attrs is None or main not in _REL_IDS:
            raise MalformedSheetXmlError(_WORKBOOK_PART, "no SpreadsheetML <sheets> element")
        worksheets: list[Worksheet] = []
        for position, attrs in enumerate(sheet_attrs, start=1):
            sheet_name = attrs.get("name") or f"Sheet{position}"
            part = rels.get(attrs.get(_REL_IDS[main]) or "")
            if part is None:
                raise MissingWorkbookPartError(_WORKBOOK_RELS_PART, f"no relationship for sheet {sheet_name!r}")
            worksheets.append(_read_sheet(archive, part, main, sheet_name, position, string_count, filled_styles))

        defined: dict[tuple[int | None, str], DefinedName] = {}
        for attrs, text in names:
            dn_name = attrs.get("name")
            target = "".join(text).strip()
            if not dn_name or not target:
                continue
            scope = None
            local = attrs.get("localSheetId")
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
