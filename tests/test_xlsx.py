"""XLSX reader tests over hand-assembled SpreadsheetML packages."""

from __future__ import annotations

import logging
import os
import pickle
import random
import re
import struct
import subprocess
import sys
import time
import tracemalloc
import zipfile
from collections import defaultdict
from pathlib import Path
from unittest import mock
from xml.sax.saxutils import escape

import pytest

from cellgauge import metrics, xlsx
from cellgauge.cli import analyze_workbook, main
from cellgauge.expressions import Range, Reference, column_index_to_letter, reference_nodes, serialize, shift_expr
from cellgauge.graph import build_graph
from cellgauge.metrics import METRIC_IDS, ast_metrics
from cellgauge.model import BLANK_CELL, LITERAL_CELL, Cell, CellCoordinate, Formula, SharedFormula, Workbook, Worksheet
from cellgauge.parser import parse_text
from cellgauge.tokens import MAX_COL, MAX_ROW
from cellgauge.xlsx import (
    CorruptPartError,
    MalformedSheetXmlError,
    MissingWorkbookPartError,
    NotAZipError,
    read_xlsx,
)

from . import genutil, oracle
from .test_graph import _corner_anchors

NS = 'xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main"'
NS_R = 'xmlns:r="http://schemas.openxmlformats.org/officeDocument/2006/relationships"'



def assert_followers_match_their_text(cells, keys):
    """A shared-formula follower's tree is exactly what parsing its text gives."""
    for key in keys:
        formula = cells[key].formula
        assert formula.error is None
        assert formula.expr == parse_text(formula.text)


def best_reads(paths, rounds=7):
    """[(fastest read in seconds, the workbook read)] of each of `paths`,
    read in turn `rounds` times, so that a busy spell of the host slows
    every path alike."""
    best = [(float("inf"), None)] * len(paths)
    for _ in range(rounds):
        for i, path in enumerate(paths):
            started = time.perf_counter()
            workbook = read_xlsx(path)
            best[i] = min(best[i][0], time.perf_counter() - started), workbook
    return best


def build_formula_twin(path, formulas, values, array):
    """A one-sheet package of formula cells ``(row, col, text, ref)`` and
    value cells ``(row, col)``, rows and cells ascending: each formula an
    array formula over its ref when `array` is set, a plain ``<f>`` else."""
    rows = defaultdict(list)
    for row, col, text, ref in formulas:
        rows[row].append((col, f'<f t="array" ref="{ref}">{text}</f>' if array else f"<f>{text}</f>"))
    for row, col in values:
        rows[row].append((col, f"<v>{col}</v>"))
    body = "".join(
        f'<row r="{row}">'
        + "".join(f'<c r="{column_index_to_letter(col)}{row}">{inner}</c>' for col, inner in sorted(cells))
        + "</row>"
        for row, cells in sorted(rows.items())
    )
    return build_xlsx(path, [("S", body)])


def array_timing_shape(shape):
    """(formula cells, value cells, whether a value cell at (row, col) is a
    result) of one shape for `build_formula_twin`."""
    letter = column_index_to_letter
    if shape == "one_cell":
        # Excel writes a Ctrl+Shift+Enter formula in one cell as an array
        # formula whose ref is that cell: it holds no results.
        rows = range(1, 2001)
        formulas = [(r, 1, f"SUM(B{r}:K{r})", f"A{r}") for r in rows]
        return formulas, [(r, c) for r in rows for c in range(2, 12)], lambda row, col: False
    if shape in ("2000", "4000"):
        # That many rows, each a 2-cell array formula over A:B and ten values
        # in B:K, the one in B its result.
        rows = range(1, int(shape) + 1)
        formulas = [(r, 1, f"SUM(C{r}:K{r})", f"A{r}:B{r}") for r in rows]
        return formulas, [(r, c) for r in rows for c in range(2, 12)], lambda row, col: col == 2
    if shape == "tall":
        # 800 array formulas in row 1, each over its own column down to row
        # 2,000, then 1,999 rows of ten values in ten of those columns.
        formulas = [(1, c, "1+1", f"{letter(c)}1:{letter(c)}2000") for c in range(1, 801)]
        return formulas, [(r, c) for r in range(2, 2001) for c in range(80, 801, 80)], lambda row, col: True
    # "wide": a crafted ref in A1 that starts below its own row and spans
    # every other ref's column (A1999:AEN2000), 800 one-column refs down to
    # row 2,000 in B1:ADU1, then 1,999 rows of ten values in ADU:AED. Only
    # the values in ADU and in the last two rows are results.
    formulas = [(1, 1, "1+1", "A1999:AEN2000")]
    formulas += [(1, c, "1+1", f"{letter(c)}1:{letter(c)}2000") for c in range(2, 802)]
    return formulas, [(r, c) for r in range(2, 2001) for c in range(801, 811)], lambda row, col: col == 801 or row >= 1999


def ref_errors(expr) -> int:
    """The #REF! references in a tree."""
    own = isinstance(expr, Reference) and expr.ref_error
    return own + sum(ref_errors(child) for child in oracle.children(expr))


def build_xlsx(
    path,
    sheets,
    shared_strings=(),
    defined_names=(),
    styles_xml=None,
    drop_parts=(),
    corrupt_parts=(),
):
    """Assemble a minimal but conformant XLSX package.

    sheets: list of (name, sheet_xml_body) where the body is the inner
    <sheetData> markup. defined_names: (name, target) for a global name,
    (name, target, local_sheet_id) for one local to a sheet (0-based).
    """
    sheet_entries = []
    rel_entries = []
    for i, (name, _) in enumerate(sheets, start=1):
        sheet_entries.append(f'<sheet name="{name}" sheetId="{i}" r:id="rId{i}"/>')
        rel_entries.append(
            f'<Relationship Id="rId{i}" '
            'Type="http://schemas.openxmlformats.org/officeDocument/2006/relationships/worksheet" '
            f'Target="worksheets/sheet{i}.xml"/>'
        )
    names_xml = ""
    if defined_names:
        entries = "".join(
            f'<definedName name="{name}"'
            + "".join(f' localSheetId="{local}"' for local in scope)
            + f">{target}</definedName>"
            for name, target, *scope in defined_names
        )
        names_xml = f"<definedNames>{entries}</definedNames>"
    workbook_xml = (
        f'<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
        f"<workbook {NS} {NS_R}><sheets>{''.join(sheet_entries)}</sheets>{names_xml}</workbook>"
    )
    rels_xml = (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
        '<Relationships xmlns="http://schemas.openxmlformats.org/package/2006/relationships">'
        + "".join(rel_entries)
        + "</Relationships>"
    )
    parts = {
        "[Content_Types].xml": (
            '<?xml version="1.0"?>'
            '<Types xmlns="http://schemas.openxmlformats.org/package/2006/content-types">'
            '<Default Extension="xml" ContentType="application/xml"/></Types>'
        ),
        "xl/workbook.xml": workbook_xml,
        "xl/_rels/workbook.xml.rels": rels_xml,
    }
    for i, (_, body) in enumerate(sheets, start=1):
        parts[f"xl/worksheets/sheet{i}.xml"] = (
            f'<?xml version="1.0"?><worksheet {NS}><sheetData>{body}</sheetData></worksheet>'
        )
    if shared_strings:
        entries = "".join(f"<si><t>{s}</t></si>" for s in shared_strings)
        parts["xl/sharedStrings.xml"] = (
            f'<?xml version="1.0"?><sst {NS} count="{len(shared_strings)}" '
            f'uniqueCount="{len(shared_strings)}">{entries}</sst>'
        )
    if styles_xml is not None:
        parts["xl/styles.xml"] = styles_xml
    for part in drop_parts:
        parts.pop(part, None)
    for part in corrupt_parts:
        parts[part] = "<not-xml"
    with zipfile.ZipFile(path, "w") as archive:
        for part_name, content in parts.items():
            archive.writestr(part_name, content)
    return path


def rewrite_parts(path, rewrite, compression=zipfile.ZIP_STORED):
    """Rewrite the package at `path`: `rewrite` changes its dict of parts,
    name -> bytes, in place, and every part is written back with
    `compression`."""
    with zipfile.ZipFile(path) as archive:
        parts = {name: archive.read(name) for name in archive.namelist()}
    rewrite(parts)
    with zipfile.ZipFile(path, "w", compression) as archive:
        for name, content in parts.items():
            archive.writestr(name, content)
    return path


def build_bad_crc_xlsx(path):
    """A package whose first sheet member no longer matches its stored CRC-32."""
    build_xlsx(path, [("S", '<row r="1"><c r="A1"><v>1</v></c></row>')])
    data = path.read_bytes()
    assert data.count(b"<sheetData>") == 1
    path.write_bytes(data.replace(b"<sheetData>", b"<sheetDatb>"))
    return path


def build_unsupported_compression_xlsx(path):
    """A package whose first sheet member names compression method 6
    (implode), which zipfile cannot decompress."""
    build_xlsx(path, [("S", '<row r="1"><c r="A1"><v>1</v></c></row>')])
    part = b"xl/worksheets/sheet1.xml"
    with zipfile.ZipFile(path) as archive:
        offset = archive.getinfo(part.decode()).header_offset
    data = bytearray(path.read_bytes())
    struct.pack_into("<H", data, offset + 8, 6)  # local file header
    central = data.index(b"PK\x01\x02")
    while data[central + 46 : central + 46 + len(part)] != part:
        central = data.index(b"PK\x01\x02", central + 4)
    struct.pack_into("<H", data, central + 10, 6)  # central directory record
    path.write_bytes(bytes(data))
    return path


def build_unknown_encoding_xlsx(path, part, encoding="UTF-9"):
    """A package whose ``part`` declares `encoding`, which the XML parser
    cannot map: UTF-9 it does not know, and Shift_JIS is multi-byte."""
    body = '<row r="1"><c r="A1" t="s"><v>0</v></c></row>'
    build_xlsx(path, [("S", body)], shared_strings=("x",), styles_xml=f'<?xml version="1.0"?><styleSheet {NS}/>')

    def redeclare(parts):
        parts[part] = f'<?xml version="1.0" encoding="{encoding}"?>'.encode() + parts[part][parts[part].index(b"?>") + 2:]

    return rewrite_parts(path, redeclare)


class TestLiterals:
    def test_minimal_number_cell(self, tmp_path):
        path = build_xlsx(
            tmp_path / "one.xlsx",
            [("Sheet1", '<row r="1"><c r="A1"><v>5</v></c></row>')],
        )
        workbook = read_xlsx(path)
        assert workbook.name == "one"
        assert set(workbook.sheets[0].cells) == {(1, 1)}
        cell = workbook.sheets[0].cells[(1, 1)]
        assert cell.literal and cell.formula is None and cell.has_content

    def test_typed_cells(self, tmp_path):
        # Row 1: every marker with a value is content, an empty inline string
        # too. Row 2: the same markers without a value are not stored.
        markers = ("s", "b", "e", "str", "d", "n")
        body = (
            '<row r="1">'
            '<c r="A1" t="s"><v>0</v></c>'
            '<c r="B1" t="b"><v>0</v></c>'
            '<c r="C1" t="e"><v>#DIV/0!</v></c>'
            '<c r="D1" t="str"><v>plain</v></c>'
            '<c r="E1" t="d"><v>2024-01-01</v></c>'
            '<c r="F1" t="n"><v>1.5e3</v></c>'
            '<c r="G1" t="inlineStr"><is><t>inline</t></is></c>'
            '<c r="H1" t="inlineStr"><is/></c>'
            '<c r="I1" t="x-unknown"><v>7</v></c>'
            "</row>"
            '<row r="2">'
            + "".join(f'<c r="{chr(ord("A") + i)}2" t="{t}"><v></v></c>' for i, t in enumerate(markers))
            + '<c r="G2" t="inlineStr"/><c r="H2" t="inlineStr"><v>not inline</v></c>'
            "</row>"
        )
        path = build_xlsx(tmp_path / "types.xlsx", [("S", body)], shared_strings=("hello",))
        cells = read_xlsx(path).sheets[0].cells
        assert set(cells) == {(1, col) for col in range(1, 10)}
        assert all(cell.literal and cell.formula is None for cell in cells.values())

    @pytest.mark.parametrize(
        "marker,text", [("s", "1"), ("s", "-1"), ("s", "x"), ("n", "abc")], ids=["past_end", "negative", "not_int", "n"]
    )
    def test_value_its_marker_rejects_is_no_content(self, tmp_path, caplog, marker, text):
        body = f'<row r="1"><c r="A1" t="{marker}"><v>{text}</v></c><c r="B1" t="s"><v>0</v></c></row>'
        path = build_xlsx(tmp_path / "bad.xlsx", [("S", body)], shared_strings=("only",))
        caplog.set_level(logging.WARNING, logger="cellgauge")
        cells = read_xlsx(path).sheets[0].cells
        assert set(cells) == {(1, 2)}
        expected = "bad shared-string index" if marker == "s" else "non-numeric value"
        assert f"{expected} {text!r} at CellCoordinate(sheet=1, row=1, col=1)" in caplog.text

    def test_cell_without_ref_attribute_follows_previous(self, tmp_path):
        body = '<row r="2"><c r="B2"><v>1</v></c><c><v>2</v></c></row>'
        path = build_xlsx(tmp_path / "noref.xlsx", [("S", body)])
        cells = read_xlsx(path).sheets[0].cells
        assert set(cells) == {(2, 2), (2, 3)}
        assert cells[(2, 3)].literal

    def test_invalid_row_numbers_never_produce_out_of_grid_cells(self, tmp_path):
        body = (
            '<row r="-1"><c><v>1</v></c></row>'
            '<row r="0"><c><v>2</v></c></row>'
            '<row r="2000000000"><c><v>3</v></c></row>'
            '<row r="3"><c><v>4</v></c></row>'
        )
        path = build_xlsx(tmp_path / "badrows.xlsx", [("S", body)])
        cells = read_xlsx(path).sheets[0].cells
        assert set(cells) == {(3, 1)}
        assert all(row >= 1 and col >= 1 for row, col in cells)

    def test_cells_of_a_row_share_its_row_number(self, tmp_path):
        # Rows above 256: Python does not share ints that large by itself.
        body = "".join(
            f'<row r="{row}">' + "".join(f'<c r="{col}{row}"><v>1</v></c>' for col in "ABCDEFGHIJ") + "</row>"
            for row in range(1000, 1100)
        )
        path = build_xlsx(tmp_path / "rows.xlsx", [("S", body)])
        cells = read_xlsx(path).sheets[0].cells
        assert len(cells) == 1000
        assert len({id(row) for row, _ in cells}) == 100

    def test_reference_with_trailing_newline_is_skipped(self, tmp_path, caplog):
        body = '<row r="2"><c r="A2"><v>1</v></c><c r="B2&#10;"><v>2</v></c></row>'
        path = build_xlsx(tmp_path / "newline.xlsx", [("S", body)])
        caplog.set_level(logging.WARNING, logger="cellgauge")
        cells = read_xlsx(path).sheets[0].cells
        assert set(cells) == {(2, 1)}
        assert "skipping cell with bad reference 'B2\\n'" in caplog.text

    def test_date_serial_stays_numeric(self, tmp_path):
        body = '<row r="1"><c r="A1" s="1"><v>44927</v></c></row>'
        path = build_xlsx(tmp_path / "date.xlsx", [("S", body)])
        cell = read_xlsx(path).sheets[0].cells[(1, 1)]
        assert cell.literal and cell.formula is None


class TestFormulas:
    def test_formula_with_cached_value(self, tmp_path):
        body = '<row r="1"><c r="A1"><f>B1*2</f><v>10</v></c></row>'
        path = build_xlsx(tmp_path / "f.xlsx", [("S", body)])
        cell = read_xlsx(path).sheets[0].cells[(1, 1)]
        assert cell.formula is not None
        assert cell.formula.text == "B1*2"
        assert not cell.literal  # the cached result is not a literal

    def test_shared_formula_group_expands(self, tmp_path):
        body = (
            '<row r="2"><c r="B2"><f t="shared" ref="B2:B4" si="0">A2*2</f></c></row>'
            '<row r="3"><c r="B3"><f t="shared" si="0"/></c></row>'
            '<row r="4"><c r="B4"><f t="shared" si="0"/></c></row>'
        )
        path = build_xlsx(tmp_path / "shared.xlsx", [("S", body)])
        cells = read_xlsx(path).sheets[0].cells
        assert cells[(2, 2)].formula.text == "A2*2"
        assert cells[(3, 2)].formula.text == "A3*2"
        assert cells[(4, 2)].formula.text == "A4*2"
        assert_followers_match_their_text(cells, [(3, 2), (4, 2)])

    def test_shared_formula_preserves_absolute_parts(self, tmp_path):
        body = (
            '<row r="1"><c r="B1"><f t="shared" ref="B1:B2" si="3">$A$1+A1</f></c></row>'
            '<row r="2"><c r="B2"><f t="shared" si="3"/></c></row>'
        )
        path = build_xlsx(tmp_path / "sharedabs.xlsx", [("S", body)])
        cells = read_xlsx(path).sheets[0].cells
        assert cells[(2, 2)].formula.text == "$A$1+A2"
        assert_followers_match_their_text(cells, [(2, 2)])

    def test_shared_formula_shift_off_grid_becomes_ref_error(self, tmp_path):
        body = (
            '<row r="1"><c r="B1"><f t="shared" ref="B1:B2" si="0">A1+B2</f></c></row>'
            '<row r="2"><c r="A2"><f t="shared" si="0"/></c></row>'
        )
        # follower is one column left of the master: A1 shifts off the grid
        path = build_xlsx(tmp_path / "refershift.xlsx", [("S", body)])
        cells = read_xlsx(path).sheets[0].cells
        assert "#REF!" in cells[(2, 1)].formula.text
        assert_followers_match_their_text(cells, [(2, 1)])

        # A range with an end off the grid becomes #REF! too, a full column
        # included, so its copy key turns from RANGE to REF: A3 is a second
        # distinct formula beside its master and B3.
        body = (
            '<row r="2"><c r="B2"><f t="shared" ref="A2:B3" si="0">SUM(A1:A2)+A1+SUM(A:A)</f></c></row>'
            '<row r="3"><c r="A3"><f t="shared" si="0"/></c><c r="B3"><f t="shared" si="0"/></c></row>'
        )
        workbook = read_xlsx(build_xlsx(tmp_path / "rangeshift.xlsx", [("S", body)]))
        cells = workbook.sheets[0].cells
        assert cells[(3, 1)].formula.text == "SUM(#REF!)+#REF!+SUM(#REF!)"
        assert cells[(3, 2)].formula.text == "SUM(A2:A3)+A2+SUM(A:A)"
        assert_followers_match_their_text(cells, [(3, 1), (3, 2)])
        assert analyze_workbook(workbook).metrics["M08"] == 2

    def test_shared_follower_before_its_master_fails_to_parse(self, tmp_path, caplog):
        body = (
            '<row r="1"><c r="A1"><f t="shared" si="7"/></c></row>'
            '<row r="2"><c r="A2"><f t="shared" ref="A2:A3" si="7">B2</f></c></row>'
        )
        path = build_xlsx(tmp_path / "early.xlsx", [("S", body)])
        caplog.set_level(logging.WARNING, logger="cellgauge")
        workbook = read_xlsx(path)
        assert "shared formula follower before master (si=7)" in caplog.text
        assert workbook.sheets[0].cells[(1, 1)].formula == Formula("", None, "expected expression (at offset 0)")
        record = analyze_workbook(workbook)
        assert (record.formula_cells, record.parse_failures) == (2, 1)

    def test_shared_followers_match_a_naive_shift_of_their_master(self, tmp_path):
        # Up to 200 generated masters, each with followers at later cells in
        # row-major order, some in columns left of it: relative references
        # there shift off the grid.
        rng = random.Random(20)
        sheets = ("S", "Other Data", "it's")
        grid = [(row, col) for row in range(1, 41) for col in range(1, 21)]
        group_of = {cell: rng.randrange(200) for cell in rng.sample(grid, 800)}
        masters: dict[int, tuple[int, int, str]] = {}
        rows: dict[int, list[str]] = {}
        for row, col in sorted(group_of):
            group = group_of[(row, col)]
            ref = f"{column_index_to_letter(col)}{row}"
            if group in masters:
                f_el = f'<f t="shared" si="{group}"/>'
            else:
                masters[group] = (row, col, genutil.gen_expr(rng, sheets=sheets))
                f_el = f'<f t="shared" si="{group}">{escape(masters[group][2])}</f>'
            rows.setdefault(row, []).append(f'<c r="{ref}">{f_el}</c>')
        body = "".join(f'<row r="{row}">{"".join(cells)}</row>' for row, cells in rows.items())
        path = build_xlsx(tmp_path / "generated.xlsx", [("S", body)])
        cells = read_xlsx(path).sheets[0].cells
        followers = shifted_off = 0
        for (row, col), group in group_of.items():
            m_row, m_col, text = masters[group]
            if (row, col) == (m_row, m_col):
                continue
            expected = oracle.shift(parse_text(text), row - m_row, col - m_col)
            assert cells[(row, col)].formula.expr == expected, (row, col, text)
            followers += 1
            shifted_off += ref_errors(expected) > ref_errors(parse_text(text))
        assert followers == 800 - len(masters)
        assert shifted_off > 100

    def test_shared_formula_with_sheet_ranges_and_functions(self, tmp_path):
        body = (
            '<row r="1"><c r="C1"><f t="shared" ref="C1:D2" si="5">'
            "SUM('Other Data'!A1:B$2,[Book]S!C1)*-A:A+1:$3+IF(A1&gt;0,Data!B1%,&quot;x&quot;)"
            "</f></c>"
            '<c r="D1"><f t="shared" si="5"/></c></row>'
            '<row r="2"><c r="C2"><f t="shared" si="5"/></c><c r="D2"><f t="shared" si="5"/></c></row>'
        )
        path = build_xlsx(tmp_path / "sharedmix.xlsx", [("S", body)])
        cells = read_xlsx(path).sheets[0].cells
        assert cells[(2, 4)].formula.text == (
            "SUM('Other Data'!B2:C$2,'[Book]S'!D2)*-B:B+2:$3+IF(B2>0,Data!C2%,\"x\")"
        )
        assert_followers_match_their_text(cells, [(1, 4), (2, 3), (2, 4)])

    def test_long_chain_shared_master_shifts_followers(self, tmp_path):
        def chain(first_row):
            return "+".join(f"A{first_row + i}" for i in range(2000))

        body = f'<row r="1"><c r="B1"><f t="shared" ref="B1:B3" si="0">{chain(1)}</f></c></row>' + "".join(
            f'<row r="{r}"><c r="B{r}"><f t="shared" si="0"/></c></row>' for r in (2, 3)
        )
        path = build_xlsx(tmp_path / "sharedchain.xlsx", [("S", body)])
        cells = read_xlsx(path).sheets[0].cells
        for r in (1, 2, 3):
            formula = cells[(r, 2)].formula
            assert formula.error is None
            # compared as text: the generated equality recurses once per level
            assert formula.text == serialize(formula.expr) == chain(r)

    def test_failed_shared_master_is_inherited_by_followers(self, tmp_path):
        body = (
            '<row r="1"><c r="B1"><f t="shared" ref="B1:B3" si="0">1+</f></c></row>'
            '<row r="2"><c r="B2"><f t="shared" si="0"/></c></row>'
            '<row r="3"><c r="B3"><f t="shared" si="0"/></c></row>'
        )
        path = build_xlsx(tmp_path / "sharedbad.xlsx", [("S", body)])
        cells = read_xlsx(path).sheets[0].cells
        master = cells[(1, 2)].formula
        assert master.expr is None and "offset 2" in master.error
        for key in [(2, 2), (3, 2)]:
            assert cells[key].formula == master

    def test_each_formula_is_parsed_once_and_followers_never(self, tmp_path):
        body = (
            '<row r="1"><c r="B1"><f t="shared" ref="B1:B4" si="0">A1*2</f></c>'
            '<c r="C1"><f t="shared" ref="C1:C4" si="1">1+</f></c><c r="D1"><f>A1</f></c></row>'
        ) + "".join(
            f'<row r="{r}"><c r="B{r}"><f t="shared" si="0"/></c><c r="C{r}"><f t="shared" si="1"/></c></row>'
            for r in range(2, 5)
        )
        path = build_xlsx(tmp_path / "sharedcount.xlsx", [("S", body)])
        with mock.patch("cellgauge.xlsx.parse_formula", wraps=xlsx.parse_formula) as spy:
            cells = read_xlsx(path).sheets[0].cells
        assert sorted(call.args[0] for call in spy.call_args_list) == ["1+", "A1", "A1*2"]
        assert len(cells) == 9
        assert_followers_match_their_text(cells, [(r, 2) for r in range(2, 5)])

    def test_defined_names_load(self, tmp_path):
        path = build_xlsx(
            tmp_path / "names.xlsx",
            [("Data", '<row r="1"><c r="A1"><v>1</v></c></row>')],
            defined_names=(("TOTAL", "Data!$A$1:$A$3"),),
        )
        workbook = read_xlsx(path)
        assert workbook.defined_name("total").target == "Data!$A$1:$A$3"
        assert workbook.defined_name("total").expr is not None

    def test_sheet_local_name_shadows_global_on_its_own_sheet_only(self, tmp_path):
        # The name local to Two (8 cells) is listed before the global one (1 cell).
        path = build_xlsx(
            tmp_path / "scoped.xlsx",
            [
                ("One", '<row r="1"><c r="A1"><f>Total</f></c></row>'),
                ("Two", '<row r="1"><c r="A1"><v>1</v></c><c r="C1"><f>total*2</f></c></row>'),
            ],
            defined_names=(("Total", "Two!$B$2:$B$9", 1), ("Total", "Two!$A$1")),
        )
        workbook = read_xlsx(path)
        assert workbook.defined_name("TOTAL").target == "Two!$A$1"
        assert workbook.defined_name("TOTAL", 2).scope == 2
        graph = build_graph(workbook)
        assert graph.fan_out(CellCoordinate(1, 1, 1)) == 1
        assert graph.fan_out(CellCoordinate(2, 1, 3)) == 8
        for coordinate, (cells, dangling) in oracle.expansions(workbook).items():
            assert (graph.fan_out(coordinate), graph.dangling[coordinate]) == (len(cells), dangling)
        assert set(workbook.defined_names) == {(None, "total"), (2, "total")}

    @pytest.mark.parametrize("with_global", [True, False], ids=["global", "no_global"])
    def test_sheet_qualified_name_is_looked_up_on_that_sheet(self, tmp_path, with_global):
        # OOXML writes a reference from One to the name local to Two as Two!Total.
        names = [("Total", "Two!$B$2:$B$9", 1)]
        if with_global:
            names.append(("Total", "Two!$A$1"))
        path = build_xlsx(
            tmp_path / "qualified.xlsx",
            [
                ("One", '<row r="1"><c r="A1"><f>Two!Total</f></c><c r="B1"><f>Total</f></c></row>'),
                ("Two", '<row r="1"><c r="A1"><f>One!Total</f></c></row>'),
            ],
            defined_names=names,
        )
        workbook = read_xlsx(path)
        graph = build_graph(workbook)
        assert graph.fan_out(CellCoordinate(1, 1, 1)) == 8
        # One has no local Total: the global one, or nothing
        expected = (1, 0) if with_global else (0, 1)
        for coordinate in (CellCoordinate(1, 1, 2), CellCoordinate(2, 1, 1)):
            assert (graph.fan_out(coordinate), graph.dangling[coordinate]) == expected
        for coordinate, (cells, dangling) in oracle.expansions(workbook).items():
            assert (graph.fan_out(coordinate), graph.dangling[coordinate]) == (len(cells), dangling)

    @pytest.mark.parametrize("local", ["2", "-1", "x"])
    def test_name_local_to_no_sheet_is_skipped(self, tmp_path, caplog, local):
        path = build_xlsx(
            tmp_path / "badscope.xlsx",
            [("One", '<row r="1"><c r="A1"><f>Total</f></c></row>'), ("Two", "")],
            defined_names=(("Total", "Two!$B$2:$B$9", local),),
        )
        with caplog.at_level(logging.WARNING, logger="cellgauge"):
            workbook = read_xlsx(path)
        assert workbook.defined_names == {}
        assert "localSheetId" in caplog.text

    def test_data_table_cell_is_read_by_its_value(self, tmp_path):
        body = (
            '<row r="1"><c r="A1"><v>1</v></c></row>'
            '<row r="2"><c r="B2"><f t="dataTable" ref="B2:B3" dt2D="0" dtr="0" r1="A1"/><v>2</v></c></row>'
        )
        workbook = read_xlsx(build_xlsx(tmp_path / "table.xlsx", [("S", body)]))
        assert workbook.sheets[0].cells[(2, 2)] is LITERAL_CELL
        record = analyze_workbook(workbook)
        assert (record.formula_cells, record.parse_failures, record.non_empty_cells) == (0, 0, 2)

    def test_array_formula_results_are_stored_without_content(self, tmp_path, caplog):
        # B1 holds a 3-cell array formula over the inputs A1:A3; B2 and B3
        # hold only its cached results, and widen the used area as before.
        body = (
            '<row r="1"><c r="A1"><v>1</v></c><c r="B1"><f t="array" ref="B1:B3">A1:A3*2</f><v>2</v></c></row>'
            '<row r="2"><c r="A2"><v>2</v></c><c r="B2"><v>4</v></c></row>'
            '<row r="3"><c r="A3"><v>3</v></c><c r="B3"><v>6</v></c></row>'
        )
        workbook = read_xlsx(build_xlsx(tmp_path / "array.xlsx", [("S", body)]))
        sheet = workbook.sheets[0]
        assert sheet.cells[(2, 2)] is BLANK_CELL and sheet.cells[(3, 2)] is BLANK_CELL
        assert sheet.used_box() == (1, 1, 3, 2)
        record = analyze_workbook(workbook)
        assert (record.formula_cells, record.non_empty_cells, record.input_cells) == (1, 4, 3)
        assert (record.metrics["M04"], record.metrics["M05"]) == (0.25, 3)
        expected = oracle.record(workbook)
        assert record.metrics == pytest.approx({metric_id: expected[metric_id] for metric_id in METRIC_IDS}, abs=1e-9)

        # A cell of the range with a formula of its own is a formula; a value
        # outside the range, or in the range of an unreadable ref, is a literal.
        body = (
            '<row r="1"><c r="A1"><f t="array" ref="$A$1:B2">1</f></c><c r="C1"><v>1</v></c>'
            '<c r="D1"><f t="array" ref="D1:D">1</f></c></row>'
            '<row r="2"><c r="A2"><f>3</f></c><c r="B2"><v>4</v></c><c r="D2"><v>5</v></c></row>'
        )
        caplog.set_level(logging.WARNING, logger="cellgauge")
        cells = read_xlsx(build_xlsx(tmp_path / "arrays.xlsx", [("S", body)])).sheets[0].cells
        assert cells[(2, 1)].formula.text == "3"
        assert cells[(2, 2)] is BLANK_CELL
        assert cells[(1, 3)] is LITERAL_CELL and cells[(2, 4)] is LITERAL_CELL
        assert "array formula with bad range 'D1:D'" in caplog.text

    @pytest.mark.parametrize("shape", ["one_cell", "2000", "4000", "tall", "wide"])
    def test_array_results_are_matched_in_linear_time(self, tmp_path, shape):
        # An array package reads within twice its plain-<f> twin (see
        # `array_timing_shape`): marking its results does not cost refs ×
        # values.
        formulas, values, is_result = array_timing_shape(shape)
        (plain, plain_book), (array, array_book) = best_reads([
            build_formula_twin(tmp_path / "plain.xlsx", formulas, values, array=False),
            build_formula_twin(tmp_path / "array.xlsx", formulas, values, array=True),
        ])
        assert array_book.sheets[0].cells == {
            key: BLANK_CELL if cell is LITERAL_CELL and is_result(*key) else cell
            for key, cell in plain_book.sheets[0].cells.items()
        }
        assert array < 2 * plain, (array, plain)

    def test_array_results_in_later_rows_are_stored_without_content(self, tmp_path):
        # B1 holds an array formula over B1:C3; its results fill C1, B2:C2 and
        # B3:C3, while A2, D2 and B4 lie outside the range.
        body = (
            '<row r="1"><c r="A1"><v>1</v></c><c r="B1"><f t="array" ref="B1:C3">A1:A3*{1,2}</f></c>'
            '<c r="C1"><v>2</v></c></row>'
            '<row r="2"><c r="A2"><v>2</v></c><c r="B2"><v>2</v></c><c r="C2"><v>4</v></c><c r="D2"><v>1</v></c></row>'
            '<row r="3"><c r="B3"><v>0</v></c><c r="C3"><v>0</v></c></row>'
            '<row r="4"><c r="B4"><v>1</v></c></row>'
        )
        cells = read_xlsx(build_xlsx(tmp_path / "block.xlsx", [("S", body)])).sheets[0].cells
        assert {key for key, cell in cells.items() if cell is BLANK_CELL} == {(1, 3), (2, 2), (2, 3), (3, 2), (3, 3)}
        assert {key for key, cell in cells.items() if cell is LITERAL_CELL} == {(1, 1), (2, 1), (2, 4), (4, 2)}

    def test_one_cell_array_ranges_follow_the_same_rule(self, tmp_path):
        # A ref of the anchor alone holds no other cell; a one-cell ref beside
        # the anchor holds a result, as any range does.
        body = (
            '<row r="1"><c r="A1"><f t="array" ref="A1">1</f></c><c r="B1"><v>1</v></c>'
            '<c r="C1"><f t="array" ref="D1">2</f></c><c r="D1"><v>2</v></c><c r="E1"><v>3</v></c></row>'
            '<row r="2"><c r="A2"><v>4</v></c><c r="D2"><v>5</v></c></row>'
        )
        cells = read_xlsx(build_xlsx(tmp_path / "one.xlsx", [("S", body)])).sheets[0].cells
        assert {key for key, cell in cells.items() if cell is BLANK_CELL} == {(1, 4)}
        assert {key for key, cell in cells.items() if cell is LITERAL_CELL} == {(1, 2), (1, 5), (2, 1), (2, 4)}

    @pytest.mark.parametrize("order", [(1, 2, 3), (1, 3, 2), (2, 1, 3)], ids=str)
    def test_array_results_do_not_depend_on_row_order(self, tmp_path, order):
        # B2 is in the range of B1's array formula: it is a result whether it
        # is read before or after B1, and before or after A3, a value below
        # the range. A3 lies outside the range and stays a literal.
        rows = {
            1: '<row r="1"><c r="B1"><f t="array" ref="B1:B2">A1:A2</f></c></row>',
            2: '<row r="2"><c r="B2"><v>2</v></c></row>',
            3: '<row r="3"><c r="A3"><v>3</v></c></row>',
        }
        body = "".join(rows[r] for r in order)
        cells = read_xlsx(build_xlsx(tmp_path / "order.xlsx", [("S", body)])).sheets[0].cells
        assert cells[(2, 2)] is BLANK_CELL
        assert cells[(3, 1)] is LITERAL_CELL

    @pytest.mark.parametrize("seed", range(6))
    def test_array_results_follow_the_rule_for_crafted_refs_in_any_row_order(self, tmp_path, seed):
        # Stacked, overlapping, reversed and one-cell refs, some rows out of
        # order, refs that start before their formula: a value is a result
        # when some array formula's ref on the sheet spans it.
        rng = random.Random(seed)
        rows = list(range(1, 13))
        if seed % 2:
            rng.shuffle(rows)
        body, arrays, values = "", [], []
        for r in rows:
            cols = sorted(rng.sample(range(1, 9), rng.randint(1, 5)))
            body += f'<row r="{r}">'
            for c in cols:
                position = f"{column_index_to_letter(c)}{r}"
                if rng.random() < 0.3:
                    r1, c1 = rng.randint(1, 12), rng.randint(1, 8)
                    r2, c2 = (r1, c1) if rng.random() < 0.2 else (rng.randint(1, 12), rng.randint(1, 8))
                    first, last = f"{column_index_to_letter(c1)}{r1}", f"{column_index_to_letter(c2)}{r2}"
                    ref = first if first == last else f"{first}:{last}"
                    body += f'<c r="{position}"><f t="array" ref="{ref}">1</f></c>'
                    arrays.append((min(r1, r2), min(c1, c2), max(r1, r2), max(c1, c2)))
                else:
                    body += f'<c r="{position}"><v>1</v></c>'
                    values.append((r, c))
            body += "</row>"
        results = {(r, c) for r, c in values if any(r1 <= r <= r2 and c1 <= c <= c2 for r1, c1, r2, c2 in arrays)}
        cells = read_xlsx(build_xlsx(tmp_path / "crafted.xlsx", [("S", body)])).sheets[0].cells
        assert {key for key, cell in cells.items() if cell is BLANK_CELL} == results

    def test_array_results_of_sheets_as_excel_writes_them_follow_the_streaming_rule(self, tmp_path):
        # 200 sheets with rows and cells ascending, each array formula on the
        # first cell of its ref: stacked, touching, overlapping, one-cell and
        # wide refs, and cells in a ref with a formula of their own. Each
        # stores what a reader that streams the rows finds: a value is a
        # result when some array formula read before it spans it and no value
        # read since lay below that formula's range.
        rng = random.Random(27)
        sheets, expected = [], []
        for _ in range(200):
            refs: dict[tuple[int, int], tuple[int, int, int, int]] = {}
            for _ in range(rng.randint(1, 6)):
                if refs and rng.random() < 0.4:  # stacked below or touching right of an earlier ref
                    r1, c1, r2, c2 = rng.choice(list(refs.values()))
                    r1, c1 = (r2 + 1, c1) if rng.random() < 0.5 else (r1, c2 + 1)
                else:
                    r1, c1 = rng.randint(1, 12), rng.randint(1, 10)
                if r1 <= 12 and c1 <= 10:
                    one_cell = rng.random() < 0.25
                    r2, c2 = (r1, c1) if one_cell else (rng.randint(r1, min(r1 + 4, 12)), rng.randint(c1, 10))
                    refs.setdefault((r1, c1), (r1, c1, r2, c2))
            body, arrays, kinds = "", [], {}
            for r in range(1, 13):
                body += f'<row r="{r}">'
                for c in range(1, 11):
                    position = f"{column_index_to_letter(c)}{r}"
                    if (r, c) in refs:
                        _, _, r2, c2 = refs[(r, c)]
                        last = f"{column_index_to_letter(c2)}{r2}"
                        body += f'<c r="{position}"><f t="array" ref="{position}:{last}">1</f></c>'
                        arrays.append(refs[(r, c)])
                        kinds[(r, c)] = "formula"
                    elif (draw := rng.random()) < 0.15:
                        body += f'<c r="{position}"><f>1</f></c>'
                        kinds[(r, c)] = "formula"
                    elif draw < 0.75:
                        body += f'<c r="{position}"><v>1</v></c>'
                        kinds[(r, c)] = "literal"
                        arrays = [block for block in arrays if block[2] >= r]
                        if any(r1 <= r and c1 <= c <= c2 for r1, c1, _, c2 in arrays):
                            kinds[(r, c)] = "result"
                body += "</row>"
            sheets.append((f"S{len(sheets) + 1}", body))
            expected.append(kinds)
        workbook = read_xlsx(build_xlsx(tmp_path / "excel.xlsx", sheets))
        read = [
            {key: "formula" if cell.formula is not None else "result" if cell is BLANK_CELL else "literal"
             for key, cell in sheet.cells.items()}
            for sheet in workbook.sheets
        ]
        assert read == expected
        stored = [kind for sheet in expected for kind in sheet.values()]
        assert stored.count("result") > 1000 and stored.count("literal") > 1000

    def test_second_cell_at_a_position_is_skipped(self, tmp_path, caplog):
        body = '<row r="1"><c r="A1"><f>B1*2</f></c><c r="A1"><v>3</v></c></row>'
        path = build_xlsx(tmp_path / "twice.xlsx", [("S", body)])
        caplog.set_level(logging.WARNING, logger="cellgauge")
        cells = read_xlsx(path).sheets[0].cells
        assert set(cells) == {(1, 1)}
        assert cells[(1, 1)].formula.text == "B1*2"
        assert "xl/worksheets/sheet1.xml: skipping second cell at A1" in caplog.text

    def test_unparseable_formula_kept_with_failure_marker(self, tmp_path):
        body = '<row r="1"><c r="A1"><f>1+</f></c></row>'
        path = build_xlsx(tmp_path / "bad.xlsx", [("S", body)])
        cell = read_xlsx(path).sheets[0].cells[(1, 1)]
        assert cell.formula.text == "1+"
        assert cell.formula.expr is None and cell.formula.error


def build_shared_groups(path):
    """The 800 formula cells of
    `TestFormulas.test_shared_followers_match_a_naive_shift_of_their_master`,
    on sheet S of a package that also holds the two sheets their formulas
    name, with literals, and targets for four of `genutil.NAMES`."""
    rng = random.Random(20)
    sheets = ("S", "Other Data", "it's")
    grid = [(row, col) for row in range(1, 41) for col in range(1, 21)]
    group_of = {cell: rng.randrange(200) for cell in rng.sample(grid, 800)}
    masters: dict[int, tuple[int, int]] = {}
    rows: dict[int, list[str]] = {}
    for row, col in sorted(group_of):
        group = group_of[(row, col)]
        if group in masters:
            f_el = f'<f t="shared" si="{group}"/>'
        else:
            masters[group] = (row, col)
            f_el = f'<f t="shared" si="{group}">{escape(genutil.gen_expr(rng, sheets=sheets))}</f>'
        rows.setdefault(row, []).append(f'<c r="{column_index_to_letter(col)}{row}">{f_el}</c>')
    body = "".join(f'<row r="{row}">{"".join(cells)}</row>' for row, cells in rows.items())
    def literals(last_row, letters):
        return "".join(
            f'<row r="{row}">' + "".join(f'<c r="{letter}{row}"><v>{row}</v></c>' for letter in letters) + "</row>"
            for row in range(1, last_row + 1)
        )

    names = (("alpha", "'Other Data'!$A$1:$B$3"), ("TOTAL", "S!$C$2"), ("net.total", "'it''s'!$B$2"),
             ("grandTotal", "S!$A:$A"))
    return build_xlsx(path, [("S", body), ("Other Data", literals(8, "ABCDEF")), ("it's", literals(3, "AB"))],
                      defined_names=names)


def follower_workbook(path, rows):
    """A package with data in A1:A{rows} and one shared-formula group,
    SUM($A$1:A1) in B1 filled down to B{rows}."""
    body = "".join(
        f'<row r="{r}"><c r="A{r}"><v>{r}</v></c><c r="B{r}">'
        + (f'<f t="shared" ref="B1:B{rows}" si="0">SUM($A$1:A1)</f>' if r == 1 else '<f t="shared" si="0"/>')
        + "</c></row>"
        for r in range(1, rows + 1)
    )
    return build_xlsx(path, [("Sheet1", body)])


class TestSharedFollowers:
    def test_generated_groups_agree_with_the_oracle(self, tmp_path):
        workbook = read_xlsx(build_shared_groups(tmp_path / "groups.xlsx"))
        kinds = {type(cell.formula) for cell in workbook.sheets[0].cells.values()}
        assert kinds == {Formula, SharedFormula}  # masters and followers
        record = analyze_workbook(workbook)
        expected = oracle.record(workbook)
        assert (record.sheet_count, record.non_empty_cells, record.input_cells, record.formula_cells,
                record.parse_failures) == (expected["sheetCount"], expected["nonEmptyCells"],
                                           expected["inputCells"], expected["formulaCells"],
                                           expected["parseFailures"])
        for metric_id in METRIC_IDS:
            assert record.metrics[metric_id] == pytest.approx(expected[metric_id], abs=1e-9), metric_id

        graph = build_graph(workbook)
        sheet = workbook.sheets[0]
        formulas = [sheet.cells[coordinate.row, coordinate.col].formula for coordinate in graph.formula_cells()]
        # Some followers shift a range off the grid and are measured by their own tree.
        assert any(type(formula) is SharedFormula and expr is not formula.master.expr
                   for formula, expr in zip(formulas, graph.exprs))
        expanded = oracle.expansions(workbook)
        assert set(graph.formula_cells()) == set(expanded)
        transpose: dict = {}
        for coordinate, (cells, dangling) in expanded.items():
            assert (graph.fan_out(coordinate), graph.dangling[coordinate]) == (len(cells), dangling)
            formula = sheet.cells[coordinate.row, coordinate.col].formula
            assert graph.anchors[coordinate] == _corner_anchors(formula.expr, coordinate.sheet, workbook), coordinate
            for target in cells:
                transpose.setdefault(CellCoordinate(*target), set()).add(coordinate)
        assert graph.reverse == {target: frozenset(sources) for target, sources in transpose.items()}

    @pytest.mark.parametrize(
        "text", ["SUM(B2:C$3)", "SUM(B:B)+C1", "SUM(2:$4)", "SUM($A$1:$XFD$1048576)", "SUM(XFC1048575:XFD1048576)"]
    )
    def test_follower_tree_at_edge_offsets(self, text):
        # A follower is measured by its master's very tree exactly where the
        # shift keeps every range on the grid, and by a tree that measures as
        # its shifted master everywhere.
        master = Formula(text, parse_text(text))
        ranges = [node for node in reference_nodes(master.expr) if isinstance(node, Range)]
        def edges(ends, attr, limit):  # the offsets that put a relative range end on, or just off, a grid edge
            values = [getattr(end, attr) for end in ends if getattr(end, attr) is not None
                      and not getattr(end, attr + "_abs")]
            return {max(1 - limit, min(limit - 1, d)) for v in values for d in (-v, 1 - v, limit - v, limit + 1 - v)}

        ends = [end for node in ranges for end in (node.start, node.end)]
        rows, cols = edges(ends, "row", MAX_ROW), edges(ends, "col", MAX_COL)
        offsets = [(d_row, d_col) for d_row in rows | {0, MAX_ROW - 1} for d_col in cols | {0, 1 - MAX_COL}]
        cells = {(1, 1): Cell(master)}
        cells.update({(i, 2): Cell(SharedFormula(master, *offset)) for i, offset in enumerate(offsets, start=1)})
        graph = build_graph(Workbook("edges", (Worksheet("S", 1, cells),)))
        moved_off = False
        for coordinate, expr in list(zip(graph.formula_cells(), graph.exprs))[1:]:
            formula = cells[coordinate.row, coordinate.col].formula
            shifted = shift_expr(master.expr, formula.d_row, formula.d_col)
            kept = sum(isinstance(node, Range) for node in reference_nodes(shifted)) == len(ranges)
            assert (expr is master.expr) == kept, (formula.d_row, formula.d_col)
            assert ast_metrics(expr) == ast_metrics(shifted), (formula.d_row, formula.d_col)
            moved_off |= not kept
        assert moved_off == bool(rows | cols)  # an all-absolute master never moves off

    def test_follower_that_moves_a_range_off_the_grid_is_stored_as_a_shared_formula(self, tmp_path):
        body = (
            '<row r="2"><c r="B2"><f t="shared" ref="A2:B3" si="0">SUM(A1:A2)+A1</f></c></row>'
            '<row r="3"><c r="A3"><f t="shared" si="0"/></c><c r="B3"><f t="shared" si="0"/></c></row>'
        )
        workbook = read_xlsx(build_xlsx(tmp_path / "offgrid.xlsx", [("S", body)]))
        cells = workbook.sheets[0].cells
        master = cells[(2, 2)].formula
        assert [cells[key].formula for key in [(3, 1), (3, 2)]] == [SharedFormula(master, 1, -1),
                                                                   SharedFormula(master, 1, 0)]
        assert cells[(3, 1)].formula.text == "SUM(#REF!)+#REF!"
        graph = build_graph(workbook)
        assert [expr is master.expr for expr in graph.exprs] == [True, False, True]  # B2, A3, B3
        assert graph.exprs[1] == cells[(3, 1)].formula.expr == parse_text("SUM(#REF!)+#REF!")
        assert analyze_workbook(workbook).metrics["M08"] == 2

    def test_followers_are_measured_once_and_never_written(self, tmp_path):
        path = follower_workbook(tmp_path / "fill.xlsx", 300)
        with mock.patch("cellgauge.model.serialize", side_effect=AssertionError("a follower was written")), \
                mock.patch("cellgauge.metrics.ast_metrics", wraps=metrics.ast_metrics) as measured:
            workbook = read_xlsx(path)
            record = analyze_workbook(workbook)
        assert measured.call_count == 1
        cells = workbook.sheets[0].cells
        assert all(type(cells[(r, 2)].formula) is SharedFormula for r in range(2, 301))
        assert cells[(300, 2)].formula.text == "SUM($A$1:A300)"
        expected = oracle.record(workbook)
        assert record.metrics == pytest.approx({metric_id: expected[metric_id] for metric_id in METRIC_IDS}, abs=1e-9)
        assert (record.non_empty_cells, record.input_cells) == (expected["nonEmptyCells"], expected["inputCells"])

    def test_workbook_with_followers_survives_pickling(self, tmp_path):
        workbook = read_xlsx(follower_workbook(tmp_path / "fill.xlsx", 30))
        copy = pickle.loads(pickle.dumps(workbook))
        assert [(s.name, s.index, s.cells) for s in copy.sheets] == [
            (s.name, s.index, s.cells) for s in workbook.sheets
        ]
        assert copy.defined_names == workbook.defined_names
        # The followers still share one master, so it is still measured once.
        assert len({id(cell.formula.master) for (_, col), cell in copy.sheets[0].cells.items()
                    if col == 2 and type(cell.formula) is SharedFormula}) == 1
        assert analyze_workbook(copy) == analyze_workbook(workbook)


class TestStyles:
    def test_solid_fill_color_recorded(self, tmp_path):
        styles = (
            f'<?xml version="1.0"?><styleSheet {NS}>'
            "<fills>"
            '<fill><patternFill patternType="none"/></fill>'
            '<fill><patternFill patternType="solid"><fgColor rgb="FFFF0000"/></patternFill></fill>'
            '<fill><patternFill patternType="solid"><fgColor rgb="F00"/></patternFill></fill>'
            '<fill><patternFill patternType="solid"><fgColor rgb="00FF00"/></patternFill></fill>'
            "</fills>"
            "<cellXfs>"
            '<xf fillId="0"/>'
            '<xf fillId="1" applyFill="1"/>'
            '<xf fillId="2" applyFill="1"/>'
            '<xf fillId="3" applyFill="1"/>'
            '<xf fillId="9"/>'
            "</cellXfs></styleSheet>"
        )
        body = (
            '<row r="1"><c r="A1" s="1"><v>3</v></c><c r="B1" s="1"/><c r="C1" s="0"/>'
            '<c r="D1" s="2"/><c r="E1" s="3"/><c r="F1" s="4"/><c r="G1" s="5"/><c r="H1" s="x"/></row>'
        )
        path = build_xlsx(tmp_path / "fill.xlsx", [("S", body)], styles_xml=styles)
        cells = read_xlsx(path).sheets[0].cells
        # solid 6- or 8-digit fills store a cell without content; no fill, a
        # 3-digit color or a style or fill index out of range stores none
        assert set(cells) == {(1, 1), (1, 2), (1, 5)}
        assert cells[(1, 1)] is LITERAL_CELL
        assert cells[(1, 2)] is cells[(1, 5)] is BLANK_CELL and not BLANK_CELL.has_content

    @pytest.mark.parametrize(
        "fill_id, filled",
        [("1", True), (" 1", True), ("+1", True), ("01", True), ("1 ", True),
         ("-1", False), ("1.0", False), ("", False), ("2", False), (None, False)],
        ids=["plain", "leading_space", "plus", "leading_zero", "trailing_space",
             "negative", "decimal", "empty", "past_the_last", "absent"],
    )
    def test_fill_id_is_read_by_int_then_checked_against_the_fills(self, tmp_path, fill_id, filled):
        # Fill 1 is the only solid one and there is no fill 2.
        fill_attr = "" if fill_id is None else f' fillId="{fill_id}"'
        styles = (
            f'<?xml version="1.0"?><styleSheet {NS}>'
            '<fills><fill><patternFill patternType="none"/></fill>'
            '<fill><patternFill patternType="solid"><fgColor rgb="FFFF0000"/></patternFill></fill></fills>'
            f'<cellXfs><xf fillId="0"/><xf{fill_attr}/></cellXfs></styleSheet>'
        )
        path = build_xlsx(tmp_path / "fill.xlsx", [("S", '<row r="1"><c r="A1" s="1"/></row>')], styles_xml=styles)
        assert read_xlsx(path).sheets[0].cells == ({(1, 1): BLANK_CELL} if filled else {})

    def test_unstyled_blank_cell_not_stored(self, tmp_path):
        body = '<row r="1"><c r="A1"/><c r="B1"><v>1</v></c></row>'
        path = build_xlsx(tmp_path / "blank.xlsx", [("S", body)])
        cells = read_xlsx(path).sheets[0].cells
        assert (1, 1) not in cells


class TestStructure:
    def test_multiple_sheets_in_workbook_order(self, tmp_path):
        path = build_xlsx(
            tmp_path / "multi.xlsx",
            [("Zeta", ""), ("Alpha", ""), ("Mid", "")],
        )
        workbook = read_xlsx(path)
        assert [s.name for s in workbook.sheets] == ["Zeta", "Alpha", "Mid"]
        assert [s.index for s in workbook.sheets] == [1, 2, 3]

    def test_a_chartsheet_is_a_sheet_with_no_cells(self, tmp_path):
        # Every <sheet> entry is a sheet, whatever its part holds: a
        # chartsheet has no <sheetData>, so it counts in sheetCount and in
        # the localSheetId positions, and holds no cell.
        data = '<row r="1"><c r="A1"><v>3</v></c><c r="B1"><f>Total*2</f></c></row>'
        path = build_xlsx(tmp_path / "chart.xlsx", [("Chart", ""), ("Data", data)],
                          defined_names=[("Total", "Data!$A$1", 1)])

        def to_chartsheet(parts):
            del parts["xl/worksheets/sheet1.xml"]
            parts["xl/chartsheets/sheet1.xml"] = (
                f'<?xml version="1.0"?><chartsheet {NS} {NS_R}><sheetPr/><drawing r:id="rId1"/></chartsheet>'
            )
            rels = parts["xl/_rels/workbook.xml.rels"]
            parts["xl/_rels/workbook.xml.rels"] = rels.replace(
                b'relationships/worksheet" Target="worksheets/sheet1.xml"',
                b'relationships/chartsheet" Target="chartsheets/sheet1.xml"',
            )
            assert parts["xl/_rels/workbook.xml.rels"] != rels

        rewrite_parts(path, to_chartsheet)

        workbook = read_xlsx(path)
        assert [(sheet.name, sheet.index, len(sheet.cells)) for sheet in workbook.sheets] == [("Chart", 1, 0),
                                                                                           ("Data", 2, 2)]
        record = analyze_workbook(workbook)
        assert (record.sheet_count, record.formula_cells, record.input_cells) == (2, 1, 1)
        graph = build_graph(workbook)
        formula = CellCoordinate(2, 1, 2)
        assert (graph.fan_out(formula), graph.dangling[formula]) == (1, 0)  # Total is local to Data

    @pytest.mark.parametrize("names", [("Data", "data"), ("", "Sheet1")], ids=["case", "default_name"])
    def test_colliding_sheet_names_are_malformed_workbook_xml(self, tmp_path, names):
        # a nameless sheet is called Sheet<position>
        path = build_xlsx(tmp_path / "twins.xlsx", [(name, "") for name in names])
        with pytest.raises(MalformedSheetXmlError) as excinfo:
            read_xlsx(path)
        assert excinfo.value.part == "xl/workbook.xml"
        assert "duplicate sheet name" in str(excinfo.value)

    def test_corrupt_zip(self, tmp_path):
        path = tmp_path / "broken.xlsx"
        path.write_bytes(b"this is not a zip file")
        with pytest.raises(NotAZipError):
            read_xlsx(path)

    def test_missing_workbook_part(self, tmp_path):
        path = build_xlsx(tmp_path / "nowb.xlsx", [("S", "")], drop_parts=("xl/workbook.xml",))
        with pytest.raises(MissingWorkbookPartError) as excinfo:
            read_xlsx(path)
        assert excinfo.value.part == "xl/workbook.xml"

    def test_malformed_sheet_xml(self, tmp_path):
        path = build_xlsx(
            tmp_path / "malformed.xlsx",
            [("S", "")],
            corrupt_parts=("xl/worksheets/sheet1.xml",),
        )
        with pytest.raises(MalformedSheetXmlError) as excinfo:
            read_xlsx(path)
        assert "sheet1" in excinfo.value.part

    def test_member_failing_its_crc_is_a_corrupt_part(self, tmp_path):
        path = build_bad_crc_xlsx(tmp_path / "crc.xlsx")
        with pytest.raises(CorruptPartError) as excinfo:
            read_xlsx(path)
        assert excinfo.value.part == "xl/worksheets/sheet1.xml"

    def test_member_that_does_not_inflate_is_a_corrupt_part(self, tmp_path):
        path = build_xlsx(tmp_path / "deflate.xlsx", [("S", '<row r="1"><c r="A1"><v>1</v></c></row>')])
        part = "xl/worksheets/sheet1.xml"
        rewrite_parts(path, lambda parts: None, zipfile.ZIP_DEFLATED)
        with zipfile.ZipFile(path) as archive:
            offset = archive.getinfo(part).header_offset
        data = bytearray(path.read_bytes())
        name_len, extra_len = struct.unpack_from("<HH", data, offset + 26)
        data[offset + 30 + name_len + extra_len] = 0xFF  # reserved deflate block type
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptPartError) as excinfo:
            read_xlsx(path)
        assert excinfo.value.part == part

    def test_member_with_unsupported_compression_is_a_corrupt_part(self, tmp_path):
        path = build_unsupported_compression_xlsx(tmp_path / "implode.xlsx")
        with pytest.raises(CorruptPartError) as excinfo:
            read_xlsx(path)
        assert excinfo.value.part == "xl/worksheets/sheet1.xml"

    @pytest.mark.parametrize("part, encoding", [
        pytest.param(part, encoding, id=part if encoding == "UTF-9" else f"{encoding}-{part}")
        for encoding in ("UTF-9", "Shift_JIS")
        for part in ("xl/worksheets/sheet1.xml", "xl/workbook.xml", "xl/sharedStrings.xml", "xl/_rels/workbook.xml.rels")
    ])
    def test_unknown_declared_encoding_is_malformed_xml(self, tmp_path, part, encoding, capsys):
        path = build_unknown_encoding_xlsx(tmp_path / "odd.xlsx", part, encoding)
        with pytest.raises(MalformedSheetXmlError) as excinfo:
            read_xlsx(path)
        assert excinfo.value.part == part
        assert ("unknown encoding" if encoding == "UTF-9" else "multi-byte encodings") in str(excinfo.value)
        assert main(["analyze", str(path)]) == 2
        assert part in capsys.readouterr().err

    @pytest.mark.parametrize("error", [ValueError, KeyError])
    def test_a_handler_error_is_not_taken_for_malformed_xml(self, tmp_path, error):
        # expat refuses a declared encoding with a ValueError or a
        # LookupError; raised by the reader's own handlers (here while the
        # sheet's cells are stored), they propagate as they are.
        rows = "".join(f'<row r="{r}"><c r="A{r}"><f>1</f></c></row>' for r in range(1, 201))
        path = build_xlsx(tmp_path / "book.xlsx", [("S", rows)])
        with mock.patch.object(xlsx, "parse_formula", side_effect=error("boom")):
            with pytest.raises(error, match="boom"):
                read_xlsx(path)

    def test_unknown_declared_encoding_in_styles_is_skipped(self, tmp_path):
        for encoding in ("UTF-9", "Shift_JIS"):
            path = build_unknown_encoding_xlsx(tmp_path / f"{encoding}.xlsx", "xl/styles.xml", encoding)
            cells = read_xlsx(path).sheets[0].cells
            assert set(cells) == {(1, 1)} and cells[(1, 1)].literal, encoding

    def test_central_directory_offset_past_the_end_is_a_corrupt_part(self, tmp_path, capsys):
        path = build_xlsx(tmp_path / "offset.xlsx", [("S", '<row r="1"><c r="A1"><v>1</v></c></row>')])
        data = bytearray(path.read_bytes())
        end = data.rindex(b"PK\x05\x06")  # the end-of-central-directory record
        (offset,) = struct.unpack_from("<I", data, end + 16)
        struct.pack_into("<I", data, end + 16, 2 * offset)
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptPartError) as excinfo:
            read_xlsx(path)
        assert excinfo.value.part == "xl/workbook.xml"
        capsys.readouterr()
        assert main(["analyze", str(path)]) == 2
        assert "xl/workbook.xml" in capsys.readouterr().err

    def test_truncated_member_is_a_corrupt_part(self, tmp_path):
        path = build_xlsx(tmp_path / "short.xlsx", [("S", "")])
        truncated = EOFError("Compressed file ended before the end-of-stream marker was reached")
        with mock.patch.object(zipfile.ZipExtFile, "read", side_effect=truncated):
            with pytest.raises(CorruptPartError) as excinfo:
                read_xlsx(path)
        assert excinfo.value.part == "xl/workbook.xml"

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_xlsx(tmp_path / "absent.xlsx")

    def test_end_to_end_metrics_from_xlsx(self, tmp_path):
        body = (
            '<row r="1"><c r="A1" t="s"><v>0</v></c><c r="B1"><v>10</v></c></row>'
            '<row r="2"><c r="B2"><f>SUM(B1:B1)*2</f><v>20</v></c></row>'
        )
        path = build_xlsx(tmp_path / "e2e.xlsx", [("S", body)], shared_strings=("label",))
        from cellgauge.cli import analyze_workbook

        record = analyze_workbook(read_xlsx(path))
        assert record.workbook_id == "e2e"
        assert record.metrics["M03"] == 1
        assert record.metrics["M05"] == 1  # B1
        assert record.non_empty_cells == 3

    def test_golden_workbook_as_xlsx_matches_interchange_metrics(self, tmp_path):
        """The same workbook content must yield identical metrics whether it
        arrives as native XLSX or as an interchange document."""
        from pathlib import Path

        from cellgauge.cli import analyze_workbook
        from cellgauge.interchange import read_interchange_file

        inputs = (
            '<row r="1">'
            '<c r="A1" t="s"><v>0</v></c>'
            '<c r="B1"><v>100</v></c>'
            '<c r="C1" t="b"><v>1</v></c>'
            "</row>"
            '<row r="2"><c r="A2" t="s"><v>1</v></c><c r="B2"><v>250.5</v></c>'
            '<c r="C2" t="s"><v>2</v></c></row>'
            '<row r="3"><c r="B3"><v>300</v></c></row>'
            '<row r="4"><c r="D4"><v>1</v></c></row>'
        )
        calc = (
            '<row r="1"><c r="A1"><f>SUM(Inputs!B1:B5)</f></c>'
            '<c r="C1"><f>A1</f></c><c r="E1"><f>1+</f></c>'
            '<c r="F1"><f>B1*3</f></c></row>'
            '<row r="2"><c r="A2"><f>IF(Inputs!C1,A1*2,0)</f></c>'
            '<c r="F2"><f>B2*3</f></c></row>'
            '<row r="3"><c r="A3"><f>A1+B1</f></c></row>'
            '<row r="4"><c r="A4"><f>TOTAL*2</f></c></row>'
            '<row r="5"><c r="A5"><f>UNKNOWN_TOTAL+1</f></c></row>'
        )
        report = (
            '<row r="1"><c r="A1"><f>Calc!A1</f></c>'
            "<c r=\"B1\"><f>SUM(Inputs!B1:B3)+Inputs!B2</f></c></row>"
            '<row r="2"><c r="A2"><f>\'Calc\'!A2 &amp; " units"</f></c>'
            '<c r="B2"><f>-2^2 + Inputs!D4%</f></c></row>'
            '<row r="3"><c r="A3"><f>COUNTIF(Inputs!B1:B3,"&gt;200")</f></c>'
            '<c r="B3"><f>(A1+A2)*2</f></c></row>'
        )
        notes = (
            '<row r="1"><c r="A1" t="s"><v>3</v></c></row>'
            '<row r="2"><c r="B2"><v>0</v></c></row>'
        )
        path = build_xlsx(
            tmp_path / "g1.xlsx",
            [("Inputs", inputs), ("Calc", calc), ("Report", report), ("Notes", notes)],
            shared_strings=("Revenue", "Costs", "note", "scratch"),
            defined_names=(("TOTAL", "Inputs!$B$1:$B$3"),),
        )
        from_xlsx = analyze_workbook(read_xlsx(path))
        fixture = Path(__file__).parent / "fixtures" / "g1.json"
        from_json = analyze_workbook(read_interchange_file(fixture))
        assert from_xlsx.metrics == from_json.metrics
        assert from_xlsx.non_empty_cells == from_json.non_empty_cells
        assert from_xlsx.input_cells == from_json.input_cells
        assert from_xlsx.parse_failures == from_json.parse_failures


STRICT = {
    "http://schemas.openxmlformats.org/spreadsheetml/2006/main": "http://purl.oclc.org/ooxml/spreadsheetml/main",
    "http://schemas.openxmlformats.org/officeDocument/2006/relationships":
        "http://purl.oclc.org/ooxml/officeDocument/relationships",
}


def rewrite_namespaces(path, uris):
    """Rewrite every part of the package at `path` with each namespace URI
    of `uris` replaced by its value."""

    def replace(parts):
        for name in parts:
            for old, new in uris.items():
                parts[name] = parts[name].replace(old.encode(), new.encode())

    return rewrite_parts(path, replace)


class TestNamespaces:
    STYLES = (
        f'<?xml version="1.0"?><styleSheet {NS}>'
        '<fills><fill><patternFill patternType="none"/></fill>'
        '<fill><patternFill patternType="solid"><fgColor rgb="FFFF0000"/></patternFill></fill></fills>'
        '<cellXfs><xf fillId="0"/><xf fillId="1" applyFill="1"/></cellXfs></styleSheet>'
    )
    # A1 holds a shared string, D3 only a solid fill, which widens the row
    # range 1:1 to column D; TOTAL names B1.
    BODY = (
        '<row r="1"><c r="A1" t="s"><v>0</v></c><c r="B1"><v>5</v></c></row>'
        '<row r="2"><c r="A2"><f>TOTAL*2</f></c><c r="B2"><f>SUM(1:1)</f></c></row>'
        '<row r="3"><c r="D3" s="1"/></row>'
    )

    def build(self, path):
        return build_xlsx(
            path, [("S", self.BODY)], shared_strings=("label",), defined_names=(("TOTAL", "S!$B$1"),),
            styles_xml=self.STYLES,
        )

    def test_strict_package_reads_as_transitional(self, tmp_path):
        transitional = read_xlsx(self.build(tmp_path / "book.xlsx"))
        (tmp_path / "strict").mkdir()  # the same file name, so the same workbook id
        strict = read_xlsx(rewrite_namespaces(self.build(tmp_path / "strict" / "book.xlsx"), STRICT))
        assert strict.sheets[0].cells == transitional.sheets[0].cells
        assert strict.sheets[0].cells[(1, 1)] is LITERAL_CELL
        assert strict.sheets[0].cells[(3, 4)] is BLANK_CELL
        graph = build_graph(strict)
        assert graph.fan_out(CellCoordinate(1, 2, 1)) == 1  # TOTAL
        assert graph.fan_out(CellCoordinate(1, 2, 2)) == 4  # A1:D1
        assert analyze_workbook(strict) == analyze_workbook(transitional)

    def test_workbook_root_in_another_namespace_is_malformed(self, tmp_path, capsys):
        uris = {"http://schemas.openxmlformats.org/spreadsheetml/2006/main": "http://example.com/sheets"}
        path = rewrite_namespaces(self.build(tmp_path / "other.xlsx"), uris)
        with pytest.raises(MalformedSheetXmlError) as excinfo:
            read_xlsx(path)
        assert excinfo.value.part == "xl/workbook.xml"
        assert main(["analyze", str(path)]) == 2


def read_sheet_part(tmp_path, sheet_xml):
    """The stored cells of a one-sheet package with two shared strings
    whose sheet part is `sheet_xml`, given whole."""
    path = build_xlsx(tmp_path / "part.xlsx", [("S", "")], shared_strings=("a", "b"))

    def replace(parts):
        parts["xl/worksheets/sheet1.xml"] = sheet_xml.encode()

    return read_xlsx(rewrite_parts(path, replace)).sheets[0].cells


def described(cells):
    """Stored cells as {A1 ref: "literal", "blank" or "=" + formula text}."""
    return {
        f"{column_index_to_letter(col)}{row}": (
            "literal" if cell is LITERAL_CELL else "blank" if cell is BLANK_CELL else "=" + cell.formula.text
        )
        for (row, col), cell in cells.items()
    }


def worksheet(inner, ns=NS):
    """A sheet part whose root holds `inner`."""
    return f'<?xml version="1.0"?><worksheet {ns}>{inner}</worksheet>'


class TestSheetXml:
    """What a sheet part's XML means to the reader, pinned case by case:
    only the rows of the root's first <sheetData>, their <c> children and a
    cell's first <f> and <v> are read, and of those only the text before a
    child element."""

    def test_text_split_by_entities_cdata_comments_and_instructions_is_joined(self, tmp_path):
        body = (
            '<row r="1">'
            '<c r="A1"><f>1&amp;<![CDATA[2]]><!-- note -->&#43;3</f></c>'
            '<c r="B1"><v>1<!-- x -->2<?pi data?>&#46;5</v></c>'
            '<c r="C1" t="s"><v><![CDATA[1]]></v></c>'
            '<c r="D1" t="s"><v>&#50;</v></c>'
            "</row>"
        )
        cells = read_sheet_part(tmp_path, worksheet(f"<sheetData>{body}</sheetData>"))
        assert described(cells) == {"A1": "=1&2+3", "B1": "literal", "C1": "literal"}

    def test_only_the_text_before_a_child_element_counts(self, tmp_path, caplog):
        body = (
            '<row r="1">'
            '<c r="A1"><f>A2<x>+A3</x>+A4</f></c>'
            '<c r="B1"><v>1<x/>x</v></c>'
            '<c r="C1"><v><x>1</x></v></c>'
            '<c r="D1" t="str"><v><x/>text</v></c>'
            '<c r="E1" t="inlineStr"><is><t>text</t></is></c>'
            '<c r="F1" t="inlineStr"><x><is/></x></c>'
            "</row>"
        )
        caplog.set_level(logging.WARNING, logger="cellgauge")
        cells = read_sheet_part(tmp_path, worksheet(f"<sheetData>{body}</sheetData>"))
        assert described(cells) == {"A1": "=A2", "B1": "literal", "E1": "literal"}
        assert "non-numeric" not in caplog.text

    def test_a_cells_first_f_and_first_v_count_in_any_order(self, tmp_path, caplog):
        body = (
            '<row r="1">'
            '<c r="A1"><v>5</v><f>1+1</f></c>'
            '<c r="B1"><f>2+2</f><f>3+3</f></c>'
            '<c r="C1"><v>x</v><v>1</v></c>'
            '<c r="D1"><v>1</v><v>x</v></c>'
            '<c r="E1"><f t="dataTable" r1="A1"/><f>4+4</f><v>1</v></c>'
            "</row>"
        )
        caplog.set_level(logging.WARNING, logger="cellgauge")
        cells = read_sheet_part(tmp_path, worksheet(f"<sheetData>{body}</sheetData>"))
        assert described(cells) == {"A1": "=1+1", "B1": "=2+2", "D1": "literal", "E1": "literal"}
        assert "non-numeric value 'x' at CellCoordinate(sheet=1, row=1, col=3)" in caplog.text

    def test_an_empty_v_holds_nothing_and_a_blank_one_holds_its_blank(self, tmp_path, caplog):
        body = (
            '<row r="1">'
            '<c r="A1"><v/></c>'
            '<c r="B1"><v></v></c>'
            '<c r="C1"><v> </v></c>'
            '<c r="D1" t="str"><v/></c>'
            '<c r="E1" t="str"><v> </v></c>'
            '<c r="F1"><f/></c>'
            '<c r="G1"><f> </f></c>'
            "</row>"
        )
        caplog.set_level(logging.WARNING, logger="cellgauge")
        cells = read_sheet_part(tmp_path, worksheet(f"<sheetData>{body}</sheetData>"))
        assert set(described(cells)) == {"E1", "F1", "G1"}
        assert described(cells)["E1"] == "literal"
        assert cells[(1, 6)].formula.text == "" and cells[(1, 6)].formula.expr is None
        assert cells[(1, 7)].formula.text == " "
        assert "non-numeric value ' ' at CellCoordinate(sheet=1, row=1, col=3)" in caplog.text
        assert "non-numeric value ''" not in caplog.text

    def test_only_rows_of_the_first_sheet_data_count(self, tmp_path):
        inner = (
            '<row r="9"><c r="A9"><v>1</v></c></row>'
            '<sheetPr><sheetData><row r="8"><c r="A8"><v>1</v></c></row></sheetData></sheetPr>'
            '<sheetData><row r="1"><c r="A1"><v>1</v></c></row>'
            '<x><row r="2"><c r="A2"><v>1</v></c></row></x></sheetData>'
            '<sheetData><row r="3"><c r="A3"><v>1</v></c></row></sheetData>'
        )
        assert described(read_sheet_part(tmp_path, worksheet(inner))) == {"A1": "literal"}

    def test_a_cell_deeper_than_its_row_is_not_read(self, tmp_path):
        body = (
            '<row r="1"><x><c r="A1"><v>1</v></c></x><c r="B1"><v>2</v></c></row>'
            '<row r="2"><c r="A2"><c r="B2"><v>1</v></c><v>1</v></c><c><v>3</v></c></row>'
        )
        cells = read_sheet_part(tmp_path, worksheet(f"<sheetData>{body}</sheetData>"))
        assert described(cells) == {"B1": "literal", "A2": "literal", "B2": "literal"}

    def test_elements_are_matched_by_namespace_not_prefix(self, tmp_path):
        main = "http://schemas.openxmlformats.org/spreadsheetml/2006/main"
        prefixed = (
            f'<?xml version="1.0"?><x:worksheet xmlns:x="{main}"><x:sheetData>'
            '<x:row r="1"><x:c r="A1"><x:v>1</x:v></x:c><x:c r="B1"><x:f>A1</x:f></x:c>'
            '<c r="C1"><v>1</v></c><y:c xmlns:y="urn:other" r="D1"><y:v>1</y:v></y:c></x:row>'
            "</x:sheetData></x:worksheet>"
        )
        assert described(read_sheet_part(tmp_path, prefixed)) == {"A1": "literal", "B1": "=A1"}
        other = worksheet('<sheetData><row r="1"><c r="A1"><v>1</v></c></row></sheetData>', 'xmlns="urn:other"')
        assert read_sheet_part(tmp_path, other) == {}

    def test_a_strict_workbook_reads_strict_sheets_only(self, tmp_path):
        strict = "http://purl.oclc.org/ooxml/spreadsheetml/main"
        body = '<sheetData><row r="1"><c r="A1"><v>1</v></c><c r="B1"><f>A1</f></c></row></sheetData>'
        for sheet_ns, expected in ((f'xmlns="{strict}"', {"A1": "literal", "B1": "=A1"}), (NS, {})):
            path = rewrite_namespaces(build_xlsx(tmp_path / "strict.xlsx", [("S", "")]), STRICT)

            def replace(parts, xml=worksheet(body, sheet_ns)):
                parts["xl/worksheets/sheet1.xml"] = xml.encode()

            assert described(read_xlsx(rewrite_parts(path, replace)).sheets[0].cells) == expected

    def test_shared_strings_count_the_roots_si_children(self, tmp_path, caplog):
        path = build_xlsx(
            tmp_path / "sst.xlsx",
            [("S", '<row r="1"><c r="A1" t="s"><v>1</v></c><c r="B1" t="s"><v>2</v></c></row>')],
            shared_strings=("a",),
        )

        def replace(parts):
            parts["xl/sharedStrings.xml"] = (
                f'<?xml version="1.0"?><sst {NS}><si/><x><si/></x><si xmlns="urn:other"/>\n<si><t>b</t></si></sst>'
            ).encode()

        caplog.set_level(logging.WARNING, logger="cellgauge")
        assert described(read_xlsx(rewrite_parts(path, replace)).sheets[0].cells) == {"A1": "literal"}
        assert "bad shared-string index '2'" in caplog.text

    def test_an_entity_an_external_dtd_leaves_undefined_is_malformed(self, tmp_path):
        xml = (
            '<?xml version="1.0"?><!DOCTYPE worksheet SYSTEM "sheet.dtd">'
            f'<worksheet {NS}><sheetData><row r="1"><c r="A1"><v>&one;</v></c></row></sheetData></worksheet>'
        )
        with pytest.raises(MalformedSheetXmlError) as excinfo:
            read_sheet_part(tmp_path, xml)
        assert excinfo.value.part == "xl/worksheets/sheet1.xml"
        assert "undefined entity &one;" in str(excinfo.value)


def read_workbook_part(tmp_path, workbook_inner=None, styles_xml=None, root="workbook", ns=NS):
    """A package of two sheets, S (A1 a value, B1 a blank cell of style 1,
    C1 one of style 2) and T (empty), read back. `workbook_inner`, given,
    is what the root of ``xl/workbook.xml`` holds; `root` is its tag and
    `ns` its SpreadsheetML namespace declaration."""
    body = '<row r="1"><c r="A1"><v>1</v></c><c r="B1" s="1"/><c r="C1" s="2"/></row>'
    path = build_xlsx(tmp_path / "book.xlsx", [("S", body), ("T", "")], styles_xml=styles_xml)
    if workbook_inner is not None:
        def replace(parts):
            parts["xl/workbook.xml"] = f'<?xml version="1.0"?><{root} {ns} {NS_R}>{workbook_inner}</{root}>'.encode()

        rewrite_parts(path, replace)
    return read_xlsx(path)


def defined_targets(workbook):
    """{casefolded name: target} of a workbook's defined names."""
    return {name: dn.target for (_, name), dn in workbook.defined_names.items()}


SHEETS = '<sheets><sheet name="S" sheetId="1" r:id="rId1"/><sheet name="T" sheetId="2" r:id="rId2"/></sheets>'


class TestWorkbookXml:
    """What the workbook, relationships and styles parts mean to the
    reader, pinned case by case: the first matching child in the
    workbook's namespace is read, and of the text only a
    ``<definedName>``'s before its first child element."""

    def test_only_the_first_sheets_and_defined_names_are_read(self, tmp_path):
        inner = (
            '<sheets><sheet name="S" sheetId="1" r:id="rId1"/></sheets>'
            '<definedNames><definedName name="A">S!$A$1</definedName></definedNames>'
            '<sheets><sheet name="T" sheetId="2" r:id="rId2"/></sheets>'
            '<definedNames><definedName name="B">S!$B$1</definedName></definedNames>'
        )
        workbook = read_workbook_part(tmp_path, inner)
        assert [sheet.name for sheet in workbook.sheets] == ["S"]
        assert defined_targets(workbook) == {"a": "S!$A$1"}

    def test_only_the_first_fills_cell_styles_pattern_and_color_are_read(self, tmp_path):
        solid = '<patternFill patternType="solid"><fgColor rgb="FF00FF00"/></patternFill>'
        styles = (
            f'<?xml version="1.0"?><styleSheet {NS}>'
            f'<fills><fill><patternFill patternType="none"/>{solid}</fill>'
            '<fill><patternFill patternType="solid"><fgColor rgb="F00"/><fgColor rgb="FF0000FF"/></patternFill></fill>'
            f"<fill>{solid}</fill></fills>"
            f"<fills><fill>{solid}</fill><fill>{solid}</fill><fill>{solid}</fill></fills>"
            '<cellXfs><xf fillId="0"/><xf fillId="1"/><xf fillId="0"/></cellXfs>'
            '<cellXfs><xf fillId="2"/><xf fillId="2"/><xf fillId="2"/></cellXfs>'
            "</styleSheet>"
        )
        # Fill 0's first pattern is not solid and fill 1's first color has
        # three digits, so styles 1 and 2 are not filled; only the last,
        # solid fill fills a style that uses it.
        assert described(read_workbook_part(tmp_path, styles_xml=styles).sheets[0].cells) == {"A1": "literal"}
        styles = styles.replace('<xf fillId="0"/></cellXfs>', '<xf fillId="2"/></cellXfs>', 1)
        cells = read_workbook_part(tmp_path, styles_xml=styles).sheets[0].cells
        assert described(cells) == {"A1": "literal", "C1": "blank"}

    def test_defined_name_text_split_by_entities_cdata_and_comments_is_joined(self, tmp_path):
        inner = SHEETS + (
            '<definedNames><definedName name="X">S!$A&#36;1<!-- note --><![CDATA[:$B]]>&#36;2</definedName>'
            '<definedName name="Y">\n  S!$C$1 </definedName></definedNames>'
        )
        assert defined_targets(read_workbook_part(tmp_path, inner)) == {"x": "S!$A$1:$B$2", "y": "S!$C$1"}

    def test_only_defined_name_text_before_a_child_counts(self, tmp_path):
        inner = SHEETS + (
            '<definedNames><definedName name="X">S!$A$1<x>:$B$2</x>:$C$3</definedName>'
            '<definedName name="Y"><x>S!$A$1</x></definedName></definedNames>'
        )
        assert defined_targets(read_workbook_part(tmp_path, inner)) == {"x": "S!$A$1"}

    def test_prefixed_namespace_root_reads_as_an_unprefixed_one(self, tmp_path):
        inner = SHEETS.replace("<", "<x:").replace("<x:/", "</x:") + (
            '<x:definedNames><x:definedName name="X">S!$A$1</x:definedName></x:definedNames>'
        )
        workbook = read_workbook_part(tmp_path, inner, root="x:workbook", ns=NS.replace("xmlns=", "xmlns:x="))
        assert [sheet.name for sheet in workbook.sheets] == ["S", "T"]
        assert defined_targets(workbook) == {"x": "S!$A$1"}

    def test_sheets_in_a_foreign_namespace_are_not_read(self, tmp_path):
        foreign = '<sheets xmlns="urn:other"><sheet name="O" sheetId="9" r:id="rId2"/></sheets>'
        workbook = read_workbook_part(tmp_path, foreign + SHEETS)
        assert [sheet.name for sheet in workbook.sheets] == ["S", "T"]
        with pytest.raises(MalformedSheetXmlError) as excinfo:
            read_workbook_part(tmp_path, foreign)
        assert "no SpreadsheetML <sheets> element" in str(excinfo.value)

    @pytest.mark.parametrize("uris", [{}, STRICT], ids=["transitional", "strict"])
    def test_relationship_id_is_read_in_the_matching_namespace(self, tmp_path, uris):
        # A sheet's r:id is read in the relationships namespace that matches
        # the root's; one in the other relationships namespace names no part.
        path = rewrite_namespaces(build_xlsx(tmp_path / "book.xlsx", [("S", "")]), uris)
        assert [sheet.name for sheet in read_xlsx(path).sheets] == ["S"]
        transitional, strict = list(STRICT.items())[1]
        mine, other = (strict, transitional) if uris else (transitional, strict)

        def swap(parts):
            parts["xl/workbook.xml"] = parts["xl/workbook.xml"].replace(mine.encode(), other.encode())

        with pytest.raises(MissingWorkbookPartError) as excinfo:
            read_xlsx(rewrite_parts(path, swap))
        assert "no relationship for sheet 'S'" in str(excinfo.value)


class TestStreaming:
    BODY = '<row r="1"><c r="A1" t="s"><v>0</v></c><c r="B1"><f>A1*2</f></c></row>'

    def test_no_part_is_read_whole(self, tmp_path):
        body = '<row r="1"><c r="A1" t="s"><v>0</v></c><c r="B1"><f>TOTAL*2</f></c><c r="C1" s="1"/></row>'
        path = build_xlsx(
            tmp_path / "book.xlsx", [("S", body)], shared_strings=("x",), defined_names=(("TOTAL", "S!$A$1"),),
            styles_xml=TestNamespaces.STYLES,
        )
        with mock.patch.object(zipfile.ZipFile, "read", side_effect=zipfile.ZipFile.read, autospec=True) as read:
            workbook = read_xlsx(path)
        assert described(workbook.sheets[0].cells) == {"A1": "literal", "B1": "=TOTAL*2", "C1": "blank"}
        assert workbook.defined_name("TOTAL").target == "S!$A$1"
        assert read.call_count == 0

    def test_the_cli_loads_no_element_tree_module(self):
        # Every part goes through one expat walker; no part becomes a tree.
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        script = "import sys, cellgauge.cli; print(sorted(m for m in sys.modules if m.startswith('xml.etree')))"
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env,
                                timeout=60, check=True)
        assert result.stdout.strip() == "[]"

    def test_positions_carry_across_the_chunks_a_sheet_is_read_in(self, tmp_path):
        # 3,000 rows of ten cells without an r attribute span about ten
        # 64 KiB chunks; each cell's position follows the one before it.
        rows = "".join(f'<row r="{r}">' + '<c><v>1</v></c>' * 10 + "</row>" for r in range(1, 3001))
        cells = read_xlsx(build_xlsx(tmp_path / "rows.xlsx", [("S", rows)])).sheets[0].cells
        assert cells == {(r, c): LITERAL_CELL for r in range(1, 3001) for c in range(1, 11)}

    # Where a bomb's whitespace goes in each part: at the "|".
    BOMB_SITES = {
        "xl/worksheets/sheet1.xml": b"<sheetData>|",
        "xl/sharedStrings.xml": b"|<si>",
        "xl/workbook.xml": b"<sheets>|",
        "xl/_rels/workbook.xml.rels": b"|<Relationship ",
        "xl/styles.xml": b"<fills>|",
    }

    @pytest.mark.parametrize("part", list(BOMB_SITES))
    @pytest.mark.parametrize("blank", [b" ", b"\n"], ids=["spaces", "newlines"])
    def test_whitespace_bomb_reads_in_bounded_memory(self, tmp_path, part, blank):
        # 16 MiB of whitespace deflate to a few KiB; read whole, they cost
        # 64 MB (spaces) and 184 MB (newlines) of traced memory.
        body = self.BODY + '<row r="2"><c r="A2" s="1"/></row>'
        path = build_xlsx(tmp_path / "bomb.xlsx", [("S", body)], shared_strings=("x",), styles_xml=TestNamespaces.STYLES)
        site = self.BOMB_SITES[part]

        def inflate(parts):
            marker = site.replace(b"|", b"")
            assert parts[part].count(marker) == 1
            parts[part] = parts[part].replace(marker, site.replace(b"|", blank * 2**24))

        rewrite_parts(path, inflate, zipfile.ZIP_DEFLATED)
        assert path.stat().st_size < 2**17
        tracemalloc.start()
        try:
            workbook = read_xlsx(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert described(workbook.sheets[0].cells) == {"A1": "literal", "B1": "=A1*2", "A2": "blank"}
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MB"

    @pytest.mark.parametrize("part", list(BOMB_SITES))
    def test_unread_elements_cost_no_memory(self, tmp_path, part):
        # 1,000,000 empty elements the reader never reaches, at each bomb
        # site; deflated they take a few KiB. An element tree of the part
        # kept every one of them: 77 MB traced in xl/workbook.xml.
        body = self.BODY + '<row r="2"><c r="A2" s="1"/></row>'
        path = build_xlsx(tmp_path / "crowd.xlsx", [("S", body)], shared_strings=("x",),
                          styles_xml=TestNamespaces.STYLES)
        site = self.BOMB_SITES[part]

        def crowd(parts):
            marker = site.replace(b"|", b"")
            assert parts[part].count(marker) == 1
            parts[part] = parts[part].replace(marker, site.replace(b"|", b"<x/>" * 10**6))

        rewrite_parts(path, crowd, zipfile.ZIP_DEFLATED)
        assert path.stat().st_size < 2**15
        tracemalloc.start()
        try:
            workbook = read_xlsx(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert described(workbook.sheets[0].cells) == {"A1": "literal", "B1": "=A1*2", "A2": "blank"}
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MB"


# A start, end or empty-element tag: (its "/" if an end tag, its name, its "/" if empty).
_TAG = re.compile(rb"<(/?)([^\s/>?!]+)[^>]*?(/?)>")


def element_spans(xml):
    """(start, end, depth) of each element of `xml`, the root's depth 1,
    in document order; `xml` holds no ``>`` in attribute values."""
    spans, open_tags = [], []
    for tag in _TAG.finditer(xml):
        if tag.group(1):
            start, depth = open_tags.pop()
            spans.append((start, tag.end(), depth))
        elif tag.group(3):
            spans.append((tag.start(), tag.end(), len(open_tags) + 1))
        else:
            open_tags.append((tag.start(), len(open_tags) + 1))
    return sorted(spans)


def mutants(xml, rng):
    """(description, mutated xml) of one part: truncations, each element
    dropped, duplicated, swapped with its next sibling and renamed, and an
    unknown element inserted as the first child of an element at each
    depth."""
    for cut in sorted({0, len(xml) - 1, *rng.sample(range(1, len(xml) - 1), 4)}):
        yield f"truncated at {cut}", xml[:cut]
    spans = element_spans(xml)
    starts = {start: (end, depth) for start, end, depth in spans}
    for start, end, depth in spans:
        element = xml[start:end]
        yield f"dropped {element[:40]!r}", xml[:start] + xml[end:]
        yield f"duplicated {element[:40]!r}", xml[:end] + element + xml[end:]
        if starts.get(end, (0, None))[1] == depth:
            sibling_end = starts[end][0]
            yield f"swapped {element[:40]!r}", xml[:start] + xml[end:sibling_end] + element + xml[sibling_end:]
        name = _TAG.match(xml, start).group(2)
        wrong = name[:-1] + bytes([rng.choice(b"xyz")])
        renamed = xml[:start] + element.replace(b"<" + name, b"<" + wrong, 1) + xml[end:]
        yield f"renamed {name!r} to {wrong!r}", renamed
        if element.endswith(b"</" + name + b">"):
            closed = renamed[: start + len(element) - len(name) - 1] + wrong + renamed[start + len(element) - 1:]
            yield f"renamed {name!r} and its end tag to {wrong!r}", closed
    for depth in sorted({depth for _, _, depth in spans}):
        holders = [(start, end) for start, end, d in spans if d == depth and not xml[start:end].endswith(b"/>")]
        if holders:
            start, _ = rng.choice(holders)
            inside = xml.index(b">", start) + 1
            for unknown in (b"<u/>", b'<o:c xmlns:o="urn:other" r="Z9"><o:v>1</o:v></o:c>', b"<u><c r=\"Z9\"/></u>"):
                yield f"inserted {unknown!r} at depth {depth + 1}", xml[:inside] + unknown + xml[inside:]


class TestMutants:
    """One package holding every part kind the reader reads, mutated one
    element at a time: every mutant reads to a Workbook or raises a typed
    XlsxError, never another exception."""

    BODY = (
        '<row r="1"><c r="A1" t="s"><v>0</v></c><c r="B1"><v>2</v></c><c r="C1" s="1"/>'
        '<c r="D1" t="inlineStr"><is><t>x</t></is></c></row>'
        '<row r="2"><c r="A2"><f t="shared" ref="A2:A3" si="0">B1*2</f><v>4</v></c>'
        '<c r="B2"><f t="array" ref="B2:B3">TOTAL+1</f><v>3</v></c><c r="C2" t="str"><f>"a"&amp;A1</f><v>a</v></c></row>'
        '<row r="3"><c r="A3"><f t="shared" si="0"/><v>4</v></c><c r="B3"><v>3</v></c></row>'
    )

    @pytest.mark.parametrize("seed", [1, 2])
    def test_every_mutant_reads_or_raises_a_typed_error(self, tmp_path, seed):
        base = build_xlsx(
            tmp_path / "base.xlsx", [("S", self.BODY), ("T", '<row r="1"><c r="A1"><f>S!A1</f></c></row>')],
            shared_strings=("a", "b"), defined_names=(("TOTAL", "S!$B$1"), ("LOCAL", "T!$A$1", 1)),
            styles_xml=TestNamespaces.STYLES,
        )
        with zipfile.ZipFile(base) as archive:
            parts = {name: archive.read(name) for name in archive.namelist()}
        rng = random.Random(seed)
        path, outcomes, failures = tmp_path / "mutant.xlsx", defaultdict(int), []
        for part in ("xl/workbook.xml", "xl/_rels/workbook.xml.rels", "xl/sharedStrings.xml", "xl/styles.xml",
                     "xl/worksheets/sheet1.xml"):
            for description, xml in mutants(parts[part], rng):
                with zipfile.ZipFile(path, "w") as archive:
                    for name, content in parts.items():
                        archive.writestr(name, xml if name == part else content)
                try:
                    analyze_workbook(read_xlsx(path))
                    outcomes["read"] += 1
                except xlsx.XlsxError:
                    outcomes["refused"] += 1
                except Exception as exc:  # any other exception is a failure
                    failures.append(f"{part}: {description}: {exc!r}")
        assert not failures, "\n".join(failures)
        assert outcomes["read"] > 100 and outcomes["refused"] > 50, dict(outcomes)
