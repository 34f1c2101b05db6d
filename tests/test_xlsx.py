"""XLSX reader tests over hand-assembled SpreadsheetML packages."""

from __future__ import annotations

import logging
import random
import struct
import zipfile
from unittest import mock
from xml.sax.saxutils import escape

import pytest

from cellgauge import xlsx
from cellgauge.cli import analyze_workbook
from cellgauge.expressions import Reference, column_index_to_letter, serialize
from cellgauge.graph import build_graph
from cellgauge.model import BLANK_CELL, LITERAL_CELL, CellCoordinate, Formula
from cellgauge.parser import parse_text
from cellgauge.xlsx import (
    CorruptPartError,
    MalformedSheetXmlError,
    MissingWorkbookPartError,
    NotAZipError,
    read_xlsx,
)

from . import genutil, oracle

NS = 'xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main"'
NS_R = 'xmlns:r="http://schemas.openxmlformats.org/officeDocument/2006/relationships"'



def assert_followers_match_their_text(cells, keys):
    """A shared-formula follower's tree is exactly what parsing its text gives."""
    for key in keys:
        formula = cells[key].formula
        assert formula.error is None
        assert formula.expr == parse_text(formula.text)


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


def build_unknown_encoding_xlsx(path, part):
    """A package whose ``part`` declares the encoding UTF-9, which the XML
    parser does not know."""
    body = '<row r="1"><c r="A1" t="s"><v>0</v></c></row>'
    build_xlsx(path, [("S", body)], shared_strings=("x",), styles_xml=f'<?xml version="1.0"?><styleSheet {NS}/>')
    with zipfile.ZipFile(path) as archive:
        parts = {name: archive.read(name) for name in archive.namelist()}
    declaration_end = parts[part].index(b"?>") + 2
    parts[part] = b'<?xml version="1.0" encoding="UTF-9"?>' + parts[part][declaration_end:]
    with zipfile.ZipFile(path, "w") as archive:
        for name, content in parts.items():
            archive.writestr(name, content)
    return path


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
        with zipfile.ZipFile(path) as archive:
            parts = {name: archive.read(name) for name in archive.namelist()}
        with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
            for name, content in parts.items():
                archive.writestr(name, content)
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

    @pytest.mark.parametrize("part", ["xl/worksheets/sheet1.xml", "xl/workbook.xml", "xl/sharedStrings.xml"])
    def test_unknown_declared_encoding_is_malformed_xml(self, tmp_path, part):
        path = build_unknown_encoding_xlsx(tmp_path / "utf9.xlsx", part)
        with pytest.raises(MalformedSheetXmlError) as excinfo:
            read_xlsx(path)
        assert excinfo.value.part == part
        assert "unknown encoding" in str(excinfo.value)

    def test_unknown_declared_encoding_in_styles_is_skipped(self, tmp_path):
        path = build_unknown_encoding_xlsx(tmp_path / "utf9.xlsx", "xl/styles.xml")
        cells = read_xlsx(path).sheets[0].cells
        assert set(cells) == {(1, 1)} and cells[(1, 1)].literal

    def test_truncated_member_is_a_corrupt_part(self, tmp_path):
        path = build_xlsx(tmp_path / "short.xlsx", [("S", "")])
        truncated = EOFError("Compressed file ended before the end-of-stream marker was reached")
        with mock.patch.object(zipfile.ZipFile, "read", side_effect=truncated):
            with pytest.raises(CorruptPartError):
                read_xlsx(path)

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
