"""XLSX reader tests over hand-assembled SpreadsheetML packages."""

from __future__ import annotations

import logging
import struct
import zipfile
from unittest import mock

import pytest

from cellgauge import xlsx
from cellgauge.expressions import serialize
from cellgauge.model import ValueType
from cellgauge.parser import parse_text
from cellgauge.xlsx import (
    CorruptPartError,
    MalformedSheetXmlError,
    MissingWorkbookPartError,
    NotAZipError,
    read_xlsx,
)

NS = 'xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main"'
NS_R = 'xmlns:r="http://schemas.openxmlformats.org/officeDocument/2006/relationships"'



def assert_followers_match_their_text(cells, keys):
    """A shared-formula follower's tree is exactly what parsing its text gives."""
    for key in keys:
        formula = cells[key].formula
        assert formula.error is None
        assert formula.expr == parse_text(formula.text)


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
    <sheetData> markup.
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
            f'<definedName name="{name}">{target}</definedName>' for name, target in defined_names
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
        cell = workbook.sheets[0].cells[(1, 1)]
        assert cell.value == 5.0
        assert cell.value_type is ValueType.NUMBER

    def test_typed_cells(self, tmp_path):
        body = (
            '<row r="1">'
            '<c r="A1" t="s"><v>0</v></c>'
            '<c r="B1" t="b"><v>1</v></c>'
            '<c r="C1" t="e"><v>#DIV/0!</v></c>'
            '<c r="D1" t="inlineStr"><is><t>inline</t></is></c>'
            '<c r="E1" t="str"><v>plain</v></c>'
            "</row>"
        )
        path = build_xlsx(tmp_path / "types.xlsx", [("S", body)], shared_strings=("hello",))
        cells = read_xlsx(path).sheets[0].cells
        assert cells[(1, 1)].value == "hello" and cells[(1, 1)].value_type is ValueType.TEXT
        assert cells[(1, 2)].value is True and cells[(1, 2)].value_type is ValueType.BOOLEAN
        assert cells[(1, 3)].value == "#DIV/0!" and cells[(1, 3)].value_type is ValueType.ERROR
        assert cells[(1, 4)].value == "inline"
        assert cells[(1, 5)].value == "plain"

    def test_cell_without_ref_attribute_follows_previous(self, tmp_path):
        body = '<row r="2"><c r="B2"><v>1</v></c><c><v>2</v></c></row>'
        path = build_xlsx(tmp_path / "noref.xlsx", [("S", body)])
        cells = read_xlsx(path).sheets[0].cells
        assert cells[(2, 3)].value == 2.0

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
        assert cell.value == 44927.0 and cell.value_type is ValueType.NUMBER


class TestFormulas:
    def test_formula_with_cached_value(self, tmp_path):
        body = '<row r="1"><c r="A1"><f>B1*2</f><v>10</v></c></row>'
        path = build_xlsx(tmp_path / "f.xlsx", [("S", body)])
        cell = read_xlsx(path).sheets[0].cells[(1, 1)]
        assert cell.formula is not None
        assert cell.formula.text == "B1*2"
        assert cell.value is None  # cached result is not a literal
        assert cell.value_type is ValueType.NUMBER  # ... but types the result

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
            "</fills>"
            "<cellXfs>"
            '<xf fillId="0"/>'
            '<xf fillId="1" applyFill="1"/>'
            "</cellXfs></styleSheet>"
        )
        body = '<row r="1"><c r="A1" s="1"><v>3</v></c><c r="B1" s="1"/></row>'
        path = build_xlsx(tmp_path / "fill.xlsx", [("S", body)], styles_xml=styles)
        cells = read_xlsx(path).sheets[0].cells
        assert cells[(1, 1)].visual_properties[0].value == "#FF0000"
        # style-only cell: stored for its fill, no content
        assert cells[(1, 2)].value is None and cells[(1, 2)].formula is None

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
        cell = read_xlsx(path).sheets[0].cells[(1, 1)]
        assert cell.value == "x" and cell.visual_properties == ()

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
