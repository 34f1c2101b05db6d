"""Seeded workload generators for the pipeline benchmark.

Each generator writes a corpus directory from a seed and returns what it
knows about that corpus by construction: per-workbook formula-cell and sheet
counts, plus closed-form metric values where the shape allows them. The
generators are self-contained on purpose, so that edits to the test helpers
can never move a workload.
"""

from __future__ import annotations

import hashlib
import json
import random
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from xml.sax.saxutils import escape

_NS = 'xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main"'
_NS_R = 'xmlns:r="http://schemas.openxmlformats.org/officeDocument/2006/relationships"'
_SHEET_REL = "http://schemas.openxmlformats.org/officeDocument/2006/relationships/worksheet"
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)  # fixed member timestamps keep archives byte-stable


@dataclass
class Expected:
    """Per-workbook facts the generator knows without running cellgauge."""

    formula_cells: int
    sheet_count: int
    metrics: dict[str, int] = field(default_factory=dict)  # closed-form values by metric id


@dataclass
class Workload:
    directory: Path
    params: dict
    cli_args: tuple[str, ...]  # options after `corpus DIR`, output options excluded
    report_format: str
    expected: dict[str, Expected]  # keyed by the report's workbookId
    oracle_sample: tuple[str, ...]  # workbookIds the brute-force oracle re-checks

    def digest(self) -> str:
        """sha256 over every generated file, in path order."""
        h = hashlib.sha256()
        for path in sorted(self.directory.rglob("*")):
            if path.is_file():
                h.update(path.relative_to(self.directory).as_posix().encode())
                h.update(b"\0")
                h.update(path.read_bytes())
        return h.hexdigest()


# ---------------------------------------------------------------- xlsx writer


def _col(index: int) -> str:
    letters = ""
    while index:
        index, rem = divmod(index - 1, 26)
        letters = chr(65 + rem) + letters
    return letters


def _xml(text: str) -> str:
    return escape(text, {'"': "&quot;"})


def write_xlsx(path: Path, sheets: list[tuple[str, str]], shared_strings: list[str], styles: str) -> None:
    """Write a minimal SpreadsheetML package; sheets are (name, sheetData body)."""
    entries = "".join(
        f'<sheet name="{_xml(name)}" sheetId="{i}" r:id="rId{i}"/>' for i, (name, _) in enumerate(sheets, 1)
    )
    rels = "".join(
        f'<Relationship Id="rId{i}" Type="{_SHEET_REL}" Target="worksheets/sheet{i}.xml"/>'
        for i in range(1, len(sheets) + 1)
    )
    parts = {
        "[Content_Types].xml": '<?xml version="1.0" encoding="UTF-8"?>'
        '<Types xmlns="http://schemas.openxmlformats.org/package/2006/content-types">'
        '<Default Extension="xml" ContentType="application/xml"/></Types>',
        "xl/workbook.xml": f'<?xml version="1.0" encoding="UTF-8"?><workbook {_NS} {_NS_R}>'
        f"<sheets>{entries}</sheets></workbook>",
        "xl/_rels/workbook.xml.rels": '<?xml version="1.0" encoding="UTF-8"?>'
        f'<Relationships xmlns="http://schemas.openxmlformats.org/package/2006/relationships">{rels}</Relationships>',
        "xl/styles.xml": styles,
    }
    if shared_strings:
        items = "".join(f"<si><t>{_xml(s)}</t></si>" for s in shared_strings)
        parts["xl/sharedStrings.xml"] = (
            f'<?xml version="1.0" encoding="UTF-8"?><sst {_NS} count="{len(shared_strings)}" '
            f'uniqueCount="{len(shared_strings)}">{items}</sst>'
        )
    for i, (_, body) in enumerate(sheets, 1):
        parts[f"xl/worksheets/sheet{i}.xml"] = (
            f'<?xml version="1.0" encoding="UTF-8"?><worksheet {_NS}><sheetData>{body}</sheetData></worksheet>'
        )
    with zipfile.ZipFile(path, "w") as archive:
        for name, text in parts.items():
            info = zipfile.ZipInfo(name, date_time=_ZIP_EPOCH)
            info.compress_type = zipfile.ZIP_DEFLATED
            archive.writestr(info, text)


_STYLES = (
    f'<?xml version="1.0" encoding="UTF-8"?><styleSheet {_NS}>'
    '<fills count="3"><fill><patternFill patternType="none"/></fill>'
    '<fill><patternFill patternType="gray125"/></fill>'
    '<fill><patternFill patternType="solid"><fgColor rgb="FFDDEBF7"/></patternFill></fill></fills>'
    '<cellXfs count="2"><xf fillId="0"/><xf fillId="2"/></cellXfs></styleSheet>'
)


class _Strings:
    """Accumulates the shared-strings table while sheet cells are written."""

    def __init__(self):
        self.items: list[str] = []
        self.index: dict[str, int] = {}

    def cell(self, ref: str, text: str, style: str = "") -> str:
        if text not in self.index:
            self.index[text] = len(self.items)
            self.items.append(text)
        return f'<c r="{ref}" t="s"{style}><v>{self.index[text]}</v></c>'


# ------------------------------------------------------- xlsx_formulas corpus

_REGIONS = ("North", "South", "East", "West", "Central", "Coastal", "Alpine", "Metro", "Rural", "Islands")
_HEADERS = ("Region", "Product", "Units", "Price", "Cost", "Discount", "Tax", "Target")
_LABELS = ("low", "mid", "high", "top", "review", "hold")
_OPS = ("+", "-", "*", "/")

# Formula mix per calc sheet, as counts per 100 formulas; the deck is shuffled
# per workbook, so every workbook has the same mix and only content varies.
_MIX = (("if", 20), ("vlookup", 15), ("sum", 12), ("sumif", 8), ("concat", 10), ("chain", 34), ("deep", 1))


class _FormulaMaker:
    def __init__(self, rng: random.Random, data_rows: int):
        self.rng = rng
        self.last_row = data_rows  # data occupies rows 2..data_rows (row 1 holds headers)

    def _row(self, span: int = 0) -> int:
        return self.rng.randint(2, self.last_row - span)

    def _num_ref(self, calc_row: int) -> str:
        rng = self.rng
        if calc_row > 1 and rng.random() < 0.15:
            return f"{_col(rng.randint(1, 5))}{rng.randint(1, calc_row - 1)}"  # earlier calc cell
        return f"Data!{_col(rng.randint(3, 8))}{self._row()}"

    def make(self, kind: str, calc_row: int) -> str:
        rng = self.rng
        if kind == "if":
            col, row = _col(rng.randint(3, 8)), self._row()
            levels = rng.randint(2, 4)
            thresholds = sorted((rng.randint(1, 999) for _ in range(levels)), reverse=True)
            labels = rng.sample(_LABELS, levels + 1)
            text = f'"{labels[-1]}"'
            for threshold, label in zip(reversed(thresholds), reversed(labels[:-1])):
                text = f'IF(Data!{col}{row}>{threshold},"{label}",{text})'
            return text
        if kind == "vlookup":
            height = rng.randint(6, 15)
            top = self._row(height)
            return (
                f"VLOOKUP(Data!A{self._row()},Data!$A${top}:$D${top + height - 1},"
                f"{rng.randint(2, 4)},FALSE)"
            )
        if kind == "sum":
            col, span = _col(rng.randint(3, 8)), rng.randint(2, 14)
            row = self._row(span)
            extra = f",Data!{_col(rng.randint(3, 8))}{self._row()}" if rng.random() < 0.5 else ""
            return f"{rng.choice(('SUM', 'AVERAGE', 'MAX'))}(Data!{col}{row}:{col}{row + span}{extra})"
        if kind == "sumif":
            span = rng.randint(4, 14)
            row = self._row(span)
            col = _col(rng.randint(3, 8))
            return f'SUMIF(Data!A{row}:A{row + span},"{rng.choice(_REGIONS)}",Data!{col}{row}:{col}{row + span})'
        if kind == "concat":
            fmt = rng.choice(("0.00", "#,##0", "0.0%"))
            return (f'Data!A{self._row()}&" / "&Data!B{self._row()}&": "'
                    f'&TEXT(Data!{_col(rng.randint(3, 8))}{self._row()},"{fmt}")')
        if kind == "chain":
            return self._chain(rng.randint(5, 30), calc_row, mixed=True)
        if kind == "deep":
            return self._chain(rng.randint(201, 300), calc_row, mixed=False)
        raise ValueError(kind)

    def _chain(self, terms: int, calc_row: int, *, mixed: bool) -> str:
        rng = self.rng
        parts = []
        for i in range(terms):
            if i:
                parts.append(rng.choice(_OPS) if mixed else "+")
            roll = rng.random()
            if not mixed or roll < 0.7:
                parts.append(self._num_ref(calc_row))
            elif roll < 0.85:
                parts.append(str(rng.randint(1, 500)))
            else:
                parts.append(f"ROUND({self._num_ref(calc_row)}*{rng.randint(2, 9)},2)")
        return "".join(parts)


def _data_sheet(rng: random.Random, strings: _Strings, rows: int, cols: int) -> str:
    out = ['<row r="1">']
    out += [strings.cell(f"{_col(c)}1", _HEADERS[c - 1], ' s="1"') for c in range(1, cols + 1)]
    out.append("</row>")
    for r in range(2, rows + 1):
        out.append(f'<row r="{r}">')
        out.append(strings.cell(f"A{r}", rng.choice(_REGIONS)))
        out.append(strings.cell(f"B{r}", f"P-{rng.randint(100, 139)}"))
        for c in range(3, cols + 1):
            out.append(f'<c r="{_col(c)}{r}"><v>{rng.randint(0, 99999) / 100}</v></c>')
        out.append("</row>")
    return "".join(out)


def generate_xlsx_formulas(directory: Path, seed: int, *, workbooks: int = 8, formulas: int = 600,
                           data_rows: int = 200, data_cols: int = 8) -> Workload:
    rng = random.Random(f"xlsx_formulas:{seed}")
    deck = [kind for kind, share in _MIX for _ in range(round(formulas * share / 100))]
    expected: dict[str, Expected] = {}
    for w in range(workbooks):
        strings = _Strings()
        data = _data_sheet(rng, strings, data_rows, data_cols)
        maker = _FormulaMaker(rng, data_rows)
        rng.shuffle(deck)
        calc, per_row = [], 5
        for i, kind in enumerate(deck):
            row, col = divmod(i, per_row)
            if col == 0:
                calc.append(("</row>" if i else "") + f'<row r="{row + 1}">')
            text = maker.make(kind, row + 1)
            calc.append(f'<c r="{_col(col + 1)}{row + 1}"><f>{_xml(text)}</f></c>')
        calc.append("</row>")
        name = f"book_{w:03d}.xlsx"
        write_xlsx(directory / name, [("Data", data), ("Calc", "".join(calc))], strings.items, _STYLES)
        expected[name] = Expected(formula_cells=len(deck), sheet_count=2)
    names = sorted(expected)
    return Workload(
        directory=directory,
        params={"workbooks": workbooks, "formulas": len(deck), "data_rows": data_rows,
                "data_cols": data_cols, "mix_per_100": dict(_MIX)},
        cli_args=("--summary",),
        report_format="csv",
        expected=expected,
        oracle_sample=tuple(sorted(rng.sample(names, 2))),
    )


# ----------------------------------------------------------- range_fill corpus


def generate_range_fill(directory: Path, seed: int, *, workbooks: int = 1, rows: int = 900,
                        column_sums: int = 50) -> Workload:
    """Equal workbooks: data in A1:A{rows}, a running-sum shared-formula group
    SUM($A$1:A1)..SUM($A$1:A{rows}) in column B, and identical SUM(A:A) cells
    in C1:C{column_sums}. Only the data values depend on the seed."""
    rng = random.Random(f"range_fill:{seed}")
    values = [rng.randint(1, 10_000) for _ in range(rows)]
    body = []
    for r in range(1, rows + 1):
        cells = [f'<c r="A{r}"><v>{values[r - 1]}</v></c>']
        if r == 1:
            cells.append(f'<c r="B1"><f t="shared" ref="B1:B{rows}" si="0">SUM($A$1:A1)</f></c>')
        else:
            cells.append(f'<c r="B{r}"><f t="shared" si="0"/></c>')
        if r <= column_sums:
            cells.append(f'<c r="C{r}"><f>SUM(A:A)</f></c>')
        body.append(f'<row r="{r}">{"".join(cells)}</row>')
    sheet = "".join(body)
    formulas = rows + column_sums
    # Closed forms: every formula reads column A only, so no formula has fan-in;
    # the widest formulas (B{rows} and each SUM(A:A)) cover all of A1:A{rows}.
    closed = {"M03": formulas, "M05": rows, "M10": rows, "M12": 0}
    expected = {}
    for w in range(workbooks):
        name = f"fill_{w}.xlsx"
        write_xlsx(directory / name, [("Sheet1", sheet)], [], _STYLES)
        expected[name] = Expected(formula_cells=formulas, sheet_count=1, metrics=dict(closed))
    return Workload(
        directory=directory,
        params={"workbooks": workbooks, "rows": rows, "column_sums": column_sums},
        cli_args=(),
        report_format="csv",
        expected=expected,
        oracle_sample=(),
    )


# ---------------------------------------------------------- json_corpus corpus

_SHEET_NAMES = ("Sheet1", "Inputs", "Report")
_ERRORS = ("#N/A", "#DIV/0!", "#VALUE!", "#REF!")
_FILLS = ("#FFEE00", "#C6EFCE", "#FFC7CE")


def _json_formula(rng: random.Random, sheets: list[str], names: list[str], rows: int) -> str:
    other = rng.choice(sheets)
    prefix = "" if other == sheets[0] else f"{other}!"
    cell = f"{rng.choice('ABC')}{rng.randint(1, rows)}"
    choice = rng.randrange(9)
    if choice == 0:
        return f"=SUM({prefix}{rng.choice('ABC')}:{rng.choice('ABC')})"  # full-column range
    if choice == 1:
        return f"=SUM({rng.randint(1, rows)}:{rng.randint(1, rows)})"  # full-row range
    if choice == 2 and names:
        return f"={rng.choice(names)}*{cell}+{rng.randint(1, 9)}"
    if choice == 3:
        return f"=IFERROR({cell}/{prefix}B{rng.randint(1, rows)},{rng.choice(_ERRORS[:3])})"
    if choice == 4:
        return f'=IF({cell}>{rng.randint(0, 50)},"yes",IF(ISERROR({cell}),0,"no"))'
    if choice == 5:
        return f"=AVERAGE(A1:{rng.choice('BC')}{rng.randint(1, rows)})*{rng.randint(1, 5)}"
    if choice == 6:
        return f"={cell}+#REF!"
    if choice == 7:
        return f"=COUNTIF({prefix}A1:C{rows},\">{rng.randint(0, 40)}\")"
    return f"={cell}*{rng.randint(2, 9)}-{prefix}{rng.choice('ABC')}{rng.randint(1, rows)}"


def generate_json_corpus(directory: Path, seed: int, *, workbooks: int = 1000) -> Workload:
    rng = random.Random(f"json_corpus:{seed}")
    expected: dict[str, Expected] = {}
    for w in range(workbooks):
        sheets = list(_SHEET_NAMES[: rng.randint(1, 3)])
        defined = []
        if rng.random() < 0.6:
            defined.append({"name": "Rate", "target": f"{sheets[-1]}!$B$1"})
        if rng.random() < 0.4:
            defined.append({"name": "Block", "target": f"{sheets[0]}!$A$1:$C${rng.randint(2, 6)}"})
        names = [d["name"] for d in defined]
        sheet_docs, formulas = [], 0
        for sheet in sheets:
            rows = rng.randint(3, 6)
            cells = []
            for r in range(1, rows + 1):
                for col in "ABC":
                    roll = rng.random()
                    if roll < 0.55:
                        cell = {"ref": f"{col}{r}", "value": rng.randint(0, 99), "type": "number"}
                    elif roll < 0.65:
                        cell = {"ref": f"{col}{r}", "value": f"item {rng.randint(1, 30)}", "type": "text"}
                    elif roll < 0.7:
                        cell = {"ref": f"{col}{r}", "value": rng.choice(_ERRORS), "type": "error"}
                    else:
                        continue
                    if rng.random() < 0.1:
                        cell["fill"] = rng.choice(_FILLS)
                    cells.append(cell)
            for r in range(1, rng.randint(2, 6) + 1):
                cell = {"ref": f"D{r}", "formula": _json_formula(rng, [sheet] + [s for s in sheets if s != sheet],
                                                                    names, rows)}
                if rng.random() < 0.15:
                    cell["fill"] = rng.choice(_FILLS)
                cells.append(cell)
                formulas += 1
            sheet_docs.append({"name": sheet, "cells": cells})
        name = f"wb_{w:05d}.json"
        document = {"name": f"wb_{w:05d}", "definedNames": defined, "sheets": sheet_docs}
        (directory / name).write_text(json.dumps(document, separators=(",", ":")) + "\n", encoding="utf-8")
        expected[name] = Expected(formula_cells=formulas, sheet_count=len(sheets))
    names_sorted = sorted(expected)
    return Workload(
        directory=directory,
        params={"workbooks": workbooks},
        cli_args=("--format", "json", "--summary", "--histogram", "M21", "--correlate",
                  "--correlation-method", "spearman"),
        report_format="json",
        expected=expected,
        oracle_sample=tuple(sorted(rng.sample(names_sorted, 5))),
    )


GENERATORS = {
    "xlsx_formulas": generate_xlsx_formulas,
    "range_fill": generate_range_fill,
    "json_corpus": generate_json_corpus,
}


def generate(name: str, directory: Path, seed: int) -> Workload:
    directory.mkdir(parents=True, exist_ok=True)
    return GENERATORS[name](directory, seed)
