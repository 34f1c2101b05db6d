"""CSV/JSON report serialization for records, summaries, histograms, correlation.

Each payload has one table and one document: ``report_table`` gives its CSV
rows, header first, with every field already text, and ``report_document``
gives its JSON document, with every number already rounded. Writing a report
only encodes one of the two, so a new payload is one branch in each.

Column order is fixed and version-stable. Absent values are empty CSV fields
and JSON nulls; non-integer numbers are written with up to six significant
digits (round-half-even). A single record is reported as a list of one.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from pathlib import Path
from typing import Any, Sequence, TextIO

from .analytics import CorrelationMatrix, CorpusSummary, Histogram
from .metrics import METRIC_IDS, MetricRecord

RECORD_COLUMNS = (
    "workbookId",
    "sheetCount",
    "nonEmptyCells",
    "inputCells",
    "formulaCells",
    "parseFailures",
) + METRIC_IDS


def format_number(value: float | int | None) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return format(value, ".6g")


def _json_value(value: float | int | None) -> float | int | None:
    if value is None or isinstance(value, int):
        return value
    return float(format(value, ".6g"))


def report_table(payload: Any) -> list[Sequence[str]]:
    """The CSV rows of a report payload, header first."""
    if isinstance(payload, MetricRecord):
        payload = [payload]
    if isinstance(payload, list):
        rows: list[Sequence[str]] = [RECORD_COLUMNS]
        for record in payload:
            metrics = record.metrics
            rows.append(
                [
                    record.workbook_id,
                    str(record.sheet_count),
                    str(record.non_empty_cells),
                    str(record.input_cells),
                    str(record.formula_cells),
                    str(record.parse_failures),
                    *[format_number(metrics[metric_id]) for metric_id in METRIC_IDS],
                ]
            )
        return rows
    if isinstance(payload, CorpusSummary):
        return [
            ("statistic", "value"),
            ("spreadsheetCount", str(payload.spreadsheet_count)),
            ("ratioWithFormulas", format_number(payload.ratio_with_formulas)),
            *[(metric_id, format_number(value)) for metric_id, value in payload.per_metric.items()],
        ]
    if isinstance(payload, Histogram):
        edges = payload.bin_edges
        return [
            ("metricId", "binStart", "binEnd", "count"),
            *[
                (payload.metric_id, format_number(edges[i]), format_number(edges[i + 1]), str(count))
                for i, count in enumerate(payload.counts)
            ],
        ]
    if isinstance(payload, CorrelationMatrix):
        ids, r, n = payload.metric_ids, payload.r, payload.n
        return [
            ("metricA", "metricB", "r", "n"),
            *[(ids[i], ids[j], format_number(r[i][j]), str(n[i][j])) for i in range(len(ids)) for j in range(i, len(ids))],
        ]
    raise TypeError(f"cannot report a {type(payload).__name__}")


def report_document(payload: Any) -> Any:
    """The JSON document of a report payload, its numbers rounded."""
    if isinstance(payload, MetricRecord):
        payload = [payload]
    if isinstance(payload, list):
        documents = []
        for record in payload:
            metrics = record.metrics
            document: dict[str, Any] = {
                "workbookId": record.workbook_id,
                "sheetCount": record.sheet_count,
                "nonEmptyCells": record.non_empty_cells,
                "inputCells": record.input_cells,
                "formulaCells": record.formula_cells,
                "parseFailures": record.parse_failures,
            }
            for metric_id in METRIC_IDS:
                document[metric_id] = _json_value(metrics[metric_id])
            documents.append(document)
        return documents
    if isinstance(payload, CorpusSummary):
        return {
            "spreadsheetCount": payload.spreadsheet_count,
            "ratioWithFormulas": _json_value(payload.ratio_with_formulas),
            "perMetric": {k: _json_value(v) for k, v in payload.per_metric.items()},
        }
    if isinstance(payload, Histogram):
        return {
            "metricId": payload.metric_id,
            "binEdges": [_json_value(e) for e in payload.bin_edges],
            "counts": list(payload.counts),
        }
    if isinstance(payload, CorrelationMatrix):
        return {
            "metricIds": list(payload.metric_ids),
            "r": [[_json_value(v) for v in row] for row in payload.r],
            "n": [list(row) for row in payload.n],
        }
    raise TypeError(f"cannot report a {type(payload).__name__}")


def render_report(payload: Any, fmt: str) -> str:
    buffer = io.StringIO()
    _write_to(payload, fmt, buffer)
    return buffer.getvalue()


def _write_to(payload: Any, fmt: str, stream: TextIO) -> None:
    if fmt == "csv":
        csv.writer(stream, lineterminator="\n").writerows(report_table(payload))
    elif fmt == "json":
        json.dump(report_document(payload), stream, indent=2)
        stream.write("\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}")


def write_report(payload: Any, fmt: str, destination: str | Path | TextIO | None) -> None:
    """Serialize records / summary / histogram / correlation to a path, an
    open stream, or stdout (None)."""
    if destination is None:
        _write_to(payload, fmt, sys.stdout)
    elif isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8", newline="") as fp:
            _write_to(payload, fmt, fp)
    else:
        _write_to(payload, fmt, destination)
