"""CSV/JSON report serialization for records, summaries, histograms, correlation.

Each payload has one table and one document: ``report_table`` gives its CSV
rows, header first, with every field already text, and ``report_document``
gives its JSON document, with every number already rounded. Writing a report
only encodes one of the two, so a new payload is one branch in each.

Column order is fixed and version-stable. Absent values are empty CSV fields
and JSON nulls; non-integer numbers are written with up to six significant
digits (round-half-even). A single record is reported as a list of one.

``write_report`` writes to an open text stream, ``render_report`` returns the
text. Open a file for it with ``newline=""``, so CSV line ends pass through
unchanged.
"""

from __future__ import annotations

import csv
import io
import json
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


def _record_values(record: MetricRecord) -> tuple:
    """A record's values in RECORD_COLUMNS order."""
    metrics = record.metrics
    return (record.workbook_id, record.sheet_count, record.non_empty_cells, record.input_cells,
            record.formula_cells, record.parse_failures, *[metrics[metric_id] for metric_id in METRIC_IDS])


def report_table(payload: Any) -> list[Sequence[str]]:
    """The CSV rows of a report payload, header first."""
    if isinstance(payload, MetricRecord):
        payload = [payload]
    if isinstance(payload, list):
        rows: list[Sequence[str]] = [RECORD_COLUMNS]
        for record in payload:
            values = _record_values(record)
            rows.append([values[0], *map(format_number, values[1:])])
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
            values = _record_values(record)
            documents.append(dict(zip(RECORD_COLUMNS, [values[0], *map(_json_value, values[1:])])))
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
    write_report(payload, fmt, buffer)
    return buffer.getvalue()


def write_report(payload: Any, fmt: str, stream: TextIO) -> None:
    """Serialize records / summary / histogram / correlation to an open text
    stream."""
    if fmt == "csv":
        csv.writer(stream, lineterminator="\n").writerows(report_table(payload))
    elif fmt == "json":
        json.dump(report_document(payload), stream, indent=2)
        stream.write("\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}")
