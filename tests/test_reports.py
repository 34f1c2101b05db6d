"""Report serialization: column order, absent handling, number formatting."""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import pytest

from cellgauge.analytics import aggregate, correlation_matrix, histogram
from cellgauge.graph import build_graph
from cellgauge.interchange import read_interchange_file
from cellgauge.metrics import METRIC_IDS, MetricRecord, compute_record
from cellgauge.reports import (
    RECORD_COLUMNS,
    format_number,
    render_report,
    write_report,
)

FIXTURES = Path(__file__).parent / "fixtures"


def empty_record(workbook_id="wb", **metric_values):
    metrics = dict.fromkeys(METRIC_IDS)
    metrics.update(metric_values)
    return MetricRecord(
        workbook_id=workbook_id,
        sheet_count=1,
        non_empty_cells=2,
        input_cells=int(metrics["M05"] or 0),
        formula_cells=int(metrics["M03"] or 0),
        parse_failures=0,
        metrics=metrics,
    )


class TestNumberFormatting:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (3, "3"),
            (2.5, "2.5"),
            (0.6, "0.6"),
            (3.6055512754639891, "3.60555"),
            (1 / 3, "0.333333"),
            (167.94, "167.94"),
            (0.125, "0.125"),
            (1234567.0, "1.23457e+06"),
            (None, ""),
        ],
    )
    def test_six_significant_digits(self, value, expected):
        assert format_number(value) == expected

    def test_round_half_even(self):
        # 0.125 and 0.375 are exact binary halves at two significant digits
        assert format(0.125, ".2g") == "0.12"
        assert format(0.375, ".2g") == "0.38"


class TestRecordsCsv:
    def test_header_only_for_no_records(self):
        text = render_report([], "csv")
        assert text == ",".join(RECORD_COLUMNS) + "\n"

    def test_absent_values_are_empty_fields(self):
        text = render_report([empty_record(M03=0, M05=0)], "csv")
        rows = list(csv.reader(io.StringIO(text)))
        by_column = dict(zip(rows[0], rows[1]))
        assert by_column["M01"] == ""
        assert by_column["M03"] == "0"
        assert by_column["workbookId"] == "wb"

    def test_golden_fixture_bytes(self):
        workbook = read_interchange_file(FIXTURES / "g1.json")
        record = compute_record(workbook, build_graph(workbook))
        expected = (FIXTURES / "g1_report.csv").read_text(encoding="utf-8")
        assert render_report([record], "csv") == expected


class TestRecordsJson:
    def test_absent_values_are_null(self):
        payload = json.loads(render_report([empty_record(M03=0)], "json"))
        assert payload[0]["M01"] is None
        assert payload[0]["M03"] == 0

    def test_numbers_are_rounded(self):
        payload = json.loads(render_report([empty_record(M01=1 / 3)], "json"))
        assert payload[0]["M01"] == 0.333333


class TestOtherPayloads:
    def _records(self):
        return [
            empty_record("a", M01=1.0, M03=2, M04=0.5, M09=3.0),
            empty_record("b", M01=2.0, M03=0, M04=0.0, M09=1.0),
        ]

    def test_summary_csv_row_order(self):
        text = render_report(aggregate(self._records()), "csv")
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["statistic", "value"]
        assert rows[1][0] == "spreadsheetCount"
        assert rows[2] == ["ratioWithFormulas", "0.5"]
        assert [r[0] for r in rows[3:]] == list(METRIC_IDS)

    def test_histogram_csv(self):
        text = render_report(histogram(self._records(), "M04"), "csv")
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["metricId", "binStart", "binEnd", "count"]
        assert len(rows) == 21
        assert sum(int(r[3]) for r in rows[1:]) == 2

    def test_correlation_csv(self):
        matrix = correlation_matrix(self._records(), metric_ids=("M01", "M09"))
        text = render_report(matrix, "csv")
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["metricA", "metricB", "r", "n"]
        assert rows[1] == ["M01", "M01", "1", "2"]
        assert rows[2][:2] == ["M01", "M09"]

    def test_correlation_json_matrix(self):
        matrix = correlation_matrix(self._records(), metric_ids=("M01", "M09"))
        payload = json.loads(render_report(matrix, "json"))
        assert payload["metricIds"] == ["M01", "M09"]
        assert payload["r"][0][0] == 1.0
        assert payload["r"][0][1] == payload["r"][1][0]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render_report([], "xml")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unknown_payload_rejected(self, fmt):
        with pytest.raises(TypeError, match="cannot report a dict"):
            render_report({}, fmt)


class TestDestinations:
    def test_write_to_stream(self):
        buffer = io.StringIO()
        write_report([empty_record()], "json", buffer)
        assert json.loads(buffer.getvalue())[0]["workbookId"] == "wb"
