"""Report bytes, pinned by sha256.

Every report payload in both formats, and the CLI's stdout and analyze
reports, are hashed and compared with digests committed here. The
payloads hold absent values and non-integer numbers, so a change to field
order, number rounding, null handling, section joining or JSON layout
changes a digest. A deliberate change regenerates the digest from the
assertion message.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from cellgauge.analytics import aggregate, correlation_matrix, histogram
from cellgauge.cli import main
from cellgauge.metrics import METRIC_IDS, MetricRecord
from cellgauge.reports import render_report

from .genutil import write_corpus

FIXTURES = Path(__file__).parent / "fixtures"


def _record(workbook_id: str, **metric_values) -> MetricRecord:
    metrics = dict.fromkeys(METRIC_IDS)
    metrics.update(metric_values)
    return MetricRecord(
        workbook_id=workbook_id,
        sheet_count=2,
        non_empty_cells=40,
        input_cells=12,
        formula_cells=metrics["M03"] or 0,
        parse_failures=1,
        metrics=metrics,
    )


RECORDS = [
    _record("a/one.xlsx", M01=1 / 3, M03=7, M04=0.125, M05=12, M09=1234567.0, M10=2.5),
    _record("b,two.json", M01=2.0, M03=0, M04=0.0, M05=3, M09=None, M10=3.6055512754639891),
    _record('c "q".json', M01=None, M03=5, M04=0.375, M05=0, M09=0.6, M10=167.94),
]

PAYLOADS = {
    "records": RECORDS,
    "record": RECORDS[0],
    "summary": aggregate(RECORDS),
    "histogram": histogram(RECORDS, "M04", bins=3),
    "correlation": correlation_matrix(RECORDS, metric_ids=("M01", "M03", "M04", "M09", "M10", "M12")),
}

PAYLOAD_DIGESTS = {
    ("records", "csv"): "17914602e47278d73938cdad2ab2579b59464bdc4ac5d30e1b39843b4d321cbc",
    ("records", "json"): "e268be67e8b612e962400dc5464ca8df26bd195b34339f87aeba40278ad72990",
    ("record", "csv"): "d6bd4b7cc49d7d012561e6afe5e05451d9713a4d94ed5f6bd0f7812c04378bfa",
    ("record", "json"): "c2be28b21fc4f3abe28d9aef4b98661d22f4bdfa0a2b5d9b877c579464aaba23",
    ("summary", "csv"): "86b3c89d1700d59bcbd9f48380564607fa3bfdf44ed7f701f9aca8a3139aaed6",
    ("summary", "json"): "5d41dd51a5da2dd54cc4ae9d1b0ffdb558f5510b7933d6164dfe45910ed77a34",
    ("histogram", "csv"): "a5be979bb3dc9a007e4126200f550e4d0197ea7dda67041b32a94d68017e33d3",
    ("histogram", "json"): "865df0bb2318a25f1b7e9655a97669a7f12911e916b2910f43f3f473aad4875d",
    ("correlation", "csv"): "44ae3b5e300b1272a456ae7c5dd46e780a55e6bec40dd631418af3c42e40f682",
    ("correlation", "json"): "7fbdbb52281d095de7543ecd4b8a78227baf5b16f5b1ab2a8bcf812e1a697472",
}

CLI_DIGESTS = {
    ("corpus", "csv"): "fda0009315fdd2e892a398c40d671a144e7acb8aa187957526a0eeab525c80a8",
    ("corpus", "json"): "280cd0c5dea8fe582d180f02ba560fa12797389a0bd16d30907445a912a0d814",
    ("corpus+artifacts", "csv"): "e9ff2fc0d8d85111bbfc4f39fde66bdb57d1c400372fd6c9cf000b0fd0cfa751",
    ("corpus+artifacts", "json"): "70bd33f4dfe2e2846eaac05fefd229c7322d96d8f4c67918b5f25c9786e1a026",
    ("analyze", "csv"): "57dcb201faeb7fc35855bb242871f94a66183eb0935156508b506041a4c5b4e3",
    ("analyze", "json"): "8d1676a8002eea2c22051685a408cd8f0b8008ccbac9637fca5faf254cea1dc4",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name,fmt", sorted(PAYLOAD_DIGESTS))
def test_payload_bytes(name, fmt):
    got = _sha256(render_report(PAYLOADS[name], fmt))
    assert got == PAYLOAD_DIGESTS[name, fmt], f"{name} {fmt}: {got}"


@pytest.mark.parametrize("case,fmt", sorted(CLI_DIGESTS))
def test_cli_stdout_bytes(case, fmt, tmp_path, capsys):
    if case == "analyze":
        argv = ["analyze", str(FIXTURES / "g1.json")]
    else:
        write_corpus(tmp_path / "corpus", 6, seed=5)
        argv = ["corpus", str(tmp_path / "corpus"), "--threads", "1", "--quiet"]
        if case == "corpus+artifacts":
            argv += ["--summary", "--histogram", "M04", "--correlate"]
    assert main([*argv, "--format", fmt]) == 0
    got = _sha256(capsys.readouterr().out)
    assert got == CLI_DIGESTS[case, fmt], f"{case} {fmt}: {got}"
