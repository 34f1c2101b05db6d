"""The seed-1 report of every benchmark workload, pinned by the CI digests.

Each workload (the ``workloads`` fixture in ``conftest.py``) is run through
``cellgauge.cli.main`` in-process at ``--threads 1`` with its own options,
as ``pipebench/run.py`` runs it. The report directory is hashed the way
``pipebench/run.py`` hashes it (name, NUL, bytes, NUL over the sorted
files) and compared with the ``report_sha256`` pins of the pipebench smoke
step in ``.github/workflows/tests.yml``, read from that file so the pins
are written once.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

import pytest

from cellgauge.cli import main

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"
PINS = dict(re.findall(r"^\s*(\w+):([0-9a-f]{64})\b", WORKFLOW.read_text(encoding="utf-8"), re.MULTILINE))
NAMES = ("xlsx_formulas", "range_fill", "json_corpus")


def report_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("name", NAMES)
def test_seed1_report_matches_ci_pin(name, workloads, tmp_path):
    workload = workloads[name, 1]
    out = tmp_path / "report"
    out.mkdir()
    argv = ["corpus", str(workload.directory), "--threads", "1",
            "--out", str(out / f"report.{workload.report_format}"), *workload.cli_args]
    assert main(argv) == 0
    assert report_digest(out) == PINS[name]
