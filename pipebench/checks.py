"""Correctness checks on corpus reports.

Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import json
import math
from pathlib import Path

from workloads import Workload

BOOKKEEPING = ("sheetCount", "nonEmptyCells", "inputCells", "formulaCells", "parseFailures")
METRIC_IDS = tuple(f"M{i:02d}" for i in range(1, 23))


def read_records(report: dict[str, bytes], fmt: str) -> dict[str, dict]:
    """Report rows keyed by workbookId, values as numbers (None when absent)."""
    text = report[f"report.{fmt}"].decode("utf-8")
    rows = list(csv.DictReader(io.StringIO(text))) if fmt == "csv" else json.loads(text)
    records = {}
    for row in rows:
        records[row["workbookId"]] = {
            key: (None if value in ("", None) else float(value))
            for key, value in row.items()
            if key != "workbookId"
        }
    return records


def check_expected(records: dict[str, dict], workload: Workload) -> list[str]:
    """Values the generator knows by construction, for every workbook."""
    problems = []
    missing = sorted(set(workload.expected) - set(records))
    extra = sorted(set(records) - set(workload.expected))
    if missing:
        problems.append(f"{len(missing)} workbooks missing from the report, e.g. {missing[:3]}")
    if extra:
        problems.append(f"{len(extra)} unexpected workbooks in the report, e.g. {extra[:3]}")
    for name, expected in sorted(workload.expected.items()):
        row = records.get(name)
        if row is None:
            continue
        wanted = {"formulaCells": expected.formula_cells, "sheetCount": expected.sheet_count, **expected.metrics}
        for key, value in wanted.items():
            if row.get(key) != value:
                problems.append(f"{name}: {key} is {row.get(key)}, expected {value}")
    return problems


def _load_oracle(root: Path):
    path = root / "tests" / "oracle.py"
    spec = importlib.util.spec_from_file_location("pipebench_oracle", path)
    if spec is None or not path.is_file():
        raise FileNotFoundError(f"brute-force oracle not found at {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _same(reported, reference) -> bool:
    if reported is None or reference is None:
        return reported is None and reference is None
    # Reports carry six significant digits.
    return math.isclose(reported, reference, rel_tol=1e-5, abs_tol=1e-9)


def check_oracle(records: dict[str, dict], workload: Workload, root: Path) -> list[str]:
    """Recompute the sampled workbooks with the brute-force oracle."""
    if not workload.oracle_sample:
        return []
    from cellgauge.cli import load_workbook

    oracle = _load_oracle(root)
    problems = []
    for name in workload.oracle_sample:
        reference = oracle.record(load_workbook(workload.directory / name))
        row = records.get(name)
        if row is None:
            problems.append(f"oracle sample {name} missing from the report")
            continue
        for key in BOOKKEEPING + METRIC_IDS:
            if not _same(row.get(key), reference[key]):
                problems.append(f"{name}: {key} is {row.get(key)}, oracle says {reference[key]}")
    return problems
