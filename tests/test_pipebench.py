"""The library names pipebench's tracer wraps and reads stay in place, and a
traced pass over each workload gives the counters CI pins.

``pipebench/spans.py`` replaces layer functions by name and reads graph
attributes; a name the library drops would otherwise surface only when the
benchmark runs.
"""

from __future__ import annotations

import importlib.util
import re
import sys
from pathlib import Path

import pytest

from cellgauge import cli

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).parent / "fixtures"

# The `--trace 1` pin rows of the pipebench smoke step in CI, one per workload:
# name:tokens:failures:cell counter:cells:expanded cells:dangling:anchor pairs.
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
TRACE_PINS = {
    name: {
        "lexer.tokens": int(tokens),
        "parser.failures": int(failures),
        counter: int(cells),
        "graph.expanded_cells": int(expanded),
        "graph.dangling": int(dangling),
        "metrics.anchor_pairs": int(pairs),
    }
    for name, tokens, failures, counter, cells, expanded, dangling, pairs in re.findall(
        r"^\s*(\w+):(\d+):(\d+):([\w.]+):(\d+):(\d+):(\d+):(\d+)\b",
        WORKFLOW.read_text(encoding="utf-8"),
        re.MULTILINE,
    )
}


@pytest.fixture(scope="module")
def spans():
    """``pipebench/spans.py``, loaded from its file and never changed here."""
    spec = importlib.util.spec_from_file_location("pipebench_spans", ROOT / "pipebench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    # Registered while it runs: its dataclasses look their module up.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_traced_pass_over_g1(spans, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "g1.json").write_bytes((FIXTURES / "g1.json").read_bytes())
    argv = ["corpus", str(corpus), "--threads", "1", "--out", str(tmp_path / "report.csv"), "--quiet"]
    trace = spans.traced_pass(lambda: cli.main(argv))

    assert spans.accounting_error(trace) is None
    values, _ = spans.layer_metrics(trace)
    assert values["graph.reverse_edges"] == values["graph.expanded_cells"] == 26
    assert values["graph.dangling"] == 1


@pytest.mark.parametrize("name", ("xlsx_formulas", "range_fill", "json_corpus"))
def test_seed1_traced_counters_match_ci_pin(spans, name, workloads, tmp_path):
    # The in-process one-worker run pipebench/run.py traces with --trace 1.
    workload = workloads[name, 1]
    argv = ["corpus", str(workload.directory), "--threads", "1",
            "--out", str(tmp_path / f"report.{workload.report_format}"), *workload.cli_args]
    values, _ = spans.layer_metrics(spans.traced_pass(lambda: cli.main(argv)))
    assert {metric: values[metric] for metric in TRACE_PINS[name]} == TRACE_PINS[name]
    assert values["graph.reverse_edges"] == values["graph.expanded_cells"]
