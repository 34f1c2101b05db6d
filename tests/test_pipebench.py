"""The library names pipebench's tracer wraps and reads stay in place.

``pipebench/spans.py`` replaces layer functions by name and reads graph
attributes; a name the library drops would otherwise surface only when the
benchmark runs.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from cellgauge import cli

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).parent / "fixtures"


def test_traced_pass_over_g1(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("pipebench_spans", ROOT / "pipebench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    # Registered before it runs: its dataclasses look their module up.
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "g1.json").write_bytes((FIXTURES / "g1.json").read_bytes())
    argv = ["corpus", str(corpus), "--threads", "1", "--out", str(tmp_path / "report.csv"), "--quiet"]
    trace = spans.traced_pass(lambda: cli.main(argv))

    assert spans.accounting_error(trace) is None
    values, _ = spans.layer_metrics(trace)
    assert values["graph.reverse_edges"] == values["graph.expanded_cells"] == 26
    assert values["graph.dangling"] == 1
