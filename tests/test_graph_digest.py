"""The graph of every benchmark workbook, pinned by one digest.

The three pipebench workloads are generated at seeds 1 and 3 (the
generators are imported from ``pipebench/workloads.py``, never changed
here). For every parsed formula cell the digest covers its coordinate,
fan-out, fan-in, dangling references and spreading factor (exact float
bits), and per workbook the sorted cover counts and the unstored
references. A change that moves any of these numbers changes the digest;
a deliberate one regenerates ``EXPECTED`` from the assertion message.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from cellgauge.cli import load_workbook
from cellgauge.graph import build_graph

ROOT = Path(__file__).resolve().parent.parent

EXPECTED = "8395b0d236737addf21545d07489e8353f4c86186c879161711ab81e7ecf2532"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("pipebench_workloads", ROOT / "pipebench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # Registered before it runs: its dataclasses look their module up.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def graph_digest(paths) -> str:
    h = hashlib.sha256()
    for label, path in paths:
        workbook = load_workbook(path)
        graph = build_graph(workbook)
        h.update(f"{label}\n".encode())
        for coord in sorted(graph.formula_cells()):
            line = (
                f"{tuple(coord)} {graph.fan_out(coord)} {graph.fan_in(coord)} {graph.dangling[coord]} "
                f"{graph.spreading_factor(coord).hex()}\n"
            )
            h.update(line.encode())
        covered = sorted((tuple(coord), count) for coord, count in graph.cover_counts.items())
        h.update(f"{covered} {graph.unstored_references}\n".encode())
    return h.hexdigest()


def test_workload_graphs_match_committed_digest(workloads, tmp_path):
    paths = []
    for name in ("xlsx_formulas", "range_fill", "json_corpus"):
        for seed in (1, 3):
            workload = workloads.generate(name, tmp_path / f"{name}.{seed}", seed)
            paths += [(f"{name}/{seed}/{path.name}", path) for path in sorted(workload.directory.iterdir())]
    assert len(paths) == 2 * (8 + 1 + 1000)
    got = graph_digest(paths)
    assert got == EXPECTED, f"graph digest {got}"
