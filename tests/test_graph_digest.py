"""The graph of every benchmark workbook, pinned by one digest.

The three pipebench workloads are generated at seeds 1 and 3 (the
``workload_files`` fixture in ``conftest.py``). For every parsed formula
cell the digest covers its coordinate, fan-out, fan-in, dangling
references and spreading factor (exact float bits), and per workbook the
sorted cover counts and the unstored references. A change that moves any
of these numbers changes the digest; a deliberate one regenerates
``EXPECTED`` from the assertion message.
"""

from __future__ import annotations

import hashlib

from cellgauge.cli import load_workbook
from cellgauge.graph import build_graph

EXPECTED = "8395b0d236737addf21545d07489e8353f4c86186c879161711ab81e7ecf2532"


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


def test_workload_graphs_match_committed_digest(workload_files):
    assert len(workload_files) == 2 * (8 + 1 + 1000)
    got = graph_digest(workload_files)
    assert got == EXPECTED, f"graph digest {got}"
