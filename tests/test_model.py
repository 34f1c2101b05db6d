"""Cell classification: partition, precedence of kinds, invariances."""

from __future__ import annotations

import gc
import json
import random
import tracemalloc
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cellgauge import cli
from cellgauge.graph import DependencyGraph, build_graph
from cellgauge.interchange import _cached_cell_ref, read_interchange, read_interchange_file
from cellgauge.metrics import compute_record
from cellgauge.model import LITERAL_CELL, CellCoordinate, CellKind, classify_cells
from cellgauge.xlsx import read_xlsx

from .genutil import gen_workbook_doc, make_workbook
from .test_xlsx import build_xlsx

FIXTURES = Path(__file__).parent / "fixtures"


def classify(workbook):
    return classify_cells(workbook, build_graph(workbook))


class TestKinds:
    def test_formula_presence_dominates(self):
        workbook = make_workbook([("S", {"A1": "=1+1"})])
        assert classify(workbook)[CellCoordinate(1, 1, 1)] is CellKind.FORMULA

    def test_referenced_blank_cell_is_input(self):
        workbook = make_workbook([("S", {"A1": "=SUM(B1:B3)"})])
        graph = build_graph(workbook)
        kinds = classify_cells(workbook, graph)
        # blank referenced cells are counted by the graph, not listed
        assert graph.unstored_references == 3
        for row in (1, 2, 3):
            coord = CellCoordinate(1, row, 2)
            assert coord not in kinds and coord in graph.reverse
        assert compute_record(workbook, graph).input_cells == 3

    def test_unreferenced_text_is_label(self):
        workbook = make_workbook([("S", {"A1": "Revenue"})])
        assert classify(workbook)[CellCoordinate(1, 1, 1)] is CellKind.LABEL

    def test_referenced_literal_is_input(self):
        workbook = make_workbook([("S", {"A1": "=B1*2", "B1": 5})])
        assert classify(workbook)[CellCoordinate(1, 1, 2)] is CellKind.INPUT_VALUE

    def test_visual_only_unreferenced_cell_is_empty(self):
        workbook = make_workbook([("S", {"A1": None})])
        assert classify(workbook)[CellCoordinate(1, 1, 1)] is CellKind.EMPTY

    def test_referenced_formula_cell_stays_formula(self):
        workbook = make_workbook([("S", {"A1": "=B1", "B1": "=2"})])
        kinds = classify(workbook)
        assert kinds[CellCoordinate(1, 1, 2)] is CellKind.FORMULA

    def test_dangling_targets_are_not_classified(self):
        workbook = make_workbook([("S", {"A1": "=Missing!B2+nosuchname"})])
        graph = build_graph(workbook)
        assert set(classify_cells(workbook, graph)) == {CellCoordinate(1, 1, 1)}
        assert graph.unstored_references == 0


class TestProperties:
    @given(st.integers(0, 2**48))
    @settings(max_examples=150, deadline=None)
    def test_partition_is_total_and_disjoint(self, seed):
        workbook = read_interchange(gen_workbook_doc(random.Random(seed)))
        graph = build_graph(workbook)
        kinds = classify_cells(workbook, graph)
        stored = {CellCoordinate(sheet.index, row, col) for sheet in workbook.sheets for row, col in sheet.cells}
        referenced = set(graph.reverse)
        # stored cells are listed; referenced blank coordinates are counted
        assert set(kinds) == stored
        assert graph.unstored_references == len(referenced - stored)
        inputs = {c for c, k in kinds.items() if k is CellKind.INPUT_VALUE}
        assert inputs == (referenced & stored) - {c for c, k in kinds.items() if k is CellKind.FORMULA}
        # the graph's own count of input cells, which the CLI reads instead
        assert graph.input_cells == len(inputs) + graph.unstored_references

    def test_monotonicity_of_adding_a_referencing_formula(self):
        base = make_workbook([("S", {"A1": 1, "B1": "label", "C1": "=A1"})])
        base_graph = build_graph(base)
        before = classify_cells(base, base_graph)
        extended = make_workbook(
            [("S", {"A1": 1, "B1": "label", "C1": "=A1", "E1": "=D1"})]
        )
        graph = build_graph(extended)
        after = classify_cells(extended, graph)
        # D1 was absent (empty, unreferenced); now it is a blank input cell
        assert CellCoordinate(1, 1, 4) not in before
        assert base_graph.unstored_references == 0
        assert CellCoordinate(1, 1, 4) in graph.reverse
        assert graph.unstored_references == 1
        # no other previously classified cell changed kind
        for coord, kind in before.items():
            assert after[coord] == kind

    def test_classification_blind_to_literal_value(self):
        low = make_workbook([("S", {"A1": "=B1", "B1": 1, "C1": "x"})])
        high = make_workbook([("S", {"A1": "=B1", "B1": 999.5, "C1": "other text"})])
        assert classify(low) == classify(high)


def test_analyze_workbook_never_classifies_cells(monkeypatch):
    """The CLI reads the graph's input count: it neither classifies every
    stored cell nor builds the graph's per-cell cover counts."""

    def refuse(*args):
        raise AssertionError("per-cell classification in the CLI")

    monkeypatch.setattr(cli, "classify_cells", refuse)
    monkeypatch.setattr(DependencyGraph, "cover_counts", property(refuse))
    record = cli.analyze_workbook(read_interchange_file(FIXTURES / "g1.json"))
    # 5 stored input cells and 4 referenced blank ones
    assert record.input_cells == 9


class TestStoredCellMemory:
    """A stored literal costs its grid key and a dict slot, not an object of its own."""

    ROWS, COLS = 2_000, 10

    def retained_per_cell(self, read, path) -> float:
        _cached_cell_ref.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            workbook = read(path)
            _cached_cell_ref.cache_clear()  # the reader's ref cache is not the model
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        (sheet,) = workbook.sheets
        assert len(sheet.cells) == self.ROWS * self.COLS
        assert all(cell is LITERAL_CELL for cell in sheet.cells.values())
        return retained / len(sheet.cells)

    def rows(self):
        """Per row: its number and the refs of its cells."""
        return [(row, [f"{col}{row}" for col in "ABCDEFGHIJ"[: self.COLS]]) for row in range(1, self.ROWS + 1)]

    def test_xlsx_literals(self, tmp_path):
        body = "".join(
            f'<row r="{row}">' + "".join(f'<c r="{ref}"><v>{row}.5</v></c>' for ref in refs) + "</row>"
            for row, refs in self.rows()
        )
        path = build_xlsx(tmp_path / "numbers.xlsx", [("S", body)])
        per_cell = self.retained_per_cell(read_xlsx, path)
        assert per_cell <= 100, f"{per_cell:.0f} bytes per stored literal"

    def test_interchange_literals(self, tmp_path):
        cells = [{"ref": ref, "value": row + 0.5, "type": "number"} for row, refs in self.rows() for ref in refs]
        path = tmp_path / "numbers.json"
        path.write_text(json.dumps({"name": "numbers", "sheets": [{"name": "S", "cells": cells}]}))
        per_cell = self.retained_per_cell(read_interchange_file, path)
        assert per_cell <= 100, f"{per_cell:.0f} bytes per stored literal"
