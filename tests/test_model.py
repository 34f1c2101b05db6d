"""Cell classification: partition, precedence of kinds, invariances."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from cellgauge.graph import build_graph
from cellgauge.interchange import read_interchange
from cellgauge.metrics import compute_record
from cellgauge.model import CellCoordinate, CellKind, classify_cells

from .genutil import gen_workbook_doc, make_workbook


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
        assert compute_record(workbook, graph, kinds).input_cells == 3

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
        stored = {cell.coordinate for cell in workbook.iter_cells()}
        referenced = set(graph.reverse)
        # stored cells are listed; referenced blank coordinates are counted
        assert set(kinds) == stored
        assert graph.unstored_references == len(referenced - stored)
        assert {c for c, k in kinds.items() if k is CellKind.INPUT_VALUE} == (
            referenced & stored
        ) - {c for c, k in kinds.items() if k is CellKind.FORMULA}

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
