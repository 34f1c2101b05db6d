"""Per-formula measures and record aggregation against hand-checked values."""

from __future__ import annotations

import math
import random
import re
import sys
import traceback
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cellgauge.cli import analyze_workbook
from cellgauge.graph import build_graph, max_distance
from cellgauge.interchange import read_interchange
from cellgauge.metrics import METRIC_IDS, METRICS, ast_metrics, compute_record
from cellgauge.model import CellCoordinate
from cellgauge.parser import parse_text
from cellgauge.reports import render_report
from cellgauge.tokens import MAX_COL, MAX_ROW

from . import oracle
from .genutil import gen_expr, gen_workbook_doc, make_workbook

C = CellCoordinate


def record_for(workbook, **kwargs):
    return compute_record(workbook, build_graph(workbook), **kwargs)


class TestAstDepth:
    def test_leaf(self):
        assert ast_metrics(parse_text("1")).ast_depth == 1

    def test_operator_over_leaves(self):
        assert ast_metrics(parse_text("A1+B1")).ast_depth == 2

    def test_nested_conditional(self):
        assert ast_metrics(parse_text("IF(A1>0,SUM(B1:B10),0)")).ast_depth == 3

    def test_parenthesis_adds_a_level(self):
        assert ast_metrics(parse_text("(1)")).ast_depth == 2

    def test_zero_arg_function(self):
        assert ast_metrics(parse_text("RAND()")).ast_depth == 1


class TestElementCount:
    def test_leaf(self):
        assert ast_metrics(parse_text("1")).element_count == 1

    def test_parenthesised_sum(self):
        assert ast_metrics(parse_text("(A1+B1)")).element_count == 4

    def test_nested_conditional(self):
        assert ast_metrics(parse_text("IF(A1>0,SUM(B1:B10),0)")).element_count == 7


class TestFunctionCounts:
    def test_constant(self):
        m = ast_metrics(parse_text("1"))
        assert (m.function_count, m.distinct_function_count) == (0, 0)

    def test_case_insensitive_fold(self):
        m = ast_metrics(parse_text("SUM(A1)+sum(B1)"))
        assert (m.function_count, m.distinct_function_count) == (2, 1)

    def test_nested_conditional(self):
        m = ast_metrics(parse_text("IF(A1>0,SUM(B1:B10),0)"))
        assert (m.function_count, m.distinct_function_count) == (2, 2)


class TestConditionalCount:
    def test_plain_sum(self):
        assert ast_metrics(parse_text("SUM(A1:A3)")).conditional_count == 0

    def test_single_if(self):
        assert ast_metrics(parse_text("IF(A1>0,SUM(B1:B10),0)")).conditional_count == 1

    def test_nested_conditionals(self):
        assert ast_metrics(parse_text("IF(A1,IF(B1,1,2),SUMIF(C:C,1))")).conditional_count == 3

    def test_custom_set(self):
        expr = parse_text("IF(A1,SUMIF(B:B,1),0)")
        assert ast_metrics(expr, frozenset({"IF"})).conditional_count == 1


class TestSpreadingFactor:
    def test_single_reference(self):
        workbook = make_workbook([("S", {"E5": "=A1"})])
        graph = build_graph(workbook)
        assert graph.spreading_factor(C(1, 5, 5)) == 0.0

    def test_same_sheet_distance(self):
        workbook = make_workbook([("S", {"E5": "=A1+C4"})])
        graph = build_graph(workbook)
        assert graph.spreading_factor(C(1, 5, 5)) == pytest.approx(math.sqrt(13), abs=1e-12)

    def test_cross_sheet_distance_is_sheet_delta(self):
        workbook = make_workbook(
            [("Sheet1", {"E5": "=Sheet2!A1+Sheet1!A1"}), ("Sheet2", {})]
        )
        graph = build_graph(workbook)
        assert graph.spreading_factor(C(1, 5, 5)) == 1.0

    def test_permutation_invariance(self):
        a = make_workbook([("S", {"A9": "=A1+C4+B2"})])
        b = make_workbook([("S", {"A9": "=B2+A1+C4"})])
        va = build_graph(a).spreading_factor(C(1, 9, 1))
        vb = build_graph(b).spreading_factor(C(1, 9, 1))
        assert va == vb

    @pytest.mark.parametrize("r1,c1,r2,c2", [(1, 1, 10, 10), (2, 3, 7, 4), (5, 5, 5, 9)])
    def test_corner_shortcut_matches_brute_force(self, r1, c1, r2, c2):
        from cellgauge.expressions import column_index_to_letter

        ref = (
            f"{column_index_to_letter(c1)}{r1}:{column_index_to_letter(c2)}{r2}"
        )
        workbook = make_workbook([("S", {"Z99": f"=SUM({ref})"})])
        graph = build_graph(workbook)
        cells, _ = oracle.expand(workbook.sheets[0].cells[(99, 26)].formula.expr, 1, workbook)
        assert len(cells) == (r2 - r1 + 1) * (c2 - c1 + 1)
        assert graph.spreading_factor(C(1, 99, 26)) == oracle.spreading(cells)


    @given(
        st.lists(
            st.tuples(
                st.integers(1, 3),
                st.one_of(st.integers(1, 4), st.integers(1, MAX_ROW)),
                st.one_of(st.integers(1, 4), st.integers(1, MAX_COL)),
            ),
            min_size=1,
            max_size=40,
        )
    )
    # opposite grid corners, on one sheet and sheets apart
    @example([(1, 1, 1), (1, MAX_ROW, MAX_COL)])
    @example([(200, 1, 1), (200, MAX_ROW, MAX_COL)])
    @example([(1, 1, 1), (200, MAX_ROW, MAX_COL)])
    # two equally far pairs: a rectangle's diagonals, and two pairs of unlike shape
    @example([(1, 1, 1), (1, 1, MAX_COL), (1, MAX_ROW, 1), (1, MAX_ROW, MAX_COL)])
    @example([(1, 1, 1), (1, 4, 5), (1, 6, 1)])
    @settings(max_examples=300, deadline=None)
    def test_pruned_anchors_match_all_pairs(self, points):
        # small coordinates make collinear and duplicate points likely,
        # grid-wide ones make far corners
        keys = [(sheet * (MAX_ROW + 2) + row) * (MAX_COL + 1) + col for sheet, row, col in points]
        assert max_distance(keys).hex() == oracle.spreading(points).hex()


class TestNormalizedKeys:
    def test_copied_pair_counts_once(self):
        workbook = make_workbook([("S", {"A1": "=A2+B2", "B1": "=B2+C2"})])
        record = record_for(workbook)
        assert record.metrics["M08"] == 1
        assert record.metrics["M03"] == 2

    def test_translation_invariance(self):
        base = make_workbook([("S", {"A1": "=B1*2", "A2": "=B2*2"})])
        shifted = make_workbook([("S", {"D7": "=E7*2", "D8": "=E8*2"})])
        assert record_for(base).metrics["M08"] == record_for(shifted).metrics["M08"]

    def test_distinct_constants_make_distinct_formulas(self):
        workbook = make_workbook([("S", {"A1": "=B1+1", "A2": "=B2+2"})])
        assert record_for(workbook).metrics["M08"] == 2


class TestComputeRecord:
    def test_zero_formula_workbook(self):
        workbook = make_workbook([("S", {"A1": "x", "B2": 5})])
        record = record_for(workbook)
        assert record.metrics["M03"] == 0
        assert record.metrics["M04"] == 0.0
        for metric_id in ("M01", "M02", "M08") + tuple(f"M{i:02d}" for i in range(9, 23)):
            assert record.metrics[metric_id] is None
        assert record.metrics["M07"] is None  # no input cells

    def test_empty_workbook(self):
        workbook = make_workbook([])
        record = record_for(workbook)
        assert record.sheet_count == 0
        assert record.non_empty_cells == 0
        assert all(
            record.metrics[m] is None for m in METRIC_IDS if m not in ("M03", "M05")
        )
        assert record.metrics["M03"] == 0 and record.metrics["M05"] == 0

    def test_parse_failures_count_in_tallies_only(self):
        workbook = make_workbook([("S", {"A1": "=1+", "B1": "=C1", "D1": 2})])
        record = record_for(workbook)
        assert record.metrics["M03"] == 2  # parse failure still counts as a formula cell
        assert record.parse_failures == 1
        assert record.metrics["M08"] == 1  # only the parsed formula
        assert record.metrics["M04"] == pytest.approx(2 / 3)

    def test_value_blindness(self):
        low = make_workbook([("S", {"A1": "=B1+C1", "B1": 1, "C1": 2, "D1": "x"})])
        high = make_workbook([("S", {"A1": "=B1+C1", "B1": 9.75, "C1": -4, "D1": "y"})])
        assert record_for(low).metrics == record_for(high).metrics

    def test_conditional_set_override(self):
        workbook = make_workbook([("S", {"A1": "=IF(B1,1,0)", "A2": "=SUMIF(B:B,1)"})])
        default = record_for(workbook)
        narrowed = record_for(workbook, conditional_functions=frozenset({"IF"}))
        assert default.metrics["M13"] == 1.0
        assert narrowed.metrics["M13"] == 0.5

    def test_matches_oracle_on_a_hand_workbook(self):
        workbook = make_workbook(
            [
                ("Inputs", {"A1": "Revenue", "B1": 100, "B2": 200, "B3": 300, "C1": True}),
                ("Calc", {"A1": "=SUM(Inputs!B1:B5)", "A2": "=IF(Inputs!C1,A1*2,0)", "B2": "=nope+1"}),
            ],
            defined_names={"TOTAL": "Inputs!$B$1:$B$3"},
        )
        record = record_for(workbook)
        expected = oracle.record(workbook)
        for metric_id in METRIC_IDS:
            got = record.metrics[metric_id]
            want = expected[metric_id]
            if want is None or got is None:
                assert got is None and want is None, metric_id
            elif isinstance(want, float):
                assert got == pytest.approx(want, abs=1e-9), metric_id
            else:
                assert got == want, metric_id

    def test_record_reads_no_stored_cell(self):
        # Everything the record needs comes from the graph's one walk.
        hand = make_workbook(
            [
                ("Inputs", {"A1": "Revenue", "B1": 100, "B2": 200, "C1": True, "D9": None}),
                ("Calc", {"A1": "=SUM(Inputs!B1:B5)", "A2": "=IF(Inputs!C1,A1*2,0)", "B2": "=nope+1"}),
            ],
            defined_names={"TOTAL": "Inputs!$B$1:$B$3"},
        )
        generated = [read_interchange(gen_workbook_doc(random.Random(seed))) for seed in range(20)]
        for workbook in [hand, *generated]:
            graph = build_graph(workbook)
            expected = compute_record(workbook, graph)
            for sheet in workbook.sheets:
                sheet.cells = {}
            assert compute_record(workbook, graph) == expected


class TestCatalog:
    def test_readme_catalog_lists_the_metric_table(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        catalog = readme.split("## Metric catalog", 1)[1].split("\n## ", 1)[0]
        pairs = re.findall(r"\| (M\d\d) \| (\w+) ", catalog)
        assert sorted(pairs) == [(metric_id, name) for metric_id, name, _, _ in METRICS]


class TestOracleSweep:
    @given(st.integers(0, 2**48))
    @settings(max_examples=80, deadline=None)
    def test_record_matches_oracle_on_generated_workbooks(self, seed):
        workbook = read_interchange(gen_workbook_doc(random.Random(seed)))
        record = record_for(workbook)
        expected = oracle.record(workbook)
        assert record.non_empty_cells == expected["nonEmptyCells"]
        assert record.input_cells == expected["inputCells"]
        assert record.parse_failures == expected["parseFailures"]
        for metric_id in METRIC_IDS:
            got = record.metrics[metric_id]
            want = expected[metric_id]
            if want is None or got is None:
                assert got is None and want is None, metric_id
            elif isinstance(want, float):
                assert got == pytest.approx(want, abs=1e-9), metric_id
            else:
                assert got == want, metric_id


class TestInvariants:
    @given(st.integers(0, 2**48))
    @settings(max_examples=300, deadline=None)
    def test_per_formula_inequalities(self, seed):
        expr = parse_text(gen_expr(random.Random(seed)))
        depth, elements, total, distinct, conditionals, _ = ast_metrics(expr)
        assert 1 <= depth <= elements
        assert distinct <= total <= elements
        assert conditionals <= total

    @given(st.integers(0, 2**48))
    @settings(max_examples=120, deadline=None)
    def test_record_invariants(self, seed):
        workbook = read_interchange(gen_workbook_doc(random.Random(seed)))
        record = record_for(workbook)
        m = record.metrics
        if m["M08"] is not None:
            assert m["M08"] <= m["M03"]
        if m["M04"] is not None:
            assert 0.0 <= m["M04"] <= 1.0
        for avg_id, max_id in (
            ("M01", "M02"),
            ("M09", "M10"),
            ("M11", "M12"),
            ("M13", "M14"),
            ("M15", "M16"),
            ("M17", "M18"),
            ("M19", "M20"),
            ("M21", "M22"),
        ):
            if m[avg_id] is not None:
                assert m[avg_id] <= m[max_id] + 1e-12


class TestDeepChain:
    def test_analysis_does_not_recurse_per_tree_level(self):
        # B1 is A1 followed by 5000 more terms; B2, B3 and B4 nest A1 in 5000
        # parentheses, SUM calls and minus signs. The recursion limit sits
        # only 150 frames above this test, so any per-level recursion in
        # reading, parsing, resolving, measuring or reporting fails.
        doc = {
            "name": "deep",
            "sheets": [
                {
                    "name": "S",
                    "cells": [
                        {"ref": "A1", "value": 1, "type": "number"},
                        {"ref": "B1", "formula": "=A1" + "+1" * 5000},
                        {"ref": "B2", "formula": "=" + "(" * 5000 + "A1" + ")" * 5000},
                        {"ref": "B3", "formula": "=" + "SUM(" * 5000 + "A1" + ")" * 5000},
                        {"ref": "B4", "formula": "=" + "-" * 5000 + "A1"},
                    ],
                }
            ],
        }
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(traceback.extract_stack()) + 150)
        try:
            record = analyze_workbook(read_interchange(doc))
            report = render_report([record], "csv")
        finally:
            sys.setrecursionlimit(limit)
        assert record.parse_failures == 0
        m = record.metrics
        assert m["M01"] == m["M02"] == 5001  # A1 is 5001 deep in every formula
        assert m["M22"] == 10_001  # B1: 5001 leaves, 5000 operators
        assert m["M21"] == (10_001 + 3 * 5001) / 4
        assert (m["M17"], m["M18"]) == (1250, 5000)
        assert (m["M03"], m["M05"], m["M09"], m["M08"]) == (4, 1, 1, 4)
        assert "10001" in report
