"""Reference resolution and graph structure."""

from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellgauge.expressions import (
    CellLocator,
    Constant,
    Function,
    Operator,
    OpKind,
    Range,
    Reference,
    ValueType,
    column_index_to_letter,
)
from cellgauge.graph import NotAFormulaCellError, build_graph
from cellgauge.interchange import read_interchange
from cellgauge.metrics import compute_record
from cellgauge.model import LITERAL_CELL, Cell, CellCoordinate, Formula, Workbook, Worksheet
from cellgauge.parser import parse_text

from . import oracle
from .genutil import gen_workbook_doc, make_workbook

C = CellCoordinate


def targets(graph, coord) -> set:
    """The cells a formula references, read off the transpose ``reverse``."""
    return {target for target, sources in graph.reverse.items() if coord in sources}


def resolved(workbook, sheet=1, row=1, col=1):
    """(cells, dangling) of one formula cell, as the oracle expands them;
    the graph's fan-out, dangling count and reverse view must agree."""
    coord = C(sheet, row, col)
    cell = workbook.sheets[sheet - 1].cells[(row, col)]
    cells, dangling = oracle.expand(cell.formula.expr, sheet, workbook)
    graph = build_graph(workbook)
    assert graph.fan_out(coord) == len(cells)
    assert graph.dangling[coord] == dangling
    assert targets(graph, coord) == cells
    return cells, dangling


class TestResolve:
    def test_single_reference(self):
        workbook = make_workbook([("Sheet1", {"D4": "=A1"})])
        assert resolved(workbook, row=4, col=4) == ({C(1, 1, 1)}, 0)

    def test_range_plus_overlapping_cell_deduplicates(self):
        workbook = make_workbook([("Sheet1", {"D4": "=SUM(B1:B3)+B2"})])
        assert resolved(workbook, row=4, col=4) == ({C(1, 1, 2), C(1, 2, 2), C(1, 3, 2)}, 0)

    def test_unknown_name_dangles(self):
        workbook = make_workbook([("Sheet1", {"A1": "=UNKNOWN_NAME+1"})])
        assert resolved(workbook) == (set(), 1)

    def test_self_reference_within_same_cell_deduplicates(self):
        workbook = make_workbook([("Sheet1", {"A1": "=B2+B2"})])
        assert resolved(workbook) == ({C(1, 2, 2)}, 0)

    def test_inverted_range_normalizes(self):
        workbook = make_workbook([("Sheet1", {"A1": "=SUM(B3:A1)"})])
        assert resolved(workbook) == ({C(1, r, c) for r in (1, 2, 3) for c in (1, 2)}, 0)

    def test_cross_sheet_reference(self):
        workbook = make_workbook([("One", {"A1": "=Two!B2"}), ("Two", {})])
        assert resolved(workbook) == ({C(2, 2, 2)}, 0)

    def test_sheet_names_resolve_case_insensitively(self):
        workbook = make_workbook([("One", {"A1": "=two!B2"}), ("Two", {})])
        assert resolved(workbook) == ({C(2, 2, 2)}, 0)

    def test_missing_sheet_dangles(self):
        workbook = make_workbook([("One", {"A1": "=Missing!B2"})])
        assert resolved(workbook) == (set(), 1)

    def test_external_reference_dangles(self):
        workbook = make_workbook([("One", {"A1": "=[Book2]Sheet1!A1"})])
        assert resolved(workbook) == (set(), 1)

    def test_ref_error_dangles(self):
        workbook = make_workbook([("One", {"A1": "=#REF!+1"})])
        assert resolved(workbook) == (set(), 1)

    def test_defined_name_expands_to_block(self):
        workbook = make_workbook(
            [("Data", {"A1": "=TOTAL*2"})],
            defined_names={"TOTAL": "Data!$B$1:$B$3"},
        )
        assert resolved(workbook) == ({C(1, 1, 2), C(1, 2, 2), C(1, 3, 2)}, 0)

    def test_defined_name_lookup_is_case_insensitive(self):
        workbook = make_workbook(
            [("Data", {"A1": "=total*2"})],
            defined_names={"TOTAL": "Data!$B$1"},
        )
        assert resolved(workbook) == ({C(1, 1, 2)}, 0)

    def test_defined_name_without_sheet_dangles(self):
        workbook = make_workbook(
            [("Data", {"A1": "=LOOSE"})], defined_names={"LOOSE": "B2"}
        )
        assert resolved(workbook) == (set(), 1)

    @pytest.mark.parametrize(
        ("target", "covered", "dangling"),
        [
            ("OTHER", 0, 1),
            ("Data!OTHER", 0, 1),
            ("Data!#REF!", 0, 1),
            ("[Book2]Data!A1", 0, 1),
            ("Data!C:C", 4, 0),
            ("Data!2:2", 4, 0),
            ("Data!A1+1", 0, 1),
            ("7", 0, 1),
            ("Nope!A1", 0, 1),
            ("Empty!A:A", 0, 0),
            ("data!b2", 1, 0),
            ("Data!C3:A1", 9, 0),
        ],
    )
    def test_defined_name_targets_match_oracle(self, target, covered, dangling):
        # A name resolves only to a sheet-qualified cell or range; a target
        # naming another name dangles, as does anything but a reference.
        workbook = make_workbook(
            [("Data", {"A1": "=NAME", "B2": 1, "D4": 2}), ("Empty", {})],
            defined_names={"NAME": target, "OTHER": "Data!B2"},
        )
        cells, found = resolved(workbook)
        assert (len(cells), found) == (covered, dangling)

    def test_full_column_clips_to_used_box(self):
        workbook = make_workbook(
            [("Data", {"A1": "=SUM(C:C)", "B4": 1, "B9": 2})]
        )
        # used rows are 1..9 (A1 itself plus B4/B9)
        assert resolved(workbook) == ({C(1, r, 3) for r in range(1, 10)}, 0)

    def test_full_row_clips_to_used_box(self):
        workbook = make_workbook([("Data", {"A1": "=SUM(3:3)", "D2": 1})])
        assert resolved(workbook) == ({C(1, 3, c) for c in range(1, 5)}, 0)

    def test_full_column_on_empty_sheet_is_empty_not_dangling(self):
        workbook = make_workbook([("One", {"A1": "=SUM(Two!A:A)"}), ("Two", {})])
        assert resolved(workbook) == (set(), 0)

    def test_anchor_points_are_singles_and_corners(self):
        workbook = make_workbook([("S", {"F6": "=A1+SUM(B2:C4)"})])
        assert set(build_graph(workbook).anchors[C(1, 6, 6)]) == {
            C(1, 1, 1),
            C(1, 2, 2),
            C(1, 2, 3),
            C(1, 4, 2),
            C(1, 4, 3),
        }

    def test_unparsed_formula_rejected(self):
        workbook = make_workbook([("S", {"A1": "=1+"})])
        graph = build_graph(workbook)
        assert not graph.formula_cells() and graph.dangling == {} and graph.anchors == {}
        with pytest.raises(NotAFormulaCellError):
            graph.fan_out(C(1, 1, 1))


class TestGraph:
    def test_empty_workbook_gives_empty_graph(self):
        graph = build_graph(make_workbook([("S", {"A1": 3})]))
        assert not graph.formula_cells() and graph.reverse == {}

    def test_two_cell_cycle(self):
        workbook = make_workbook([("S", {"A1": "=B1", "B1": "=A1"})])
        graph = build_graph(workbook)
        assert graph.reverse == {C(1, 1, 2): {C(1, 1, 1)}, C(1, 1, 1): {C(1, 1, 2)}}
        assert graph.fan_in(C(1, 1, 1)) == 1
        assert graph.fan_in(C(1, 1, 2)) == 1

    def test_fan_out_counts_expanded_range(self):
        workbook = make_workbook([("S", {"A1": "=SUM(B1:B10)"})])
        assert build_graph(workbook).fan_out(C(1, 1, 1)) == 10

    def test_fan_in_zero_for_unreferenced_formula(self):
        workbook = make_workbook([("S", {"A1": "=1+1"})])
        assert build_graph(workbook).fan_in(C(1, 1, 1)) == 0

    def test_fan_queries_reject_non_formula_cells(self):
        workbook = make_workbook([("S", {"A1": "=B1", "B1": 2})])
        graph = build_graph(workbook)
        with pytest.raises(NotAFormulaCellError):
            graph.fan_out(C(1, 1, 2))
        with pytest.raises(NotAFormulaCellError):
            graph.fan_in(C(1, 9, 9))

    def test_parse_failures_are_not_in_the_graph(self):
        workbook = make_workbook([("S", {"A1": "=1+", "B1": "=2"})])
        graph = build_graph(workbook)
        assert set(graph.formula_cells()) == set(graph.dangling) == set(graph.anchors) == {C(1, 1, 2)}

    def test_dangling_counts_recorded_per_formula(self):
        workbook = make_workbook([("S", {"A1": "=nope+Missing!A1+B1"})])
        graph = build_graph(workbook)
        assert graph.dangling[C(1, 1, 1)] == 2


class TestGraphProperties:
    @given(st.integers(0, 2**48))
    @settings(max_examples=120, deadline=None)
    def test_reverse_is_exact_transpose(self, seed):
        workbook = read_interchange(gen_workbook_doc(random.Random(seed)))
        graph = build_graph(workbook)
        rebuilt: dict = {}
        for source, (cells, _) in oracle.expansions(workbook).items():
            for target in cells:
                rebuilt.setdefault(target, set()).add(source)
        assert {k: frozenset(v) for k, v in rebuilt.items()} == graph.reverse

    @given(st.integers(0, 2**48))
    @settings(max_examples=120, deadline=None)
    def test_transpose_identity_of_edge_counts(self, seed):
        workbook = read_interchange(gen_workbook_doc(random.Random(seed)))
        graph = build_graph(workbook)
        expanded = oracle.expansions(workbook)
        formulas = set(graph.formula_cells())
        assert formulas == set(expanded)
        internal_edges = sum(len(cells & formulas) for cells, _ in expanded.values())
        assert internal_edges == sum(graph.fan_in(f) for f in formulas)


def _grid_corner_workbook():
    """Single cells and 2x2 blocks at the four grid corners of three
    adjacent sheets, some stored, some formulas, some blank, plus full-row
    and full-column ranges on the small used box of a fourth sheet."""
    corners = ("A1", "XFD1", "A1048576", "XFD1048576")
    blocks = ("A1:B2", "XFC1:XFD2", "A1048575:B1048576", "XFC1048575:XFD1048576")
    return make_workbook(
        [
            ("One", {
                "A1": 1, "XFD1": 2, "A1048576": 3,
                "XFD1048576": "=" + "+".join(f"Two!{c}" for c in corners),
                "B2": "=A1+XFD1+A1048576+XFD1048576",
                "C2": "=SUM(" + ",".join(f"Two!{b}" for b in blocks) + ")",
                "D2": "=SUM(Box!B:B,Box!4:4,Box!C:D)+Three!XFD1048576",
            }),
            ("Two", {
                "A1": "=One!XFD1048576+SUM(Three!A1:B2)+Three!A1",
                "XFD1": 4, "A1048576": None,
                "B2": "=SUM(One!XFC1048575:XFD1048576,Three!A1:B2)+One!XFD1048576+Three!XFD1",
                "C3": "=SUM(" + ",".join(f"Three!{b}" for b in blocks) + ")+One!A1048576",
            }),
            ("Three", {
                "A1": 5, "XFD1": "=SUM(A1:B2)+SUM(XFC1:XFD2)+A1048576+XFD1048576+One!A1",
                "XFD1048576": "=SUM(XFC1048575:XFD1048576,Two!XFC1:XFD2,Box!2:3)",
            }),
            ("Box", {
                "B2": 6, "D5": 7,
                "C3": "=SUM(A:A,3:3,B:C)+Three!XFD1048576+SUM(Three!XFC1048575:XFD1048576)",
                "C4": "=SUM(C:C)+One!A1+Two!XFD1",
            }),
        ]
    )


def _corner_anchors(expr, sheet, workbook) -> tuple:
    """The corners of the cells each reference of `expr` covers, by the
    oracle's own expansion of that reference alone, in coordinate order."""
    found, stack = set(), [expr]
    while stack:
        node = stack.pop()
        stack.extend(oracle.children(node))
        if isinstance(node, (Reference, Range)):
            cells, _ = oracle.expand(node, sheet, workbook)
            if cells:
                rows = {row for _, row, _ in cells}
                cols = {col for _, _, col in cells}
                (target,) = {s for s, _, _ in cells}
                found |= {C(target, r, c) for r in (min(rows), max(rows)) for c in (min(cols), max(cols))}
    return tuple(sorted(found))


class TestGridCorners:
    def test_corner_points_and_full_ranges_match_oracle(self):
        # A packed point key that collided across sheets, rows or columns,
        # or decoded to another cell, would change a count, an anchor or a
        # distance here.
        workbook = _grid_corner_workbook()
        graph = build_graph(workbook)
        expanded = oracle.expansions(workbook)
        assert set(graph.formula_cells()) == set(expanded)
        stored = {C(sheet.index, row, col) for sheet in workbook.sheets for row, col in sheet.cells}
        referenced: set = set()
        covering: dict = {}
        for source, (cells, dangling) in expanded.items():
            cell = workbook.sheets[source.sheet - 1].cells[source.row, source.col]
            assert graph.fan_out(source) == len(cells), source
            assert graph.dangling[source] == dangling, source
            assert graph.anchors[source] == _corner_anchors(cell.formula.expr, source.sheet, workbook), source
            assert graph.spreading_factor(source) == oracle.spreading(cells), source
            referenced |= cells
            for target in cells:
                covering[target] = covering.get(target, 0) + 1
        for source in expanded:
            assert graph.fan_in(source) == covering.get(tuple(source), 0), source
        assert graph.cover_counts == {C(*t): n for t, n in covering.items() if C(*t) in stored}
        assert graph.unstored_references == len({C(*t) for t in referenced} - stored)
        assert graph.unstored_references > 0 and max(graph.cover_counts.values()) > 1


def _overlap_workbook(rng: random.Random):
    """Formulas summing several overlapping blocks and single cells on a
    small grid, some of them cross-sheet, next to stored literals."""

    def ref(cross_sheet: bool):
        prefix = "Two!" if cross_sheet and rng.random() < 0.2 else ""
        c1, r1 = rng.randint(1, 7), rng.randint(1, 9)
        if rng.random() < 0.3:
            return f"{prefix}{column_index_to_letter(c1)}{r1}"
        c2, r2 = rng.randint(c1, 8), rng.randint(r1, 12)
        return f"{prefix}{column_index_to_letter(c1)}{r1}:{column_index_to_letter(c2)}{r2}"

    sheets = []
    for name in ("One", "Two"):
        cells = {}
        for _ in range(rng.randint(1, 25)):
            key = f"{column_index_to_letter(rng.randint(1, 8))}{rng.randint(1, 12)}"
            if rng.random() < 0.5:
                terms = ",".join(ref(name == "One") for _ in range(rng.randint(1, 6)))
                cells[key] = f"=SUM({terms})"
            else:
                cells[key] = rng.randint(0, 9)
        sheets.append((name, cells))
    return make_workbook(sheets)


class TestRectangleCounts:
    @given(st.integers(0, 2**48))
    @settings(max_examples=150, deadline=None)
    def test_overlapping_blocks_match_brute_force(self, seed):
        workbook = _overlap_workbook(random.Random(seed))
        graph = build_graph(workbook)
        record = compute_record(workbook, graph)
        expected = oracle.record(workbook)
        assert record.input_cells == expected["inputCells"]
        for metric_id in ("M05", "M09", "M10", "M11", "M12"):
            assert record.metrics[metric_id] == pytest.approx(expected[metric_id]), metric_id
        expanded = oracle.expansions(workbook)
        for coord in graph.formula_cells():
            assert graph.fan_out(coord) == len(expanded[coord][0])
            assert graph.fan_in(coord) == len(graph.reverse.get(coord, ()))


def _running_sum(col: int, row: int) -> Formula:
    """SUM($X$1:X{row}) over column `col`, built without the parser."""
    letter = column_index_to_letter(col)
    rng = Range(CellLocator(1, col, True, True), CellLocator(row, col))
    return Formula(f"SUM(${letter}$1:{letter}{row})", Function("SUM", (rng,)))


def _double(col: int, row: int) -> Formula:
    """X{row}*2 for column `col`, built without the parser."""
    ref = Reference(locator=CellLocator(row, col))
    product = Operator(OpKind.MUL, (ref, Constant(ValueType.NUMBER, "2")))
    return Formula(f"{column_index_to_letter(col)}{row}*2", product)


def _column_workbook(columns: dict[int, list[Formula]], values: dict[int, int] | None = None):
    """One sheet: the formulas of each column from row 1 down, plus literal
    cells in rows 1..rows of each `values` column."""
    cells = {}
    for col, formulas in columns.items():
        for row, formula in enumerate(formulas, start=1):
            cells[(row, col)] = Cell(formula)
    for col, rows in (values or {}).items():
        for row in range(1, rows + 1):
            cells[(row, col)] = LITERAL_CELL
    return Workbook("cost", (Worksheet("S", 1, cells),), {})


class TestCostIndependentOfCoveredArea:
    def test_whole_grid_range(self):
        workbook = make_workbook([("S", {"B2": "=SUM(A1:XFD1048576)"})])
        record = compute_record(workbook, build_graph(workbook))
        assert record.metrics["M10"] == 17_179_869_184
        assert record.metrics["M05"] == 17_179_869_183
        assert record.metrics["M12"] == 1  # B2 lies inside its own range

    def test_running_sum_and_full_columns_stay_small(self):
        rows = 20_000
        workbook = _column_workbook(
            {
                2: [_running_sum(1, r) for r in range(1, rows + 1)],
                3: [Formula("SUM(A:A)", parse_text("SUM(A:A)"))] * 50,
            },
            values={1: rows},
        )
        tracemalloc.start()
        try:
            record = compute_record(workbook, build_graph(workbook))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert record.metrics["M05"] == rows
        assert record.metrics["M10"] == rows
        assert record.metrics["M12"] == 0
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_running_sum_over_formula_column(self):
        rows = 20_000
        workbook = _column_workbook(
            {
                2: [_double(1, r) for r in range(1, rows + 1)],
                3: [_running_sum(2, r) for r in range(1, rows + 1)],
            }
        )
        record = compute_record(workbook, build_graph(workbook))
        assert record.metrics["M11"] == 5000.25
        assert record.metrics["M12"] == rows
