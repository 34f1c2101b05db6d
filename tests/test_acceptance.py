"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the suite is self-contained except for the optional corpus smoke test
(set CELLGAUGE_EUSES_DIR to a locally obtained corpus directory to enable).
"""

from __future__ import annotations

import json
import math
import os
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from cellgauge.analytics import aggregate, histogram
from cellgauge.cli import analyze_workbook
from cellgauge.cli import main as cli_main
from cellgauge.expressions import column_index_to_letter
from cellgauge.graph import build_graph
from cellgauge.interchange import read_interchange, read_interchange_file
from cellgauge.metrics import METRIC_IDS, ast_metrics, compute_record
from cellgauge.model import CellCoordinate, Workbook, Worksheet
from cellgauge.parser import parse_formula, parse_text

from . import oracle
from .genutil import gen_expr, gen_workbook_doc, make_workbook, write_corpus
from .test_analytics import pair

FIXTURES = Path(__file__).parent / "fixtures"


@contextmanager
def criterion(label: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS ({time.perf_counter() - started:.2f}s)")


def test_c1_golden_workbook_matches_brute_force_oracle():
    with criterion("C1 golden workbook G1 vs oracle"):
        started = time.perf_counter()
        workbook = read_interchange_file(FIXTURES / "g1.json")
        record = compute_record(workbook, build_graph(workbook))
        expected = oracle.record(workbook)
        assert record.sheet_count == expected["sheetCount"]
        assert record.non_empty_cells == expected["nonEmptyCells"]
        assert record.formula_cells == expected["formulaCells"]
        assert record.parse_failures == expected["parseFailures"]
        _assert_matches_oracle(record, expected)
        assert time.perf_counter() - started < 1.0


def _assert_matches_oracle(record, expected):
    assert record.input_cells == expected["inputCells"]
    for metric_id in METRIC_IDS:
        got = record.metrics[metric_id]
        want = expected[metric_id]
        if want is None:
            assert got is None, metric_id
        elif isinstance(want, float):
            assert got == pytest.approx(want, abs=1e-9), metric_id
        else:
            assert got == want, metric_id


def test_c1_generated_workbooks_match_brute_force_oracle():
    # Overlapping ranges, full rows and columns, defined names and
    # cross-sheet references all occur in the generated workbooks.
    with criterion("C1 500 generated workbooks vs oracle"):
        rng = random.Random(0xC1)
        for _ in range(500):
            workbook = read_interchange(gen_workbook_doc(rng))
            _assert_matches_oracle(analyze_workbook(workbook), oracle.record(workbook))


def test_c2_parser_round_trip_fuzz_and_precedence():
    with criterion("C2 parser round-trip + fuzz totality + precedence"):
        started = time.perf_counter()

        # serialize∘parse fixpoint on generated formulas
        rng = random.Random(0xC2)
        checked = 0
        while checked < 1000:
            text = gen_expr(rng, depth=3, sheets=("Alpha", "Beta Data"))
            first = parse_text(text)
            from cellgauge.expressions import serialize

            assert parse_text(serialize(first)) == first, text
            checked += 1

        # precedence anchors
        anchor = parse_text("-2^2")
        assert anchor.kind.value == "pow"
        assert anchor.operands[0].kind.value == "unaryMinus"
        assert parse_text("2^3^2").operands[0].kind.value == "pow"
        assert parse_text("1+2*3").kind.value == "add"
        assert parse_text("2^50%").operands[1].kind.value == "percent"

        # fuzz totality: no crash on random byte strings
        rng = random.Random(0xF022)
        for _ in range(100_000):
            length = rng.randrange(0, 24)
            raw = bytes(rng.randrange(256) for _ in range(length))
            formula = parse_formula(raw.decode("latin-1"))
            assert (formula.expr is None) == (formula.error is not None)
        assert time.perf_counter() - started < 60.0


def test_c3_metric_invariants_on_generated_formulas():
    with criterion("C3 metric invariants on 1000+ formulas"):
        rng = random.Random(0xC3)
        for _ in range(1200):
            expr = parse_text(gen_expr(rng, depth=3))
            depth, elements, total, distinct, conditionals, _ = ast_metrics(expr)
            assert depth >= 1
            assert depth <= elements
            assert distinct <= total <= elements
            assert conditionals <= total

        rng = random.Random(0x1C3)
        for _ in range(60):
            workbook = read_interchange(gen_workbook_doc(rng))
            record = compute_record(workbook, build_graph(workbook))
            m = record.metrics
            if m["M08"] is not None:
                assert m["M08"] <= m["M03"]
            if m["M04"] is not None:
                assert 0.0 <= m["M04"] <= 1.0
            for avg_id, max_id in (
                ("M01", "M02"), ("M09", "M10"), ("M11", "M12"), ("M13", "M14"),
                ("M15", "M16"), ("M17", "M18"), ("M19", "M20"), ("M21", "M22"),
            ):
                if m[avg_id] is not None:
                    assert m[avg_id] <= m[max_id] + 1e-12


def _all_rects(size: int):
    for r1 in range(1, size + 1):
        for r2 in range(r1, size + 1):
            for c1 in range(1, size + 1):
                for c2 in range(c1, size + 1):
                    yield r1, c1, r2, c2


def _range_text(sheet: str, rect) -> str:
    r1, c1, r2, c2 = rect
    return f"{sheet}!{column_index_to_letter(c1)}{r1}:{column_index_to_letter(c2)}{r2}"


def test_c4_spreading_factor_corner_shortcut_is_exact():
    with criterion("C4 spreading factor: corners == full brute force (exhaustive)"):
        grids = ("Grid1", "Grid2", "Grid3")

        # Single ranges: every rectangle in a 10x10 grid on each of 3 sheets.
        cells: dict[str, str] = {}
        row = 1
        for sheet_index, sheet in enumerate(grids):
            for rect in _all_rects(10):
                cells[f"{column_index_to_letter(1 + sheet_index)}{row}"] = (
                    f"=SUM({_range_text(sheet, rect)})"
                )
                row += 1
        single = make_workbook(
            [(g, {}) for g in grids] + [("Host", cells)], name="single-ranges"
        )
        graph = build_graph(single)
        host = 4
        for coord, (cells, _) in oracle.expansions(single).items():
            assert coord.sheet == host
            engine = graph.spreading_factor(coord)
            brute = oracle.spreading(cells)
            assert engine == brute  # exact float equality

        # Range pairs: every unordered pair of rectangles in a 3x3 grid across
        # 3 sheets, exercising the sheet axis of the distance.
        rects = [
            (sheet, rect) for sheet in grids for rect in _all_rects(3)
        ]
        pair_cells: dict[str, str] = {}
        row = 1
        col = 0
        for i in range(len(rects)):
            for j in range(i, len(rects)):
                ref = f"{column_index_to_letter(1 + col)}{row}"
                pair_cells[ref] = (
                    f"=SUM({_range_text(*rects[i])})+SUM({_range_text(*rects[j])})"
                )
                row += 1
                if row > 5000:
                    row = 1
                    col += 1
        pairs = make_workbook(
            [(g, {}) for g in grids] + [("Host", pair_cells)], name="range-pairs"
        )
        graph = build_graph(pairs)
        for coord, (cells, _) in oracle.expansions(pairs).items():
            engine = graph.spreading_factor(coord)
            brute = oracle.spreading(cells)
            assert engine == brute


def test_c5_graph_transpose_and_deduplication_on_100_workbooks():
    with criterion("C5 dependency graph transpose + dedup on 100 workbooks"):
        dedup = make_workbook([("S", {"A1": "=B2+B2"})])
        assert build_graph(dedup).fan_out(CellCoordinate(1, 1, 1)) == 1

        rng = random.Random(0xC5)
        for _ in range(100):
            workbook = read_interchange(gen_workbook_doc(rng))
            graph = build_graph(workbook)
            expanded = oracle.expansions(workbook)
            formulas = set(graph.formula_cells())
            assert formulas == set(expanded)
            # fan-out and dangling counts match naive expansion (includes dedup)
            for coord, (cells, dangling) in expanded.items():
                assert graph.fan_out(coord) == len(cells)
                assert graph.dangling[coord] == dangling
            # reverse is the exact transpose of the naive expansion
            rebuilt: dict = {}
            for source, (cells, _) in expanded.items():
                for target in cells:
                    rebuilt.setdefault(target, set()).add(source)
            assert {k: frozenset(v) for k, v in rebuilt.items()} == graph.reverse
            # edge-count identity; fan-in agrees with the cell-level view
            internal = sum(len(cells & formulas) for cells, _ in expanded.values())
            assert internal == sum(graph.fan_in(f) for f in formulas)
            for coord in formulas:
                assert graph.fan_in(coord) == len(graph.reverse.get(coord, ()))


def test_c6_analytics_anchors_and_conservation():
    with criterion("C6 analytics: Pearson anchors, conservation, duplication"):
        xs = [1.0, 2.0, 3.0, 5.0, 8.0]
        assert pair(xs, xs)[0] == pytest.approx(1.0, abs=1e-12)
        assert pair(xs, [-x for x in xs])[0] == pytest.approx(-1.0, abs=1e-12)

        # Hand sigma-formula oracle: n*Sxy - Sx*Sy over sqrt terms.
        def sigma_pearson(x, y):
            n = len(x)
            sx, sy = sum(x), sum(y)
            sxx, syy = sum(v * v for v in x), sum(v * v for v in y)
            sxy = sum(a * b for a, b in zip(x, y))
            return (n * sxy - sx * sy) / math.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))

        # Three-point anchor, checked against the sigma-formula hand oracle at
        # the 5e-5 tolerance. Note: the hand oracle puts (1,2,3)/(2,4,7) at
        # 15/sqrt(228) = 0.993399...; a 0.9819-shaped value only arises from
        # y=(2,4,8), whose r is 18/sqrt(336) = 0.981981 (0.9819 truncated to
        # four decimals). Both variants are pinned against the oracle.
        hand = sigma_pearson([1.0, 2.0, 3.0], [2.0, 4.0, 7.0])
        assert hand == pytest.approx(15 / math.sqrt(228), abs=1e-12)
        got, _ = pair([1.0, 2.0, 3.0], [2.0, 4.0, 7.0])
        assert got == pytest.approx(hand, abs=5e-5)
        got_alt, _ = pair([1.0, 2.0, 3.0], [2.0, 4.0, 8.0])
        assert got_alt == pytest.approx(18 / math.sqrt(336), abs=1e-12)
        assert f"{got_alt:.5f}"[:6] == "0.9819"
        assert got_alt == pytest.approx(sigma_pearson([1.0, 2.0, 3.0], [2.0, 4.0, 8.0]), abs=5e-5)

        rng = random.Random(0xC6)
        for _ in range(10):
            workbooks = [read_interchange(gen_workbook_doc(rng)) for _ in range(30)]
            records = [compute_record(w, build_graph(w)) for w in workbooks]
            for metric_id in ("M04", "M09", "M21"):
                present = sum(1 for r in records if r.metrics[metric_id] is not None)
                if not present:
                    continue
                for spec in ({}, {"bins": 7}, {"bins": 5, "bounds": (0.0, 2.0)}):
                    h = histogram(records, metric_id, **spec)
                    assert sum(h.counts) == present
            once = aggregate(records)
            twice = aggregate(records + records)
            assert once.ratio_with_formulas == twice.ratio_with_formulas
            assert once.per_metric == twice.per_metric


def test_c7_corpus_determinism_across_parallelism(tmp_path):
    with criterion("C7 corpus determinism: 1 thread vs N threads, 200 files"):
        corpus = tmp_path / "corpus"
        write_corpus(corpus, 200, seed=0xC7)
        single = tmp_path / "single.csv"
        parallel = tmp_path / "parallel.csv"
        assert (
            cli_main(
                ["corpus", str(corpus), "--out", str(single), "--threads", "1", "--quiet"]
            )
            == 0
        )
        assert (
            cli_main(
                ["corpus", str(corpus), "--out", str(parallel), "--threads", "4", "--quiet"]
            )
            == 0
        )
        assert single.read_bytes() == parallel.read_bytes()


def _performance_workbook() -> Workbook:
    """10,000 formula cells with ranges of up to 100 cells."""
    from cellgauge.model import LITERAL_CELL, Cell

    rng = random.Random(0xC8)
    data_cells = {}
    for row in range(1, 101):
        for col in range(1, 11):
            data_cells[(row, col)] = LITERAL_CELL
    formula_cells = {}
    for i in range(10_000):
        row = i + 1
        col_letter = column_index_to_letter(rng.randint(1, 10))
        start = rng.randint(1, 80)
        span = rng.randint(0, 99)
        end = min(100, start + span)
        text = f"SUM(Data!{col_letter}{start}:{col_letter}{end})+Data!A{rng.randint(1, 100)}*2"
        formula_cells[(row, 1)] = Cell(parse_formula(text))
    return Workbook(
        "performance",
        (Worksheet("Data", 1, data_cells), Worksheet("Calc", 2, formula_cells)),
        {},
    )


def test_c8_performance_10k_formula_cells():
    with criterion("C8 performance: 10k formulas end-to-end < 5s"):
        workbook = _performance_workbook()
        started = time.perf_counter()
        record = compute_record(workbook, build_graph(workbook))
        elapsed = time.perf_counter() - started
        assert record.metrics["M03"] == 10_000
        assert record.parse_failures == 0
        assert elapsed < 5.0, f"analysis took {elapsed:.2f}s"


@pytest.mark.skipif(
    not os.environ.get("CELLGAUGE_EUSES_DIR"),
    reason="optional corpus smoke: set CELLGAUGE_EUSES_DIR to run",
)
def test_c9_optional_corpus_smoke(tmp_path):
    with criterion("C9 optional corpus smoke (directional)"):
        corpus_dir = os.environ["CELLGAUGE_EUSES_DIR"]
        out = tmp_path / "euses.json"
        code = cli_main(
            ["corpus", corpus_dir, "--out", str(out), "--format", "json", "--summary", "--quiet"]
        )
        assert code == 0
        summary = json.loads(
            (tmp_path / "euses.summary.json").read_text(encoding="utf-8")
        )
        ratio = summary["ratioWithFormulas"]
        assert 0.33 <= ratio <= 0.53  # 43% +/- 10 points
        avg_fan_out = summary["perMetric"]["M09"]
        assert avg_fan_out is not None and 50 <= avg_fan_out <= 500
