"""Per-formula complexity measures and their per-workbook aggregation.

The public record carries 22 metric values under the stable column ids
M01..M22 plus bookkeeping counts. Averages over an empty formula set and
ratios with a zero denominator are absent (None), never zero. Fan-out,
fan-in, the spreading factor and the input-cell count are read off the
graph's per-formula lists and counts; `build_graph` computes the spreading
factor with the fan-out, in one pass per formula.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .expressions import Expr, Value, write_tree
from .graph import DependencyGraph
from .model import Workbook

DEFAULT_CONDITIONAL_FUNCTIONS = frozenset(
    {
        "IF",
        "IFS",
        "IFERROR",
        "IFNA",
        "COUNTIF",
        "COUNTIFS",
        "SUMIF",
        "SUMIFS",
        "AVERAGEIF",
        "AVERAGEIFS",
    }
)

METRIC_IDS = tuple(f"M{i:02d}" for i in range(1, 23))

METRIC_NAMES = {
    "M01": "avgAstDepth",
    "M02": "maxAstDepth",
    "M03": "formulaCellCount",
    "M04": "formulaToNonEmptyRatio",
    "M05": "inputCellCount",
    "M06": "inputToNonEmptyRatio",
    "M07": "formulaToInputRatio",
    "M08": "distinctFormulaCount",
    "M09": "avgFanOut",
    "M10": "maxFanOut",
    "M11": "avgFanIn",
    "M12": "maxFanIn",
    "M13": "avgConditionals",
    "M14": "maxConditionals",
    "M15": "avgSpreadingFactor",
    "M16": "maxSpreadingFactor",
    "M17": "avgFunctions",
    "M18": "maxFunctions",
    "M19": "avgDistinctFunctions",
    "M20": "maxDistinctFunctions",
    "M21": "avgElements",
    "M22": "maxElements",
}


class AstMetrics(NamedTuple):
    """The per-formula measures read off the tree alone."""

    ast_depth: int  # a lone leaf has depth 1, parentheses add a level
    element_count: int  # total node count, every variant included
    function_count: int
    distinct_function_count: int  # distinct uppercase names
    conditional_count: int
    # Copy-equivalence key: formulas that share it have identical structure
    # and differ at most in which cells they point at.
    normalized_key: str


def ast_metrics(
    expr: Expr, conditional_functions: frozenset[str] = DEFAULT_CONDITIONAL_FUNCTIONS
) -> AstMetrics:
    """Depth, element, function and conditional counts and the copy key of
    one tree, from a single pass of the reference-wildcard writer."""
    tree = write_tree(expr, wildcard_refs=True)
    names = tree.functions
    return AstMetrics(
        ast_depth=tree.depth,
        element_count=tree.node_count,
        function_count=len(names),
        distinct_function_count=len(set(names)),
        conditional_count=sum(1 for name in names if name in conditional_functions),
        normalized_key=tree.text,
    )


class MetricRecord(Value):
    __slots__ = ("workbook_id", "sheet_count", "non_empty_cells", "input_cells", "formula_cells", "parse_failures",
                 "metrics")

    def __init__(self, workbook_id: str, sheet_count: int, non_empty_cells: int, input_cells: int,
                 formula_cells: int, parse_failures: int, metrics: dict[str, float | int | None]):
        self.workbook_id = workbook_id
        self.sheet_count = sheet_count
        self.non_empty_cells = non_empty_cells
        self.input_cells = input_cells
        self.formula_cells = formula_cells
        self.parse_failures = parse_failures
        self.metrics = metrics  # keyed by M01..M22


def _ratio(numerator: int, denominator: int) -> float | None:
    return numerator / denominator if denominator else None


def compute_record(
    workbook: Workbook,
    graph: DependencyGraph,
    *,
    conditional_functions: frozenset[str] = DEFAULT_CONDITIONAL_FUNCTIONS,
    workbook_id: str | None = None,
) -> MetricRecord:
    """All 22 metrics for one workbook.

    Formula cells that failed to parse count toward the formula-cell tally
    and its ratios but are excluded from AST-derived statistics. The graph's
    per-formula lists and input count are read as they are.
    """
    non_empty = 0
    all_formula_cells = 0
    trees: list[AstMetrics] = []  # of the parsed formula cells
    for sheet in workbook.sheets:
        for cell in sheet.cells.values():
            if cell.has_content:
                non_empty += 1
            if cell.formula is not None:
                all_formula_cells += 1
                if cell.formula.expr is not None:
                    trees.append(ast_metrics(cell.formula.expr, conditional_functions))
    input_cells = graph.input_cells

    metrics: dict[str, float | int | None] = dict.fromkeys(METRIC_IDS)
    metrics["M03"] = all_formula_cells
    metrics["M04"] = _ratio(all_formula_cells, non_empty)
    metrics["M05"] = input_cells
    metrics["M06"] = _ratio(input_cells, non_empty)
    metrics["M07"] = _ratio(all_formula_cells, input_cells)

    if trees:
        pairs = (
            ("M01", "M02", [m.ast_depth for m in trees]),
            ("M09", "M10", graph.fan_outs),
            ("M11", "M12", graph.fan_ins),
            ("M13", "M14", [m.conditional_count for m in trees]),
            ("M15", "M16", graph.spreads),
            ("M17", "M18", [m.function_count for m in trees]),
            ("M19", "M20", [m.distinct_function_count for m in trees]),
            ("M21", "M22", [m.element_count for m in trees]),
        )
        for avg_id, max_id, values in pairs:
            metrics[avg_id] = math.fsum(values) / len(values)
            metrics[max_id] = max(values)
        metrics["M08"] = len({m.normalized_key for m in trees})

    return MetricRecord(
        workbook_id=workbook_id if workbook_id is not None else workbook.name,
        sheet_count=len(workbook.sheets),
        non_empty_cells=non_empty,
        input_cells=input_cells,
        formula_cells=all_formula_cells,
        parse_failures=all_formula_cells - len(trees),
        metrics=metrics,
    )
