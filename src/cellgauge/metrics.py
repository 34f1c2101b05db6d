"""Per-formula complexity measures and their per-workbook aggregation.

The public record carries 22 metric values under the stable column ids
M01..M22 plus bookkeeping counts; `METRICS` defines each of them in one
row. Averages over an empty formula set and ratios with a zero denominator
are absent (None), never zero. The cell counts, the per-formula lists and
the parsed trees are all read off the graph, which collects them in its
one walk over the stored cells.
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

# The paper's 22 metrics, one row each: (id, name, aggregation, source).
# A "count" is the workbook count its source names, a "ratio" that of its
# (numerator, denominator) counts. "avg", "max" and "distinct" aggregate
# one value per parsed formula: an `AstMetrics` field or one of the graph's
# per-formula lists.
METRICS = (
    ("M01", "avgAstDepth", "avg", "ast_depth"),
    ("M02", "maxAstDepth", "max", "ast_depth"),
    ("M03", "formulaCellCount", "count", "formula_cells"),
    ("M04", "formulaToNonEmptyRatio", "ratio", ("formula_cells", "non_empty_cells")),
    ("M05", "inputCellCount", "count", "input_cells"),
    ("M06", "inputToNonEmptyRatio", "ratio", ("input_cells", "non_empty_cells")),
    ("M07", "formulaToInputRatio", "ratio", ("formula_cells", "input_cells")),
    ("M08", "distinctFormulaCount", "distinct", "normalized_key"),
    ("M09", "avgFanOut", "avg", "fan_outs"),
    ("M10", "maxFanOut", "max", "fan_outs"),
    ("M11", "avgFanIn", "avg", "fan_ins"),
    ("M12", "maxFanIn", "max", "fan_ins"),
    ("M13", "avgConditionals", "avg", "conditional_count"),
    ("M14", "maxConditionals", "max", "conditional_count"),
    ("M15", "avgSpreadingFactor", "avg", "spreads"),
    ("M16", "maxSpreadingFactor", "max", "spreads"),
    ("M17", "avgFunctions", "avg", "function_count"),
    ("M18", "maxFunctions", "max", "function_count"),
    ("M19", "avgDistinctFunctions", "avg", "distinct_function_count"),
    ("M20", "maxDistinctFunctions", "max", "distinct_function_count"),
    ("M21", "avgElements", "avg", "element_count"),
    ("M22", "maxElements", "max", "element_count"),
)

METRIC_IDS = tuple(row[0] for row in METRICS)


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
    """All 22 metrics for one workbook, one per row of `METRICS`.

    Formula cells that failed to parse count toward the formula-cell tally
    and its ratios but are excluded from AST-derived statistics. Everything
    is read off the graph: its cell counts, its per-formula lists as they
    are and its parsed trees, each distinct tree measured once (a
    shared-formula follower's tree is mostly its master's; see
    `DependencyGraph.exprs`); no stored cell is visited again.
    """
    measured: dict[int, AstMetrics] = {}  # id of a tree -> its measures
    trees = []
    for expr in graph.exprs:
        tree = measured.get(id(expr))
        if tree is None:
            tree = measured[id(expr)] = ast_metrics(expr, conditional_functions)
        trees.append(tree)
    counts = {"formula_cells": graph.formula_count, "non_empty_cells": graph.non_empty_count,
              "input_cells": graph.input_cells}
    metrics: dict[str, float | int | None] = {}
    for metric_id, _, aggregation, source in METRICS:
        if aggregation == "count":
            metrics[metric_id] = counts[source]
        elif aggregation == "ratio":
            metrics[metric_id] = _ratio(counts[source[0]], counts[source[1]])
        else:
            values = [getattr(m, source) for m in trees] if source in AstMetrics._fields else getattr(graph, source)
            if not values:  # no formula parsed
                metrics[metric_id] = None
            elif aggregation == "avg":
                metrics[metric_id] = math.fsum(values) / len(values)
            elif aggregation == "max":
                metrics[metric_id] = max(values)
            else:
                metrics[metric_id] = len(set(values))

    return MetricRecord(
        workbook_id=workbook_id if workbook_id is not None else workbook.name,
        sheet_count=len(workbook.sheets),
        parse_failures=graph.formula_count - len(trees),
        metrics=metrics,
        **counts,
    )
