"""Per-layer tracing of an in-process, single-worker corpus run.

Spans are recorded from outside the program: each layer's public function is
replaced, for the duration of a pass, by a wrapper in the namespace where its
caller looks it up (``from .parser import parse_formula`` binds the name in
the importing module, so ``cellgauge.xlsx.parse_formula`` is the name to
replace, not ``cellgauge.parser.parse_formula``).

A layer's self time is its span minus the spans of its children. Counters
are computed inside wrappers with the trace clock paused, so counting costs
no span any time; ``cli.other_s`` is the traced time no span covers, so the
layer self times plus ``cli.other_s`` sum to ``trace.total_s``.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import Counter
from dataclasses import dataclass, field

# (module, attribute, layer): where each layer's public function is looked up.
WRAPPED = (
    ("cellgauge.cli", "load_workbook", "cli"),
    ("cellgauge.cli", "analyze_workbook", "cli"),
    ("cellgauge.cli", "read_xlsx", "xlsx"),
    ("cellgauge.cli", "read_interchange_file", "interchange"),
    ("cellgauge.xlsx", "parse_formula", "parser"),
    ("cellgauge.interchange", "parse_formula", "parser"),
    ("cellgauge.interchange", "parse_text", "parser"),  # defined-name targets, both readers
    ("cellgauge.parser", "tokenize", "lexer"),
    ("cellgauge.cli", "build_graph", "graph"),
    ("cellgauge.cli", "classify_cells", "model"),
    ("cellgauge.cli", "compute_record", "metrics"),
    ("cellgauge.cli", "aggregate", "analytics"),
    ("cellgauge.cli", "histogram", "analytics"),
    ("cellgauge.cli", "correlation_matrix", "analytics"),
    ("cellgauge.cli", "write_report", "reports"),
    ("cellgauge.cli", "render_report", "reports"),
)
LAYERS = ("cli", "xlsx", "interchange", "lexer", "parser", "graph", "model", "metrics", "analytics", "reports")

TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)


@dataclass
class _Frame:
    start: float
    child: float = 0.0  # summed durations of child spans


@dataclass
class PassTrace:
    """Spans and counters of one traced pass."""

    self_s: Counter = field(default_factory=Counter)  # by "layer" and by "layer.function"
    calls: Counter = field(default_factory=Counter)  # by "module.function"
    counts: Counter = field(default_factory=Counter)
    formula_texts: set = field(default_factory=set)
    top_spans: list = field(default_factory=list)  # (function, start, end) of cli spans
    total_s: float = 0.0  # trace clock, counting time excluded
    wall_s: float = 0.0  # real time, counting time included


class Tracer:
    def __init__(self):
        self.trace = PassTrace()
        self._stack: list[_Frame] = []
        self._paused = 0.0
        self._patches: list[tuple[object, str, object]] = []

    def clock(self) -> float:
        return time.perf_counter() - self._paused

    def _count(self, fn, *args) -> None:
        started = time.perf_counter()
        fn(*args)
        self._paused += time.perf_counter() - started

    def _wrap(self, module, attr: str, layer: str):
        original = getattr(module, attr)
        key = f"{layer}.{attr}"
        call_key = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        counter = getattr(self, f"_on_{attr}", None)
        stack, trace = self._stack, self.trace

        def wrapper(*args, **kwargs):
            frame = _Frame(self.clock())
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                end = self.clock()
                stack.pop()
                duration = end - frame.start
                own = duration - frame.child
                trace.self_s[layer] += own
                trace.self_s[key] += own
                trace.calls[call_key] += 1
                if stack:
                    stack[-1].child += duration
                if layer == "cli":
                    trace.top_spans.append((attr, frame.start, end))
            if counter is not None:
                self._count(counter, result, *args)
            return result

        return original, wrapper

    def __enter__(self):
        for module_name, attr, layer in WRAPPED:
            module = importlib.import_module(module_name)
            original, wrapper = self._wrap(module, attr, layer)
            self._patches.append((module, attr, original))
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        return False

    # Counters, one per wrapped function that has one; run with the clock paused.

    def _on_tokenize(self, tokens, *args):
        self.trace.counts["lexer.tokens"] += len(tokens)

    def _on_parse_formula(self, formula, *args):
        self.trace.counts["parser.formula_calls"] += 1
        self.trace.counts["parser.failures"] += formula.expr is None

    def _on_read_xlsx(self, workbook, *args):
        self.trace.counts["xlsx.cells"] += sum(len(sheet.cells) for sheet in workbook.sheets)

    def _on_read_interchange_file(self, workbook, *args):
        self.trace.counts["interchange.cells"] += sum(len(sheet.cells) for sheet in workbook.sheets)

    def _on_build_graph(self, graph, workbook, *args):
        counts = self.trace.counts
        rectangles, area = _rectangles(workbook)
        counts["graph.rectangles"] += rectangles
        counts["graph.rectangle_area"] += area
        counts["graph.expanded_cells"] += sum(graph.fan_out(coord) for coord in graph.formula_cells())
        counts["graph.reverse_edges"] += sum(len(sources) for sources in graph.reverse.values())
        counts["graph.dangling"] += sum(graph.dangling.values())

    def _on_classify_cells(self, kinds, *args):
        self.trace.counts["model.classified_cells"] += len(kinds)

    def _on_compute_record(self, record, workbook, graph, *args):
        counts = self.trace.counts
        for points in graph.anchors.values():
            counts["metrics.anchor_pairs"] += len(points) * (len(points) - 1) // 2
        for cell in workbook.iter_cells():
            if cell.formula is not None:
                counts["metrics.formula_cells"] += 1
                self.trace.formula_texts.add(cell.formula.text)


def _rectangles(workbook) -> tuple[int, int]:
    """(range references in parsed formulas, cells they cover after clipping).

    A defined name whose target is a sheet-qualified range counts as a range.
    Full-row and full-column ranges clip to the sheet's used box, as the
    graph resolves them.
    """
    from cellgauge.expressions import Range, Reference, walk
    from cellgauge.tokens import MAX_COL, MAX_ROW

    def extent(lo, hi, limit, used):
        if lo is None or hi is None:
            return used
        lo, hi = max(1, min(lo, hi)), min(limit, max(lo, hi))
        return hi - lo + 1 if hi >= lo else 0

    def area(rng: Range, own_sheet: int) -> int:
        index = own_sheet if rng.sheet is None else workbook.sheet_index(rng.sheet)
        if index is None:
            return 0
        box = workbook.sheet(index).used_box()
        used_rows = box[2] - box[0] + 1 if box else 0
        used_cols = box[3] - box[1] + 1 if box else 0
        return extent(rng.start.row, rng.end.row, MAX_ROW, used_rows) * extent(
            rng.start.col, rng.end.col, MAX_COL, used_cols
        )

    count = covered = 0
    for sheet in workbook.sheets:
        for cell in sheet.cells.values():
            if cell.formula is None or cell.formula.expr is None:
                continue
            for node in walk(cell.formula.expr):
                if isinstance(node, Reference) and node.by_name and not node.external:
                    defined = workbook.defined_name(node.name)
                    node = defined.expr if defined is not None else None
                    if not (isinstance(node, Range) and node.sheet is not None):
                        continue
                if isinstance(node, Range) and not node.external:
                    count += 1
                    covered += area(node, sheet.index)
    return count, covered


def traced_pass(run_cli_main) -> PassTrace:
    """Run ``run_cli_main()`` (an in-process, one-worker corpus run) traced."""
    tracer = Tracer()
    with tracer:
        wall_start = time.perf_counter()
        start = tracer.clock()
        status = run_cli_main()
        tracer.trace.total_s = tracer.clock() - start
        tracer.trace.wall_s = time.perf_counter() - wall_start
    if status != 0:
        raise RuntimeError(f"in-process traced corpus run exited {status}")
    return tracer.trace


def workbook_ms(trace: PassTrace) -> list[float]:
    """Per-workbook time: a load span through the analyze span that follows it."""
    samples, load_start = [], None
    for name, start, end in trace.top_spans:
        if name == "load_workbook":
            if load_start is not None:  # the previous load failed; count it alone
                samples.append(previous_end - load_start)
            load_start, previous_end = start, end
        elif load_start is not None:
            samples.append(end - load_start)
            load_start = None
    if load_start is not None:
        samples.append(previous_end - load_start)
    return [s * 1000 for s in samples]


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    rank = max(0, math.ceil(pct / 100 * len(ordered)) - 1)
    return ordered[rank]


def tail(values: list[float]) -> tuple[str, float]:
    """The highest listed percentile with at least ten samples beyond it;
    the maximum, labelled as such, when there are too few samples."""
    for pct in TAIL_PERCENTILES:
        if len(values) * (100 - pct) / 100 >= 10:
            return f"p{pct:g}", percentile(values, pct)
    return "max", max(values)


def layer_metrics(trace: PassTrace) -> tuple[dict[str, float], dict]:
    """Per-layer metric values of one traced pass, plus details for the record."""
    self_s, counts = trace.self_s, trace.counts
    covered = sum(self_s[layer] for layer in LAYERS)
    other = trace.total_s - covered
    formula_cells = counts["metrics.formula_cells"]
    rectangles = counts["graph.rectangles"]
    samples = workbook_ms(trace)
    tail_label, tail_value = tail(samples) if samples else ("none", 0.0)
    values = {
        "lexer.scan_s": self_s["lexer"],
        "lexer.tokens": counts["lexer.tokens"],
        "lexer.tokens_per_s": counts["lexer.tokens"] / self_s["lexer"] if self_s["lexer"] else 0.0,
        "parser.parse_s": self_s["parser"],
        "parser.calls_per_formula": counts["parser.formula_calls"] / formula_cells if formula_cells else 0.0,
        "parser.failures": counts["parser.failures"],
        "xlsx.self_s": self_s["xlsx"],
        "xlsx.cells": counts["xlsx.cells"],
        "interchange.self_s": self_s["interchange"],
        "interchange.cells": counts["interchange.cells"],
        "graph.build_s": self_s["graph"],
        "graph.rectangles": rectangles,
        "graph.expanded_cells": counts["graph.expanded_cells"],
        "graph.cells_per_rectangle": counts["graph.rectangle_area"] / rectangles if rectangles else 0.0,
        "graph.reverse_edges": counts["graph.reverse_edges"],
        "graph.dangling": counts["graph.dangling"],
        "model.classify_s": self_s["model"],
        "model.classified_cells": counts["model.classified_cells"],
        "metrics.record_s": self_s["metrics"],
        "metrics.anchor_pairs": counts["metrics.anchor_pairs"],
        "metrics.distinct_text_share": len(trace.formula_texts) / formula_cells if formula_cells else 0.0,
        "analytics.aggregate_s": self_s["analytics.aggregate"],
        "analytics.histogram_s": self_s["analytics.histogram"],
        "analytics.correlation_s": self_s["analytics.correlation_matrix"],
        "reports.render_s": self_s["reports"],
        "cli.self_s": self_s["cli"],
        "cli.other_s": other,
        "cli.workbook_ms.p50": percentile(samples, 50) if samples else 0.0,
        "cli.workbook_ms.tail": tail_value,
        "trace.total_s": trace.total_s,
    }
    details = {
        "cli.workbook_ms.tail_percentile": tail_label,
        "cli.workbook_ms.samples": len(samples),
        "calls": dict(sorted(trace.calls.items())),
    }
    return values, details


def accounting_error(trace: PassTrace) -> str | None:
    """Why the pass's time does not add up, or None when it does."""
    negative = {k: v for k, v in trace.self_s.items() if v < -1e-9}
    if negative:
        return f"negative self time: {negative}"
    other = trace.total_s - sum(trace.self_s[layer] for layer in LAYERS)
    if other < -1e-9:
        return f"layer self times exceed the traced total by {-other:.6f} s"
    return None
