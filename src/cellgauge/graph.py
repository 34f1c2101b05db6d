"""Cell dependency graph: reference resolution, fan-in/fan-out.

Every reference resolves to one clipped rectangle on a sheet; unresolvable
targets (unknown names, missing sheets, external workbooks, #REF!) are
counted as dangling instead of failing. Every graph quantity is computed
from rectangles, so cost grows with the number of formulas and referenced
rectangles, never with the number of cells a range covers:

* fan-out: a formula's rectangles are split into disjoint pieces; fan-out
  is the sum of the piece areas;
* fan-in and the input/label split: one row sweep per workbook (sheets
  stacked into one tall grid), over a cover-count segment tree on the
  compressed column boundaries, counts the formulas covering every stored
  cell; the same sweep measures the area of the union of all referenced
  rectangles (Klee's measure, Bentley 1977).

Single-cell references, the common case, stay out of the sweep and are
counted in dicts. ``DependencyGraph.reverse`` is the one cell-level view,
expanded from the rectangles on first access; the metric pipeline never
reads it.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from functools import cached_property
from typing import NamedTuple

from .expressions import CellLocator, Expr, Range, Reference, reference_nodes
from .model import CellCoordinate, Workbook
from .tokens import MAX_COL, MAX_ROW

# (sheet, first row, first column, last row, last column), bounds inclusive.
Rectangle = tuple[int, int, int, int, int]


class NotAFormulaCellError(LookupError):
    pass


class ResolvedReferences(NamedTuple):  # builds faster than a frozen dataclass
    points: frozenset[CellCoordinate]  # single-cell targets
    rectangles: frozenset[Rectangle]  # targets covering more than one cell
    dangling: int
    # Single-cell targets plus the four corners of every rectangle;
    # sufficient for the maximal pairwise distance over the full cell set.
    anchor_points: tuple[CellCoordinate, ...]


class DependencyGraph:
    """Formula cells, their resolved references and the counts metrics need.

    ``reverse`` (cell -> formulas referencing it) is the exact cell-level
    view of ``references``. It is expanded from the rectangles on first
    access and costs time and memory proportional to the covered area.
    """

    def __init__(
        self,
        references: dict[CellCoordinate, ResolvedReferences],
        fan_outs: dict[CellCoordinate, int],
        cover_counts: dict[CellCoordinate, int],
        unstored_references: int,
    ):
        self.references = references
        self._fan_outs = fan_outs
        # Stored cells referenced by at least one formula -> number of
        # distinct formulas referencing each.
        self.cover_counts = cover_counts
        # Referenced coordinates that hold no stored cell.
        self.unstored_references = unstored_references
        self.dangling = {coord: resolved.dangling for coord, resolved in references.items()}
        self.anchors = {coord: resolved.anchor_points for coord, resolved in references.items()}

    def formula_cells(self):
        return self._fan_outs.keys()

    def fan_out(self, coordinate: CellCoordinate) -> int:
        try:
            return self._fan_outs[coordinate]
        except KeyError:
            raise NotAFormulaCellError(coordinate) from None

    def fan_in(self, coordinate: CellCoordinate) -> int:
        if coordinate not in self._fan_outs:
            raise NotAFormulaCellError(coordinate)
        return self.cover_counts.get(coordinate, 0)

    @cached_property
    def reverse(self) -> dict[CellCoordinate, frozenset[CellCoordinate]]:
        sources: dict[CellCoordinate, set[CellCoordinate]] = defaultdict(set)
        for source, resolved in self.references.items():
            for target in resolved.points:
                sources[target].add(source)
            for sheet, r1, c1, r2, c2 in resolved.rectangles:
                for r in range(r1, r2 + 1):
                    for c in range(c1, c2 + 1):
                        sources[CellCoordinate(sheet, r, c)].add(source)
        return {coord: frozenset(found) for coord, found in sources.items()}


def _clip(lo: int, hi: int, bound_lo: int, bound_hi: int) -> tuple[int, int] | None:
    lo, hi = max(lo, bound_lo), min(hi, bound_hi)
    if lo > hi:
        return None
    return lo, hi


class _Resolver:
    def __init__(self, workbook: Workbook, own_sheet: int):
        self.workbook = workbook
        self.own_sheet = own_sheet
        self.points: set[CellCoordinate] = set()
        self.rectangles: set[Rectangle] = set()
        self.anchor_points: set[CellCoordinate] = set()
        self.dangling = 0

    def _sheet_index(self, sheet_name: str | None) -> int | None:
        if sheet_name is None:
            return self.own_sheet
        return self.workbook.sheet_index(sheet_name)

    def add_reference(self, ref: Reference) -> None:
        if ref.ref_error or ref.external:
            self.dangling += 1
            return
        if ref.by_name:
            self._add_defined_name(ref.name)  # type: ignore[arg-type]
            return
        self._add_single(ref.sheet, ref.locator)  # type: ignore[arg-type]

    def _add_defined_name(self, name: str) -> None:
        defined = self.workbook.defined_name(name)
        target = defined.expr if defined is not None else None
        if isinstance(target, Reference):
            # Only a concrete sheet-qualified grid target resolves; nested
            # names, externals and #REF! targets dangle.
            if (
                target.sheet is not None
                and target.locator is not None
                and not target.external
                and not target.ref_error
            ):
                self._add_single(target.sheet, target.locator)
                return
        elif isinstance(target, Range):
            if target.sheet is not None and not target.external:
                self._add_range(target.sheet, target.start, target.end)
                return
        self.dangling += 1

    def _add_single(self, sheet_name: str | None, locator: CellLocator) -> None:
        sheet = self._sheet_index(sheet_name)
        if (
            sheet is None
            or locator.row is None
            or locator.col is None
            or not 1 <= locator.row <= MAX_ROW
            or not 1 <= locator.col <= MAX_COL
        ):
            self.dangling += 1
            return
        coord = CellCoordinate(sheet, locator.row, locator.col)
        self.points.add(coord)
        self.anchor_points.add(coord)

    def add_range(self, rng: Range) -> None:
        if rng.external:
            self.dangling += 1
            return
        self._add_range(rng.sheet, rng.start, rng.end)

    def _add_range(self, sheet_name: str | None, start: CellLocator, end: CellLocator) -> None:
        sheet = self._sheet_index(sheet_name)
        if sheet is None:
            self.dangling += 1
            return
        rows: tuple[int, int] | None
        cols: tuple[int, int] | None
        if start.row is not None and end.row is not None:
            rows = _clip(min(start.row, end.row), max(start.row, end.row), 1, MAX_ROW)
        else:
            # Full-column range: rows clip to the sheet's used bounding box.
            box = self.workbook.sheet(sheet).used_box()
            rows = (box[0], box[2]) if box is not None else None
        if start.col is not None and end.col is not None:
            cols = _clip(min(start.col, end.col), max(start.col, end.col), 1, MAX_COL)
        else:
            box = self.workbook.sheet(sheet).used_box()
            cols = (box[1], box[3]) if box is not None else None
        if rows is None or cols is None:
            return  # resolvable but empty (e.g. full-column range on an empty sheet)
        r1, r2 = rows
        c1, c2 = cols
        if r1 == r2 and c1 == c2:
            coord = CellCoordinate(sheet, r1, c1)
            self.points.add(coord)
            self.anchor_points.add(coord)
            return
        self.rectangles.add((sheet, r1, c1, r2, c2))
        self.anchor_points.update(
            (
                CellCoordinate(sheet, r1, c1),
                CellCoordinate(sheet, r1, c2),
                CellCoordinate(sheet, r2, c1),
                CellCoordinate(sheet, r2, c2),
            )
        )

    def result(self) -> ResolvedReferences:
        return ResolvedReferences(
            frozenset(self.points),
            frozenset(self.rectangles),
            self.dangling,
            tuple(sorted(self.anchor_points)),
        )


def resolve_expr(expr: Expr, own_sheet: int, workbook: Workbook) -> ResolvedReferences:
    resolver = _Resolver(workbook, own_sheet)
    for node in reference_nodes(expr):
        if type(node) is Range:
            resolver.add_range(node)
        else:
            resolver.add_reference(node)
    return resolver.result()


# Sheets are stacked into one tall grid: row r of sheet s is stacked row
# s * _SHEET_STRIDE + r. The stride leaves a gap row between sheets, so no
# rectangle spans two sheets and one sweep covers the whole workbook.
_SHEET_STRIDE = MAX_ROW + 2

# (first stacked row, first column, last stacked row, last column), inclusive.
_Block = tuple[int, int, int, int]


def _disjoint(rects: list[_Block]) -> list[_Block]:
    """Disjoint pieces whose union is the union of `rects`.

    Cuts the rows at every rectangle edge and merges the column spans within
    each band; a piece grows downward while its span stays the same.
    """
    pieces = []
    growing: dict[tuple[int, int], int] = {}  # column span -> first row
    for top in sorted({r[0] for r in rects} | {r[2] + 1 for r in rects}):
        spans: list[list[int]] = []
        for c1, c2 in sorted((c1, c2) for r1, c1, r2, c2 in rects if r1 <= top <= r2):
            if spans and c1 <= spans[-1][1] + 1:
                spans[-1][1] = max(spans[-1][1], c2)
            else:
                spans.append([c1, c2])
        band = {(c1, c2): growing.pop((c1, c2), top) for c1, c2 in spans}
        pieces.extend((first, c1, top - 1, c2) for (c1, c2), first in growing.items())
        growing = band
    return pieces


def _sweep(pieces: list[_Block], queries: list[tuple[int, int, object]]) -> tuple[int, dict]:
    """Row sweep over rectangles.

    `queries` are sorted (row, col, key) triples. Returns the area of the
    union of `pieces` and, for the key of every query point that some piece
    covers, the number of pieces covering it. The segment tree spans the
    compressed column boundaries; a node's count is never pushed down, so a
    point's cover count is the sum of the counts on its root-to-leaf path.
    """
    xs = sorted({p[1] for p in pieces} | {p[3] + 1 for p in pieces})
    slot = {x: i for i, x in enumerate(xs)}
    size = len(xs) - 1
    count = [0] * (4 * size)
    length = [0] * (4 * size)  # covered width under each node

    def update(node: int, lo: int, hi: int, a: int, b: int, delta: int) -> None:
        if a <= lo and hi <= b:
            count[node] += delta
        else:
            mid = (lo + hi) // 2
            if a < mid:
                update(2 * node, lo, mid, a, b, delta)
            if b > mid:
                update(2 * node + 1, mid, hi, a, b, delta)
        if count[node]:
            length[node] = xs[hi] - xs[lo]
        elif hi - lo == 1:
            length[node] = 0
        else:
            length[node] = length[2 * node] + length[2 * node + 1]

    events = sorted(
        [(r1, 1, slot[c1], slot[c2 + 1]) for r1, c1, r2, c2 in pieces]
        + [(r2 + 1, -1, slot[c1], slot[c2 + 1]) for r1, c1, r2, c2 in pieces]
    )
    area = 0
    last = events[0][0]
    i = 0
    hits = {}
    # The final sentinel query lies below every event and flushes them all.
    for row, col, key in [*queries, (events[-1][0], 0, None)]:
        while i < len(events) and events[i][0] <= row:
            top, delta, a, b = events[i]
            area += length[1] * (top - last)
            last = top
            update(1, 0, size, a, b, delta)
            i += 1
        if not length[1]:
            continue
        leaf = bisect_right(xs, col) - 1
        if not 0 <= leaf < size:
            continue
        node, lo, hi, total = 1, 0, size, count[1]
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if leaf < mid:
                node, hi = 2 * node, mid
            else:
                node, lo = 2 * node + 1, mid
            total += count[node]
        if total:
            hits[key] = total
    return area, hits


def _coverage(
    workbook: Workbook, singles: dict[CellCoordinate, int], pieces: list[_Block]
) -> tuple[dict[CellCoordinate, int], int]:
    """(formulas covering each referenced stored cell, referenced area).

    `singles` counts, per coordinate, the formulas that reference it as a
    single cell; `pieces` holds the stacked rectangles of every formula,
    split so that one formula's pieces never overlap.
    """
    area, hits = 0, {}
    if pieces:
        # A coordinate both stored and a single target is queried twice,
        # with the same answer.
        queries = [(c.sheet * _SHEET_STRIDE + c.row, c.col, c) for c in singles]
        for sheet in workbook.sheets:
            base = sheet.index * _SHEET_STRIDE
            queries += [(base + row, col, cell.coordinate) for (row, col), cell in sheet.cells.items()]
        queries.sort()
        area, hits = _sweep(pieces, queries)
    cover_counts: dict[CellCoordinate, int] = {}
    for sheet in workbook.sheets:
        for cell in sheet.cells.values():
            coord = cell.coordinate
            total = hits.get(coord, 0) + singles.get(coord, 0)
            if total:
                cover_counts[coord] = total
    return cover_counts, area + sum(1 for c in singles if c not in hits)


def build_graph(workbook: Workbook) -> DependencyGraph:
    """Resolve every successfully parsed formula cell; cycles are legal."""
    references: dict[CellCoordinate, ResolvedReferences] = {}
    fan_outs: dict[CellCoordinate, int] = {}
    singles: dict[CellCoordinate, int] = {}
    pieces: list[_Block] = []
    for sheet in workbook.sheets:
        for cell in sheet.cells.values():
            formula = cell.formula
            if formula is None or formula.expr is None:
                continue
            resolved = resolve_expr(formula.expr, sheet.index, workbook)
            coord = cell.coordinate
            references[coord] = resolved
            points = resolved.points
            area = 0
            if resolved.rectangles:
                own = [
                    (s * _SHEET_STRIDE + r1, c1, s * _SHEET_STRIDE + r2, c2)
                    for s, r1, c1, r2, c2 in resolved.rectangles
                ]
                if len(own) > 1:
                    own = _disjoint(own)
                pieces.extend(own)
                area = sum((r2 - r1 + 1) * (c2 - c1 + 1) for r1, c1, r2, c2 in own)
                if points:  # a point inside one of its own rectangles is counted there
                    points = [p for p in points if not _inside(p, own)]
            for point in points:
                singles[point] = singles.get(point, 0) + 1
            fan_outs[coord] = area + len(points)
    cover_counts, referenced = _coverage(workbook, singles, pieces)
    unstored = referenced - len(cover_counts)
    return DependencyGraph(references, fan_outs, cover_counts, unstored)


def _inside(point: CellCoordinate, blocks: list[_Block]) -> bool:
    row = point.sheet * _SHEET_STRIDE + point.row
    return any(r1 <= row <= r2 and c1 <= point.col <= c2 for r1, c1, r2, c2 in blocks)
