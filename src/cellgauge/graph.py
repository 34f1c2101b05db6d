"""Cell dependency graph: reference resolution, fan-in/fan-out.

Sheets are stacked into one tall grid, and every reference resolves to one
clipped block of it; unresolvable targets (unknown names, missing sheets,
external workbooks, #REF!) are counted as dangling instead of failing.
Every graph quantity is computed from blocks, so cost grows with the
number of formulas and referenced blocks, never with the number of cells
a range covers:

* fan-out: a formula's blocks are split into disjoint pieces; fan-out is
  the sum of the piece areas;
* fan-in and the input/label split: one row sweep per workbook, over a
  cover-count segment tree on the compressed column boundaries, counts the
  formulas covering every stored cell; the same sweep measures the area of
  the union of all referenced blocks (Klee's measure, Bentley 1977).

Single-cell references, the common case, stay out of the sweep and are
counted in dicts. ``DependencyGraph.reverse`` is the one cell-level view;
the metric pipeline never reads it.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from functools import cached_property

from .expressions import Expr, Range, Reference, reference_nodes
from .model import CellCoordinate, Workbook
from .tokens import MAX_COL, MAX_ROW

# Sheets are stacked into one tall grid: row r of sheet s is stacked row
# s * _SHEET_STRIDE + r. The stride leaves a gap row between sheets, so no
# block spans two sheets and one sweep covers the whole workbook.
_SHEET_STRIDE = MAX_ROW + 2

# (first stacked row, first column, last stacked row, last column), inclusive.
_Block = tuple[int, int, int, int]


class NotAFormulaCellError(LookupError):
    pass


class DependencyGraph:
    """Formula cells and the counts metrics need.

    Per parsed formula cell: its fan-out, its dangling references and its
    anchor points (single-cell targets plus the four corners of every block,
    enough for the maximal pairwise distance over the cells it covers).
    ``reverse`` (cell -> formulas referencing it) re-resolves every formula
    on first access and costs time and memory proportional to the covered
    area.
    """

    def __init__(
        self,
        workbook: Workbook,
        fan_outs: dict[CellCoordinate, int],
        dangling: dict[CellCoordinate, int],
        anchors: dict[CellCoordinate, tuple[CellCoordinate, ...]],
        cover_counts: dict[CellCoordinate, int],
        unstored_references: int,
    ):
        self.workbook = workbook
        self._fan_outs = fan_outs
        self.dangling = dangling
        self.anchors = anchors
        # Stored cells referenced by at least one formula -> number of
        # distinct formulas referencing each.
        self.cover_counts = cover_counts
        # Referenced coordinates that hold no stored cell.
        self.unstored_references = unstored_references

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
        for source in self._fan_outs:
            cell = self.workbook.sheet(source.sheet).cells[source.row, source.col]
            blocks, _ = _resolve(cell.formula.expr, source.sheet, self.workbook)  # type: ignore[union-attr]
            for r1, c1, r2, c2 in blocks:
                for stacked in range(r1, r2 + 1):
                    sheet, row = divmod(stacked, _SHEET_STRIDE)
                    for col in range(c1, c2 + 1):
                        sources[CellCoordinate(sheet, row, col)].add(source)
        return {coord: frozenset(found) for coord, found in sources.items()}


def _region(
    node: Reference | Range, sheet: int | None, workbook: Workbook
) -> _Block | tuple[()] | None:
    """The block `node` covers, () when it covers no cell, None when it dangles.

    An unqualified reference means `sheet`, the formula's own sheet. A
    defined name resolves to the block of its target, found with
    ``sheet=None``: the target must name its sheet and cannot be another
    name. The name is the one local to the sheet it is qualified with
    (``Two!Total``), or else to `sheet`, if there is one, and else the
    global one. A range clips to the grid, and a full-row or full-column
    range to the used box of its sheet.
    """
    if node.external:
        return None
    kind = type(node)
    if kind is Reference:
        if node.ref_error:
            return None
        if node.name is not None:
            if sheet is None:
                return None
            if node.sheet is not None:
                sheet = workbook.sheet_index(node.sheet)
            defined = workbook.defined_name(node.name, sheet)
            target = defined.expr if defined is not None else None
            if type(target) is Reference or type(target) is Range:
                return _region(target, None, workbook)  # type: ignore[arg-type]
            return None
    if node.sheet is not None:
        sheet = workbook.sheet_index(node.sheet)
    if sheet is None:
        return None
    base = sheet * _SHEET_STRIDE
    if kind is Reference:
        row, col = node.locator.row, node.locator.col  # type: ignore[union-attr]
        if row is None or col is None or not (0 < row <= MAX_ROW and 0 < col <= MAX_COL):
            return None
        return (base + row, col, base + row, col)
    r1, c1, r2, c2 = node.start.row, node.start.col, node.end.row, node.end.col  # type: ignore[union-attr]
    if r1 is None or r2 is None or c1 is None or c2 is None:
        box = workbook.sheet(sheet).used_box()
        if box is None:
            return ()
        if r1 is None or r2 is None:
            r1, r2 = box[0], box[2]
        if c1 is None or c2 is None:
            c1, c2 = box[1], box[3]
    r1, r2 = max(1, min(r1, r2)), min(MAX_ROW, max(r1, r2))
    c1, c2 = max(1, min(c1, c2)), min(MAX_COL, max(c1, c2))
    if r1 > r2 or c1 > c2:
        return ()
    return (base + r1, c1, base + r2, c2)


def _resolve(expr: Expr, sheet: int, workbook: Workbook) -> tuple[set[_Block], int]:
    """(distinct blocks the references of `expr` cover, dangling references)."""
    blocks = set()
    dangling = 0
    for node in reference_nodes(expr):
        block = _region(node, sheet, workbook)
        if block is None:
            dangling += 1
        elif block:
            blocks.add(block)
    return blocks, dangling


def _disjoint(blocks: list[_Block]) -> list[_Block]:
    """Disjoint pieces whose union is the union of `blocks`.

    Cuts the rows at every block edge and merges the column spans within
    each band; a piece grows downward while its span stays the same.
    """
    pieces = []
    growing: dict[tuple[int, int], int] = {}  # column span -> first row
    for top in sorted({b[0] for b in blocks} | {b[2] + 1 for b in blocks}):
        spans: list[list[int]] = []
        for c1, c2 in sorted((c1, c2) for r1, c1, r2, c2 in blocks if r1 <= top <= r2):
            if spans and c1 <= spans[-1][1] + 1:
                spans[-1][1] = max(spans[-1][1], c2)
            else:
                spans.append([c1, c2])
        band = {(c1, c2): growing.pop((c1, c2), top) for c1, c2 in spans}
        pieces.extend((first, c1, top - 1, c2) for (c1, c2), first in growing.items())
        growing = band
    return pieces


def _sweep(pieces: list[_Block], queries: list[tuple[int, int, object]]) -> tuple[int, dict]:
    """Row sweep over blocks.

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
    single cell; `pieces` holds the blocks of every formula, split so that
    one formula's pieces never overlap.
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
    fan_outs: dict[CellCoordinate, int] = {}
    dangling: dict[CellCoordinate, int] = {}
    anchors: dict[CellCoordinate, tuple[CellCoordinate, ...]] = {}
    singles: dict[CellCoordinate, int] = {}
    pieces: list[_Block] = []
    for sheet in workbook.sheets:
        for cell in sheet.cells.values():
            formula = cell.formula
            if formula is None or formula.expr is None:
                continue
            coord = cell.coordinate
            blocks, dangling[coord] = _resolve(formula.expr, sheet.index, workbook)
            points: list[tuple[int, int]] = []  # single-cell blocks, stacked
            own: list[_Block] = []
            corners: set[tuple[int, int]] = set()
            for block in blocks:
                r1, c1, r2, c2 = block
                if r1 == r2 and c1 == c2:
                    points.append((r1, c1))
                else:
                    own.append(block)
                    corners.update(((r1, c1), (r1, c2), (r2, c1), (r2, c2)))
            corners.update(points)
            # Each distinct anchor becomes a CellCoordinate once.
            located = {
                (row, col): CellCoordinate(row // _SHEET_STRIDE, row % _SHEET_STRIDE, col)
                for row, col in sorted(corners)
            }
            anchors[coord] = tuple(located.values())
            area = 0
            if own:
                if len(own) > 1:
                    own = _disjoint(own)
                pieces.extend(own)
                area = sum((r2 - r1 + 1) * (c2 - c1 + 1) for r1, c1, r2, c2 in own)
                # A point inside one of its own blocks is counted there.
                points = [
                    (row, col)
                    for row, col in points
                    if not any(r1 <= row <= r2 and c1 <= col <= c2 for r1, c1, r2, c2 in own)
                ]
            for point in points:
                target = located[point]
                singles[target] = singles.get(target, 0) + 1
            fan_outs[coord] = area + len(points)
    cover_counts, referenced = _coverage(workbook, singles, pieces)
    unstored = referenced - len(cover_counts)
    return DependencyGraph(workbook, fan_outs, dangling, anchors, cover_counts, unstored)
