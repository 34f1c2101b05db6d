"""Cell dependency graph: reference resolution, fan-in/fan-out, spread.

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
  the union of all referenced blocks (Klee's measure, Bentley 1977);
* spreading factor: in the same pass over each formula, the farthest pair
  of its anchor points, its single-cell targets and block corners.

A point of the stacked grid is one int, its key (see `_ROW_STRIDE`). Single
targets, block corners and sweep queries are keys; single-cell references,
the common case, stay out of the sweep and are counted in a dict by key.
"""

from __future__ import annotations

import math
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
# The key of column c of stacked row r is r * _ROW_STRIDE + c. Keys order
# points by stacked row, then column, and key // _SHEET_KEYS is the sheet.
_ROW_STRIDE = MAX_COL + 1
_SHEET_KEYS = _SHEET_STRIDE * _ROW_STRIDE

# (first stacked row, first column, last stacked row, last column), inclusive.
_Block = tuple[int, int, int, int]


class NotAFormulaCellError(LookupError):
    pass


class DependencyGraph:
    """Formula cells and the counts metrics need.

    Per parsed formula cell: its fan-out, dangling references, spreading
    factor and anchor keys. ``anchors`` (the decoded keys) and ``reverse``
    (cell -> formulas referencing it, in time and memory proportional to the
    covered area) are built on first access; the metric pipeline reads neither.
    """

    def __init__(
        self,
        workbook: Workbook,
        fan_outs: dict[CellCoordinate, int],
        dangling: dict[CellCoordinate, int],
        spreads: dict[CellCoordinate, float],
        anchor_keys: dict[CellCoordinate, tuple[int, ...]],
        cover_counts: dict[CellCoordinate, int],
        unstored_references: int,
    ):
        self.workbook = workbook
        self._fan_outs = fan_outs
        self.dangling = dangling
        self._spreads = spreads
        self._anchor_keys = anchor_keys
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

    def spreading_factor(self, coordinate: CellCoordinate) -> float:
        try:
            return self._spreads[coordinate]
        except KeyError:
            raise NotAFormulaCellError(coordinate) from None

    @cached_property
    def anchors(self) -> dict[CellCoordinate, tuple[CellCoordinate, ...]]:
        """Each formula's single-cell targets and block corners, in order."""
        return {
            coord: tuple([CellCoordinate(*_point(key)) for key in sorted(keys)])
            for coord, keys in self._anchor_keys.items()
        }

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


def _point(key: int) -> tuple[int, int, int]:
    """(sheet index, row, column) of a key."""
    return key // _SHEET_KEYS, key // _ROW_STRIDE % _SHEET_STRIDE, key % _ROW_STRIDE


def max_distance(keys) -> float:
    """Maximal Euclidean distance between the points with these keys, in
    (sheet index, row, column) space; 0.0 for a single point.

    Above eight points, only those that end both their row run and their
    column run are compared: distance to a fixed point is convex along
    a line, so a point between two others on a line is never farthest from
    anything.
    """
    if len(keys) > 8:
        keys = sorted(keys)
        ends = [
            {*dict(zip(lines, keys)).values(), *dict(zip(lines[::-1], keys[::-1])).values()}
            for lines in (
                [key // _ROW_STRIDE for key in keys],
                [key // _SHEET_KEYS * _ROW_STRIDE + key % _ROW_STRIDE for key in keys],
            )
        ]
        keys = ends[0] & ends[1]
    points = list(map(_point, keys))
    best = 0
    count = len(points)
    for i in range(count - 1):
        s1, r1, c1 = points[i]
        for j in range(i + 1, count):
            s2, r2, c2 = points[j]
            d = (r1 - r2) ** 2 + (c1 - c2) ** 2 + (s1 - s2) ** 2
            if d > best:
                best = d
    return math.sqrt(best)


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


def _sweep(pieces: list[_Block], queries: list[int]) -> tuple[int, dict[int, int]]:
    """Row sweep over blocks.

    `queries` are sorted point keys. Returns the area of the union of
    `pieces` and, for every queried key that some piece covers, the number
    of pieces covering it. The bottom-up segment tree has a leaf per span
    between compressed column boundaries. Counts are never pushed down: a
    point's cover count is the sum of the counts from its leaf to the root.
    """
    xs = sorted({p[1] for p in pieces} | {p[3] + 1 for p in pieces})
    slot = {x: i for i, x in enumerate(xs)}
    size = len(xs) - 1
    n = 1 << (size - 1).bit_length()  # leaves, the first `size` of them used
    width = [0] * n + [right - left for left, right in zip(xs, xs[1:])] + [0] * (n - size)
    for node in range(n - 1, 0, -1):
        width[node] = width[2 * node] + width[2 * node + 1]
    count = [0] * (2 * n)
    length = [0] * (4 * n)  # covered width under each node; 0 below the leaves
    events = sorted(
        [(r1, 1, slot[c1] + n, slot[c2 + 1] + n) for r1, c1, r2, c2 in pieces]
        + [(r2 + 1, -1, slot[c1] + n, slot[c2 + 1] + n) for r1, c1, r2, c2 in pieces]
    )
    area = 0
    last = events[0][0]
    i = 0
    hits = {}
    # The final sentinel query lies below every event and flushes them all.
    for key in [*queries, events[-1][0] * _ROW_STRIDE]:
        row, col = divmod(key, _ROW_STRIDE)
        while i < len(events) and events[i][0] <= row:
            top, delta, lo, hi = events[i]
            area += length[1] * (top - last)
            last = top
            # Count the nodes that tile leaves [lo, hi), then refresh every
            # ancestor of them, all on the paths up from the two end leaves.
            paths = (lo >> 1, (hi - 1) >> 1)
            while lo < hi:
                if lo & 1:
                    count[lo] += delta
                    length[lo] = width[lo] if count[lo] else length[2 * lo] + length[2 * lo + 1]
                    lo += 1
                if hi & 1:
                    hi -= 1
                    count[hi] += delta
                    length[hi] = width[hi] if count[hi] else length[2 * hi] + length[2 * hi + 1]
                lo >>= 1
                hi >>= 1
            for node in paths:
                while node:
                    length[node] = width[node] if count[node] else length[2 * node] + length[2 * node + 1]
                    node >>= 1
            i += 1
        if not length[1]:
            continue
        node = bisect_right(xs, col) - 1
        if not 0 <= node < size:
            continue
        node += n
        total = 0
        while node:
            total += count[node]
            node >>= 1
        if total:
            hits[key] = total
    return area, hits


def _coverage(
    workbook: Workbook, singles: dict[int, int], pieces: list[_Block]
) -> tuple[dict[CellCoordinate, int], int]:
    """(cover count of each referenced stored cell, referenced points with no stored cell).

    `singles` counts, per key, the formulas that reference it as a single
    cell; `pieces` holds the blocks of every formula, split so that one
    formula's pieces never overlap.
    """
    stored = [(s.index * _SHEET_STRIDE + row) * _ROW_STRIDE + col for s in workbook.sheets for row, col in s.cells]
    area, hits = 0, {}
    if pieces:
        # A stored single target is queried twice, with the same answer.
        area, hits = _sweep(pieces, sorted([*stored, *singles]))
    cover_counts: dict[CellCoordinate, int] = {}
    for key in stored:
        total = hits.get(key, 0) + singles.get(key, 0)
        if total:
            cover_counts[CellCoordinate(*_point(key))] = total
    return cover_counts, area + sum(1 for key in singles if key not in hits) - len(cover_counts)


def build_graph(workbook: Workbook) -> DependencyGraph:
    """Resolve every successfully parsed formula cell; cycles are legal."""
    fan_outs: dict[CellCoordinate, int] = {}
    dangling: dict[CellCoordinate, int] = {}
    spreads: dict[CellCoordinate, float] = {}
    anchor_keys: dict[CellCoordinate, tuple[int, ...]] = {}
    singles: dict[int, int] = {}
    pieces: list[_Block] = []
    for sheet in workbook.sheets:
        for (row, col), cell in sheet.cells.items():
            formula = cell.formula
            if formula is None or formula.expr is None:
                continue
            coord = CellCoordinate(sheet.index, row, col)
            blocks, dangling[coord] = _resolve(formula.expr, sheet.index, workbook)
            points, corners, own = [], [], []  # keys of single-cell blocks, keys of corners, other blocks
            for block in blocks:
                r1, c1, r2, c2 = block
                top = r1 * _ROW_STRIDE
                if r1 == r2 and c1 == c2:
                    points.append(top + c1)
                else:
                    own.append(block)
                    bottom = r2 * _ROW_STRIDE
                    corners += (top + c1, top + c2, bottom + c1, bottom + c2)
            # Distinct blocks have distinct single-cell keys, but corners repeat.
            keys = tuple({*corners, *points}) if corners else tuple(points)
            anchor_keys[coord] = keys
            spreads[coord] = max_distance(keys)
            area = 0
            if own:
                if len(own) > 1:
                    own = _disjoint(own)
                pieces.extend(own)
                area = sum((r2 - r1 + 1) * (c2 - c1 + 1) for r1, c1, r2, c2 in own)
                # A point inside one of its own blocks is counted there.
                points = [key for key in points if not any(
                    r1 <= key // _ROW_STRIDE <= r2 and c1 <= key % _ROW_STRIDE <= c2 for r1, c1, r2, c2 in own
                )]
            for key in points:
                singles[key] = singles.get(key, 0) + 1
            fan_outs[coord] = area + len(points)
    cover_counts, unstored = _coverage(workbook, singles, pieces)
    return DependencyGraph(workbook, fan_outs, dangling, spreads, anchor_keys, cover_counts, unstored)
