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

A point of the stacked grid is one int, its key (see `_ROW_STRIDE`). Stored
cells, single targets, block corners and sweep queries are keys; single-cell
references, the common case, stay out of the sweep and are counted in a dict
by key. The graph hands its per-formula counts on as lists, in walk order;
`CellCoordinate`s are built only by the views of `DependencyGraph`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import defaultdict
from functools import cached_property
from itertools import combinations, starmap

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

    Per parsed formula cell, in the order `build_graph` walks them, parallel
    lists hold its key (see `_ROW_STRIDE`), fan-out, fan-in, dangling
    references, spreading factor and anchor keys; the metric pipeline reads
    them by position. The coordinate API (``formula_cells()``, ``fan_out``,
    ``fan_in``, ``spreading_factor``, ``dangling``, ``cover_counts`` and the
    decoded ``anchors``) is a set of views built on first access from one
    coordinate-to-position index. ``reverse`` (cell -> formulas referencing
    it) is built on first access too, in time and memory proportional to the
    covered area. The metric pipeline builds none of these views.
    """

    def __init__(
        self,
        workbook: Workbook,
        keys: list[int],
        fan_outs: list[int],
        fan_ins: list[int],
        dangling_counts: list[int],
        spreads: list[float],
        anchor_keys: list[tuple[int, ...]],
        covers: dict[int, int],
        unstored_references: int,
        input_cells: int,
    ):
        self.workbook = workbook
        self.keys = keys
        self.fan_outs = fan_outs
        self.fan_ins = fan_ins
        self.dangling_counts = dangling_counts
        self.spreads = spreads
        self.anchor_keys = anchor_keys
        # Key of each stored cell referenced by at least one formula ->
        # number of distinct formulas referencing it.
        self._covers = covers
        # Referenced coordinates that hold no stored cell.
        self.unstored_references = unstored_references
        # Referenced stored cells that hold no formula, plus the unstored ones.
        self.input_cells = input_cells

    @cached_property
    def _positions(self) -> dict[CellCoordinate, int]:
        return {CellCoordinate(*_point(key)): i for i, key in enumerate(self.keys)}

    def _position(self, coordinate: CellCoordinate) -> int:
        try:
            return self._positions[coordinate]
        except KeyError:
            raise NotAFormulaCellError(coordinate) from None

    def formula_cells(self):
        return self._positions.keys()

    def fan_out(self, coordinate: CellCoordinate) -> int:
        return self.fan_outs[self._position(coordinate)]

    def fan_in(self, coordinate: CellCoordinate) -> int:
        return self.fan_ins[self._position(coordinate)]

    def spreading_factor(self, coordinate: CellCoordinate) -> float:
        return self.spreads[self._position(coordinate)]

    @cached_property
    def dangling(self) -> dict[CellCoordinate, int]:
        """Each formula's dangling references."""
        return dict(zip(self._positions, self.dangling_counts))

    @cached_property
    def cover_counts(self) -> dict[CellCoordinate, int]:
        """Each stored cell referenced by at least one formula -> number of
        distinct formulas referencing it."""
        return {CellCoordinate(*_point(key)): count for key, count in self._covers.items()}

    @cached_property
    def anchors(self) -> dict[CellCoordinate, tuple[CellCoordinate, ...]]:
        """Each formula's single-cell targets and block corners, in order."""
        return {
            coord: tuple([CellCoordinate(*_point(key)) for key in sorted(keys)])
            for coord, keys in zip(self._positions, self.anchor_keys)
        }

    @cached_property
    def reverse(self) -> dict[CellCoordinate, frozenset[CellCoordinate]]:
        sources: dict[CellCoordinate, set[CellCoordinate]] = defaultdict(set)
        for source in self._positions:
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

    The result is the correctly rounded root of the largest squared
    distance, an integer of about 1.1e12 at most (corner to corner of the
    grid). The roots of two distinct such integers lie at least 4.7e-7, some
    2,000 ulps, apart, far more than the error of ``math.dist``: the
    farthest pair it finds is truly farthest, and squaring and rounding its
    distance gives back that pair's exact integer.
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
    if len(keys) < 2:
        return 0.0
    # A list, not the map: combinations() copies its input into a tuple, and
    # from an iterator of unknown length it allocates one of a guessed size
    # and shrinks it, so it never takes a tuple from the interpreter's free
    # lists while each one it frees goes onto them: up to some 250 KB held.
    points = list(map(_point, keys))
    far = max(starmap(math.dist, combinations(points, 2)))
    return math.sqrt(round(far * far))


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


def build_graph(workbook: Workbook) -> DependencyGraph:
    """Resolve every successfully parsed formula cell; cycles are legal.

    One walk over the stored cells computes each cell's key and, per parsed
    formula, its entries in the graph's per-formula lists; one row sweep
    then counts the formulas covering every stored cell.
    """
    keys: list[int] = []
    fan_outs: list[int] = []
    dangling_counts: list[int] = []
    spreads: list[float] = []
    anchor_keys: list[tuple[int, ...]] = []
    stored: list[int] = []  # keys of every stored cell
    formulas: list[int] = []  # keys of every formula cell, parsed or not
    singles: dict[int, int] = {}  # key -> formulas referencing it as a single cell
    pieces: list[_Block] = []  # every formula's blocks, one formula's never overlapping
    for sheet in workbook.sheets:
        base = sheet.index * _SHEET_STRIDE
        for (row, col), cell in sheet.cells.items():
            key = (base + row) * _ROW_STRIDE + col
            stored.append(key)
            formula = cell.formula
            if formula is None:
                continue
            formulas.append(key)
            if formula.expr is None:
                continue
            blocks, dangling = _resolve(formula.expr, sheet.index, workbook)
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
            anchors = tuple({*corners, *points}) if corners else tuple(points)
            area = 0
            if own:
                if len(own) > 1:
                    own = _disjoint(own)
                pieces.extend(own)
                area = sum((r2 - r1 + 1) * (c2 - c1 + 1) for r1, c1, r2, c2 in own)
                # A point inside one of its own blocks is counted there.
                points = [point for point in points if not any(
                    r1 <= point // _ROW_STRIDE <= r2 and c1 <= point % _ROW_STRIDE <= c2 for r1, c1, r2, c2 in own
                )]
            for point in points:
                singles[point] = singles.get(point, 0) + 1
            keys.append(key)
            fan_outs.append(area + len(points))
            dangling_counts.append(dangling)
            spreads.append(max_distance(anchors))
            anchor_keys.append(anchors)
    area, hits = 0, {}
    if pieces:
        # A stored single target is queried twice, with the same answer.
        area, hits = _sweep(pieces, sorted([*stored, *singles]))
    covers: dict[int, int] = {}
    for key in stored:
        total = hits.get(key, 0) + singles.get(key, 0)
        if total:
            covers[key] = total
    unstored = area + sum(1 for key in singles if key not in hits) - len(covers)
    input_cells = len(covers) - sum(1 for key in formulas if key in covers) + unstored
    fan_ins = [covers.get(key, 0) for key in keys]
    return DependencyGraph(
        workbook, keys, fan_outs, fan_ins, dangling_counts, spreads, anchor_keys, covers, unstored, input_cells
    )
