"""Workbook model: sheets, sparse cell grids, defined names, cell taxonomy.

All model values are immutable by convention once a Workbook is constructed
(nothing checks it; see `expressions.Value`); they are safe to share across
threads and processes.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, NamedTuple

from .expressions import Expr, Value

if TYPE_CHECKING:
    from .graph import DependencyGraph

__all__ = [
    "BLANK_CELL",
    "LITERAL_CELL",
    "Cell",
    "CellCoordinate",
    "CellKind",
    "DefinedName",
    "Formula",
    "Workbook",
    "Worksheet",
    "classify_cells",
]


class CellCoordinate(NamedTuple):
    """Absolute cell position; all components are 1-based."""

    sheet: int
    row: int
    col: int


class CellKind(enum.Enum):
    EMPTY = "empty"
    LABEL = "label"
    INPUT_VALUE = "input"
    FORMULA = "formula"


class Formula(Value):
    """Formula content of a cell; text survives even when parsing fails."""

    __slots__ = ("text", "expr", "error")

    def __init__(self, text: str, expr: Expr | None, error: str | None = None):
        self.text = text  # formula body, without the leading "="
        self.expr = expr
        self.error = error


class Cell(Value):
    """A stored cell's content: a formula, a literal (whose value is not
    kept), or neither (stored for its formatting alone, e.g. a fill). Its
    position is its key in `Worksheet.cells` and that sheet's index."""

    __slots__ = ("formula", "literal")

    def __init__(self, formula: Formula | None = None, literal: bool = False):
        if literal and formula is not None:
            raise ValueError("a cell has both a literal and a formula")
        self.formula = formula
        self.literal = literal

    @property
    def has_content(self) -> bool:
        return self.literal or self.formula is not None


# The one value of every literal cell and of every cell stored without content.
LITERAL_CELL = Cell(literal=True)
BLANK_CELL = Cell()


class DefinedName(Value):
    __slots__ = ("name", "target", "expr", "scope")

    def __init__(self, name: str, target: str, expr: Expr | None, scope: int | None = None):
        self.name = name
        self.target = target  # as found in the workbook, e.g. "Sheet1!$A$1:$B$2"
        self.expr = expr  # parsed target; None when unparseable (uses dangle)
        self.scope = scope  # index of the sheet it is local to; None: global


class Worksheet:
    """Sparse grid of non-default cells; index is the 1-based workbook ordinal."""

    __slots__ = ("name", "index", "cells", "_used_box")

    def __init__(self, name: str, index: int, cells: dict[tuple[int, int], Cell]):
        if index < 1:
            raise ValueError(f"sheet index must be >= 1, got {index}")
        self.name = name
        self.index = index
        self.cells = cells
        self._used_box: tuple[int, int, int, int] | None | bool = False

    def used_box(self) -> tuple[int, int, int, int] | None:
        """(min_row, min_col, max_row, max_col) of stored cells, or None if empty."""
        if self._used_box is False:
            if self.cells:
                rows = [rc[0] for rc in self.cells]
                cols = [rc[1] for rc in self.cells]
                self._used_box = (min(rows), min(cols), max(rows), max(cols))
            else:
                self._used_box = None
        return self._used_box  # type: ignore[return-value]

    def __repr__(self) -> str:
        return f"Worksheet({self.name!r}, index={self.index}, cells={len(self.cells)})"


class Workbook:
    __slots__ = ("name", "sheets", "defined_names", "_sheet_index_by_name")

    def __init__(
        self,
        name: str,
        sheets: tuple[Worksheet, ...],
        defined_names: dict[tuple[int | None, str], DefinedName] | None = None,
    ):
        seen: dict[str, int] = {}
        for sheet in sheets:
            key = sheet.name.casefold()
            if key in seen:
                raise ValueError(f"duplicate sheet name {sheet.name!r}")
            seen[key] = sheet.index
        self.name = name
        self.sheets = sheets
        # (scope, casefolded name) -> definition; see DefinedName.scope.
        self.defined_names = defined_names or {}
        self._sheet_index_by_name = seen

    def sheet_index(self, sheet_name: str) -> int | None:
        """1-based index for a sheet name (case-insensitive), or None."""
        return self._sheet_index_by_name.get(sheet_name.casefold())

    def sheet(self, index: int) -> Worksheet:
        return self.sheets[index - 1]

    def defined_name(self, name: str, sheet: int | None = None) -> DefinedName | None:
        """The definition a formula on `sheet` sees: the one local to that
        sheet, else the global one (case-insensitive)."""
        key = name.casefold()
        return self.defined_names.get((sheet, key)) or self.defined_names.get((None, key))

    def iter_cells(self):
        for sheet in self.sheets:
            yield from sheet.cells.values()

    def __repr__(self) -> str:
        return f"Workbook({self.name!r}, sheets={len(self.sheets)})"


def classify_cells(
    workbook: Workbook, graph: "DependencyGraph"
) -> dict[CellCoordinate, CellKind]:
    """Assign exactly one CellKind to every stored cell.

    Formula wins outright; any other referenced cell is an input cell even
    when it holds nothing; remaining non-empty cells are labels. Referenced
    coordinates with no stored cell are input cells too (blank cells pulled
    into ranges are data entry points), but they are not listed:
    `graph.unstored_references` counts them.
    """
    kinds: dict[CellCoordinate, CellKind] = {}
    referenced = graph.cover_counts
    for sheet in workbook.sheets:
        for (row, col), cell in sheet.cells.items():
            coord = CellCoordinate(sheet.index, row, col)
            if cell.formula is not None:
                kinds[coord] = CellKind.FORMULA
            elif coord in referenced:
                kinds[coord] = CellKind.INPUT_VALUE
            elif cell.has_content:
                kinds[coord] = CellKind.LABEL
            else:
                kinds[coord] = CellKind.EMPTY
    return kinds
