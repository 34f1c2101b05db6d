"""Interchange document reading and schema validation."""

from __future__ import annotations

import copy
import functools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellgauge import interchange
from cellgauge.expressions import column_index_to_letter
from cellgauge.interchange import (
    SchemaError,
    parse_cell_ref,
    read_interchange,
    read_interchange_file,
)
from cellgauge.model import LITERAL_CELL, CellCoordinate, CellKind

from . import reference_interchange
from .genutil import gen_workbook_doc

FIXTURES = Path(__file__).parent / "fixtures"


class TestRead:
    def test_empty_sheet_list(self):
        workbook = read_interchange({"name": "empty", "sheets": []})
        assert workbook.name == "empty"
        assert workbook.sheets == ()

    def test_golden_fixture_structure(self):
        workbook = read_interchange_file(FIXTURES / "g1.json")
        assert workbook.name == "G1"
        assert [s.name for s in workbook.sheets] == ["Inputs", "Calc", "Report", "Notes"]
        a1 = workbook.sheets[0].cells[(1, 1)]
        assert a1.literal and a1.formula is None  # a filled text literal
        calc_a1 = workbook.sheets[1].cells[(1, 1)]
        assert calc_a1.formula is not None
        assert calc_a1.formula.text == "SUM(Inputs!B1:B5)"
        broken = workbook.sheets[1].cells[(1, 5)]
        assert broken.formula.expr is None and broken.formula.error
        assert workbook.defined_name("total").target == "Inputs!$B$1:$B$3"

    @given(st.integers(0, 2**48))
    @settings(max_examples=150, deadline=None)
    def test_generated_documents_keep_cells_and_content_bit(self, seed):
        document = gen_workbook_doc(random.Random(seed))
        workbook = read_interchange(document)
        assert len(workbook.sheets) == len(document["sheets"])
        for sheet, sheet_doc in zip(workbook.sheets, document["sheets"]):
            entries = {parse_cell_ref(entry["ref"]): entry for entry in sheet_doc["cells"]}
            assert set(sheet.cells) == set(entries)
            for (row, col), entry in entries.items():
                cell = sheet.cells[(row, col)]
                if "formula" in entry:
                    assert not cell.literal
                    assert cell.formula.text == entry["formula"][1:]
                else:
                    assert cell is LITERAL_CELL  # one shared value for every literal

    def test_classification_of_golden_fixture(self):
        from cellgauge.graph import build_graph
        from cellgauge.model import classify_cells

        workbook = read_interchange_file(FIXTURES / "g1.json")
        graph = build_graph(workbook)
        kinds = classify_cells(workbook, graph)
        counts = {kind: 0 for kind in CellKind}
        for kind in kinds.values():
            counts[kind] += 1
        assert counts[CellKind.FORMULA] == 15
        assert counts[CellKind.LABEL] == 5
        # 9 input cells: 5 stored, 4 blank and referenced (Inputs!B4/B5,
        # Calc!B1/B2), which the graph counts instead of listing
        assert counts[CellKind.INPUT_VALUE] == 5
        assert graph.unstored_references == 4
        for blank in (CellCoordinate(1, 4, 2), CellCoordinate(2, 1, 2)):
            assert blank not in kinds and blank in graph.reverse

    def test_cell_ref_parsing(self):
        assert parse_cell_ref("A1") == (1, 1)
        assert parse_cell_ref("AA10") == (10, 27)
        for bad in ("", "1A", "A0", "A", "$A$1", "XFE1", "A1\n"):
            with pytest.raises(ValueError):
                parse_cell_ref(bad)


def _one_sheet(*cells) -> dict:
    return {"name": "x", "sheets": [{"name": "S", "cells": list(cells)}]}


_NUMBER = {"value": 1, "type": "number"}


class _Entry(dict):
    """A dict subclass: the reader accepts any mapping that is a dict."""


class TestSchemaErrors:
    @pytest.mark.parametrize(
        "document,path,message",
        [
            pytest.param([], "$", "expected a workbook object", id="document0-$"),
            pytest.param({"name": 3, "sheets": []}, "$.name", "expected a string", id="document1-$.name"),
            pytest.param({"name": "x"}, "$.sheets", "expected a list of sheets", id="document2-$.sheets"),
            pytest.param(
                {"name": "x", "sheets": [{}]}, "$.sheets[0].name", "expected a string", id="document3-$.sheets[0].name"
            ),
            pytest.param(
                _one_sheet({"ref": "A1"}),
                "$.sheets[0].cells[0]",
                "cell must carry exactly one of formula/value",
                id="document4-$.sheets[0].cells[0]",
            ),
            pytest.param(
                _one_sheet({"ref": "A1", "value": 1, "type": "number", "formula": "=1"}),
                "$.sheets[0].cells[0]",
                "cell must carry exactly one of formula/value",
                id="document5-$.sheets[0].cells[0]",
            ),
            pytest.param(
                _one_sheet({"ref": "bogus", **_NUMBER}),
                "$.sheets[0].cells[0].ref",
                "not an A1-style reference: 'bogus'",
                id="document6-.ref",
            ),
            pytest.param(
                _one_sheet({"ref": "A1", "value": 1}),
                "$.sheets[0].cells[0].type",
                '"type" is required alongside "value"',
                id="document7-.type",
            ),
            pytest.param(
                _one_sheet({"ref": "A1", "value": 1, "type": "decimal"}),
                "$.sheets[0].cells[0].type",
                "unknown value type 'decimal'",
                id="document8-.type",
            ),
            pytest.param(
                _one_sheet({"ref": "A1", "value": "1", "type": "number"}),
                "$.sheets[0].cells[0].value",
                "expected a number",
                id="document9-.value",
            ),
            pytest.param(
                _one_sheet({"ref": "A1", "formula": "1+1"}),
                "$.sheets[0].cells[0].formula",
                'formula must start with "="',
                id="document10-.formula",
            ),
            pytest.param(
                _one_sheet({"ref": "A1", **_NUMBER}, {"ref": "A1", "value": 2, "type": "number"}),
                "$.sheets[0].cells[1].ref",
                "duplicate cell 'A1'",
                id="document11-.ref",
            ),
            pytest.param(
                {"name": "x", "sheets": [{"name": "S"}, {"name": "s"}]},
                "$.sheets",
                "duplicate sheet name 's'",
                id="document12-$.sheets",
            ),
            pytest.param(
                {"name": "x", "definedNames": [{"name": "n"}], "sheets": []},
                "$.definedNames[0].target",
                "expected a target string",
                id="document13-.target",
            ),
            pytest.param(
                _one_sheet({"ref": "B2\n", **_NUMBER}),
                "$.sheets[0].cells[0].ref",
                "not an A1-style reference: 'B2\\n'",
                id="document14-.ref",
            ),
            pytest.param(
                _one_sheet({"ref": "A1", **_NUMBER, "fill": 7}),
                "$.sheets[0].cells[0].fill",
                "expected a color string",
                id="document15-.fill",
            ),
            pytest.param(
                # the third cell of the second sheet, so both indices are checked
                {
                    "name": "x",
                    "sheets": [
                        {"name": "S", "cells": [{"ref": "A1", **_NUMBER}]},
                        {
                            "name": "T",
                            "cells": [
                                {"ref": "A1", **_NUMBER},
                                {"ref": "B1", "formula": "=A1"},
                                {"ref": "C1", "value": "1", "type": "number"},
                            ],
                        },
                    ],
                },
                "$.sheets[1].cells[2].value",
                "expected a number",
                id="second-sheet-third-cell",
            ),
            # the first failing check wins: the ref before the type, the fill
            # before the formula, and a repeated ref after the rest of its cell
            pytest.param(
                _one_sheet({"ref": "A0", "value": 1}),
                "$.sheets[0].cells[0].ref",
                "not an A1-style reference: 'A0'",
                id="bad-ref-before-missing-type",
            ),
            pytest.param(
                _one_sheet({"ref": "A1", "formula": 3, "fill": 7}),
                "$.sheets[0].cells[0].fill",
                "expected a color string",
                id="bad-fill-before-bad-formula",
            ),
            pytest.param(
                _one_sheet({"ref": "A1", **_NUMBER}, {"ref": "A1", "value": "1", "type": "number"}),
                "$.sheets[0].cells[1].value",
                "expected a number",
                id="bad-value-before-duplicate",
            ),
            pytest.param(
                _one_sheet({"ref": "A1", "formula": None}),
                "$.sheets[0].cells[0].formula",
                "expected a string",
                id="null-formula",
            ),
            pytest.param(
                _one_sheet({"ref": "A1", "formula": 3}),
                "$.sheets[0].cells[0].formula",
                "expected a string",
                id="number-formula",
            ),
            pytest.param(
                _one_sheet({"ref": "A1", "value": 1, "type": 3}),
                "$.sheets[0].cells[0].type",
                '"type" is required alongside "value"',
                id="number-type",
            ),
            pytest.param(
                _one_sheet({"ref": "A1", "value": 1, "type": "Number"}),
                "$.sheets[0].cells[0].type",
                "unknown value type 'Number'",
                id="type-case",
            ),
            pytest.param(
                _one_sheet({"ref": "A1", **_NUMBER}, {"ref": "a1", "formula": "=1"}),
                "$.sheets[0].cells[1].ref",
                "duplicate cell 'a1'",
                id="duplicate-lower-case",
            ),
            pytest.param(
                _one_sheet({"value": 1, "type": "number"}),
                "$.sheets[0].cells[0].ref",
                "expected an A1-style string",
                id="missing-ref",
            ),
            pytest.param(
                _one_sheet({"ref": 5, **_NUMBER}), "$.sheets[0].cells[0].ref", "expected an A1-style string", id="number-ref"
            ),
            pytest.param(
                _one_sheet({"ref": "A0", **_NUMBER}),
                "$.sheets[0].cells[0].ref",
                "not an A1-style reference: 'A0'",
                id="row-zero",
            ),
            pytest.param(
                _one_sheet({"ref": "XFE1", **_NUMBER}),
                "$.sheets[0].cells[0].ref",
                "reference out of bounds: 'XFE1'",
                id="column-out-of-bounds",
            ),
            pytest.param(
                _one_sheet({"ref": "A1048577", **_NUMBER}),
                "$.sheets[0].cells[0].ref",
                "reference out of bounds: 'A1048577'",
                id="row-out-of-bounds",
            ),
            pytest.param(
                _one_sheet({"ref": "A" + "9" * 5_000, **_NUMBER}),
                "$.sheets[0].cells[0].ref",
                f"reference out of bounds: {'A' + '9' * 5_000!r}",
                id="row-digits-beyond-int-limit",
            ),
            pytest.param(
                _one_sheet({"ref": "A1", "value": True, "type": "number"}),
                "$.sheets[0].cells[0].value",
                "expected a number",
                id="boolean-number",
            ),
            pytest.param(
                _one_sheet({"ref": "A1", "value": 1, "type": "boolean"}),
                "$.sheets[0].cells[0].value",
                "expected a boolean",
                id="number-boolean",
            ),
            pytest.param(
                _one_sheet({"ref": "A1", "value": 1, "type": "text"}),
                "$.sheets[0].cells[0].value",
                "expected a string",
                id="number-text",
            ),
            pytest.param(
                _one_sheet({"ref": "A1", "value": None, "type": "error"}),
                "$.sheets[0].cells[0].value",
                "expected a string",
                id="null-error",
            ),
            pytest.param(_one_sheet("A1"), "$.sheets[0].cells[0]", "expected a cell object", id="string-cell"),
            pytest.param({"name": "x", "sheets": [[]]}, "$.sheets[0]", "expected a sheet object", id="list-sheet"),
            pytest.param(
                {"name": "x", "sheets": [{"name": "S", "cells": {}}]},
                "$.sheets[0].cells",
                "expected a list of cells",
                id="dict-cells",
            ),
            pytest.param(
                {"name": "x", "definedNames": {}, "sheets": []}, "$.definedNames", "expected a list", id="dict-names"
            ),
            pytest.param(
                {"name": "x", "definedNames": ["n"], "sheets": []},
                "$.definedNames[0]",
                "expected a defined-name object",
                id="string-name",
            ),
            pytest.param(
                {"name": "x", "definedNames": [{"name": "", "target": "A1"}], "sheets": []},
                "$.definedNames[0].name",
                "expected a name",
                id="empty-name",
            ),
        ],
    )
    def test_rejects_with_path(self, document, path, message):
        with pytest.raises(SchemaError) as excinfo:
            read_interchange(document)
        assert excinfo.value.path == path
        assert str(excinfo.value) == f"{path}: {message}"

    def test_dict_subclass_entries_read_like_dicts(self):
        plain = _one_sheet({"ref": "A1", **_NUMBER}, {"ref": "B2", "formula": "=A1"})
        subclassed = _Entry(
            name="x",
            sheets=[_Entry(name="S", cells=[_Entry(ref="A1", **_NUMBER), _Entry(ref="B2", formula="=A1")])],
        )
        expected = read_interchange(plain).sheets[0].cells
        assert read_interchange(subclassed).sheets[0].cells == expected

    def test_boolean_is_not_a_number(self):
        document = {
            "name": "x",
            "sheets": [{"name": "S", "cells": [{"ref": "A1", "value": True, "type": "number"}]}],
        }
        with pytest.raises(SchemaError):
            read_interchange(document)


# Fields a mutation may set, and values to set them to: types the schema
# refuses, refs it refuses or that repeat, and valid values in the wrong place.
_FIELDS = ("ref", "formula", "value", "type", "fill", "name", "cells", "sheets", "definedNames", "target")
_VALUES = (
    None, 0, 3, 2.5, True, False, "", "x", "A1", "a1", "B2", "XFE1", "A0", "$A$1", "B2\n",
    "=1+", "=A1*2", "1+1", "number", "text", "boolean", "error", "decimal", "#FFCC00",
    [], {}, [{}], ["A1"], [{"ref": "A1", "value": 1, "type": "number"}],
)


def _mutate(document: dict, rng: random.Random) -> None:
    """Drop, retype or replace one field of the document, one sheet, cell or
    defined name; copy one field from another of them (so sheet names and
    refs repeat, maybe in the other case); or replace one whole entry."""
    targets, entry_lists = [document], []
    names = document.get("definedNames")
    if isinstance(names, list):
        entry_lists.append(names)
        targets.extend(entry for entry in names if isinstance(entry, dict))
    sheets = document.get("sheets")
    if isinstance(sheets, list):
        entry_lists.append(sheets)
        for sheet in sheets:
            if isinstance(sheet, dict):
                targets.append(sheet)
                cells = sheet.get("cells")
                if isinstance(cells, list):
                    entry_lists.append(cells)
                    targets.extend(cell for cell in cells if isinstance(cell, dict))
    target, other = rng.choice(targets), rng.choice(targets)
    shared = sorted(set(target) & set(other))
    action = rng.randrange(5)
    if action == 0 and target:
        del target[rng.choice(sorted(target))]
    elif action == 1 and target:
        field = rng.choice(sorted(target))
        target[field] = copy.deepcopy(rng.choice([v for v in _VALUES if type(v) is not type(target[field])]))
    elif action == 2 and shared:
        field = rng.choice(shared)
        value = copy.deepcopy(other[field])
        target[field] = value.swapcase() if isinstance(value, str) and rng.random() < 0.5 else value
    elif action == 3 and any(entry_lists):
        entries = rng.choice([entries for entries in entry_lists if entries])
        entries[rng.randrange(len(entries))] = copy.deepcopy(rng.choice(_VALUES))
    else:
        target[rng.choice(_FIELDS)] = copy.deepcopy(rng.choice(_VALUES))


def _outcome(read, document):
    """What a reader makes of a document: every stored cell, by sheet, and the
    defined names; or the error it raises, with its path and message."""
    try:
        workbook = read(document)
    except Exception as exc:  # the outcome is the exception, whatever its type
        return type(exc).__name__, getattr(exc, "path", None), str(exc)
    cells = {
        (sheet.index, row, col): cell
        for sheet in workbook.sheets
        for (row, col), cell in sheet.cells.items()
    }
    return workbook.name, [sheet.name for sheet in workbook.sheets], cells, workbook.defined_names


class TestAgainstReference:
    @given(st.integers(0, 2**48), st.integers(0, 3))
    @settings(max_examples=400, deadline=None)
    def test_mutated_documents_read_as_the_reference_reads_them(self, seed, mutations):
        rng = random.Random(seed)
        document = gen_workbook_doc(rng)
        for _ in range(mutations):
            _mutate(document, rng)
        expected = _outcome(reference_interchange.read_interchange, document)
        assert _outcome(read_interchange, document) == expected

    def test_ref_cache_is_bounded_and_keeps_no_rejected_ref(self, monkeypatch):
        assert interchange._cached_cell_ref.cache_info().maxsize == 8192
        cache = functools.lru_cache(maxsize=16)(parse_cell_ref)
        monkeypatch.setattr(interchange, "_cached_cell_ref", cache)
        positions = [(1 + i // 7, 1 + i % 7) for i in range(100)]
        document = _one_sheet(*({"ref": f"{column_index_to_letter(col)}{row}", **_NUMBER} for row, col in positions))
        cells = read_interchange(document).sheets[0].cells
        assert list(cells) == positions
        for bad in ("XFE1", "A0"):
            for _ in range(2):
                with pytest.raises(SchemaError):
                    read_interchange(_one_sheet({"ref": bad, **_NUMBER}))
        assert cache.cache_info() == (0, 104, 16, 16)  # hits, misses, maxsize, size
