"""Interchange document reading and schema validation."""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellgauge.interchange import (
    SchemaError,
    parse_cell_ref,
    read_interchange,
    read_interchange_file,
)
from cellgauge.model import CellCoordinate, CellKind

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
                assert cell.coordinate == CellCoordinate(sheet.index, row, col)
                assert cell.literal == ("value" in entry)
                if "formula" in entry:
                    assert cell.formula.text == entry["formula"][1:]
                else:
                    assert cell.formula is None

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


class TestSchemaErrors:
    @pytest.mark.parametrize(
        "document,path_fragment",
        [
            ([], "$"),
            ({"name": 3, "sheets": []}, "$.name"),
            ({"name": "x"}, "$.sheets"),
            ({"name": "x", "sheets": [{}]}, "$.sheets[0].name"),
            (
                {"name": "x", "sheets": [{"name": "S", "cells": [{"ref": "A1"}]}]},
                "$.sheets[0].cells[0]",
            ),
            (
                {
                    "name": "x",
                    "sheets": [
                        {"name": "S", "cells": [{"ref": "A1", "value": 1, "type": "number", "formula": "=1"}]}
                    ],
                },
                "$.sheets[0].cells[0]",
            ),
            (
                {"name": "x", "sheets": [{"name": "S", "cells": [{"ref": "bogus", "value": 1, "type": "number"}]}]},
                ".ref",
            ),
            (
                {"name": "x", "sheets": [{"name": "S", "cells": [{"ref": "A1", "value": 1}]}]},
                ".type",
            ),
            (
                {"name": "x", "sheets": [{"name": "S", "cells": [{"ref": "A1", "value": 1, "type": "decimal"}]}]},
                ".type",
            ),
            (
                {"name": "x", "sheets": [{"name": "S", "cells": [{"ref": "A1", "value": "1", "type": "number"}]}]},
                ".value",
            ),
            (
                {"name": "x", "sheets": [{"name": "S", "cells": [{"ref": "A1", "formula": "1+1"}]}]},
                ".formula",
            ),
            (
                {
                    "name": "x",
                    "sheets": [
                        {
                            "name": "S",
                            "cells": [
                                {"ref": "A1", "value": 1, "type": "number"},
                                {"ref": "A1", "value": 2, "type": "number"},
                            ],
                        }
                    ],
                },
                ".ref",
            ),
            ({"name": "x", "sheets": [{"name": "S"}, {"name": "s"}]}, "$.sheets"),
            ({"name": "x", "definedNames": [{"name": "n"}], "sheets": []}, ".target"),
            (
                {"name": "x", "sheets": [{"name": "S", "cells": [{"ref": "B2\n", "value": 1, "type": "number"}]}]},
                ".ref",
            ),
            (
                {"name": "x", "sheets": [{"name": "S", "cells": [{"ref": "A1", "value": 1, "type": "number", "fill": 7}]}]},
                ".fill",
            ),
        ],
    )
    def test_rejects_with_path(self, document, path_fragment):
        with pytest.raises(SchemaError) as excinfo:
            read_interchange(document)
        assert path_fragment in excinfo.value.path

    def test_boolean_is_not_a_number(self):
        document = {
            "name": "x",
            "sheets": [{"name": "S", "cells": [{"ref": "A1", "value": True, "type": "number"}]}],
        }
        with pytest.raises(SchemaError):
            read_interchange(document)
