"""Column-letter arithmetic and serialization details."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cellgauge.expressions import (
    BadColumnError,
    column_index_to_letter,
    column_letter_to_index,
    serialize,
)
from cellgauge.metrics import ast_metrics
from cellgauge.parser import parse_text

from . import oracle


class TestColumnLetters:
    @pytest.mark.parametrize(
        "letters,index",
        [("A", 1), ("Z", 26), ("AA", 27), ("AZ", 52), ("BA", 53), ("ZZ", 702), ("AAA", 703), ("XFD", 16384)],
    )
    def test_known_values(self, letters, index):
        assert column_letter_to_index(letters) == index
        assert column_index_to_letter(index) == letters

    def test_lowercase_accepted(self):
        assert column_letter_to_index("aa") == 27

    @pytest.mark.parametrize("bad", ["", "A1", "-", "É"])
    def test_bad_column(self, bad):
        with pytest.raises(BadColumnError):
            column_letter_to_index(bad)

    def test_bad_index(self):
        with pytest.raises(BadColumnError):
            column_index_to_letter(0)

    @given(st.integers(1, 100_000))
    def test_round_trip(self, index):
        assert column_letter_to_index(column_index_to_letter(index)) == index

    @given(st.integers(1, 50_000))
    def test_strictly_monotone(self, index):
        a = column_index_to_letter(index)
        b = column_index_to_letter(index + 1)
        assert (len(a), a) < (len(b), b)


class TestSerialize:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1", "1"),
            ("(A1+B1)", "(A1+B1)"),
            ("sum($A$1:B2)", "SUM($A$1:B2)"),
            ("'My Sheet'!A1", "'My Sheet'!A1"),
            ("Data!A1", "Data!A1"),
            ("A:C", "A:C"),
            ("$1:$3", "$1:$3"),
            ("-A1%", "-A1%"),
            ('"a""b"&"c"', '"a""b"&"c"'),
            ("#N/A", "#N/A"),
            ("Sheet1!#REF!", "Sheet1!#REF!"),
            ("1<=2", "1<=2"),
        ],
    )
    def test_canonical_text(self, text, expected):
        assert serialize(parse_text(text)) == expected

    def test_sheet_quoting_added_when_needed(self):
        expr = parse_text("'Plain'!A1")
        assert serialize(expr) == "Plain!A1"  # quoting not required, dropped

    @pytest.mark.parametrize("sheet", ["TRUE", "false", "My Sheet", "1st", "ABC1"])
    def test_tricky_sheet_names_round_trip(self, sheet):
        quoted = "'" + sheet.replace("'", "''") + "'"
        expr = parse_text(f"{quoted}!A1+1")
        assert parse_text(serialize(expr)) == expr


def copy_key(text: str) -> str:
    """The copy-equivalence key of a formula, checked against the oracle's
    independent wildcard writer."""
    expr = parse_text(text)
    key = ast_metrics(expr).normalized_key
    assert key == oracle.copy_key(expr)
    return key


class TestNormalizedKey:
    def test_shifted_copies_share_a_key(self):
        assert copy_key("A1+B1") == copy_key("A2+B2")

    def test_absolute_markers_are_erased(self):
        assert copy_key("$A$1") == copy_key("A1")

    def test_different_constants_differ(self):
        assert copy_key("A1+1") != copy_key("A1+2")

    def test_ranges_are_wildcarded(self):
        assert copy_key("SUM(A1:A9)") == copy_key("SUM(B2:C4)")

    def test_wildcard_text_shape(self):
        assert copy_key("IF(A1>0,SUM(B1:B10),0)") == "IF(REF>0,SUM(RANGE),0)"
