"""Column-letter arithmetic, serialization details, node repr and the
value contract (equality, hash, pickling)."""

from __future__ import annotations

import inspect
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cellgauge.expressions import (
    BadColumnError,
    CellLocator,
    Constant,
    Function,
    OpKind,
    Operator,
    Parenthesis,
    Range,
    Reference,
    Value,
    ValueType,
    column_index_to_letter,
    column_letter_to_index,
    serialize,
)
from cellgauge.analytics import Histogram, histogram
from cellgauge.graph import build_graph
from cellgauge.metrics import MetricRecord, ast_metrics, compute_record
from cellgauge.model import Cell, Formula
from cellgauge.parser import parse_text

from . import oracle
from .genutil import make_workbook


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

    @pytest.mark.parametrize("kind", list(OpKind))
    def test_every_operator_kind_round_trips(self, kind):
        one, two = Constant(ValueType.NUMBER, "1"), Constant(ValueType.NUMBER, "2")
        unary = kind in (OpKind.PERCENT, OpKind.UNARY_MINUS, OpKind.UNARY_PLUS)
        node = Operator(kind, (one,) if unary else (one, two))
        assert parse_text(serialize(node)) == node

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


def recursive_repr(value) -> str:
    """A dataclass-style repr spelled out recursively: the reference for the
    iterative one. A value's fields are its constructor's parameters, in
    declaration order."""
    if isinstance(value, Value):
        names = list(inspect.signature(type(value)).parameters)
        fields = ", ".join(f"{name}={recursive_repr(getattr(value, name))}" for name in names)
        return f"{type(value).__qualname__}({fields})"
    if type(value) is tuple:
        items = [recursive_repr(item) for item in value]
        return f"({items[0]},)" if len(items) == 1 else "(" + ", ".join(items) + ")"
    return repr(value)


_texts = st.none() | st.text(max_size=3)
_locators = st.builds(CellLocator, st.none() | st.integers(1, 99), st.none() | st.integers(1, 99), st.booleans(), st.booleans())
_leaves = st.one_of(
    st.builds(Constant, st.sampled_from(ValueType), st.text(max_size=3)),
    st.builds(Reference, _texts, st.none() | _locators, _texts, st.booleans(), st.booleans()),
    st.builds(Range, _locators, _locators, _texts, st.booleans()),
)
_trees = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.builds(Function, st.text(max_size=4), st.lists(children, max_size=3).map(tuple)),
        st.builds(Operator, st.sampled_from(OpKind), st.lists(children, min_size=1, max_size=2).map(tuple)),
        st.builds(Parenthesis, children),
    ),
    max_leaves=12,
)


class TestRepr:
    def test_generated_dataclass_text(self):
        assert repr(parse_text("SUM(A1,-1)")) == (
            "Function(name='SUM', args=(Reference(sheet=None, locator=CellLocator(row=1, col=1, "
            "row_abs=False, col_abs=False), name=None, external=False, ref_error=False), "
            "Operator(kind=<OpKind.UNARY_MINUS: 'unaryMinus'>, operands=(Constant("
            "value_type=<ValueType.NUMBER: 'number'>, lexeme='1'),))))"
        )

    @given(_trees)
    def test_same_text_as_the_recursive_reference(self, tree):
        assert repr(tree) == recursive_repr(tree)

    # The texts below are the reprs the frozen dataclasses generated.
    def test_metric_record_text(self):
        record = MetricRecord("book.xlsx", 1, 4, 2, 2, 0, {"M03": 2, "M04": 0.5, "M09": None})
        assert repr(record) == recursive_repr(record) == (
            "MetricRecord(workbook_id='book.xlsx', sheet_count=1, non_empty_cells=4, input_cells=2, "
            "formula_cells=2, parse_failures=0, metrics={'M03': 2, 'M04': 0.5, 'M09': None})"
        )

    def test_histogram_text(self):
        record = MetricRecord("book.xlsx", 1, 4, 2, 2, 0, {"M04": 0.5})
        assert repr(histogram([record], "M04", bins=4)) == (
            "Histogram(metric_id='M04', bin_edges=(0.0, 0.25, 0.5, 0.75, 1.0), counts=(0, 0, 1, 0))"
        )
        assert repr(Histogram("M03", (1.0,), (3,))) == "Histogram(metric_id='M03', bin_edges=(1.0,), counts=(3,))"

    def test_formula_cell_text(self):
        cell = Cell(Formula("SUM(A:A)", parse_text("SUM(A:A)")))
        column = "CellLocator(row=None, col=1, row_abs=False, col_abs=False)"
        assert repr(cell) == recursive_repr(cell) == (
            "Cell(formula=Formula(text='SUM(A:A)', "
            f"expr=Function(name='SUM', args=(Range(start={column}, end={column}, sheet=None, external=False),)), "
            "error=None), literal=False)"
        )

    def test_full_column_range_text(self):
        assert repr(parse_text("Data!$B:B")) == (
            "Range(start=CellLocator(row=None, col=2, row_abs=False, col_abs=True), "
            "end=CellLocator(row=None, col=2, row_abs=False, col_abs=False), sheet='Data', external=False)"
        )

    def test_depth_10000_nested_parentheses(self):
        leaf = parse_text("A1")
        tree = parse_text("(" * 10_000 + "A1" + ")" * 10_000)
        assert repr(tree) == "Parenthesis(inner=" * 10_000 + repr(leaf) + ")" * 10_000

    def test_depth_10000_operator_chain(self):
        leaf = parse_text("A1")
        tree = parse_text("A1" + "+A1" * 10_000)
        assert repr(tree) == (
            "Operator(kind=<OpKind.ADD: 'add'>, operands=(" * 10_000 + repr(leaf) + f", {leaf!r}))" * 10_000
        )


class TestValueContract:
    def test_equal_only_with_the_same_class(self):
        leaf = parse_text("A1")
        assert Parenthesis(leaf) != (leaf,)
        assert (leaf,) != Parenthesis(leaf)
        # the same field values, but a different class
        assert Function("ADD", (leaf, leaf)) != Operator("ADD", (leaf, leaf))  # type: ignore[arg-type]
        assert Function("SUM", (leaf,)) == Function("SUM", (leaf,))
        assert Function("SUM", (leaf,)) != Function("SUM", (leaf, leaf))
        assert CellLocator(1, 2) == CellLocator(1, 2, False, False) != CellLocator(1, 2, True)

    @given(_trees)
    def test_rebuilt_trees_are_equal_and_hash_equal(self, tree):
        copy = pickle.loads(pickle.dumps(tree))
        assert copy is not tree
        assert copy == tree and not copy != tree
        assert hash(copy) == hash(tree)
        assert repr(copy) == repr(tree)

    def test_parsed_trees_hash_equal(self):
        text = "IF(A1>0,SUM(Data!B1:B10),-C1%)"
        assert parse_text(text) == parse_text(text)
        assert hash(parse_text(text)) == hash(parse_text(text))
        assert parse_text(text) != parse_text(text + "+1")

    def test_cell_with_literal_and_formula_is_refused(self):
        formula = Formula("A1", parse_text("A1"))
        with pytest.raises(ValueError, match=r"has both a literal and a formula"):
            Cell(formula, literal=True)

    def test_pickle_round_trip(self):
        # the process pool pickles every record it sends back
        tree = parse_text("SUMIF(A1:A9,\">0\",'Q1 Sales'!$B$1:$B$9)&#REF!")
        assert pickle.loads(pickle.dumps(tree)) == tree
        workbook = make_workbook([("S", {"A1": "=SUM(B1:B3)", "B1": "1", "B2": "=B1*2"})])
        record = compute_record(workbook, build_graph(workbook))
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and repr(copy) == repr(record)
