"""Parser tests: precedence anchors, reference grammar, errors, round trips."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellgauge.expressions import (
    CellLocator,
    Constant,
    Function,
    OpKind,
    Operator,
    Range,
    Reference,
    ValueType,
    serialize,
)
from cellgauge.parser import ParseError, parse_formula, parse_text
from cellgauge.tokens import FormulaError

from .genutil import gen_expr


def ref(row, col, **kw):
    return Reference(locator=CellLocator(row=row, col=col, **kw))


def num(lexeme):
    return Constant(ValueType.NUMBER, lexeme)


BINARY_OPS = {
    "=": OpKind.EQ,
    "<>": OpKind.NEQ,
    "<": OpKind.LT,
    ">": OpKind.GT,
    "<=": OpKind.LE,
    ">=": OpKind.GE,
    "&": OpKind.CONCAT,
    "+": OpKind.ADD,
    "-": OpKind.SUB,
    "*": OpKind.MUL,
    "/": OpKind.DIV,
    "^": OpKind.POW,
}
# Precedence levels, loosest first.
LEVELS = (("=", "<>", "<", ">", "<=", ">="), ("&",), ("+", "-"), ("*", "/"), ("^",))
PRECEDENCE = {op: level for level, ops in enumerate(LEVELS) for op in ops}


class TestPrecedence:
    def test_single_constant(self):
        assert parse_text("1") == num("1")

    def test_unary_minus_binds_tighter_than_power(self):
        # desktop spreadsheets evaluate -2^2 to 4, i.e. (-2)^2
        assert parse_text("-2^2") == Operator(
            OpKind.POW, (Operator(OpKind.UNARY_MINUS, (num("2"),)), num("2"))
        )

    def test_power_is_left_associative(self):
        assert parse_text("2^3^2") == Operator(
            OpKind.POW, (Operator(OpKind.POW, (num("2"), num("3"))), num("2"))
        )

    def test_percent_binds_tighter_than_power(self):
        assert parse_text("2^50%") == Operator(
            OpKind.POW, (num("2"), Operator(OpKind.PERCENT, (num("50"),)))
        )

    def test_percent_applies_outside_unary_minus(self):
        assert parse_text("-5%") == Operator(
            OpKind.PERCENT, (Operator(OpKind.UNARY_MINUS, (num("5"),)),)
        )

    def test_multiplication_over_addition(self):
        assert parse_text("1+2*3") == Operator(
            OpKind.ADD, (num("1"), Operator(OpKind.MUL, (num("2"), num("3"))))
        )

    def test_concat_between_comparison_and_additive(self):
        expr = parse_text('1&2+3="x"')
        assert expr.kind is OpKind.EQ
        left = expr.operands[0]
        assert left.kind is OpKind.CONCAT
        assert left.operands[1].kind is OpKind.ADD

    def test_comparisons_associate_left(self):
        expr = parse_text("1<2<3")
        assert expr.kind is OpKind.LT
        assert expr.operands[0].kind is OpKind.LT

    def test_double_percent(self):
        expr = parse_text("5%%")
        assert expr.kind is OpKind.PERCENT
        assert expr.operands[0].kind is OpKind.PERCENT

    def test_unary_plus(self):
        assert parse_text("+7") == Operator(OpKind.UNARY_PLUS, (num("7"),))

    @pytest.mark.parametrize("first", BINARY_OPS)
    @pytest.mark.parametrize("second", BINARY_OPS)
    def test_binary_operator_pairs(self, first, second):
        # a tighter second operator takes 2 as its left operand; an equal or
        # looser one applies to the whole of "1 first 2" (left association)
        one, two, three = num("1"), num("2"), num("3")
        if PRECEDENCE[second] > PRECEDENCE[first]:
            expected = Operator(BINARY_OPS[first], (one, Operator(BINARY_OPS[second], (two, three))))
        else:
            expected = Operator(BINARY_OPS[second], (Operator(BINARY_OPS[first], (one, two)), three))
        assert parse_text(f"1 {first} 2 {second} 3") == expected


class TestReferences:
    def test_nested_conditional(self):
        assert parse_text("IF(A1>0,SUM(B1:B10),0)") == Function(
            "IF",
            (
                Operator(OpKind.GT, (ref(1, 1), num("0"))),
                Function(
                    "SUM",
                    (
                        Range(
                            CellLocator(row=1, col=2),
                            CellLocator(row=10, col=2),
                        ),
                    ),
                ),
                num("0"),
            ),
        )

    def test_absolute_markers(self):
        assert parse_text("$A$1") == ref(1, 1, row_abs=True, col_abs=True)
        assert parse_text("A$1") == ref(1, 1, row_abs=True)

    def test_sheet_qualified(self):
        assert parse_text("Sheet1!A1") == Reference(
            sheet="Sheet1", locator=CellLocator(row=1, col=1)
        )

    def test_quoted_sheet(self):
        assert parse_text("'My Sheet'!B2:C3") == Range(
            CellLocator(row=2, col=2), CellLocator(row=3, col=3), sheet="My Sheet"
        )

    def test_quoted_sheet_with_doubled_quote(self):
        expr = parse_text("'It''s'!A1")
        assert expr.sheet == "It's"

    def test_full_column_range(self):
        assert parse_text("A:C") == Range(
            CellLocator(row=None, col=1), CellLocator(row=None, col=3)
        )

    def test_full_row_range(self):
        assert parse_text("2:4") == Range(
            CellLocator(row=2, col=None), CellLocator(row=4, col=None)
        )

    def test_absolute_full_ranges(self):
        assert parse_text("$A:$B") == Range(
            CellLocator(row=None, col=1, col_abs=True),
            CellLocator(row=None, col=2, col_abs=True),
        )
        assert parse_text("$1:$2") == Range(
            CellLocator(row=1, col=None, row_abs=True),
            CellLocator(row=2, col=None, row_abs=True),
        )

    def test_sheet_qualified_full_ranges(self):
        assert parse_text("Data!A:A").sheet == "Data"
        assert parse_text("Data!3:5").sheet == "Data"

    def test_defined_name(self):
        expr = parse_text("grand_total")
        assert expr == Reference(name="grand_total")
        assert expr.by_name

    def test_single_letter_name_without_colon_is_a_name(self):
        assert parse_text("A") == Reference(name="A")

    def test_sheet_scoped_name(self):
        assert parse_text("Sheet1!revenue") == Reference(sheet="Sheet1", name="revenue")

    def test_external_reference_is_flagged(self):
        expr = parse_text("[Book1]Sheet1!A1")
        assert expr.external
        quoted = parse_text("'[Book1]Sheet 1'!A1")
        assert quoted.external and quoted.sheet == "[Book1]Sheet 1"

    def test_ref_error_literal_is_a_dangling_reference(self):
        expr = parse_text("#REF!")
        assert isinstance(expr, Reference) and expr.ref_error
        qualified = parse_text("Sheet1!#REF!")
        assert qualified.ref_error and qualified.sheet == "Sheet1"

    def test_other_error_literals_are_constants(self):
        assert parse_text("#N/A") == Constant(ValueType.ERROR, "#N/A")

    def test_sheet_named_like_cell_ref(self):
        expr = parse_text("ABC1!A1")
        assert expr.sheet == "ABC1"


class TestFunctions:
    def test_zero_argument_function(self):
        assert parse_text("RAND()") == Function("RAND", ())

    def test_name_is_uppercased(self):
        assert parse_text("sum(A1)").name == "SUM"

    def test_cell_ref_shaped_function_name(self):
        assert parse_text("LOG10(8)") == Function("LOG10", (num("8"),))

    def test_boolean_shaped_function_name(self):
        assert parse_text("TRUE()") == Function("TRUE", ())

    def test_dotted_function_name(self):
        assert parse_text("T.DIST.2T(1,5)").name == "T.DIST.2T"


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "1+",
            "(1",
            "1)",
            "IF(A1,,2)",
            "F(,1)",
            "F(1,)",
            "SUM(A1:)",
            "A1:B",
            "1 2",
            "'quoted'",
            "$A",
            "*3",
            "1..2",
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(FormulaError):
            parse_text(text)

    def test_error_position_and_expected_set(self):
        with pytest.raises(ParseError) as excinfo:
            parse_text("1+")
        assert excinfo.value.position == 2
        assert excinfo.value.expected

    def test_parse_formula_captures_failures(self):
        formula = parse_formula("1+")
        assert formula.expr is None
        assert formula.error and "offset 2" in formula.error
        assert formula.text == "1+"

    @pytest.mark.parametrize(
        "text",
        ["(" * 5000 + "1" + ")" * 5000, "SUM(" * 5000 + "1" + ")" * 5000, "-" * 5000 + "1"],
        ids=["parentheses", "calls", "unary"],
    )
    def test_5000_nested_groups_and_signs_parse(self, text):
        # only formula length bounds what parses; nesting has no limit
        from cellgauge.metrics import ast_metrics

        formula = parse_formula(text)
        assert formula.error is None
        assert ast_metrics(formula.expr).ast_depth == 5001

    def test_64_nested_function_calls_parse(self):
        # 64 is the function nesting limit spreadsheet programs document
        from cellgauge.metrics import ast_metrics

        expr = parse_text("SUM(" * 64 + "1" + ")" * 64)
        assert ast_metrics(expr).ast_depth == 65

    def test_long_flat_operator_chain_parses(self):
        # spreadsheet programs bound formula length, not chain length
        from cellgauge.metrics import ast_metrics

        text = "1" + "+1" * 5000
        formula = parse_formula(text)
        assert formula.error is None
        m = ast_metrics(formula.expr)
        assert m.ast_depth == 5001
        assert m.element_count == 10_001
        assert (m.function_count, m.distinct_function_count, m.conditional_count) == (0, 0, 0)
        assert m.normalized_key == text
        # round trip compared as text: the generated equality recurses once
        # per level
        assert serialize(formula.expr) == text

    def test_moderate_chain_parses_and_analyzes(self):
        from cellgauge.metrics import ast_metrics

        formula = parse_formula("1" + "*2" * 150)
        assert formula.expr is not None
        m = ast_metrics(formula.expr)
        assert m.ast_depth == 151
        assert m.element_count == 301
        assert parse_formula(serialize(formula.expr)).expr == formula.expr


class TestPublicSurface:
    def test_parse_accepts_a_token_list(self):
        from cellgauge.lexer import tokenize
        from cellgauge.parser import parse

        tokens = tokenize("SUM(A1:A3)")
        assert parse(tokens) == parse_text("SUM(A1:A3)")

    def test_parse_rejects_trailing_tokens(self):
        from cellgauge.lexer import tokenize
        from cellgauge.parser import parse

        with pytest.raises(ParseError):
            parse(tokenize("1 2"))


class TestSerializeRoundTrip:
    def test_paren_emission(self):
        assert serialize(parse_text("(A1+B1)")) == "(A1+B1)"

    def test_fixpoint_example(self):
        text = "IF(A1>0,SUM(B1:B10),0)"
        first = parse_text(text)
        assert parse_text(serialize(first)) == first

    @given(st.integers(0, 2**48))
    @settings(max_examples=400, deadline=None)
    def test_fixpoint_generated(self, seed):
        text = gen_expr(
            random.Random(seed), sheets=("Alpha", "Beta Data", "TRUE", "ABC1", "1st")
        )
        first = parse_text(text)
        again = parse_text(serialize(first))
        assert again == first

    @given(st.text(max_size=30))
    @settings(max_examples=500, deadline=None)
    def test_totality_on_arbitrary_text(self, text):
        formula = parse_formula(text)
        assert (formula.expr is None) == (formula.error is not None)
