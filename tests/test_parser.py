"""Parser tests: precedence anchors, reference grammar, errors, round trips."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellgauge import parser as parser_module
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
    write_tree,
)
from cellgauge.lexer import tokenize
from cellgauge.parser import ParseError, parse, parse_formula, parse_text
from cellgauge.tokens import FormulaError, LexError, TokenKind

from . import reference_scanner
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


REJECTED = (
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
)


class TestErrors:
    @pytest.mark.parametrize("text", REJECTED)
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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("SUM(A:AAAAA)", "expected ',' or ')' in argument list, got ':' (at offset 5)"),
            ("SUM(AAAAA:A)", "expected ',' or ')' in argument list, got ':' (at offset 9)"),
        ],
        ids=["long_end", "long_start"],
    )
    def test_column_range_end_past_three_letters_is_never_converted(self, monkeypatch, text, message):
        # MAX_COL is XFD, and converting a run of n letters costs time
        # growing with n squared, so a long column-range end is refused
        # by its length before it is converted.
        original = parser_module.column_letter_to_index

        def guarded(letters):
            assert len(letters) <= 3, f"converted {letters!r}"
            return original(letters)

        monkeypatch.setattr(parser_module, "column_letter_to_index", guarded)
        assert parse_formula(text).error == message

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


SHEETS = ("Alpha", "Beta Data", "TRUE", "ABC1", "1st", "[B]S")

# Pieces of references and their surroundings, for texts that stress where a
# whole reference may and may not be taken as one lexeme.
REFERENCE_PIECES = (
    "Data", "'Q1 Sales'", "'a''b'", "'x[y]z'", "[Book1]Sheet1", "TRUE", "fal\u017fe", "AB12", "XFE1", "$A", "$5", "1st",
    "A1", "$B$2", "XFD1048576", "A1048577", "A01", "LOG10", "A", "$3", "#REF!", "name",
    "!", "!", ":", ":", " ", "(", ")", ",", "+", "SUM(",
)


# Texts where a reference may or may not be taken as one lexeme.
SPLIT_REFERENCES = (
    "'x[y]z'!A1",
    "[B]S!A1:B2",
    "'[B]S'!$A$1",
    "TRUE!A1",
    "A1:XFE1",
    "Data! A1:B2",
    "A1 :B2:C3",
    "LOG10(1)",
    "A1!B2",
    "A1!B2!C3",
    "'a''b'!A1",
    "$5!A1",
    "1st!A1",
    "SUM(A1:B2 (1))",
)


def outcome(parse_call, text):
    """The tree, or the error's message, offset and expected set."""
    try:
        return parse_call(text)
    except ParseError as exc:
        return (str(exc), exc.position, sorted(exc.expected))
    except LexError as exc:
        return (str(exc), exc.position)


def parse_fine(text):
    """The parse of the reference scanner's fine tokens, which hold no whole reference."""
    return parse(reference_scanner.scan(text))


def split_references(text):
    """The text with a space on each side of every ! and : token."""
    cuts = [t.start for t in reference_scanner.scan(text) if t.kind in (TokenKind.EXCLAMATION, TokenKind.COLON)]
    pieces, last = [], 0
    for cut in cuts:
        pieces += [text[last:cut], " ", text[cut], " "]
        last = cut + 1
    return "".join(pieces) + text[last:]


class TestWholeReferences:
    """A whole-reference lexeme parses exactly as its fine tokens do."""

    @given(st.lists(st.sampled_from(REFERENCE_PIECES), max_size=10).map("".join))
    @settings(max_examples=800, deadline=None)
    def test_same_outcome_as_fine_tokens_on_reference_pieces(self, text):
        assert outcome(parse_text, text) == outcome(parse_fine, text)

    @pytest.mark.parametrize("text", SPLIT_REFERENCES)
    def test_same_outcome_as_fine_tokens_on_fixed_inputs(self, text):
        assert outcome(parse_text, text) == outcome(parse_fine, text)

    @given(st.integers(0, 2**48))
    @settings(max_examples=300, deadline=None)
    def test_same_outcome_as_fine_tokens_on_generated_formulas(self, seed):
        text = gen_expr(random.Random(seed), sheets=SHEETS)
        assert outcome(parse_text, text) == outcome(parse_fine, text)

    @given(st.integers(0, 2**48))
    @settings(max_examples=300, deadline=None)
    def test_spaces_inside_references_give_the_same_tree(self, seed):
        text = gen_expr(random.Random(seed), sheets=SHEETS)
        spaced = split_references(text)
        whole = [lexeme for kind, lexeme, _, _ in tokenize(spaced) if kind == TokenKind.REFERENCE]
        assert not any("!" in lexeme or ":" in lexeme for lexeme in whole)
        assert write_tree(parse_text(spaced)) == write_tree(parse_text(text))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("Data Data!A1", "unexpected 'Data' after expression (at offset 5)"),
            ("1 B1:B2", "unexpected 'B1' after expression (at offset 2)"),
            ("#REF!A1", "unexpected 'A1' after expression (at offset 5)"),
            ("SUM(1 'x y'!B1:B2)", "expected ',' or ')' in argument list, got \"'x y'\" (at offset 6)"),
        ],
    )
    def test_errors_quote_the_first_fine_lexeme(self, text, message):
        assert str(parse_formula(text).error) == message
        assert outcome(parse_text, text) == outcome(parse_fine, text)

    def test_same_reference_text_shares_one_node(self):
        first = parse_text("Data!B2+1").operands[0]
        second = parse_text("SUM('Q1'!A1,Data!B2)").args[1]
        assert first is second
        assert first == Reference(sheet="Data", locator=CellLocator(row=2, col=2))

    def test_node_dict_never_exceeds_its_cap(self, monkeypatch):
        nodes = {}
        monkeypatch.setattr(parser_module, "_NODES", nodes)
        monkeypatch.setattr(parser_module, "_NODE_CAP", 16)
        for row in range(1, 101):
            assert parse_text(f"Data!A{row}:B{row}") == Range(
                CellLocator(row=row, col=1), CellLocator(row=row, col=2), sheet="Data"
            )
            assert 0 < len(nodes) <= 16
        assert "Data!A1:B1" not in nodes  # cleared on the way


class TestTokensByPosition:
    """``parse`` reads a token's fields by position only: the scanner's plain
    tuples, the reference scanner's named tuples and plain tuples rebuilt
    from those give the same tree or the same error."""

    def _check(self, text):
        try:
            scanned = tokenize(text)
        except LexError:
            return
        fine = reference_scanner.scan(text)
        expected = outcome(parse, scanned)
        assert outcome(parse, [reference_scanner.Token(*token) for token in scanned]) == expected
        assert outcome(parse, fine) == expected
        assert outcome(parse, [tuple(token) for token in fine]) == expected

    @given(st.integers(0, 2**48))
    @settings(max_examples=300, deadline=None)
    def test_generated_formulas(self, seed):
        self._check(gen_expr(random.Random(seed), sheets=SHEETS))

    @pytest.mark.parametrize("text", REJECTED + SPLIT_REFERENCES)
    def test_fixed_inputs(self, text):
        self._check(text)


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
