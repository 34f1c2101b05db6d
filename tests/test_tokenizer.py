"""Scanner tests: spec token walks, escaping, spans, agreement with the reference scanner."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellgauge.lexer import tokenize
from cellgauge.tokens import ERROR_LITERALS, LexError, TokenKind

from . import reference_scanner
from .genutil import gen_expr


def kinds(text):
    return [t.kind for t in tokenize(text)]


def lexemes(text):
    return [t.lexeme for t in tokenize(text)]


class TestBasics:
    def test_binary_reference_expression(self):
        assert [(t.kind, t.lexeme) for t in tokenize("A1+B1")] == [
            (TokenKind.CELL_REF, "A1"),
            (TokenKind.OPERATOR, "+"),
            (TokenKind.CELL_REF, "B1"),
        ]

    def test_function_over_range(self):
        assert [(t.kind, t.lexeme) for t in tokenize("SUM(B1:B10)")] == [
            (TokenKind.IDENTIFIER, "SUM"),
            (TokenKind.LPAREN, "("),
            (TokenKind.CELL_REF, "B1"),
            (TokenKind.COLON, ":"),
            (TokenKind.CELL_REF, "B10"),
            (TokenKind.RPAREN, ")"),
        ]

    def test_doubled_quote_escaping(self):
        tokens = tokenize('"a""b"')
        assert len(tokens) == 1
        assert tokens[0].kind == TokenKind.STRING
        assert tokens[0].lexeme == '"a""b"'

    @pytest.mark.parametrize("literal", ERROR_LITERALS)
    def test_error_literals_are_single_tokens(self, literal):
        tokens = tokenize(literal)
        assert [(t.kind, t.lexeme) for t in tokens] == [(TokenKind.ERROR_LITERAL, literal)]

    def test_numbers(self):
        assert kinds("1 2.5 .5 3. 1e5 1.5e-3") == [TokenKind.NUMBER] * 6

    def test_exponent_needs_digits(self):
        assert [(t.kind, t.lexeme) for t in tokenize("1e")] == [
            (TokenKind.NUMBER, "1"),
            (TokenKind.IDENTIFIER, "e"),
        ]

    def test_two_char_operators(self):
        assert lexemes("1<=2<>3>=4") == ["1", "<=", "2", "<>", "3", ">=", "4"]

    def test_booleans_case_insensitive(self):
        assert kinds("TRUE false") == [TokenKind.BOOLEAN, TokenKind.BOOLEAN]
        assert lexemes("tRuE") == ["tRuE"]

    def test_quoted_sheet_name(self):
        tokens = tokenize("'My Sheet'!A1")
        assert [(t.kind, t.lexeme) for t in tokens] == [
            (TokenKind.IDENTIFIER, "'My Sheet'"),
            (TokenKind.EXCLAMATION, "!"),
            (TokenKind.CELL_REF, "A1"),
        ]

    def test_external_workbook_prefix(self):
        tokens = tokenize("[Book1]Sheet1!A1")
        assert tokens[0].kind == TokenKind.IDENTIFIER
        assert tokens[0].lexeme == "[Book1]Sheet1"

    def test_absolute_markers(self):
        assert kinds("$A$1 A$2 $B3") == [TokenKind.CELL_REF] * 3
        assert kinds("$A") == [TokenKind.IDENTIFIER]
        assert kinds("$5") == [TokenKind.NUMBER]


class TestClassification:
    def test_three_letter_function_names_lex_as_cell_refs(self):
        # LOG10 is also a valid cell address; the parser disambiguates on "(".
        assert kinds("LOG10") == [TokenKind.CELL_REF]

    def test_column_beyond_grid_is_a_name(self):
        assert kinds("XFD1") == [TokenKind.CELL_REF]  # last grid column
        assert kinds("XFE1") == [TokenKind.IDENTIFIER]  # one past it

    def test_row_beyond_grid_is_a_name(self):
        assert kinds("A1048576") == [TokenKind.CELL_REF]
        assert kinds("A1048577") == [TokenKind.IDENTIFIER]

    def test_leading_zero_row_is_a_name(self):
        assert kinds("A01") == [TokenKind.IDENTIFIER]

    def test_plain_names(self):
        assert kinds("net.total _tmp gross\\x") == [TokenKind.IDENTIFIER] * 3


class TestErrors:
    def test_unterminated_string(self):
        with pytest.raises(LexError) as excinfo:
            tokenize('1+"abc')
        assert excinfo.value.position == 2

    def test_illegal_character(self):
        with pytest.raises(LexError) as excinfo:
            tokenize("1;2")
        assert excinfo.value.position == 1

    def test_unknown_error_literal(self):
        with pytest.raises(LexError):
            tokenize("#BOGUS!")

    def test_unterminated_bracket(self):
        with pytest.raises(LexError):
            tokenize("[Book1")


class TestSpans:
    @pytest.mark.parametrize(
        "text",
        ["A1 + B1", "SUM( B1:B10 , 2 )", 'IF(A1>0,"y es",\t0)', "  1  "],
    )
    def test_spans_reconstruct_input(self, text):
        tokens = tokenize(text)
        pos = 0
        for token in tokens:
            assert text[token.start : token.end] == token.lexeme
            assert text[pos : token.start].strip() == ""
            pos = token.end
        assert text[pos:].strip() == ""

    @given(st.integers(0, 2**48))
    @settings(max_examples=200)
    def test_spans_reconstruct_generated_formulas(self, seed):
        text = gen_expr(random.Random(seed))
        tokens = tokenize(text)
        rebuilt = []
        pos = 0
        for token in tokens:
            assert text[token.start : token.end] == token.lexeme
            rebuilt.append(text[pos : token.start])
            rebuilt.append(token.lexeme)
            pos = token.end
        rebuilt.append(text[pos:])
        assert "".join(rebuilt) == text


class TestBackendEquivalence:
    """The master-pattern scanner against the character-loop reference,
    token for token and error for error."""

    def _check(self, text):
        try:
            expected = reference_scanner.scan(text)
            expected_error = None
        except LexError as exc:
            expected = None
            expected_error = (type(exc), str(exc))
        try:
            actual = tokenize(text)
            actual_error = None
        except LexError as exc:
            actual = None
            actual_error = (type(exc), str(exc))
        assert actual == expected
        assert actual_error == expected_error

    @given(st.integers(0, 2**48))
    @settings(max_examples=300)
    def test_generated_formulas(self, seed):
        self._check(gen_expr(random.Random(seed)))

    @given(st.text(max_size=40))
    @settings(max_examples=500)
    def test_arbitrary_text(self, text):
        self._check(text)

    @given(st.binary(max_size=40))
    @settings(max_examples=500)
    def test_arbitrary_bytes_latin1(self, data):
        self._check(data.decode("latin-1"))

    @pytest.mark.parametrize(
        "text",
        [
            "'''",  # a sheet quote may not end on a doubled quote
            '"a""b',  # nor may a string
            '""""',
            "#N/\u1e9a",  # str.upper() expands U+1E9A to "A" plus a modifier
            "#D\u0131V/0!",  # dotless i uppercases to I
            "#D\u0130V/0!",  # dotted capital I does not
            "\u0663",  # non-ASCII digits are name characters, not digits
            "A\u0661",
            "$",
            "$$",
            "XFE1",
            "1.2.3",
            "[ab",
            "\x0b1",
        ],
    )
    def test_fixed_inputs(self, text):
        self._check(text)
