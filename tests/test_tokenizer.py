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
    return [kind for kind, _, _, _ in tokenize(text)]


def lexemes(text):
    return [lexeme for _, lexeme, _, _ in tokenize(text)]


def pairs(text):
    return [(kind, lexeme) for kind, lexeme, _, _ in tokenize(text)]


class TestBasics:
    def test_tokens_are_plain_tuples(self):
        tokens = tokenize("SUM(Data!B1:B10, 'x y'! C3)+#N/A")
        assert tokens and all(type(token) is tuple and len(token) == 4 for token in tokens)

    def test_binary_reference_expression(self):
        assert pairs("A1+B1") == [
            (TokenKind.REFERENCE, "A1"),
            (TokenKind.OPERATOR, "+"),
            (TokenKind.REFERENCE, "B1"),
        ]

    def test_function_over_range(self):
        assert pairs("SUM(B1:B10)") == [
            (TokenKind.IDENTIFIER, "SUM"),
            (TokenKind.LPAREN, "("),
            (TokenKind.REFERENCE, "B1:B10"),
            (TokenKind.RPAREN, ")"),
        ]

    def test_doubled_quote_escaping(self):
        assert pairs('"a""b"') == [(TokenKind.STRING, '"a""b"')]

    @pytest.mark.parametrize("literal", ERROR_LITERALS)
    def test_error_literals_are_single_tokens(self, literal):
        assert pairs(literal) == [(TokenKind.ERROR_LITERAL, literal)]

    def test_numbers(self):
        assert kinds("1 2.5 .5 3. 1e5 1.5e-3") == [TokenKind.NUMBER] * 6

    def test_exponent_needs_digits(self):
        assert pairs("1e") == [
            (TokenKind.NUMBER, "1"),
            (TokenKind.IDENTIFIER, "e"),
        ]

    def test_two_char_operators(self):
        assert lexemes("1<=2<>3>=4") == ["1", "<=", "2", "<>", "3", ">=", "4"]

    def test_booleans_case_insensitive(self):
        assert kinds("TRUE false") == [TokenKind.BOOLEAN, TokenKind.BOOLEAN]
        assert lexemes("tRuE") == ["tRuE"]

    def test_quoted_sheet_name(self):
        assert pairs("'My Sheet' !A1") == [
            (TokenKind.IDENTIFIER, "'My Sheet'"),
            (TokenKind.EXCLAMATION, "!"),
            (TokenKind.CELL_REF, "A1"),
        ]

    def test_external_workbook_prefix(self):
        assert pairs("[Book1]Sheet1 !A1")[0] == (TokenKind.IDENTIFIER, "[Book1]Sheet1")

    def test_absolute_markers(self):
        assert kinds("$A$1 A$2 $B3") == [TokenKind.REFERENCE] * 3
        assert kinds("$A$1( A$2( $B3(") == [TokenKind.CELL_REF, TokenKind.LPAREN] * 3
        assert kinds("$A") == [TokenKind.IDENTIFIER]
        assert kinds("$5") == [TokenKind.NUMBER]


class TestClassification:
    def test_three_letter_function_names_lex_as_cell_refs(self):
        # LOG10 is also a valid cell address; the parser disambiguates on "(".
        assert kinds("LOG10(") == [TokenKind.CELL_REF, TokenKind.LPAREN]
        assert kinds("LOG10 (") == [TokenKind.CELL_REF, TokenKind.LPAREN]
        assert kinds("LOG10") == [TokenKind.REFERENCE]

    def test_column_beyond_grid_is_a_name(self):
        assert kinds("XFD1(") == [TokenKind.CELL_REF, TokenKind.LPAREN]  # last grid column
        assert kinds("XFD1") == [TokenKind.REFERENCE]
        assert kinds("XFE1") == [TokenKind.IDENTIFIER]  # one past it
        assert kinds("A1:XFE1") == [TokenKind.CELL_REF, TokenKind.COLON, TokenKind.IDENTIFIER]

    def test_row_beyond_grid_is_a_name(self):
        assert kinds("A1048576(") == [TokenKind.CELL_REF, TokenKind.LPAREN]
        assert kinds("A1048576") == [TokenKind.REFERENCE]
        assert kinds("A1048577") == [TokenKind.IDENTIFIER]
        assert kinds("A1048577:B1") == [TokenKind.IDENTIFIER, TokenKind.COLON, TokenKind.CELL_REF]

    def test_leading_zero_row_is_a_name(self):
        assert kinds("A01") == [TokenKind.IDENTIFIER]

    def test_plain_names(self):
        assert kinds("net.total _tmp gross\\x") == [TokenKind.IDENTIFIER] * 3


class TestWholeReferences:
    @pytest.mark.parametrize(
        "text",
        ["Data!C45", "'Q1 Sales'!$A$1:$D$9", "B7", "A1:B2", "[Book1]Sheet1!A1", "'a''b'!A1", "A1!B2", "xfd1048576"],
    )
    def test_one_token(self, text):
        assert tokenize(text) == [
            (TokenKind.REFERENCE, text, 0, len(text))
        ]

    @pytest.mark.parametrize(
        "text",
        [
            "TRUE!A1",  # a BOOLEAN, not a sheet
            "fal\u017fe!A1",  # upper-cases to FALSE
            "A1:XFE1",
            "Data! A1:B2",  # whitespace-split: the tail after "!" is scanned fine
            "Data !A1",
            "A1 :B2:C3",
            "A1:B2 :C3",
            "LOG10(1)",
            "A1!B2!C3",
            "$5!A1",  # a NUMBER comes first
        ],
    )
    def test_split_where_the_parser_reads_fine_tokens(self, text):
        assert tokenize(text) == reference_scanner.scan(text)

    def test_tail_after_a_split_resumes_whole_references(self):
        assert pairs("Data! A1+B2") == [
            (TokenKind.IDENTIFIER, "Data"),
            (TokenKind.EXCLAMATION, "!"),
            (TokenKind.CELL_REF, "A1"),
            (TokenKind.OPERATOR, "+"),
            (TokenKind.REFERENCE, "B2"),
        ]


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
        pos = 0
        for _, lexeme, start, end in tokenize(text):
            assert text[start:end] == lexeme
            assert text[pos:start].strip() == ""
            pos = end
        assert text[pos:].strip() == ""

    @given(st.integers(0, 2**48))
    @settings(max_examples=200)
    def test_spans_reconstruct_generated_formulas(self, seed):
        text = gen_expr(random.Random(seed))
        rebuilt = []
        pos = 0
        for _, lexeme, start, end in tokenize(text):
            assert text[start:end] == lexeme
            rebuilt.append(text[pos:start])
            rebuilt.append(lexeme)
            pos = end
        rebuilt.append(text[pos:])
        assert "".join(rebuilt) == text


class TestBackendEquivalence:
    """The master-pattern scanner against the character-loop reference,
    token for token and error for error. A REFERENCE token stands for the
    reference scanner's tokens of its span."""

    def _check(self, text):
        try:
            expected = reference_scanner.scan(text)
            expected_error = None
        except LexError as exc:
            expected = None
            expected_error = (type(exc), str(exc))
        try:
            actual = []
            for kind, lexeme, start, end in tokenize(text):
                if kind != TokenKind.REFERENCE:
                    actual.append((kind, lexeme, start, end))
                    continue
                assert text[start:end] == lexeme
                for fine in reference_scanner.scan(lexeme):
                    actual.append((fine.kind, fine.lexeme, fine.start + start, fine.end + start))
            actual_error = None
        except LexError as exc:
            actual = None
            actual_error = (type(exc), str(exc))
        assert actual == expected
        assert actual_error == expected_error

    @given(st.integers(0, 2**48))
    @settings(max_examples=300)
    def test_generated_formulas(self, seed):
        self._check(gen_expr(random.Random(seed), sheets=("Alpha", "Beta Data", "TRUE", "ABC1", "1st")))

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
            "TRUE!A1",
            "A1:XFE1",
            "Data! A1:B2",
            "A1 :B2:C3",
            "LOG10(1)",
            "A1!B2",
            "Data Data!A1",
            "'a''b'!A1",
            "XFD1048576:A1",
            "#REF!A1:B2",
            "1st!A1",
            "$!A1",  # a lone $ is illegal, not a sheet
        ],
    )
    def test_fixed_inputs(self, text):
        self._check(text)
