"""Tests for the SQL tokenizer."""

import pytest

from repro.errors import TokenizeError
from repro.sql.tokenizer import Token, TokenType, strip_comments, tokenize


def kinds(sql):
    return [token.type for token in tokenize(sql)]


def values(sql):
    return [token.value for token in tokenize(sql)[:-1]]


class TestBasicTokens:
    def test_empty_input_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].type is TokenType.EOF

    def test_keywords_are_uppercased(self):
        assert values("select from where") == ["SELECT", "FROM", "WHERE"]

    def test_identifiers_keep_case(self):
        tokens = tokenize("WaterSalinity")
        assert tokens[0].type is TokenType.IDENTIFIER
        assert tokens[0].value == "WaterSalinity"

    def test_integer_literal(self):
        tokens = tokenize("42")
        assert tokens[0].type is TokenType.NUMBER
        assert tokens[0].value == "42"

    def test_float_literal(self):
        assert tokenize("3.14")[0].value == "3.14"

    def test_scientific_notation(self):
        assert tokenize("1.5e10")[0].value == "1.5e10"
        assert tokenize("2E-3")[0].value == "2E-3"

    def test_string_literal_strips_quotes(self):
        token = tokenize("'Lake Washington'")[0]
        assert token.type is TokenType.STRING
        assert token.value == "Lake Washington"

    def test_string_literal_escaped_quote(self):
        token = tokenize("'it''s'")[0]
        assert token.value == "it's"

    def test_quoted_identifier(self):
        token = tokenize('"Weird Name"')[0]
        assert token.type is TokenType.IDENTIFIER
        assert token.value == "Weird Name"

    def test_parameter_token(self):
        token = tokenize("?")[0]
        assert token.type is TokenType.PARAMETER

    def test_positions_point_to_source(self):
        tokens = tokenize("SELECT a")
        assert tokens[0].position == 0
        assert tokens[1].position == 7


class TestNumbers:
    def test_exponent_needs_digits(self):
        assert kinds("1e")[:2] == [TokenType.NUMBER, TokenType.IDENTIFIER]
        assert values("1E+") == ["1", "E", "+"]
        assert values("1e-4x") == ["1e-4", "x"]

    def test_fractions(self):
        assert values("1. .5 1.e5 1.2.3") == ["1.", ".5", "1.e5", "1.2", ".3"]

    @pytest.mark.parametrize("digit", ["\u00b2", "\u0663", "\uff11"])
    def test_only_ascii_digits_start_a_number(self, digit):
        with pytest.raises(TokenizeError):
            tokenize(f"x < {digit}")


class TestOperators:
    @pytest.mark.parametrize("op", ["=", "<", ">", "<=", ">=", "<>", "!=", "+", "-", "*", "/", "%", "||"])
    def test_operator_recognized(self, op):
        token = tokenize(f"a {op} b")[1]
        assert token.type is TokenType.OPERATOR
        assert token.value == op

    def test_multi_char_operator_wins_over_single(self):
        tokens = tokenize("a <= b")
        assert tokens[1].value == "<="

    def test_punctuation(self):
        assert [t.value for t in tokenize("(a, b);")[:-1]] == ["(", "a", ",", "b", ")", ";"]


class TestCommentsAndErrors:
    def test_line_comment_skipped(self):
        assert values("SELECT a -- comment\nFROM t") == ["SELECT", "a", "FROM", "t"]

    def test_block_comment_skipped(self):
        assert values("SELECT /* hi */ a") == ["SELECT", "a"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(TokenizeError):
            tokenize("SELECT /* oops")

    def test_unterminated_string_raises(self):
        with pytest.raises(TokenizeError):
            tokenize("SELECT 'oops")

    def test_illegal_character_raises_with_position(self):
        with pytest.raises(TokenizeError) as excinfo:
            tokenize("SELECT @")
        assert excinfo.value.position == 7

    def test_strip_comments_preserves_strings(self):
        text = "SELECT '--not a comment' -- real comment"
        assert strip_comments(text) == "SELECT '--not a comment' "

    def test_strip_comments_block(self):
        assert strip_comments("a /* b */ c") == "a  c"


class TestTokenHelpers:
    def test_is_keyword(self):
        token = Token(TokenType.KEYWORD, "SELECT", 0)
        assert token.is_keyword("SELECT")
        assert token.is_keyword("SELECT", "FROM")
        assert not token.is_keyword("FROM")

    def test_identifier_is_not_keyword(self):
        token = Token(TokenType.IDENTIFIER, "SELECT", 0)
        assert not token.is_keyword("SELECT")

    def test_full_query_token_stream(self):
        sql = "SELECT name, COUNT(*) FROM lakes WHERE area > 10.5 GROUP BY name"
        types = kinds(sql)
        assert types[-1] is TokenType.EOF
        assert TokenType.NUMBER in types
        assert TokenType.KEYWORD in types
