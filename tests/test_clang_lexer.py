"""Tests for the C lexer."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clang.errors import LexError
from repro.clang.lexer import Lexer, code_token_texts, tokenize
from repro.clang.tokens import Token, TokenKind, TokenStream


class TestBasicTokens:
    def test_identifiers_and_keywords(self):
        tokens = tokenize("int foo; return bar;")
        kinds = [(t.kind, t.text) for t in tokens if t.kind is not TokenKind.EOF]
        assert (TokenKind.KEYWORD, "int") in kinds
        assert (TokenKind.IDENTIFIER, "foo") in kinds
        assert (TokenKind.KEYWORD, "return") in kinds
        assert (TokenKind.IDENTIFIER, "bar") in kinds

    def test_numbers(self):
        tokens = [t.text for t in tokenize("42 3.14 1e-5 0x1F 100L 2.5f")
                  if t.kind is TokenKind.NUMBER]
        assert tokens == ["42", "3.14", "1e-5", "0x1F", "100L", "2.5f"]

    def test_string_literal_kept_whole(self):
        tokens = [t for t in tokenize('printf("a b c %d\\n", x);')
                  if t.kind is TokenKind.STRING]
        assert len(tokens) == 1
        assert tokens[0].text == '"a b c %d\\n"'

    def test_char_literal(self):
        tokens = [t for t in tokenize("char c = 'x';") if t.kind is TokenKind.CHAR]
        assert tokens[0].text == "'x'"

    def test_multichar_punctuators_maximal_munch(self):
        texts = [t.text for t in tokenize("a += b >> 2; c && d; e->f;")
                 if t.kind is TokenKind.PUNCT]
        assert "+=" in texts
        assert ">>" in texts
        assert "&&" in texts
        assert "->" in texts

    def test_line_and_column_tracking(self):
        tokens = tokenize("int a;\nint b;")
        b_token = [t for t in tokens if t.text == "b"][0]
        assert b_token.line == 2
        assert b_token.column > 1


class TestCommentsAndDirectives:
    def test_line_comment(self):
        tokens = tokenize("int a; // a counter\nint b;")
        comments = [t for t in tokens if t.kind is TokenKind.COMMENT]
        assert len(comments) == 1
        assert "a counter" in comments[0].text

    def test_block_comment(self):
        tokens = tokenize("/* multi\n line */ int a;")
        comments = [t for t in tokens if t.kind is TokenKind.COMMENT]
        assert len(comments) == 1
        assert "multi" in comments[0].text

    def test_comments_can_be_dropped(self):
        tokens = tokenize("int a; /* note */", keep_comments=False)
        assert all(t.kind is not TokenKind.COMMENT for t in tokens)

    def test_include_directive(self):
        tokens = tokenize("#include <mpi.h>\nint main() { return 0; }")
        directives = [t for t in tokens if t.kind is TokenKind.DIRECTIVE]
        assert directives[0].text == "#include <mpi.h>"

    def test_define_directive_with_continuation(self):
        source = "#define BIG \\\n  42\nint a;"
        directives = [t for t in tokenize(source) if t.kind is TokenKind.DIRECTIVE]
        assert len(directives) == 1
        assert "42" in directives[0].text


class TestErrorTolerance:
    def test_unknown_character_produces_error_token(self):
        tokens = tokenize("int a = 1 @ 2;")
        assert any(t.kind is TokenKind.ERROR for t in tokens)

    def test_strict_mode_raises(self):
        with pytest.raises(LexError):
            Lexer("int a @ b;", strict=True).tokenize()

    def test_unterminated_string_does_not_crash(self):
        tokens = tokenize('printf("unterminated')
        assert tokens[-1].kind is TokenKind.EOF

    def test_unterminated_block_comment_strict(self):
        with pytest.raises(LexError):
            Lexer("/* never closed", strict=True).tokenize()


class TestTokenStream:
    def test_stream_filters_non_code_tokens(self):
        stream = Lexer("#include <mpi.h>\nint a; // comment\n").stream()
        kinds = {t.kind for t in stream.tokens}
        assert TokenKind.DIRECTIVE not in kinds
        assert TokenKind.COMMENT not in kinds
        assert TokenKind.NEWLINE not in kinds

    def test_peek_and_next(self):
        stream = TokenStream([
            Token(TokenKind.IDENTIFIER, "a"),
            Token(TokenKind.PUNCT, ";"),
            Token(TokenKind.EOF, ""),
        ])
        assert stream.peek().text == "a"
        assert stream.peek(1).text == ";"
        assert stream.next().text == "a"
        assert stream.peek().text == ";"

    def test_mark_reset_commit(self):
        stream = Lexer("a b c d").stream()
        stream.mark()
        stream.next()
        stream.next()
        stream.reset()
        assert stream.peek().text == "a"
        stream.mark()
        stream.next()
        stream.commit()
        assert stream.peek().text == "b"

    def test_peek_past_end_returns_eof(self):
        stream = Lexer("a").stream()
        assert stream.peek(10).kind is TokenKind.EOF


class TestCodeTokenTexts:
    def test_counts_code_tokens_only(self, pi_source):
        tokens = code_token_texts(pi_source)
        assert 100 < len(tokens) < 320
        assert "#include <stdio.h>" not in tokens

    def test_empty_source(self):
        assert code_token_texts("") == []


def _pairs(source, **kwargs):
    return [(t.kind, t.text, t.line, t.column) for t in tokenize(source, **kwargs)]


K = TokenKind


class TestPinnedCorners:
    """Corners of the token stream that are pinned exactly: each one is easy to
    move by accident, and a moved token moves the serving cache key."""

    def test_exponent_marker_at_end_of_input_stays_in_the_number(self):
        assert _pairs("1e") == [(K.NUMBER, "1e", 1, 1), (K.EOF, "", 1, 3)]
        assert _pairs("1e+") == [(K.NUMBER, "1e+", 1, 1), (K.EOF, "", 1, 4)]

    def test_exponent_marker_before_other_text_is_an_identifier(self):
        assert _pairs("1e;")[:3] == [(K.NUMBER, "1", 1, 1), (K.IDENTIFIER, "e", 1, 2),
                                     (K.PUNCT, ";", 1, 3)]
        assert [t.text for t in tokenize("1e-x 2E5f")][:4] == ["1e-", "x", "2E5f", ""]

    def test_backslash_newline_continues_a_directive(self):
        assert _pairs("#define X \\\n 1\nint a;")[:3] == [
            (K.DIRECTIVE, "#define X \\\n 1", 1, 1),
            (K.NEWLINE, "\n", 2, 3),
            (K.KEYWORD, "int", 3, 1),
        ]

    def test_backslash_newline_inside_a_string(self):
        assert _pairs('"ab\\\ncd" x')[:2] == [
            (K.STRING, '"ab\\\ncd"', 1, 1),
            (K.IDENTIFIER, "x", 2, 5),
        ]

    def test_unterminated_block_comment_runs_to_the_end(self):
        assert _pairs("a /* open\nstill") == [
            (K.IDENTIFIER, "a", 1, 1), (K.COMMENT, "/* open\nstill", 1, 3),
            (K.EOF, "", 2, 6)]
        with pytest.raises(LexError, match="unterminated block comment"):
            tokenize("a /* open\nstill", strict=True)

    def test_unterminated_string_stops_at_the_line_end(self):
        assert _pairs('"open\nx')[:3] == [
            (K.STRING, '"open', 1, 1), (K.NEWLINE, "\n", 1, 6), (K.IDENTIFIER, "x", 2, 1)]
        assert _pairs("'c\\") == [(K.CHAR, "'c\\", 1, 1), (K.EOF, "", 1, 4)]
        with pytest.raises(LexError, match="unterminated"):
            tokenize('"open\nx', strict=True)

    def test_leading_dot_number_bare_hex_prefix_and_form_feed(self):
        assert _pairs(".5 0x\f")[:4] == [
            (K.NUMBER, ".5", 1, 1), (K.NUMBER, "0x", 1, 4), (K.ERROR, "\f", 1, 6),
            (K.EOF, "", 1, 7)]
        with pytest.raises(LexError, match="unexpected character"):
            tokenize("\f", strict=True)

    def test_punctuators_take_the_longest_match(self):
        assert [t.text for t in tokenize("a<<=b...c->d")][:-1] == [
            "a", "<<=", "b", "...", "c", "->", "d"]


_BLANKS = re.compile(r"[ \t\r]*")
_FRAGMENTS = ("int", " ", "\t", "\r", "\n", "x1", "_y", "0x", "1e", ".5", "3.", "e",
              "+", "-", "<<=", ".", "/", "*", "//", "/*", "*/", "#", "\\", '"', "'",
              "\f", "@", "é", "{", "}", ";")
_C_TEXT = st.one_of(
    st.lists(st.sampled_from(_FRAGMENTS), max_size=40).map("".join),
    st.text(alphabet="ax09eE.+-/*#\\\"' \t\r\n\f<>=;@", max_size=60),
)


@settings(max_examples=300, deadline=None)
@given(_C_TEXT)
def test_tokens_and_skipped_blanks_reassemble_the_source(source):
    """Token texts plus the skipped ``[ \\t\\r]`` runs are the source, and each
    token's (line, column) is the position of its offset."""
    pos = 0
    for token in tokenize(source):
        pos = _BLANKS.match(source, pos).end()
        assert source.startswith(token.text, pos)
        line = source.count("\n", 0, pos) + 1
        column = pos - source.rfind("\n", 0, pos)
        assert (token.line, token.column) == (line, column), token
        pos += len(token.text)
    assert pos == len(source)
