"""A regex lexer for the C subset used by MPI numerical codes.

One compiled master pattern of named groups, tried in precedence order,
tokenises the buffer (the "Writing a Tokenizer" recipe of the Python ``re``
documentation).  The lexer is deliberately forgiving: preprocessor directives
and comments are kept as tokens (the standardiser needs ``#include`` lines,
and comments are useful context for the sequence model), and unknown
characters produce ERROR tokens rather than aborting, mirroring TreeSitter's
ability to tokenise partially written code during live advising.
"""

from __future__ import annotations

import re

from .errors import LexError
from .tokens import C_KEYWORDS, PUNCTUATORS, Token, TokenKind, TokenStream

_STRING_BODY = r'[^"\\\n]*(?:\\[\s\S][^"\\\n]*)*'
_CHAR_BODY = r"[^'\\\n]*(?:\\[\s\S][^'\\\n]*)*"

#: (group, token kind, pattern) in precedence order: at each position the
#: first group that matches wins.  The punctuators keep the order of
#: ``PUNCTUATORS`` (longest first), which is the maximal munch; ERROR takes
#: any one character left.  The OPEN_ groups are unterminated comments and
#: literals: a literal stops before a newline, or at the end of the buffer,
#: where a trailing backslash has nothing left to escape.
_RULES = (
    ("SKIP", None, r"[ \t\r]+"),
    ("NEWLINE", TokenKind.NEWLINE, r"\n"),
    # A directive runs to a newline not preceded by a backslash.
    ("DIRECTIVE", TokenKind.DIRECTIVE, r"#[^\n]*(?:(?<=\\)\n[^\n]*)*"),
    ("COMMENT", TokenKind.COMMENT, r"//[^\n]*|/\*[\s\S]*?\*/"),
    ("OPEN_COMMENT", TokenKind.COMMENT, r"/\*[\s\S]*"),
    ("STRING", TokenKind.STRING, f'"{_STRING_BODY}"'),
    ("OPEN_STRING", TokenKind.STRING, f'"{_STRING_BODY}\\\\?'),
    ("CHAR", TokenKind.CHAR, f"'{_CHAR_BODY}'"),
    ("OPEN_CHAR", TokenKind.CHAR, f"'{_CHAR_BODY}\\\\?"),
    # An exponent needs a digit, a sign or the end of the buffer after it.
    ("NUMBER", TokenKind.NUMBER, r"0[xX][0-9a-fA-F]*[uUlLfF]*"
     r"|(?:[0-9]|\.[0-9])[0-9.]*(?:[eE](?=[0-9+-]|\Z)[+-]?[0-9]*)?[uUlLfF]*"),
    ("NAME", TokenKind.IDENTIFIER, r"[A-Za-z_][A-Za-z0-9_]*"),
    ("PUNCT", TokenKind.PUNCT, "|".join(map(re.escape, PUNCTUATORS))),
    ("ERROR", TokenKind.ERROR, r"[\s\S]"),
)
_MASTER = re.compile("|".join(f"(?P<{group}>{pattern})" for group, _, pattern in _RULES))
_KINDS = {group: kind for group, kind, _ in _RULES}

#: What ``strict=True`` raises on, by group.
_STRICT_ERRORS = {
    "OPEN_COMMENT": "unterminated block comment",
    "OPEN_STRING": 'unterminated " literal',
    "OPEN_CHAR": "unterminated ' literal",
}

#: Tokens the parser never sees.
_NOT_CODE = (TokenKind.COMMENT, TokenKind.NEWLINE, TokenKind.DIRECTIVE, TokenKind.ERROR)


class Lexer:
    """Tokenise C source text.

    Parameters
    ----------
    source:
        The full text of a C translation unit (or fragment).
    keep_comments:
        When True (default) comments are emitted as COMMENT tokens; when False
        they are skipped entirely.
    strict:
        When True, unrecognised characters and unterminated comments or
        literals raise :class:`LexError`; when False (default) they are
        emitted as ERROR (or truncated COMMENT/STRING/CHAR) tokens and lexing
        continues.
    """

    def __init__(self, source: str, *, keep_comments: bool = True, strict: bool = False) -> None:
        self.source = source
        self.keep_comments = keep_comments
        self.strict = strict

    def tokenize(self) -> list[Token]:
        """Lex the entire source and return the token list (EOF-terminated).

        Lines and columns are 1-based and count every newline, including those
        inside directives, comments and literals.
        """
        tokens: list[Token] = []
        line, line_start = 1, 0
        for match in _MASTER.finditer(self.source):
            group = match.lastgroup
            if group == "SKIP":
                continue
            start = match.start()
            text = match.group()
            if self.strict and (group == "ERROR" or group in _STRICT_ERRORS):
                message = _STRICT_ERRORS.get(group) or f"unexpected character {text!r}"
                raise LexError(message, line, start - line_start + 1)
            kind = _KINDS[group]
            if kind is TokenKind.IDENTIFIER and text in C_KEYWORDS:
                kind = TokenKind.KEYWORD
            if kind is not TokenKind.COMMENT or self.keep_comments:
                tokens.append(Token(kind, text, line, start - line_start + 1))
            if "\n" in text:
                line += text.count("\n")
                line_start = start + text.rindex("\n") + 1
        tokens.append(Token(TokenKind.EOF, "", line, len(self.source) - line_start + 1))
        return tokens

    def stream(self) -> TokenStream:
        """Lex and wrap the result in a :class:`TokenStream` for the parser.

        Comments, newlines, directives and error tokens are filtered out of the
        stream — the parser only sees syntactically relevant tokens.
        """
        return TokenStream(code_tokens(self.tokenize()))


def code_tokens(tokens: list[Token]) -> list[Token]:
    """The tokens of a lexed buffer that the parser consumes (EOF included)."""
    return [t for t in tokens if t.kind not in _NOT_CODE]


def tokenize(source: str, *, keep_comments: bool = True, strict: bool = False) -> list[Token]:
    """Convenience wrapper: lex ``source`` and return the token list."""
    return Lexer(source, keep_comments=keep_comments, strict=strict).tokenize()


def code_token_texts(source: str) -> list[str]:
    """Return the syntactically relevant token texts of ``source``.

    This is what the paper's "320 tokens" exclusion criterion counts and what
    the sequence tokenizer consumes.
    """
    return [t.text for t in code_tokens(tokenize(source, keep_comments=False))
            if t.kind is not TokenKind.EOF]
