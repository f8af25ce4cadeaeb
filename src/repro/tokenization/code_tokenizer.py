"""Turning translation examples into model-ready integer sequences.

The encoder input follows Figure 1b of the paper::

    code tokens ... [SEP] x-sbt tokens ...

and the decoder target is the label program's token sequence bracketed by
``[SOS]``/``[EOS]``.  Code is tokenised with the C lexer (so string literals
stay single tokens); X-SBT strings are whitespace-separated tags.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..clang.lexer import tokenize
from ..clang.tokens import Token, TokenKind
from ..dataset.records import TranslationExample
from .vocab import EOS, SEP, SOS, Vocabulary

#: Lexer tokens the model never sees.
_NOT_MODEL = (TokenKind.COMMENT, TokenKind.NEWLINE, TokenKind.ERROR, TokenKind.EOF)


@dataclass
class EncodedExample:
    """Integer sequences for one translation example."""

    example_id: str
    encoder_ids: list[int]
    decoder_ids: list[int]


@dataclass
class SequenceConfig:
    """Sequence-length limits.

    The paper trains with 320 code tokens; the encoder additionally carries the
    X-SBT, so its cap is higher.  Longer sequences are truncated (never
    dropped — filtering happened earlier in the dataset build).
    """

    max_source_tokens: int = 320
    max_xsbt_tokens: int = 160
    max_target_tokens: int = 360


def tokenize_code(code: str, *, lexed: list[Token] | None = None) -> list[str]:
    """Tokenise C source into the word-level tokens the model consumes.

    Unlike :func:`repro.clang.lexer.code_token_texts` (which implements the
    paper's 320-token *filter* count), the model tokenisation keeps
    preprocessor directives as single tokens: the decoder reproduces the whole
    file, and keeping the ``#include`` lines preserves the line numbering that
    the location evaluation (RQ2) depends on.  ``lexed`` is
    ``tokenize(code)`` when the caller already lexed the buffer.
    """
    if lexed is None:
        lexed = tokenize(code, keep_comments=False)
    return [token.text.strip() if token.kind is TokenKind.DIRECTIVE else token.text
            for token in lexed if token.kind not in _NOT_MODEL]


def tokenize_xsbt(xsbt: str) -> list[str]:
    """Tokenise an X-SBT string (whitespace separated tags)."""
    return xsbt.split()


class ExampleEncoder:
    """Encodes :class:`TranslationExample` objects with a shared vocabulary."""

    def __init__(self, vocab: Vocabulary, config: SequenceConfig | None = None,
                 *, use_xsbt: bool = True) -> None:
        self.vocab = vocab
        self.config = config or SequenceConfig()
        self.use_xsbt = use_xsbt

    # --------------------------------------------------------------- builders

    @classmethod
    def fit(cls, examples: list[TranslationExample],
            config: SequenceConfig | None = None, *, use_xsbt: bool = True,
            max_vocab: int | None = None) -> "ExampleEncoder":
        """Build the vocabulary from ``examples`` and return an encoder.

        The vocabulary covers source code, X-SBT tags and target code so the
        decoder can emit everything it needs.
        """
        sequences: list[list[str]] = []
        for ex in examples:
            sequences.append(tokenize_code(ex.source_code))
            sequences.append(tokenize_code(ex.target_code))
            if use_xsbt:
                sequences.append(tokenize_xsbt(ex.source_xsbt))
        vocab = Vocabulary.build(sequences, max_size=max_vocab)
        return cls(vocab, config, use_xsbt=use_xsbt)

    # ------------------------------------------------------------------- api

    def encoder_tokens(self, example: TranslationExample) -> list[str]:
        """The token sequence fed to the encoder (code [SEP] x-sbt)."""
        tokens = tokenize_code(example.source_code)[: self.config.max_source_tokens]
        if self.use_xsbt:
            tokens = tokens + [SEP] + tokenize_xsbt(example.source_xsbt)[
                : self.config.max_xsbt_tokens
            ]
        return tokens

    def decoder_tokens(self, example: TranslationExample) -> list[str]:
        """The token sequence the decoder should produce ([SOS] ... [EOS])."""
        target = tokenize_code(example.target_code)[: self.config.max_target_tokens]
        return [SOS] + target + [EOS]

    def encode_example(self, example: TranslationExample) -> EncodedExample:
        """Encode one example into integer id sequences."""
        return EncodedExample(
            example_id=example.example_id,
            encoder_ids=self.vocab.encode(self.encoder_tokens(example)),
            decoder_ids=self.vocab.encode(self.decoder_tokens(example)),
        )

    def encode_examples(self, examples: list[TranslationExample]) -> list[EncodedExample]:
        """Encode a list of examples."""
        return [self.encode_example(ex) for ex in examples]

    def encode_source(self, source_code: str, xsbt: str | None = None, *,
                      tokens: list[str] | None = None) -> list[int]:
        """Encode raw source text (used at inference time by the assistant).

        ``tokens`` skips re-lexing when the caller already tokenised the
        buffer (the serving layer lexes once per request for cache keying).
        """
        if tokens is None:
            tokens = tokenize_code(source_code)
        tokens = tokens[: self.config.max_source_tokens]
        if self.use_xsbt and xsbt is not None:
            tokens = tokens + [SEP] + tokenize_xsbt(xsbt)[: self.config.max_xsbt_tokens]
        return self.vocab.encode(tokens)

    def decode_to_code(self, ids: list[int]) -> str:
        """Decode generated ids back into C source text.

        Tokens are joined with spaces and then lightly re-flowed: a newline is
        inserted after ``;``, ``{`` and ``}`` and after preprocessor
        directives, which is enough for the downstream line-level alignment
        (the paper's location metric works at statement granularity, and the
        standardiser emits one statement per line).
        """
        tokens = self.vocab.decode(ids)
        return detokenize(tokens)


def detokenize(tokens: list[str]) -> str:
    """Reconstruct C source text from word-level tokens.

    The reconstruction mirrors the standardiser's line discipline so the line
    numbers of a perfectly generated program match its reference: statements
    end lines at ``;`` (outside parentheses), ``{`` ends a line and indents,
    ``}`` closes a line except when followed by ``else``/``while`` (so
    ``} else {`` and ``} while (...);`` stay on one line), and preprocessor
    directives occupy their own lines.
    """
    lines: list[str] = []
    current: list[str] = []
    depth = 0
    paren_depth = 0

    def flush() -> None:
        nonlocal current
        if current:
            lines.append(_join_tokens(current, depth))
            current = []

    for i, token in enumerate(tokens):
        nxt = tokens[i + 1] if i + 1 < len(tokens) else ""
        if token.startswith("#"):
            flush()
            lines.append(token)
            continue
        if token == "(":
            paren_depth += 1
        elif token == ")":
            paren_depth = max(0, paren_depth - 1)

        if token == "}":
            flush()
            depth = max(0, depth - 1)
            if nxt in ("else", "while"):
                current = ["}"]
            else:
                lines.append(_join_tokens(["}"], depth))
            continue

        current.append(token)
        if token == ";" and paren_depth == 0:
            flush()
        elif token == "{":
            flush()
            depth += 1
    flush()
    return "\n".join(lines) + "\n"


_NO_SPACE_BEFORE = {";", ",", ")", "]", "[", "++", "--", "."}
_NO_SPACE_AFTER = {"(", "[", "!", "~", "."}

#: Keywords that take a space before their parenthesis (``if (x)`` not ``if(x)``).
_KEYWORDS_BEFORE_PAREN = {"if", "while", "for", "switch", "return"}

#: Tokens after which ``&`` / ``*`` / ``-`` act as unary operators and bind to
#: the operand without a space (``f(&x)``, ``a = -b``).
_UNARY_CONTEXT = {
    "(", ",", "[", "{", ";", "=", "+", "-", "*", "/", "%", "<", ">", "<=", ">=",
    "==", "!=", "&&", "||", "!", "&", "|", "^", "<<", ">>", "return", "",
    "+=", "-=", "*=", "/=", "?", ":",
}


def _join_tokens(tokens: list[str], depth: int) -> str:
    """Join one line's tokens with C-ish spacing and indentation."""
    out = ""
    prev = ""
    unary_pending = False
    for token in tokens:
        if not out:
            out = token
        elif token == "(":
            if prev in _KEYWORDS_BEFORE_PAREN:
                out += " ("
            else:
                out += "("
        elif unary_pending:
            out += token
        elif token in _NO_SPACE_BEFORE or prev in _NO_SPACE_AFTER:
            out += token
        else:
            out += " " + token
        unary_pending = token in ("&", "-", "!", "~") and prev in _UNARY_CONTEXT
        prev = token
    return "    " * depth + out


def pad_batch(sequences: list[list[int]], pad_id: int,
              max_len: int | None = None) -> np.ndarray:
    """Pad integer sequences into a dense ``(batch, length)`` int array."""
    if not sequences:
        return np.zeros((0, 0), dtype=np.int64)
    length = max(len(s) for s in sequences)
    if max_len is not None:
        length = min(length, max_len)
    batch = np.full((len(sequences), length), pad_id, dtype=np.int64)
    for i, seq in enumerate(sequences):
        trimmed = seq[:length]
        batch[i, : len(trimmed)] = trimmed
    return batch
