"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clang.codegen import standardize
from repro.clang.lexer import code_token_texts
from repro.clang.parser import parse_source, parses_cleanly
from repro.corpus.families import MPI_FAMILIES
from repro.corpus.templates import random_style
from repro.dataset.removal import count_mpi_calls, remove_mpi_calls
from repro.evaluation.bleu import sentence_bleu
from repro.evaluation.classification import MPICallSite, match_call_sites
from repro.evaluation.rouge import lcs_length, rouge_l
from repro.model.attention import attention_probs
from repro.tokenization.vocab import Vocabulary
from repro.xsbt import sbt_tokens, xsbt_length, sbt_length

_FAMILY_NAMES = [f.name for f in MPI_FAMILIES]


def _generate_program(family_index: int, seed: int) -> str:
    family = MPI_FAMILIES[family_index % len(MPI_FAMILIES)]
    rng = np.random.default_rng(seed)
    return family.template(rng, random_style(rng))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(family_index=st.integers(0, len(MPI_FAMILIES) - 1), seed=st.integers(0, 10_000))
def test_every_generated_program_parses_and_standardises(family_index, seed):
    source = _generate_program(family_index, seed)
    assert parses_cleanly(source)
    once = standardize(source)
    assert standardize(once) == once


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(family_index=st.integers(0, len(MPI_FAMILIES) - 1), seed=st.integers(0, 10_000))
def test_removal_strips_all_and_only_mpi_calls(family_index, seed):
    source = standardize(_generate_program(family_index, seed))
    result = remove_mpi_calls(source)
    # Invariant 1: nothing MPI remains.
    assert count_mpi_calls(result.stripped_code) == 0
    # Invariant 2: removal is line-conservative: stripped lines + removed = original lines.
    assert (len(result.stripped_code.splitlines()) + len(result.removed)
            == len(source.splitlines()))
    # Invariant 3: every recorded line really contained that call.
    source_lines = source.splitlines()
    for removed in result.removed:
        assert removed.function in source_lines[removed.line - 1]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(family_index=st.integers(0, len(MPI_FAMILIES) - 1), seed=st.integers(0, 10_000))
def test_xsbt_never_longer_than_sbt(family_index, seed):
    unit = parse_source(_generate_program(family_index, seed))
    assert xsbt_length(unit) <= sbt_length(unit)
    tokens = sbt_tokens(unit)
    assert tokens.count("(") == tokens.count(")")


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from(["int", "x", "=", "1", ";", "+", "(", ")", "foo", "0.5"]),
                min_size=1, max_size=40))
def test_vocabulary_roundtrip(tokens):
    vocab = Vocabulary.build([tokens])
    ids = vocab.encode(tokens)
    assert vocab.decode(ids) == tokens


@settings(max_examples=50, deadline=None)
@given(st.lists(st.text(alphabet="abcxyz", min_size=1, max_size=3), min_size=1, max_size=20))
def test_text_metrics_identity_and_bounds(tokens):
    assert sentence_bleu(tokens, tokens) > 0.99
    assert rouge_l(tokens, tokens) == 1.0
    assert lcs_length(tokens, tokens) == len(tokens)
    other = ["zzz"] * len(tokens)
    assert 0.0 <= sentence_bleu(other, tokens) <= 1.0
    assert 0.0 <= rouge_l(other, tokens) <= 1.0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["MPI_Send", "MPI_Recv", "MPI_Reduce"]),
                          st.integers(1, 40)), max_size=12))
def test_match_call_sites_conservation(sites):
    """TP + FP == #predictions and TP + FN == #references, for self-matching."""
    call_sites = [MPICallSite(f, l) for f, l in sites]
    counts = match_call_sites(call_sites, call_sites)
    assert counts.tp + counts.fp == len(call_sites)
    assert counts.tp + counts.fn == len(call_sites)
    assert counts.fp == 0 and counts.fn == 0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=24))
def test_softmax_is_a_distribution(values):
    # One query of 1.0 against keys ``values``: the scores are the values.
    keys = np.asarray(values, dtype=np.float64).reshape(1, 1, -1, 1)
    probs = attention_probs(np.ones((1, 1, 1, 1)), keys, None, 1.0)
    assert np.all(probs >= 0)
    assert np.isclose(probs.sum(), 1.0)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(family_index=st.integers(0, len(MPI_FAMILIES) - 1), seed=st.integers(0, 10_000))
def test_token_count_is_stable_under_standardisation(family_index, seed):
    """Standardisation may only change whitespace, never the token stream."""
    source = _generate_program(family_index, seed)
    standardized = standardize(source)
    assert code_token_texts(source) == code_token_texts(standardized)
