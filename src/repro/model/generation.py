"""Sequence generation: greedy and beam decoding with KV caching.

Two kinds of decoder live here:

* the **sequential reference decoders** (:func:`greedy_decode`,
  :func:`beam_search_decode`, :func:`beam_search_nbest`) — simple,
  per-source implementations that act as the executable specification and
  the differential oracle; and
* the **continuous decode core** (:class:`ContinuousDecoderLoop`) — the one
  batched engine.  :mod:`repro.serving.sched` drives it with one
  :class:`repro.model.decoding.RowDecodeState` per request, and every
  request's tokens are exact-match identical to its sequential decode
  (``tests/test_decoding_differential.py`` is the differential harness).

Candidate ordering in beam search is explicit and shared by both
(:func:`_candidate_key`): descending normalised score, then ascending
last-emitted token id, then ascending parent-beam rank.  Nothing depends on
Python sort stability or hypothesis insertion order, which is what lets a
beam request's row block in the continuous batch match the per-source
search bit-for-bit even on exactly tied scores.

Every decoder here runs on the **inference fast path** by default: the model
calls execute under :func:`repro.model.autograd.inference_mode` (no autograd
tape, fused no-tape kernels, float32 compute, preallocated KV-cache
buffers).  Callers that pin an execution mode first — ``tape_mode()`` for
the tape reference, ``inference_mode(dtype=np.float64)`` for the
bitwise-reproducible fast path — are respected; that is how the
differential tests in ``tests/test_inference_fastpath.py`` and the
``benchmarks/test_bench_decode_fastpath.py`` benchmark compare the paths.
"""

from __future__ import annotations

import copy
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .attention import padding_mask
from .autograd import Tensor, current_dtype, inference_mode, mode_is_explicit
from .transformer import Seq2SeqTransformer


def _decode_mode():
    """The execution mode a generation entry point runs under.

    By default every decoder below switches onto the no-tape inference fast
    path (:func:`repro.model.autograd.inference_mode`, float32 compute).  A
    caller that pinned a mode — ``tape_mode()`` for the reference path, or
    ``inference_mode(dtype=np.float64)`` for the bitwise-reproducible fast
    path — is respected: the differential tests and benchmarks select the
    implementation by wrapping these entry points, not by extra arguments.
    """
    return nullcontext() if mode_is_explicit() else inference_mode()


# --------------------------------------------------------------------------
# Sequential reference decoders
# --------------------------------------------------------------------------


def greedy_decode(model: Seq2SeqTransformer, source_ids: list[int], *, sos_id: int,
                  eos_id: int, pad_id: int, max_length: int = 400,
                  on_token=None) -> list[int]:
    """Greedy auto-regressive decoding for a single source sequence.

    Returns the generated ids without the leading SOS or trailing EOS.
    An empty source generates nothing (there is no memory to attend over).
    ``on_token`` (if given) is called with each token id the moment it is
    emitted — the streaming hook ``repro.model.decoding`` strategies expose.
    """
    if not source_ids:
        return []
    with _decode_mode():
        src = np.asarray([source_ids], dtype=np.int64)
        memory = model.encode(src, pad_id, training=False)
        state = model.start_decoding()

        generated: list[int] = []
        current = np.asarray([[sos_id]], dtype=np.int64)
        for _ in range(max_length):
            logits = model.decode_step(current, memory, src, pad_id, state)
            next_id = int(np.argmax(logits[0]))
            if next_id == eos_id:
                break
            generated.append(next_id)
            if on_token is not None:
                on_token(next_id)
            current = np.asarray([[next_id]], dtype=np.int64)
        return generated


@dataclass
class _Beam:
    ids: list[int]
    score: float
    state: object
    finished: bool = False


def beam_search_decode(model: Seq2SeqTransformer, source_ids: list[int], *, sos_id: int,
                       eos_id: int, pad_id: int, beam_size: int = 3,
                       max_length: int = 400, length_penalty: float = 0.6) -> list[int]:
    """Beam-search decoding for a single source sequence.

    Each hypothesis needs its own KV cache, so this path runs one
    :meth:`Seq2SeqTransformer.decode_step` per live hypothesis per step; it
    is the slow reference that the continuous batch's beam rows
    (:class:`repro.model.decoding.BeamRowState`) are measured (and
    differentially tested) against.

    Candidate ordering is fully deterministic — see :func:`_candidate_key` —
    so equal-scoring hypotheses resolve identically run-to-run and across
    the sequential/continuous implementations.
    """
    if beam_size <= 1:
        return greedy_decode(model, source_ids, sos_id=sos_id, eos_id=eos_id,
                             pad_id=pad_id, max_length=max_length)
    if not source_ids:
        return []
    beams = _beam_search_beams(model, source_ids, sos_id=sos_id, eos_id=eos_id,
                               pad_id=pad_id, beam_size=beam_size,
                               max_length=max_length,
                               length_penalty=length_penalty)
    # Beams are kept in candidate order, so the best hypothesis is beams[0].
    return _strip_eos(beams[0].ids, eos_id)


def beam_search_nbest(model: Seq2SeqTransformer, source_ids: list[int], *, sos_id: int,
                      eos_id: int, pad_id: int, beam_size: int = 3,
                      max_length: int = 400,
                      length_penalty: float = 0.6) -> list[list[int]]:
    """All final beam hypotheses, best first.

    Element 0 is exactly what :func:`beam_search_decode` returns (both read
    the same final beam list in candidate order); the remainder are the
    runner-up hypotheses, which verification can promote when the top beam
    fails under simulation.  ``beam_size <= 1`` degenerates to a single
    greedy hypothesis; an empty source has no hypotheses at all.
    """
    if beam_size <= 1:
        return [greedy_decode(model, source_ids, sos_id=sos_id, eos_id=eos_id,
                              pad_id=pad_id, max_length=max_length)]
    if not source_ids:
        return []
    beams = _beam_search_beams(model, source_ids, sos_id=sos_id, eos_id=eos_id,
                               pad_id=pad_id, beam_size=beam_size,
                               max_length=max_length,
                               length_penalty=length_penalty)
    return [_strip_eos(beam.ids, eos_id) for beam in beams]


def _beam_search_beams(model: Seq2SeqTransformer, source_ids: list[int], *,
                       sos_id: int, eos_id: int, pad_id: int, beam_size: int,
                       max_length: int, length_penalty: float) -> list[_Beam]:
    """The beam-search loop; returns the final beams in candidate order."""
    with _decode_mode():
        src = np.asarray([source_ids], dtype=np.int64)
        memory = model.encode(src, pad_id, training=False)

        beams: list[_Beam] = [_Beam(ids=[], score=0.0, state=model.start_decoding())]
        for _ in range(max_length):
            # (key, ids, score, finished, parent) — parent is the beam whose
            # post-step cache a kept unfinished candidate must inherit.
            candidates: list[tuple[tuple, list[int], float, bool, _Beam | None]] = []
            for rank, beam in enumerate(beams):
                if beam.finished:
                    key = _candidate_key(beam.score, beam.ids, length_penalty,
                                         beam.ids[-1], rank)
                    candidates.append((key, beam.ids, beam.score, True, None))
                    continue
                prev_id = beam.ids[-1] if beam.ids else sos_id
                current = np.asarray([[prev_id]], dtype=np.int64)
                logits = model.decode_step(current, memory, src, pad_id, beam.state)
                log_probs = _log_softmax(logits[0])
                for token in _ranked_top_tokens(log_probs, beam_size):
                    ids = beam.ids + [token]
                    score = beam.score + float(log_probs[token])
                    key = _candidate_key(score, ids, length_penalty, token, rank)
                    candidates.append((key, ids, score, token == eos_id, beam))
            candidates.sort(key=lambda c: c[0])
            beams = _materialise_kept(candidates[:beam_size])
            if all(b.finished for b in beams):
                break
        return beams


def _materialise_kept(kept: list[tuple]) -> list[_Beam]:
    """Turn kept candidates into beams, cloning parent caches only when shared.

    The first kept child of a parent inherits the parent's (post-step) cache
    in place; further kept children of the same parent deep-copy it.  Kept
    finished candidates never decode again and carry no state.
    """
    beams: list[_Beam] = []
    claimed: set[int] = set()
    for _, ids, score, finished, parent in kept:
        if finished or parent is None:
            state = None
        elif id(parent) not in claimed:
            claimed.add(id(parent))
            state = parent.state
        else:
            state = copy.deepcopy(parent.state)
        beams.append(_Beam(ids=ids, score=score, state=state, finished=finished))
    return beams


def _strip_eos(ids: list[int], eos_id: int) -> list[int]:
    return ids[:-1] if ids and ids[-1] == eos_id else ids


# --------------------------------------------------------------------------
# Shared ordering / numerics (the sequential and continuous beam paths)
# --------------------------------------------------------------------------


def _normalised(score: float, length: int, length_penalty: float) -> float:
    length = max(1, length)
    return score / (length ** length_penalty) if length_penalty else score


def _candidate_key(score: float, ids: list[int], length_penalty: float,
                   last_token: int, parent_rank: int) -> tuple:
    """The explicit total order over beam candidates (ascending sort key).

    Higher normalised score first; exact ties break on the lower last-emitted
    token id, then on the lower parent-beam rank.  Carried-over finished
    hypotheses participate with their final EOS as the last token.
    """
    return (-_normalised(score, len(ids), length_penalty), last_token, parent_rank)


def _ranked_top_tokens(log_probs: np.ndarray, beam_size: int) -> list[int]:
    """Top ``beam_size`` token ids by log-prob, ties broken by ascending id."""
    order = np.argsort(-log_probs, kind="stable")
    return [int(t) for t in order[:beam_size]]


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    return shifted - np.log(np.exp(shifted).sum())


def _log_softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax, bitwise identical per row to :func:`_log_softmax`."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


# --------------------------------------------------------------------------
# ContinuousDecoderLoop — the step-resumable core for continuous batching
# --------------------------------------------------------------------------


class ContinuousDecoderLoop:
    """Step-resumable decode core whose row set changes *between* steps.

    The loop owns a live row matrix that requests join and leave mid-decode
    (Orca-style continuous batching, driven by :mod:`repro.serving.sched`):

    * :meth:`join` encodes one source **alone at its own width** — bitwise
      the memory its sequential decode would see — inserts its rows into
      every per-layer KV cache (cross-attention caches adopt the projected
      memory up front, self-attention caches start at length zero) and
      extends the padded source matrix, the per-row positions and the
      memoised memory mask;
    * :meth:`step` runs one batched ``decode_step`` over the live rows, each
      row attending its own ragged history at its own position;
    * :meth:`reorder_rows` re-gathers rows after a beam pruning pass;
    * :meth:`retire` compacts a finished request's row block out.

    Exactness: rows of a batched decode step are computed independently (the
    property every continuous ≡ sequential differential in this repo pins
    down); per-row cache lengths keep each joiner's garbage *trailing*
    behind the ragged mask; and the positional term is a per-row gather of
    the very table rows the sequential decode reads — so a request's tokens
    are bitwise identical to its sequential decode no matter what joins or
    retires around it (``tests/test_decoding_differential.py``).
    """

    def __init__(self, model: Seq2SeqTransformer, *, pad_id: int) -> None:
        self.model = model
        self.pad_id = pad_id
        self.state = model.start_decoding()
        self.state.positions = np.zeros(0, dtype=np.int64)
        self.src = np.zeros((0, 0), dtype=np.int64)
        #: Per-row true (unpadded) source length; the source matrix is kept
        #: exactly ``max(src_lengths)`` wide, which is also every
        #: cross-attention cache's view width — the invariant that keeps the
        #: memory mask and the cached projections aligned.
        self.src_lengths: list[int] = []
        self.num_rows = 0

    # ------------------------------------------------------------------- api

    def join(self, source_ids: list[int], rows: int = 1) -> int:
        """Admit one request occupying ``rows`` rows; return its first row.

        ``source_ids`` must be non-empty — an empty source has no memory to
        attend over; callers answer those with an empty generation without
        ever joining (the sequential decoders' contract).
        """
        if rows < 1:
            raise ValueError(f"rows must be >= 1, got {rows}")
        if not source_ids:
            raise ValueError("cannot join an empty source")
        index = self.num_rows
        with _decode_mode():
            src_row = np.asarray([list(source_ids)], dtype=np.int64)
            memory = self.model.encode(src_row, self.pad_id, training=False)
            memory_data = (memory.data if isinstance(memory, Tensor)
                           else np.asarray(memory))
            self._insert_cross_rows(index, memory_data, rows)
        for cache in self.state.self_caches:
            cache.insert_rows(index, count=rows)
        width = max(self.src.shape[1], len(source_ids))
        src = np.full((index + rows, width), self.pad_id, dtype=np.int64)
        src[:index, :self.src.shape[1]] = self.src
        src[index:, :len(source_ids)] = source_ids
        self.src = src
        self.src_lengths.extend([len(source_ids)] * rows)
        self.state.positions = np.concatenate(
            [self.state.positions, np.zeros(rows, dtype=np.int64)])
        self.num_rows = index + rows
        self._refresh_memory_mask()
        return index

    def step(self, token_ids: np.ndarray) -> np.ndarray:
        """One incremental decode step for every live row: (rows, vocab)."""
        if not self.num_rows:
            raise RuntimeError("ContinuousDecoderLoop.step with no live rows")
        with _decode_mode():
            memory = np.zeros((self.num_rows, 0, 1))
            return self.model.decode_step(token_ids, memory, self.src,
                                          self.pad_id, self.state)

    def reorder_rows(self, parents: np.ndarray) -> None:
        """Re-gather rows so row ``r`` continues ``parents[r]`` (beam pruning).

        Callers must keep ``parents`` inside each request's row block (the
        scheduler validates).  Cross-attention caches are not gathered: a
        block's rows all project the same memory, so the gather would be an
        identity.  The gather happens in place inside each cache's
        preallocated buffers (:meth:`repro.model.attention.KVCache.reorder_rows`).
        """
        parents = np.asarray(parents)
        for cache in self.state.self_caches:
            cache.reorder_rows(parents)
        self.state.positions[:] = self.state.positions[parents]

    def retire(self, index: int, rows: int = 1) -> None:
        """Remove the row block ``[index, index + rows)`` (a finished request).

        Every cache compacts in place, the source matrix re-narrows to the
        widest surviving source, and the memory mask is rebuilt — joins after
        a retire see exactly the state a fresh batch of the survivors would.
        """
        if rows < 1 or index < 0 or index + rows > self.num_rows:
            raise ValueError(f"cannot retire rows [{index}, {index + rows}) "
                             f"of {self.num_rows}")
        block = range(index, index + rows)
        for cache in self.state.self_caches:
            if cache.rows:
                cache.retire_rows(block)
        for cache in self.state.cross_caches:
            if cache.rows:
                cache.retire_rows(block)
        keep = [r for r in range(self.num_rows)
                if r < index or r >= index + rows]
        self.src_lengths = [self.src_lengths[r] for r in keep]
        width = max(self.src_lengths, default=0)
        self.src = self.src[keep, :width]
        self.state.positions = self.state.positions[keep]
        self.num_rows -= rows
        self._refresh_memory_mask()

    # ------------------------------------------------------------ internals

    def _insert_cross_rows(self, index: int, memory_data: np.ndarray,
                           rows: int) -> None:
        """Pre-populate the cross-attention caches for a joining request.

        Per decoder layer this is exactly what the first ``decode_step``'s
        lazy population would compute from this memory (project, split
        heads, repeat per hypothesis row), so the memory tensor is never
        needed again — :meth:`step` passes a dummy.
        """
        caches = self.state.cross_caches
        if not caches:
            return
        dtype = current_dtype()
        width = memory_data.shape[1]
        for layer, cache in zip(self.model.decoder_layers, caches):
            attn = layer.cross_attn
            k = attn._split_data(attn.k_proj.forward_data(memory_data, dtype),
                                 1, width)
            v = attn._split_data(attn.v_proj.forward_data(memory_data, dtype),
                                 1, width)
            if rows > 1:
                k = np.repeat(k, rows, axis=0)
                v = np.repeat(v, rows, axis=0)
            cache.insert_rows(index, k, v)

    def _refresh_memory_mask(self) -> None:
        """Rebuild the cross-attention mask after any row change.

        A *fresh* array every time: the decode step's memo is keyed on the
        source matrix identity, so this is what invalidates it.
        """
        if self.num_rows:
            self.state.memory_mask = padding_mask(self.src, self.pad_id)
            self.state.memory_mask_source = self.src
        else:
            self.state.memory_mask = None
            self.state.memory_mask_source = None
