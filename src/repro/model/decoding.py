"""Pluggable decoding strategies: the registry behind ``repro.api``.

Before this module existed, every layer of the stack dispatched decodes
through its own ``if generation.beam_size > 1`` ladder and threaded each new
decoding knob (``beam_size``, ``length_penalty``, ...) by hand through five
call sites.  A :class:`DecodingStrategy` packages one decoding *algorithm
plus its parameters* as a frozen, serialisable value object that every layer
passes through unchanged:

* :meth:`DecodingStrategy.decode` runs the sequential reference decoder
  (the differential oracle), and :meth:`DecodingStrategy.row_state` builds
  the per-request :class:`RowDecodeState` machine that rides the shared
  continuous batch (:class:`repro.model.generation.ContinuousDecoderLoop`)
  — the one batched decode path;
* :meth:`DecodingStrategy.canonical` is the **canonical serialized form** —
  the single string that serving derives cache keys and per-config metrics
  labels from, with no hand-maintained label functions;
* :meth:`DecodingStrategy.to_dict` / :func:`strategy_from_dict` are the wire
  format used by the v1 HTTP API (``{"name": "beam", "beam_size": 4, ...}``).

Strategies register themselves under a short name (:func:`register_strategy`)
so new algorithms become one new class instead of a cross-layer kwarg sweep:

>>> strategy_from_dict({"name": "sample", "temperature": 0.8, "seed": 7})
SampleStrategy(temperature=0.8, top_k=0, top_p=1.0, seed=7)

Streaming: every strategy accepts an ``on_token`` callback.  Greedy and
sampling invoke it the moment each token is emitted; beam search only knows
its best hypothesis once search finishes, so it replays the winning tokens
through the callback at the end (the streaming protocol still holds — the
chunks just arrive late).

:class:`SampleStrategy` is the new workload: temperature / top-k / top-p
sampling with an **explicit seed**.  Sampling is bitwise reproducible — the
per-row RNG stream depends only on ``seed`` (never on batch composition), and
token selection runs in float64 off the model's logits, so the same seed
yields the same tokens sequentially and in the continuous batch, and across
the tape and float64 inference paths (``tests/test_sampling_determinism.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Callable, ClassVar, Iterator
import math

import numpy as np

from .generation import (
    _candidate_key,
    _decode_mode,
    _log_softmax_rows,
    _ranked_top_tokens,
    _strip_eos,
    beam_search_decode,
    beam_search_nbest,
    greedy_decode,
)
from .transformer import Seq2SeqTransformer

#: Streaming callback: called with each emitted token id.
OnToken = Callable[[int], None]

#: Largest accepted beam size; beam cost scales linearly with the hypothesis
#: count, so an unbounded client value is a denial-of-service knob.  Lives
#: here (not in the HTTP layer) so every entry point enforces the same bound.
MAX_BEAM_SIZE = 16

#: Largest accepted top-k; like the beam bound, a sanity cap shared by every
#: entry point (0 means "no top-k filtering").
MAX_TOP_K = 1024


class StrategyParamError(ValueError):
    """An invalid strategy parameter, carrying the offending field name.

    ``kind`` is the machine-readable failure class — ``"type"`` (wrong JSON
    type), ``"value"`` (right type, out of range), or ``"unknown"`` (no such
    parameter/strategy) — so the API layer (:mod:`repro.api`) maps this onto
    its structured error envelope and the 400/422 status split without
    string matching, which is what keeps server and service validation
    identical.
    """

    def __init__(self, field: str, message: str, *, kind: str = "value") -> None:
        super().__init__(message)
        self.field = field
        self.kind = kind


def _require_int(name: str, value, *, minimum: int, maximum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise StrategyParamError(name, f'"{name}" must be an integer',
                                 kind="type")
    if value < minimum or (maximum is not None and value > maximum):
        bound = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        raise StrategyParamError(name, f'"{name}" must be {bound}')
    return value


def _require_number(name: str, value, *, minimum: float | None = None,
                    minimum_exclusive: float | None = None,
                    maximum: float | None = None) -> float:
    """A finite float within bounds; NaN/inf are rejected for every field.

    A non-finite parameter would poison beam ranking (NaN breaks the
    candidate total order), sampling renormalisation and the cache key, so
    the rejection lives here — the single validation point — rather than in
    each transport layer.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise StrategyParamError(name, f'"{name}" must be a number',
                                 kind="type")
    value = float(value)
    if not math.isfinite(value):
        raise StrategyParamError(name, f'"{name}" must be finite')
    if minimum is not None and value < minimum:
        raise StrategyParamError(name, f'"{name}" must be >= {minimum}')
    if minimum_exclusive is not None and value <= minimum_exclusive:
        raise StrategyParamError(name, f'"{name}" must be > {minimum_exclusive}')
    if maximum is not None and value > maximum:
        raise StrategyParamError(name, f'"{name}" must be <= {maximum}')
    return value


def _coerce_float_fields(strategy: DecodingStrategy, *names: str) -> None:
    """Normalise real-number fields of a frozen strategy to ``float``.

    JSON clients spell ``1.0`` as ``1`` freely; without coercion the int and
    float spellings of the same value would ``repr`` differently and get
    distinct canonical forms — distinct cache entries and metric buckets for
    identical decodes.  Non-numeric junk is left untouched for
    :meth:`validate` to reject with a proper type error.
    """
    for name in names:
        value = getattr(strategy, name)
        if isinstance(value, int) and not isinstance(value, bool):
            object.__setattr__(strategy, name, float(value))


@dataclass(frozen=True)
class DecodingStrategy:
    """Base class: one decoding algorithm plus its (frozen) parameters.

    Subclasses are frozen dataclasses whose fields are exactly the wire
    parameters; the base class derives serialisation, the canonical string
    and strict construction from the dataclass machinery, so a new strategy
    implements :meth:`validate` plus exactly two decode methods:
    :meth:`decode`, the sequential reference that tests and the offline
    pipeline call, and :meth:`row_state`, the per-request state machine
    every served decode runs through.
    """

    #: Registry key and wire name; set by each subclass.
    name: ClassVar[str] = ""

    # ------------------------------------------------------- serialisation

    def params(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_dict(self) -> dict:
        """The v1 wire form: ``{"name": ..., <param>: ..., ...}``."""
        return {"name": self.name, **self.params()}

    def canonical(self) -> str:
        """The canonical serialized form (cache keys, metrics labels).

        Two strategies share cache entries and metric buckets exactly when
        their canonical strings are equal, so every
        output-changing parameter must appear here at full precision
        (``repr``, not a rounded format).
        """
        params = ",".join(f"{k}={v!r}" for k, v in sorted(self.params().items()))
        return f"{self.name}:{params}" if params else self.name

    @classmethod
    def from_params(cls, params: dict) -> "DecodingStrategy":
        """Strict construction: unknown parameters are rejected by name."""
        known = {f.name for f in fields(cls)}
        for key in params:
            if key not in known:
                raise StrategyParamError(
                    key, f'unknown parameter "{key}" for strategy "{cls.name}"',
                    kind="unknown")
        strategy = cls(**params)
        strategy.validate()
        return strategy

    # ---------------------------------------------------------- behaviour

    def validate(self) -> None:
        """Raise :class:`StrategyParamError` on any out-of-range parameter."""

    def normalised(self) -> "DecodingStrategy":
        """The strategy whose canonical form keys caches and metrics.

        Parameter combinations that cannot change the output collapse to one
        representative (e.g. ``beam_size=1`` is greedy regardless of length
        penalty), so equivalent requests share cache entries.
        """
        return self

    def decode(self, model: Seq2SeqTransformer, source_ids: list[int], *,
               sos_id: int, eos_id: int, pad_id: int, max_length: int = 400,
               on_token: OnToken | None = None) -> list[int]:
        raise NotImplementedError

    def row_state(self, *, sos_id: int, eos_id: int, max_length: int = 400,
                  on_token: OnToken | None = None) -> "RowDecodeState":
        """The per-request state machine for continuous batching.

        Returns a fresh :class:`RowDecodeState` that drives this strategy's
        rows inside a shared iteration-level batch
        (:class:`repro.serving.sched.InflightBatch`).  This is the only
        batched decode path, so a strategy without a row state cannot be
        served: the default raises ``NotImplementedError`` and the scheduler
        fails that request's own future with it.
        """
        raise NotImplementedError(
            f"strategy {self.name!r} does not support continuous batching")

    # ------------------------------------------------------------- candidates

    def nbest_limit(self) -> int:
        """How many distinct candidates this strategy can produce per source.

        Deterministic single-hypothesis strategies (greedy) return 1; beam
        search is bounded by its beam size; sampling is effectively unbounded
        (each extra candidate re-seeds the stream).  Verification uses this
        to avoid asking for candidates a strategy cannot provide.
        """
        return 1

    def decode_nbest(self, model: Seq2SeqTransformer, source_ids: list[int], *,
                     sos_id: int, eos_id: int, pad_id: int,
                     max_length: int = 400,
                     max_candidates: int = 1) -> list[list[int]]:
        """Up to ``max_candidates`` candidate generations, best first.

        Candidate 0 is **always** exactly what :meth:`decode` returns — the
        verification layer relies on that to reuse the already-served result
        as the first candidate without re-decoding.  The default produces the
        single :meth:`decode` hypothesis.
        """
        del max_candidates
        return [self.decode(model, source_ids, sos_id=sos_id, eos_id=eos_id,
                            pad_id=pad_id, max_length=max_length)]


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------

_REGISTRY: dict[str, type[DecodingStrategy]] = {}


def register_strategy(cls: type[DecodingStrategy]) -> type[DecodingStrategy]:
    """Class decorator: register ``cls`` under its :attr:`name`."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must define a non-empty name")
    if _REGISTRY.get(cls.name, cls) is not cls:
        raise ValueError(f"strategy name {cls.name!r} is already registered")
    _REGISTRY[cls.name] = cls
    return cls


def registered_strategies() -> dict[str, type[DecodingStrategy]]:
    """Snapshot of the registry (wire name -> strategy class)."""
    return dict(_REGISTRY)


def strategy_from_dict(data: dict | str) -> DecodingStrategy:
    """Build a strategy from its wire form (a dict, or a bare name string)."""
    if isinstance(data, str):
        data = {"name": data}
    if not isinstance(data, dict):
        raise StrategyParamError(
            "strategy", '"strategy" must be a name or an object with a "name"',
            kind="type")
    params = dict(data)
    name = params.pop("name", None)
    if not isinstance(name, str) or not name:
        raise StrategyParamError("strategy.name", 'strategy "name" is required',
                                 kind="type")
    cls = _REGISTRY.get(name)
    if cls is None:
        known = ", ".join(sorted(_REGISTRY))
        raise StrategyParamError(
            "strategy.name", f'unknown strategy "{name}" (known: {known})',
            kind="unknown")
    return cls.from_params(params)


# --------------------------------------------------------------------------
# Per-row strategy state machines (continuous batching)
# --------------------------------------------------------------------------


class RowDecodeState:
    """One request's decode state machine inside a continuous batch.

    The scheduler owns a shared step loop
    (:class:`repro.model.generation.ContinuousDecoderLoop`); each request
    contributes :attr:`rows` rows plus a state machine that consumes its
    block of logits every iteration and yields the tokens to feed next.
    Implementations replicate the corresponding sequential decoder's math
    operation for operation (same argsort kinds, same float accumulation,
    same tie-breaking), so a request's output is bitwise identical to its
    sequential decode regardless of what joins or retires around it.
    """

    #: Rows this request occupies (``beam_size`` for beam search).
    rows: int = 1

    def __init__(self, *, sos_id: int, eos_id: int, max_length: int = 400,
                 on_token: OnToken | None = None) -> None:
        self.sos_id = sos_id
        self.eos_id = eos_id
        self.max_length = max_length
        self.on_token = on_token
        self.steps = 0
        self.finished = False

    def first_tokens(self) -> list[int]:
        """The tokens fed at this request's first step (SOS per row)."""
        return [self.sos_id] * self.rows

    def advance(self, logits: np.ndarray) -> tuple[list[int], list[int] | None]:
        """Consume this block's logits ``(rows, vocab)`` for one step.

        Returns ``(next_tokens, parents)``: the token to feed each row next
        step, and — for beam search — the block-local parent row each row
        must continue (``None`` when every row continues itself).  Sets
        :attr:`finished` once the request is complete.
        """
        raise NotImplementedError

    def result(self) -> list[int]:
        """The generated ids (no SOS/EOS), valid once :attr:`finished`."""
        raise NotImplementedError


class GreedyRowState(RowDecodeState):
    """Replicates :func:`repro.model.generation.greedy_decode` per step:
    argmax of the row's logits, stopping on EOS or ``max_length`` tokens."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.ids: list[int] = []

    def advance(self, logits: np.ndarray) -> tuple[list[int], list[int] | None]:
        token = int(np.argmax(logits[0]))
        self.steps += 1
        if token == self.eos_id:
            self.finished = True
        else:
            self.ids.append(token)
            if self.on_token is not None:
                self.on_token(token)
            if self.steps >= self.max_length:
                self.finished = True
        return [self.eos_id if self.finished else token], None

    def result(self) -> list[int]:
        return self.ids


class SampleRowState(RowDecodeState):
    """Replicates :func:`sample_decode`: a private ``default_rng(seed)``
    stream with exactly one draw per emitted position — batch composition
    can never perturb the stream, which is the sampling batch-invariance
    property."""

    def __init__(self, *, temperature: float, top_k: int, top_p: float,
                 seed: int, **kwargs) -> None:
        super().__init__(**kwargs)
        self.temperature = temperature
        self.top_k = top_k
        self.top_p = top_p
        self.rng = np.random.default_rng(seed)
        self.ids: list[int] = []

    def advance(self, logits: np.ndarray) -> tuple[list[int], list[int] | None]:
        z = _scaled_logits(logits[0], self.temperature)
        token = _sample_from_order(z, _top_k_order(z, self.top_k), top_k=self.top_k,
                                   top_p=self.top_p, rng=self.rng)
        self.steps += 1
        if token == self.eos_id:
            self.finished = True
        else:
            self.ids.append(token)
            if self.on_token is not None:
                self.on_token(token)
            if self.steps >= self.max_length:
                self.finished = True
        return [self.eos_id if self.finished else token], None

    def result(self) -> list[int]:
        return self.ids


class BeamRowState(RowDecodeState):
    """Replicates :func:`repro.model.generation.beam_search_decode` on a
    ``beam_size``-row block: same candidate enumeration order, same
    :func:`_candidate_key` total order, same Python-float score
    accumulation — which the differential harness proves bitwise equal to
    the sequential beam search.  Block slot == sequential beam rank, so
    slot 0 is always the best hypothesis."""

    def __init__(self, *, beam_size: int, length_penalty: float,
                 **kwargs) -> None:
        super().__init__(**kwargs)
        self.rows = beam_size
        self.length_penalty = length_penalty
        self.ids: list[list[int]] = [[] for _ in range(beam_size)]
        self.scores: list[float] = [0.0] * beam_size
        self.done: list[bool] = [False] * beam_size
        # Only slot 0 is a real hypothesis before the first pruning pass
        # (the sequential path starts from a single empty beam).
        self.valid: list[bool] = [slot == 0 for slot in range(beam_size)]

    def advance(self, logits: np.ndarray) -> tuple[list[int], list[int] | None]:
        beam_size = self.rows
        log_probs = _log_softmax_rows(logits)
        candidates: list[tuple[tuple, list[int], float, bool, int]] = []
        for rank in range(beam_size):
            if not self.valid[rank]:
                continue
            if self.done[rank]:
                key = _candidate_key(self.scores[rank], self.ids[rank],
                                     self.length_penalty,
                                     self.ids[rank][-1], rank)
                candidates.append((key, self.ids[rank], self.scores[rank],
                                   True, rank))
                continue
            row_log_probs = log_probs[rank]
            for token in _ranked_top_tokens(row_log_probs, beam_size):
                cand_ids = self.ids[rank] + [token]
                score = self.scores[rank] + float(row_log_probs[token])
                key = _candidate_key(score, cand_ids, self.length_penalty,
                                     token, rank)
                candidates.append((key, cand_ids, score,
                                   token == self.eos_id, rank))
        candidates.sort(key=lambda c: c[0])
        next_ids = list(self.ids)
        next_scores = list(self.scores)
        next_done = list(self.done)
        next_valid = list(self.valid)
        parents = list(range(beam_size))
        feed = [self.eos_id] * beam_size
        for slot, (_, cand_ids, score, done, parent) in \
                enumerate(candidates[:beam_size]):
            next_ids[slot] = cand_ids
            next_scores[slot] = score
            next_done[slot] = done
            next_valid[slot] = True
            parents[slot] = parent
            if not done:
                feed[slot] = cand_ids[-1]
        self.ids, self.scores = next_ids, next_scores
        self.done, self.valid = next_done, next_valid
        self.steps += 1
        if (all(done for done, live in zip(self.done, self.valid) if live)
                or self.steps >= self.max_length):
            self.finished = True
        return feed, parents

    def result(self) -> list[int]:
        ids = _strip_eos(self.ids[0], self.eos_id)
        if self.on_token is not None:
            # The winning hypothesis is only known once search finishes —
            # replay it, exactly like BeamStrategy.decode streaming.
            for token in ids:
                self.on_token(token)
        return ids


# --------------------------------------------------------------------------
# Greedy / beam: thin strategy wrappers over the existing decoders
# --------------------------------------------------------------------------


@register_strategy
@dataclass(frozen=True)
class GreedyStrategy(DecodingStrategy):
    """Deterministic argmax decoding (the serving default)."""

    name: ClassVar[str] = "greedy"

    def canonical(self) -> str:
        return "greedy"

    def decode(self, model, source_ids, *, sos_id, eos_id, pad_id,
               max_length=400, on_token=None):
        return greedy_decode(model, source_ids, sos_id=sos_id, eos_id=eos_id,
                             pad_id=pad_id, max_length=max_length,
                             on_token=on_token)

    def row_state(self, *, sos_id, eos_id, max_length=400, on_token=None):
        return GreedyRowState(sos_id=sos_id, eos_id=eos_id,
                              max_length=max_length, on_token=on_token)


@register_strategy
@dataclass(frozen=True)
class BeamStrategy(DecodingStrategy):
    """Beam search (the paper's headline quality setting)."""

    name: ClassVar[str] = "beam"

    beam_size: int = 3
    length_penalty: float = 0.6

    def __post_init__(self) -> None:
        _coerce_float_fields(self, "length_penalty")

    def canonical(self) -> str:
        # Keeps the pre-registry label format ("beam4:lp0.6"), so dashboards
        # and the per-config metrics history stay comparable across versions.
        return f"beam{self.beam_size}:lp{self.length_penalty!r}"

    def validate(self) -> None:
        _require_int("beam_size", self.beam_size, minimum=1,
                     maximum=MAX_BEAM_SIZE)
        _require_number("length_penalty", self.length_penalty, minimum=0.0)

    def normalised(self) -> DecodingStrategy:
        # beam_size=1 *is* greedy (beam_search_decode delegates), and greedy
        # ignores the length penalty — collapse so such requests share the
        # greedy cache entries, as they always have.
        return GreedyStrategy() if self.beam_size <= 1 else self

    def decode(self, model, source_ids, *, sos_id, eos_id, pad_id,
               max_length=400, on_token=None):
        ids = beam_search_decode(model, source_ids, sos_id=sos_id, eos_id=eos_id,
                                 pad_id=pad_id, beam_size=self.beam_size,
                                 max_length=max_length,
                                 length_penalty=self.length_penalty)
        if on_token is not None:
            # The winning hypothesis is only known once search finishes.
            for token in ids:
                on_token(token)
        return ids

    def row_state(self, *, sos_id, eos_id, max_length=400, on_token=None):
        if self.beam_size <= 1:
            # beam_size=1 *is* greedy — same delegation as decode().
            return GreedyRowState(sos_id=sos_id, eos_id=eos_id,
                                  max_length=max_length, on_token=on_token)
        return BeamRowState(beam_size=self.beam_size,
                            length_penalty=self.length_penalty,
                            sos_id=sos_id, eos_id=eos_id,
                            max_length=max_length, on_token=on_token)

    def nbest_limit(self) -> int:
        return self.beam_size

    def decode_nbest(self, model, source_ids, *, sos_id, eos_id, pad_id,
                     max_length=400, max_candidates=1):
        hypotheses = beam_search_nbest(
            model, source_ids, sos_id=sos_id, eos_id=eos_id, pad_id=pad_id,
            beam_size=self.beam_size, max_length=max_length,
            length_penalty=self.length_penalty)
        return hypotheses[:max(1, max_candidates)]


# --------------------------------------------------------------------------
# Sampling: the new workload
# --------------------------------------------------------------------------


def _scaled_logits(logits: np.ndarray, temperature: float) -> np.ndarray:
    """Temperature-scaled float64 logits (1-D row or 2-D batch of rows).

    Elementwise, so scaling a whole batch is bitwise identical per row to
    scaling each row alone.
    """
    z = np.asarray(logits, dtype=np.float64)
    return z / temperature if temperature != 1.0 else z


def _top_k_order(z: np.ndarray, top_k: int) -> np.ndarray:
    """The stable descending order of ``z``, exact in its first ``top_k`` ids.

    For ``0 < top_k < z.size`` an ``argpartition`` finds the ``top_k``-th
    largest value; every id at least that large survives (ties included) and
    only the survivors are stable-sorted.  They are a prefix of the full
    stable argsort :func:`_sample_token` takes, so the draw is the same.
    """
    neg = -z
    if 0 < top_k < z.size:
        kth = neg[np.argpartition(neg, top_k - 1)[top_k - 1]]
        survivors = np.flatnonzero(neg <= kth)
        if survivors.size >= top_k:  # fewer only when ``kth`` is NaN
            return survivors[np.argsort(neg[survivors], kind="stable")]
    return np.argsort(neg, kind="stable")


def _sample_from_order(z: np.ndarray, order: np.ndarray, *, top_k: int,
                       top_p: float, rng: np.random.Generator) -> int:
    """Draw one token given scaled logits ``z`` and their descending order.

    The draw consumes exactly one ``rng.random()``, and all arithmetic is
    float64 off ``z`` — equal logit bit patterns plus an equal RNG state
    always produce the same token.
    """
    if 0 < top_k < order.size:
        order = order[:top_k]
    shifted = z[order] - z[order[0]]
    probs = np.exp(shifted)
    probs /= probs.sum()
    if top_p < 1.0:
        cumulative = np.cumsum(probs)
        keep = int(np.searchsorted(cumulative, top_p, side="left")) + 1
        order = order[:keep]
        probs = probs[:keep] / probs[:keep].sum()
    draw = rng.random()
    index = int(np.searchsorted(np.cumsum(probs), draw, side="right"))
    return int(order[min(index, order.size - 1)])


def _sample_token(logits: np.ndarray, *, temperature: float, top_k: int,
                  top_p: float, rng: np.random.Generator, eos_id: int) -> int:
    """Draw one token id from ``logits`` — deterministically given the bits.

    Selection runs entirely in float64 (exact for float32 or float64 model
    logits), ties rank by ascending token id (a stable sort on the negated
    logits), and the draw consumes exactly one ``rng.random()`` — so equal
    logit bit patterns plus an equal RNG state always produce the same token,
    which is what makes sequential and continuous sampling exact-match equal.

    ``eos_id`` is unused by the math but kept in the signature so callers
    can't accidentally drop it from the per-step contract.
    """
    z = _scaled_logits(logits, temperature)
    order = np.argsort(-z, kind="stable")
    return _sample_from_order(z, order, top_k=top_k, top_p=top_p, rng=rng)


def sample_decode(model: Seq2SeqTransformer, source_ids: list[int], *,
                  sos_id: int, eos_id: int, pad_id: int, max_length: int = 400,
                  temperature: float = 1.0, top_k: int = 0, top_p: float = 1.0,
                  seed: int = 0, on_token: OnToken | None = None) -> list[int]:
    """Seeded ancestral sampling for a single source sequence.

    The RNG stream is ``np.random.default_rng(seed)`` with exactly one draw
    per emitted position, so a given ``seed`` fully determines the output for
    given model logits.  Mirrors :func:`repro.model.generation.greedy_decode`
    otherwise (empty source generates nothing; EOS stops).
    """
    if not source_ids:
        return []
    rng = np.random.default_rng(seed)
    with _decode_mode():
        src = np.asarray([source_ids], dtype=np.int64)
        memory = model.encode(src, pad_id, training=False)
        state = model.start_decoding()

        generated: list[int] = []
        current = np.asarray([[sos_id]], dtype=np.int64)
        for _ in range(max_length):
            logits = model.decode_step(current, memory, src, pad_id, state)
            next_id = _sample_token(logits[0], temperature=temperature,
                                    top_k=top_k, top_p=top_p, rng=rng,
                                    eos_id=eos_id)
            if next_id == eos_id:
                break
            generated.append(next_id)
            if on_token is not None:
                on_token(next_id)
            current = np.asarray([[next_id]], dtype=np.int64)
        return generated


@register_strategy
@dataclass(frozen=True)
class SampleStrategy(DecodingStrategy):
    """Temperature / top-k / top-p sampling with an explicit seed.

    ``temperature`` scales the logits (must be > 0); ``top_k=0`` disables
    top-k filtering; ``top_p=1.0`` disables nucleus filtering; ``seed`` pins
    the RNG stream for bitwise-reproducible generations.
    """

    name: ClassVar[str] = "sample"

    temperature: float = 1.0
    top_k: int = 0
    top_p: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        _coerce_float_fields(self, "temperature", "top_p")

    def validate(self) -> None:
        _require_number("temperature", self.temperature, minimum_exclusive=0.0)
        _require_int("top_k", self.top_k, minimum=0, maximum=MAX_TOP_K)
        _require_number("top_p", self.top_p, minimum_exclusive=0.0, maximum=1.0)
        _require_int("seed", self.seed, minimum=0, maximum=2**63 - 1)

    def _kwargs(self) -> dict:
        return dict(temperature=self.temperature, top_k=self.top_k,
                    top_p=self.top_p, seed=self.seed)

    def with_seed(self, seed: int) -> "SampleStrategy":
        """This strategy under a different seed (a fresh cache identity)."""
        return replace(self, seed=seed)

    def decode(self, model, source_ids, *, sos_id, eos_id, pad_id,
               max_length=400, on_token=None):
        return sample_decode(model, source_ids, sos_id=sos_id, eos_id=eos_id,
                             pad_id=pad_id, max_length=max_length,
                             on_token=on_token, **self._kwargs())

    def row_state(self, *, sos_id, eos_id, max_length=400, on_token=None):
        return SampleRowState(temperature=self.temperature, top_k=self.top_k,
                              top_p=self.top_p, seed=self.seed,
                              sos_id=sos_id, eos_id=eos_id,
                              max_length=max_length, on_token=on_token)

    def nbest_limit(self) -> int:
        # Each extra candidate re-seeds the stream, so the supply is bounded
        # only by the caller's budget; the cap lives at the API layer.
        return 2**31

    def decode_nbest(self, model, source_ids, *, sos_id, eos_id, pad_id,
                     max_length=400, max_candidates=1):
        # Candidate k samples under seed + k: candidate 0 is bitwise the
        # decode() output, and every candidate is itself reproducible (the
        # derived seeds are a pure function of the request's seed).
        candidates: list[list[int]] = []
        for k in range(max(1, max_candidates)):
            variant = self.with_seed(self.seed + k)
            candidates.append(variant.decode(
                model, source_ids, sos_id=sos_id, eos_id=eos_id, pad_id=pad_id,
                max_length=max_length))
        return candidates


def iter_strategy_examples() -> Iterator[DecodingStrategy]:
    """One default-constructed instance per registered strategy (for tests)."""
    for cls in _REGISTRY.values():
        yield cls()
