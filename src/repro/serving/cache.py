"""Thread-safe LRU result cache keyed on the program's canonical form.

The serving layer sees the same buffer over and over: an IDE re-advises on
every keystroke pause, and many requests are byte-identical re-submissions.
Caching on the *raw text* would miss trivially-edited resubmissions
(whitespace, comments, re-flowed lines), so the key is built from the
program's canonical form instead:

* the **canonical xSBT string** — the parse tree linearised exactly as the
  encoder consumes it, which is invariant under whitespace/comment/formatting
  edits (the "xSBT-keyed" part of the design); and
* the **canonical code token stream** — because the xSBT deliberately drops
  identifiers and literals, two structurally-identical programs with
  different variable names would otherwise alias to one entry and be served
  each other's predictions; and
* the **model identity** (``name@revision``) — two models, or two revisions
  of one model across a hot-swap, must never be served each other's cached
  results even for byte-identical buffers.

Both components are exactly what :class:`repro.mpirical.MPIRical` feeds the
model, so two requests with equal keys are guaranteed to produce the same
*model output*.  Anything layout-dependent (line-anchored suggestions, parse
diagnostics) must NOT be stored under this key — equal keys tolerate
whitespace/comment edits that move line numbers.  The service therefore
caches only the generated program and re-anchors advice per request.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable

from ..clang.errors import ParseDiagnostic
from ..clang.lexer import tokenize
from ..clang.parser import parse_source_with_diagnostics
from ..tokenization.code_tokenizer import tokenize_code
from ..xsbt.xsbt import xsbt_string


@dataclass(frozen=True)
class FrontEnd:
    """What one request needs from the C front end: the parse diagnostics
    (layout-dependent, re-anchored per request) and the two canonical
    components of the cache key."""

    diagnostics: list[ParseDiagnostic]
    xsbt: str
    tokens: list[str]


def front_end(source_code: str) -> FrontEnd:
    """Lex ``source_code`` once; the parser and the model tokens both read
    that one token list."""
    lexed = tokenize(source_code)
    unit, diagnostics = parse_source_with_diagnostics(source_code, lexed=lexed)
    return FrontEnd(diagnostics, xsbt_string(unit),
                    tokenize_code(source_code, lexed=lexed))


def canonical_cache_key(source_code: str, xsbt: str | None = None, *,
                        tokens: list[str] | None = None,
                        strategy=None, model: str | None = None) -> str:
    """Hash ``source_code`` into its canonical serving-cache key.

    ``xsbt`` and ``tokens`` are the buffer's :class:`FrontEnd` components
    when the caller already has them (the service needs the diagnostics
    too, so it runs :func:`front_end` itself); otherwise the key runs it.

    The decoding settings that change the *model output* are part of the
    key via the strategy's **canonical serialized form**
    (:meth:`repro.model.decoding.DecodingStrategy.canonical`, after
    :meth:`normalised`): a beam request must never be served a cached greedy
    result, and two sampling requests share an entry only when temperature,
    top-k, top-p *and seed* all match.  ``None`` keys as
    :class:`~repro.model.decoding.GreedyStrategy`, the v1 default.

    ``model`` is the resolved ``name@revision`` identity of the model that
    will serve the request (:class:`repro.registry.ModelEntry.identity`).
    The *revision* part is what makes hot-swaps cache-safe: after an alias
    flip to a retrained checkpoint, every key differs from the old
    revision's keys, so a post-swap request can never be answered from the
    pre-swap cache.  The registry-backed service always passes it; ``None``
    (direct callers) keys on content + strategy alone.
    """
    from ..model.decoding import GreedyStrategy

    if xsbt is None or tokens is None:
        front = front_end(source_code)
        xsbt = front.xsbt if xsbt is None else xsbt
        tokens = front.tokens if tokens is None else tokens
    if strategy is None:
        strategy = GreedyStrategy()
    digest = hashlib.sha256()
    digest.update(xsbt.encode())
    digest.update(b"\x00")
    digest.update("\x00".join(tokens).encode())
    digest.update(b"\x00")
    digest.update(strategy.normalised().canonical().encode())
    if model is not None:
        digest.update(b"\x00")
        digest.update(model.encode())
    return digest.hexdigest()


@dataclass
class CacheStats:
    """Counters accumulated over a cache's lifetime."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    capacity: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "capacity": self.capacity,
            "hit_rate": self.hit_rate,
        }


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    All operations take the internal lock, so the cache can be shared freely
    between the request threads and the scheduler thread.  Values are
    returned as-is (no copying): cached serving results are treated as
    immutable by convention.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    _MISSING = object()

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key``, marking it most-recently-used on a hit."""
        with self._lock:
            value = self._entries.get(key, self._MISSING)
            if value is self._MISSING:
                self._misses += 1
                return default
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Like :meth:`get` but without touching the hit/miss counters.

        For double-checked lookups (the service re-checks under its
        single-flight lock) where counting a second miss for the same request
        would skew the reported hit rate.  Recency is still refreshed.
        """
        with self._lock:
            value = self._entries.get(key, self._MISSING)
            if value is self._MISSING:
                return default
            self._entries.move_to_end(key)
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or refresh ``key``, evicting the LRU entry when full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = value
                return
            if len(self._entries) >= self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
            self._entries[key] = value

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def keys(self) -> list[Hashable]:
        """Keys from least- to most-recently used (a snapshot)."""
        with self._lock:
            return list(self._entries)

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(hits=self._hits, misses=self._misses,
                              evictions=self._evictions, size=len(self._entries),
                              capacity=self.capacity)
