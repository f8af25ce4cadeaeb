"""LRU cache semantics, canonical xSBT-based keying, and thread-safety."""

from __future__ import annotations

import threading

import pytest

from repro.model.decoding import BeamStrategy
from repro.serving.cache import LRUCache, canonical_cache_key


# ------------------------------------------------------------ LRU semantics


def test_put_get_roundtrip():
    cache = LRUCache(capacity=4)
    cache.put("a", 1)
    assert cache.get("a") == 1
    assert cache.get("missing") is None
    assert cache.get("missing", default="x") == "x"
    assert "a" in cache and len(cache) == 1


def test_eviction_is_least_recently_used():
    cache = LRUCache(capacity=3)
    for key in "abc":
        cache.put(key, key.upper())
    cache.get("a")          # refresh 'a'; 'b' is now least recently used
    cache.put("d", "D")
    assert cache.get("b") is None
    assert cache.get("a") == "A" and cache.get("d") == "D"
    assert cache.stats().evictions == 1


def test_put_refreshes_recency_and_overwrites():
    cache = LRUCache(capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("a", 10)      # overwrite refreshes recency; no eviction
    cache.put("c", 3)       # evicts 'b', the stale entry
    assert cache.get("a") == 10
    assert cache.get("b") is None
    assert cache.get("c") == 3


def test_stats_and_clear():
    cache = LRUCache(capacity=2)
    cache.put("a", 1)
    cache.get("a")
    cache.get("nope")
    stats = cache.stats()
    assert (stats.hits, stats.misses, stats.size, stats.capacity) == (1, 1, 1, 2)
    assert stats.hit_rate == pytest.approx(0.5)
    assert stats.as_dict()["hit_rate"] == pytest.approx(0.5)
    cache.clear()
    assert len(cache) == 0


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        LRUCache(capacity=0)


def test_keys_are_in_recency_order():
    cache = LRUCache(capacity=3)
    for key in "abc":
        cache.put(key, key)
    cache.get("a")
    assert cache.keys() == ["b", "c", "a"]


# ----------------------------------------------------------- canonical keys


SOURCE = """#include <stdio.h>
int main(int argc, char **argv) {
    int count = 4;
    printf("%d\\n", count);
    return 0;
}
"""

REFORMATTED = """#include <stdio.h>
int main(int argc, char **argv)
{
    // a comment the tokenizer drops
    int   count   = 4;
    printf("%d\\n",   count);
    return 0;
}
"""

RENAMED = SOURCE.replace("count", "total")

BEAM4 = BeamStrategy(beam_size=4, length_penalty=0.6)


def test_formatting_and_comments_do_not_change_the_key():
    assert canonical_cache_key(SOURCE) == canonical_cache_key(REFORMATTED)


def test_identifier_changes_do_change_the_key():
    """xSBT alone is identical here — the token stream must disambiguate."""
    assert canonical_cache_key(SOURCE) != canonical_cache_key(RENAMED)


def test_key_accepts_precomputed_xsbt():
    from repro.xsbt.xsbt import xsbt_for_source

    assert canonical_cache_key(SOURCE, xsbt_for_source(SOURCE)) == \
        canonical_cache_key(SOURCE)


def test_generation_settings_change_the_key():
    """A beam-decoded result must never be served to a greedy request."""
    greedy = canonical_cache_key(SOURCE)
    beam4 = canonical_cache_key(SOURCE, strategy=BEAM4)
    beam2 = canonical_cache_key(
        SOURCE, strategy=BeamStrategy(beam_size=2, length_penalty=0.6))
    assert len({greedy, beam4, beam2}) == 3
    # Penalty reranks beam hypotheses, so it is part of a beam key ...
    assert beam4 != canonical_cache_key(
        SOURCE, strategy=BeamStrategy(beam_size=4, length_penalty=0.0))
    # ... but beam_size=1 normalises to greedy: the penalty cannot change
    # the output.
    assert greedy == canonical_cache_key(
        SOURCE, strategy=BeamStrategy(beam_size=1, length_penalty=0.9))


def test_beam_keys_stay_layout_invariant():
    assert canonical_cache_key(SOURCE, strategy=BEAM4) == \
        canonical_cache_key(REFORMATTED, strategy=BEAM4)


# ------------------------------------------------------------- concurrency


def test_concurrent_hammer_preserves_invariants():
    cache = LRUCache(capacity=32)
    errors: list[Exception] = []
    barrier = threading.Barrier(8)

    def worker(worker_id: int) -> None:
        try:
            barrier.wait()
            for i in range(400):
                key = f"k{(worker_id * 7 + i) % 64}"
                cache.put(key, (worker_id, i))
                value = cache.get(key)
                assert value is None or isinstance(value, tuple)
                len(cache)
        except Exception as exc:  # pragma: no cover - only on regression
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert not errors
    assert len(cache) <= 32
    stats = cache.stats()
    assert stats.hits + stats.misses == 8 * 400
    assert stats.size <= stats.capacity


def test_concurrent_mixed_beam_and_greedy_keys():
    """Thread-pool hammer over the serving key-space: greedy and beam variants
    of the same programs must neither alias nor lose updates, hit accounting
    must stay exact, and eviction must hold the capacity bound throughout."""
    from concurrent.futures import ThreadPoolExecutor

    configs = [(1, 0.0), (2, 0.6), (4, 0.6), (4, 1.0)]
    programs = [f"prog{n}" for n in range(6)]
    # Precompute a distinct key per (program, config) — cheap stand-ins with
    # the same shape the service uses (hash keyed on program + generation).
    keys = {(prog, cfg): f"{prog}|beam{cfg[0]}|lp{cfg[1]}"
            for prog in programs for cfg in configs}
    capacity = 16
    cache = LRUCache(capacity=capacity)
    rounds = 300
    workers = 8
    errors: list[Exception] = []

    def worker(worker_id: int) -> None:
        try:
            for i in range(rounds):
                combo = (worker_id * 7 + i) % (len(programs) * len(configs))
                prog = programs[combo % len(programs)]
                cfg = configs[combo // len(programs)]
                key = keys[(prog, cfg)]
                value = cache.get(key)
                if value is None:
                    cache.put(key, (prog, cfg))
                else:
                    # No lost updates / aliasing: a hit always returns the
                    # value stored under exactly this (program, config).
                    assert value == (prog, cfg), f"aliased entry for {key}"
                assert len(cache) <= capacity
        except Exception as exc:  # pragma: no cover - only on regression
            errors.append(exc)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(worker, range(workers)))

    assert not errors
    stats = cache.stats()
    # Every round did exactly one counted lookup (get); hit accounting exact.
    assert stats.hits + stats.misses == workers * rounds
    assert stats.hits > 0 and stats.misses > 0
    assert stats.size <= stats.capacity == capacity
    # 24 distinct keys against capacity 16 must have forced evictions.
    assert stats.evictions > 0
