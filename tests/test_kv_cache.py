"""KVCache internals: preallocated buffers, growth, views, in-place reorder.

The decode hot path leans on three properties of the cache the public decode
tests can't see directly:

* **amortized O(1) append** — capacity doubles instead of re-concatenating
  the history, and the returned arrays are views of the valid prefix;
* **view safety across growth** — a view handed out before a growth keeps
  referencing the (intact) retired buffer, so in-flight consumers never
  observe a resize;
* **in-place ``reorder_rows``** — beam pruning gathers rows inside the
  existing buffers without reallocating or disturbing spare capacity.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.model.attention import KVCache
from repro.model.decoding import BeamRowState, GreedyStrategy
from repro.model.generation import ContinuousDecoderLoop
from repro.serving.sched import InflightBatch

PAD, SOS, EOS = 0, 1, 2


def step_block(rows: int, step: int, heads: int = 2, head_dim: int = 3) -> np.ndarray:
    """A distinguishable (rows, heads, 1, head_dim) block for step ``step``."""
    base = np.arange(rows, dtype=np.float64)[:, None, None, None]
    return base * 100.0 + step + np.zeros((rows, heads, 1, head_dim))


def history(rows: int, steps: int) -> np.ndarray:
    return np.concatenate([step_block(rows, s) for s in range(steps)], axis=2)


# ------------------------------------------------------------------ appending


def test_empty_cache_reports_none_and_zero_length():
    cache = KVCache()
    assert cache.keys is None
    assert cache.values is None
    assert cache.length == 0
    assert cache.capacity == 0


def test_append_accumulates_history_and_length():
    cache = KVCache()
    for step in range(5):
        keys, values = cache.append(step_block(4, step), -step_block(4, step))
        assert cache.length == step + 1
        assert keys.shape == (4, 2, step + 1, 3)
        np.testing.assert_array_equal(keys, history(4, step + 1))
        np.testing.assert_array_equal(values, -history(4, step + 1))


def test_capacity_doubles_and_append_is_in_place_between_growths():
    cache = KVCache()
    cache.append(step_block(2, 0), step_block(2, 0))
    assert cache.capacity == KVCache.MIN_CAPACITY
    buffer_id = id(cache._keys)
    for step in range(1, KVCache.MIN_CAPACITY):
        cache.append(step_block(2, step), step_block(2, step))
        # No reallocation while the preallocated capacity lasts.
        assert id(cache._keys) == buffer_id
    assert cache.length == cache.capacity == KVCache.MIN_CAPACITY
    cache.append(step_block(2, KVCache.MIN_CAPACITY), step_block(2, KVCache.MIN_CAPACITY))
    assert id(cache._keys) != buffer_id
    assert cache.capacity >= 2 * KVCache.MIN_CAPACITY
    np.testing.assert_array_equal(cache.keys, history(2, KVCache.MIN_CAPACITY + 1))


def test_large_first_append_preallocates_headroom():
    cache = KVCache()
    block = history(3, 20)
    keys, _ = cache.append(block, block)
    assert cache.length == 20
    assert cache.capacity >= 40  # twice the first append, not MIN_CAPACITY
    np.testing.assert_array_equal(keys, block)


def test_views_stay_valid_after_growth():
    """A view taken before growth still reads the retired buffer's data."""
    cache = KVCache()
    for step in range(3):
        cache.append(step_block(2, step), step_block(2, step))
    before_keys = cache.keys
    snapshot = before_keys.copy()
    # Force at least one growth.
    for step in range(3, KVCache.MIN_CAPACITY + 2):
        cache.append(step_block(2, step), step_block(2, step))
    np.testing.assert_array_equal(before_keys, snapshot)
    # The grown buffer carries the same prefix.
    np.testing.assert_array_equal(cache.keys[:, :, :3], snapshot)


def test_returned_arrays_are_views_not_copies():
    cache = KVCache()
    keys, values = cache.append(step_block(2, 0), step_block(2, 0))
    assert keys.base is cache._keys
    assert values.base is cache._values


def test_append_dtype_follows_input():
    cache = KVCache()
    keys, _ = cache.append(step_block(2, 0).astype(np.float32),
                           step_block(2, 0).astype(np.float32))
    assert keys.dtype == np.float32


# ------------------------------------------------------------------ reordering


def test_reorder_rows_gathers_in_place():
    cache = KVCache()
    for step in range(4):
        cache.append(step_block(3, step), -step_block(3, step))
    buffer_id = id(cache._keys)
    capacity = cache.capacity
    parents = np.asarray([2, 0, 0])
    cache.reorder_rows(parents)
    assert id(cache._keys) == buffer_id  # no reallocation
    assert cache.capacity == capacity    # spare capacity preserved
    expected = history(3, 4)[parents]
    np.testing.assert_array_equal(cache.keys, expected)
    np.testing.assert_array_equal(cache.values, -expected)


def test_reorder_rows_on_empty_cache_is_a_noop():
    cache = KVCache()
    cache.reorder_rows(np.asarray([0, 1]))  # must not raise
    assert cache.keys is None


def test_reorder_then_append_continues_the_gathered_history():
    cache = KVCache()
    for step in range(2):
        cache.append(step_block(2, step), step_block(2, step))
    cache.reorder_rows(np.asarray([1, 1]))
    cache.append(step_block(2, 2), step_block(2, 2))
    expected = history(2, 3)
    expected[:, :, :2] = history(2, 2)[[1, 1]]
    np.testing.assert_array_equal(cache.keys, expected)
    assert cache.length == 3


# ----------------------------------------------------- assignment compatibility


def test_assigning_keys_adopts_the_array_and_length():
    cache = KVCache()
    block = history(2, 5)
    cache.keys = block
    cache.values = block * 2.0
    assert cache.length == 5
    np.testing.assert_array_equal(cache.keys, block)
    np.testing.assert_array_equal(cache.values, block * 2.0)
    # Appending after adoption keeps the adopted history.
    cache.append(step_block(2, 5), step_block(2, 5))
    assert cache.length == 6
    np.testing.assert_array_equal(cache.keys[:, :, :5], block)


def test_constructor_with_arrays_matches_assignment():
    block = history(2, 3)
    cache = KVCache(keys=block, values=block)
    assert cache.length == 3
    np.testing.assert_array_equal(cache.keys, block)


def test_resetting_either_side_empties_the_whole_cache():
    """keys/values stay symmetric: a ``= None`` reset empties both sides."""
    block = history(2, 3)
    cache = KVCache(keys=block, values=block)
    cache.keys = None
    assert cache.keys is None and cache.values is None and cache.length == 0
    cache = KVCache(keys=block, values=block)
    cache.values = None
    assert cache.keys is None and cache.values is None and cache.length == 0
    # An emptied cache accepts fresh appends from scratch.
    cache.append(step_block(2, 0), step_block(2, 0))
    assert cache.length == 1


def test_half_initialised_cache_is_rejected():
    block = history(2, 3)
    with pytest.raises(ValueError, match="together"):
        KVCache(keys=block)
    cache = KVCache()
    cache.keys = block  # transient state of a paired assignment
    with pytest.raises(ValueError, match="assign both"):
        cache.append(step_block(2, 3), step_block(2, 3))


# ------------------------------------------------- decoder-loop length accounting


class _CountingModel:
    """Stub whose decode_step appends to a real cache (for loop accounting)."""

    vocab_size = 7

    def encode(self, source_ids, pad_id, *, training=False):
        return source_ids

    def start_decoding(self):
        from types import SimpleNamespace
        return SimpleNamespace(position=0, self_caches=[KVCache()], cross_caches=[])

    def decode_step(self, token_ids, memory, source_ids, pad_id, state):
        fed = token_ids[:, None, :, None].astype(np.float64)
        state.self_caches[0].append(fed, fed)
        state.positions += 1
        logits = np.zeros((source_ids.shape[0], self.vocab_size))
        logits[:, 3] = 1.0  # never EOS: exercises max_length truncation
        return logits


class _Work:
    future = None


def _joined_loop(rows_per_source: int = 1) -> ContinuousDecoderLoop:
    loop = ContinuousDecoderLoop(_CountingModel(), pad_id=PAD)
    loop.join([3, 4], rows=rows_per_source)
    loop.join([5], rows=rows_per_source)
    return loop


def test_loop_cache_length_tracks_steps_until_max_length():
    loop = _joined_loop()
    current = np.full((loop.num_rows, 1), SOS, dtype=np.int64)
    for step in range(6):
        loop.step(current)
        assert loop.state.self_caches[0].length == step + 1
    # End-to-end: max_length bounds both the output and the cache history.
    batch = InflightBatch(_CountingModel(), sos_id=SOS, eos_id=EOS, pad_id=PAD)
    states = [GreedyStrategy().row_state(sos_id=SOS, eos_id=EOS, max_length=4)
              for _ in range(2)]
    batch.add(_Work(), states[0], [3, 4])
    batch.add(_Work(), states[1], [5])
    lengths = []
    while batch.num_rows:
        batch.step()
        lengths.append(batch.loop.state.self_caches[0].length)
    assert [state.result() for state in states] == [[3, 3, 3, 3], [3, 3, 3, 3]]
    assert lengths == [1, 2, 3, 0]  # both rows retire at max_length together


def test_loop_with_only_empty_sources_allocates_no_cache_rows():
    loop = ContinuousDecoderLoop(_CountingModel(), pad_id=PAD)
    for _ in range(2):
        with pytest.raises(ValueError, match="empty source"):
            loop.join([])
    assert loop.num_rows == 0
    assert loop.state.self_caches[0].rows == 0


def test_loop_reorder_preserves_cache_length():
    loop = _joined_loop(rows_per_source=2)
    current = np.full((loop.num_rows, 1), SOS, dtype=np.int64)
    loop.step(current)
    loop.step(current)
    loop.reorder_rows(np.asarray([1, 1, 2, 2]))
    assert loop.state.self_caches[0].length == 2


class _EscapingBeam(BeamRowState):
    """A beam state machine that names a parent outside its own row block."""

    def advance(self, logits):
        feed, parents = super().advance(logits)
        return feed, [self.rows] * self.rows


def test_loop_reorder_rejects_cross_source_parents():
    batch = InflightBatch(_CountingModel(), sos_id=SOS, eos_id=EOS, pad_id=PAD)
    batch.add(_Work(), _EscapingBeam(beam_size=2, length_penalty=0.6,
                                     sos_id=SOS, eos_id=EOS), [3, 4])
    batch.add(_Work(), GreedyStrategy().row_state(sos_id=SOS, eos_id=EOS), [5])
    with pytest.raises(RuntimeError, match="escaped the row block"):
        batch.step()

# -------------------------------------------------- insert_rows / retire_rows


def test_insert_rows_with_history_adopts_cross_memory_mid_batch():
    """Cross-cache join: a new row arrives carrying its projected memory."""
    cache = KVCache()
    cache.append(history(2, 4), -history(2, 4))
    joiner = np.full((1, 2, 3, 3), 7.0)
    cache.insert_rows(1, joiner, -joiner)
    assert cache.rows == 3
    assert cache.length == 4          # longest survivor still rules the view
    assert cache.is_ragged
    np.testing.assert_array_equal(cache.row_lengths, [4, 3, 4])
    np.testing.assert_array_equal(cache.keys[0], history(2, 4)[0])
    np.testing.assert_array_equal(cache.keys[2], history(2, 4)[1])
    np.testing.assert_array_equal(cache.keys[1, :, :3], joiner[0])
    # The joiner's trailing region is zero-filled, never garbage.
    np.testing.assert_array_equal(cache.keys[1, :, 3:], 0.0)


def test_insert_rows_longer_history_widens_the_view():
    cache = KVCache()
    cache.append(history(2, 2), history(2, 2))
    joiner = np.full((1, 2, 6, 3), 3.0)
    cache.insert_rows(2, joiner, joiner)
    assert cache.length == 6
    np.testing.assert_array_equal(cache.row_lengths, [2, 2, 6])
    np.testing.assert_array_equal(cache.keys[:2, :, :2], history(2, 2))
    np.testing.assert_array_equal(cache.keys[:2, :, 2:], 0.0)
    np.testing.assert_array_equal(cache.keys[2], joiner[0])


def test_insert_empty_rows_then_append_writes_each_row_at_its_own_length():
    """Self-cache join: empty rows stay contiguous-front / zero-tail under
    the ragged per-row append."""
    cache = KVCache()
    cache.append(history(2, 3), history(2, 3))
    cache.insert_rows(1, count=1)
    np.testing.assert_array_equal(cache.row_lengths, [3, 0, 3])
    step = step_block(3, 9)
    cache.append(step, step)
    np.testing.assert_array_equal(cache.row_lengths, [4, 1, 4])
    # Veterans appended at position 3, the joiner at position 0.
    np.testing.assert_array_equal(cache.keys[0, :, 3], step[0, :, 0])
    np.testing.assert_array_equal(cache.keys[1, :, 0], step[1, :, 0])
    np.testing.assert_array_equal(cache.keys[1, :, 1:], 0.0)
    np.testing.assert_array_equal(cache.keys[2, :, 3], step[2, :, 0])


def test_insert_count_only_on_empty_cache_is_noop_at_any_index():
    """Regression: several requests may join before the first decode step
    materialises the row axis, so the *second* join inserts at index 1 into
    a cache that still reports zero rows — a no-op, not a range error."""
    cache = KVCache()
    for index in (0, 1, 5):
        cache.insert_rows(index, count=2)  # must not raise
    assert cache.rows == 0 and cache.keys is None
    # The first append then carries every pending row at once.
    cache.append(history(3, 1), history(3, 1))
    assert cache.rows == 3 and cache.length == 1


def test_insert_rows_validation_errors():
    cache = KVCache()
    cache.append(history(2, 2), history(2, 2))
    with pytest.raises(ValueError, match="out of range"):
        cache.insert_rows(3, count=1)
    with pytest.raises(ValueError, match="out of range"):
        cache.insert_rows(-1, count=1)
    with pytest.raises(ValueError, match="count must be"):
        cache.insert_rows(0, count=0)
    with pytest.raises(ValueError, match="together"):
        cache.insert_rows(0, history(1, 2))
    with pytest.raises(ValueError, match="disagrees"):
        cache.insert_rows(0, history(2, 2), history(2, 2), count=3)
    with pytest.raises(ValueError, match="keys/values or count"):
        cache.insert_rows(0)
    empty = KVCache()
    with pytest.raises(ValueError, match="out of range"):
        empty.insert_rows(-2, count=1)


def test_retire_rows_compacts_in_place_and_renarrows_the_view():
    cache = KVCache()
    cache.append(history(4, 5), -history(4, 5))
    buffer_id = id(cache._keys)
    cache.retire_rows([1, 3])
    assert id(cache._keys) == buffer_id  # compaction reuses the buffers
    assert cache.rows == 2
    expected = history(4, 5)[[0, 2]]
    np.testing.assert_array_equal(cache.keys, expected)
    np.testing.assert_array_equal(cache.values, -expected)


def test_retire_longest_row_shrinks_length_to_survivors():
    cache = KVCache()
    cache.append(history(2, 2), history(2, 2))
    long_row = np.full((1, 2, 8, 3), 5.0)
    cache.insert_rows(2, long_row, long_row)
    assert cache.length == 8
    cache.retire_rows([2])
    assert cache.length == 2          # view re-narrows to the survivors
    assert not cache.is_ragged
    np.testing.assert_array_equal(cache.keys, history(2, 2))


def test_retire_all_rows_empties_the_cache():
    cache = KVCache()
    cache.append(history(3, 2), history(3, 2))
    cache.retire_rows([2, 0, 1, 1])   # duplicates and any order are fine
    assert cache.keys is None and cache.rows == 0 and cache.length == 0
    cache.append(history(2, 1), history(2, 1))  # accepts a fresh start
    assert cache.rows == 2


def test_retire_rows_validation_errors():
    cache = KVCache()
    with pytest.raises(ValueError, match="empty cache"):
        cache.retire_rows([0])
    cache.append(history(2, 2), history(2, 2))
    with pytest.raises(ValueError, match="out of range"):
        cache.retire_rows([2])
    with pytest.raises(ValueError, match="out of range"):
        cache.retire_rows([-1])
    cache.retire_rows([])             # no-op
    assert cache.rows == 2


def test_interleaved_insert_reorder_retire_keeps_histories_straight():
    """The full continuous-batching life cycle on one cache: join, beam
    reorder, retire, join again — every row's history stays bit-exact."""
    cache = KVCache()
    cache.append(history(2, 2), history(2, 2))          # rows A, B
    cache.insert_rows(2, count=1)                       # row C joins empty
    step = step_block(3, 5)
    cache.append(step, step)                            # lengths 3, 3, 1
    cache.reorder_rows(np.asarray([1, 1, 2]))           # A <- B (beam prune)
    np.testing.assert_array_equal(cache.row_lengths, [3, 3, 1])
    np.testing.assert_array_equal(cache.keys[0, :, :3], cache.keys[1, :, :3])
    cache.retire_rows([0])                              # pruned copy leaves
    assert cache.rows == 2
    np.testing.assert_array_equal(cache.keys[1, :, 0], step[2, :, 0])
    joiner = np.full((2, 2, 4, 3), 9.0)
    cache.insert_rows(1, joiner, joiner)                # two-row join mid-deck
    np.testing.assert_array_equal(cache.row_lengths, [3, 4, 4, 1])
    assert cache.rows == 4 and cache.length == 4
    np.testing.assert_array_equal(cache.keys[1], joiner[0])
    np.testing.assert_array_equal(cache.keys[2], joiner[1])


def test_ragged_growth_zero_fills_new_capacity():
    """Growth while ragged allocates zeroed buffers: the short rows' trailing
    regions must stay 0.0 (a NaN there would poison ``0 * garbage``)."""
    cache = KVCache()
    cache.append(history(2, 2), history(2, 2))
    cache.insert_rows(2, count=1)
    for step in range(2, 2 + KVCache.MIN_CAPACITY + 2):  # force a growth
        block = step_block(3, step)
        cache.append(block, block)
    lengths = cache.row_lengths
    assert lengths[2] == lengths[0] - 2
    np.testing.assert_array_equal(cache.keys[2, :, lengths[2]:], 0.0)
