"""Multi-head scaled dot-product attention with optional KV caching.

The cache is used only at inference time (greedy/beam decoding): the decoder
feeds one new token per step and attends over the concatenation of cached and
new keys/values, which turns the per-step cost from O(L²) to O(L).

:class:`KVCache` keeps its history in **preallocated, capacity-doubling
buffers**: ``append`` writes the new step into spare capacity and returns
views of the valid prefix, so per-step cache maintenance is amortized O(1)
in copies instead of the O(L) full-history reconcatenation it used to be
(O(L²) per decoded sequence).  Beam pruning re-gathers rows in place via
:meth:`KVCache.reorder_rows` — the buffers are reused, not reallocated.

One kernel, two modes
---------------------
:func:`attention_probs` is the single forward kernel of both attention paths:
scores, ``×scale``, in-place masking and a numerically-safe in-place softmax,
all in one ``(batch, heads, q_len, k_len)`` buffer.
:meth:`MultiHeadAttention.forward_data` (the no-tape inference kernel) calls
it on raw ndarrays; :func:`scaled_dot_product_attention` (the training path,
called by :meth:`MultiHeadAttention.__call__`) wraps it as **one tape op**
with a hand-written backward.  At float64 the two paths are bitwise
identical to each other and to the composed chain (matmul, ×scale,
masked_fill, softmax, dropout, matmul) they replaced.

What the tape op saves for backward: ``q``, ``k``, ``v`` (views the
projections hold anyway), the mask, the softmax probabilities — one float
array of ``(batch, heads, q_len, k_len)`` — and a **bool** dropout keep-mask.
The composed chain kept six such float arrays per module (scores, scaled
scores, masked fill, softmax, a float dropout mask and the dropped weights).
The dropped weights are rebuilt elementwise in backward.  The softmax is
deliberately *not* recomputed there (FlashAttention-style, Dao et al. 2022):
on the train-steps benchmark (2 vCPU, two alternating pairs) recomputing it
lowered peak RSS from 426 to 357 MB but cost +14 % step latency and +11 %
CPU per step, while saving the probabilities was faster than the composed
chain.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .autograd import Tensor, fused_op
from .layers import Linear, Module, cast_param


class KVCache:
    """Cached key/value activations for one attention layer.

    Layout is ``(batch_rows, heads, steps, head_dim)``.  Internally the
    arrays are over-allocated along the ``steps`` axis and grown by doubling;
    :attr:`keys`/:attr:`values` expose views of the valid prefix (and accept
    assignment of replacement arrays, which are adopted as the new buffers).
    Views returned before a growth keep referencing the old buffer, so they
    stay valid — growth copies, it never mutates the retired buffer.

    Continuous batching extends the row axis at runtime: :meth:`insert_rows`
    admits a freshly-encoded request mid-decode (with an initial history for
    cross-attention caches, or length zero for self-attention caches) and
    :meth:`retire_rows` compacts finished rows out.  Rows may then hold
    histories of different lengths (*ragged* mode): each row's valid prefix
    is ``[0, row_lengths[r])`` and :meth:`append` writes every row at its own
    length, so the garbage is always *trailing* — the property the attention
    mask and the fused softmax's exactness analysis rely on.  Spare capacity
    is zero-filled whenever the cache is ragged: a masked score is overwritten
    before the softmax, but the value rows are still multiplied by the
    (exactly zero) weights, and ``0.0 * garbage`` must not produce NaN.
    """

    __slots__ = ("_keys", "_values", "_length", "_rows", "_row_lengths")

    #: Steps preallocated by the first single-step append; larger first
    #: appends preallocate twice their own length instead.
    MIN_CAPACITY = 8

    def __init__(self, keys: np.ndarray | None = None,
                 values: np.ndarray | None = None) -> None:
        self._keys: np.ndarray | None = None
        self._values: np.ndarray | None = None
        self._length = 0
        self._rows = 0
        #: Per-row valid lengths; ``None`` means uniform (every row at
        #: ``_length`` — the static decoders' fast path).
        self._row_lengths: np.ndarray | None = None
        if (keys is None) != (values is None):
            raise ValueError("KVCache needs keys and values together (or neither)")
        if keys is not None:
            self.keys = keys
            self.values = values

    # ------------------------------------------------------------ properties

    @property
    def keys(self) -> np.ndarray | None:
        """View of the cached keys (``None`` while the cache is empty)."""
        if self._keys is None:
            return None
        return self._keys[:self._rows, :, :self._length, :]

    @keys.setter
    def keys(self, array: np.ndarray | None) -> None:
        """Adopt ``array`` as the key buffer; ``None`` empties the whole cache
        (keys *and* values), keeping the two sides symmetric.  Assign keys
        first, then values — length follows the keys."""
        if array is None:
            self._keys = None
            self._values = None
            self._length = 0
            self._rows = 0
            self._row_lengths = None
        else:
            self._keys = np.asarray(array)
            self._length = self._keys.shape[2]
            self._rows = self._keys.shape[0]
            self._row_lengths = None

    @property
    def values(self) -> np.ndarray | None:
        """View of the cached values (``None`` while the cache is empty)."""
        if self._values is None:
            return None
        return self._values[:self._rows, :, :self._length, :]

    @values.setter
    def values(self, array: np.ndarray | None) -> None:
        if array is None:
            self._keys = None
            self._values = None
            self._length = 0
            self._rows = 0
            self._row_lengths = None
        else:
            self._values = np.asarray(array)

    @property
    def length(self) -> int:
        """The longest row's valid length (the width of the exposed views)."""
        return 0 if self._keys is None else self._length

    @property
    def rows(self) -> int:
        """Number of live rows."""
        return 0 if self._keys is None else self._rows

    @property
    def row_lengths(self) -> np.ndarray:
        """Per-row valid lengths, shape ``(rows,)`` (a defensive copy)."""
        if self._keys is None:
            return np.zeros(0, dtype=np.int64)
        if self._row_lengths is None:
            return np.full(self._rows, self._length, dtype=np.int64)
        return self._row_lengths.copy()

    @property
    def is_ragged(self) -> bool:
        """True when rows hold histories of different lengths (some row's
        exposed view therefore has a trailing zero-filled region that an
        attention mask must exclude)."""
        if self._row_lengths is None or not self._row_lengths.size:
            return False
        return int(self._row_lengths.min()) != self._length

    @property
    def capacity(self) -> int:
        """Steps the buffers can hold before the next growth."""
        return 0 if self._keys is None else self._keys.shape[2]

    # ------------------------------------------------------------------- api

    def append(self, new_keys: np.ndarray, new_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Append new keys/values along the sequence axis; return full views.

        Amortized O(1): the new step is written into spare capacity and the
        returned arrays are views of the valid prefix, not copies of the
        history.  When capacity runs out the buffers double (copying the
        valid prefix once into the new allocation).

        When the cache is ragged every row writes at its *own* length, so a
        freshly-joined row's history stays contiguous at the front and the
        zero padding stays trailing.
        """
        if self._keys is not None and self._values is None:
            raise ValueError("KVCache has keys but no values; assign both "
                             "before appending")
        new_keys = np.asarray(new_keys)
        new_values = np.asarray(new_values)
        steps = new_keys.shape[2]
        if self._keys is not None and new_keys.shape[0] != self._rows:
            raise ValueError(f"append expects {self._rows} rows, "
                             f"got {new_keys.shape[0]}")
        if self._row_lengths is None:
            # Uniform fast path: one contiguous write for the whole batch.
            needed = self._length + steps
            if self._keys is None or needed > self._keys.shape[2]:
                self._grow(new_keys, new_values, needed)
            rows = self._rows
            self._keys[:rows, :, self._length:needed] = new_keys
            self._values[:rows, :, self._length:needed] = new_values
            self._length = needed
            return self.keys, self.values
        lengths = self._row_lengths
        needed = (int(lengths.max()) if lengths.size else 0) + steps
        if needed > self._keys.shape[2]:
            self._grow(new_keys, new_values, needed)
        if steps == 1:
            # One decode step: a single scatter along (row, position) beats a
            # Python loop over rows (the continuous scheduler lands here on
            # every iteration of a ragged in-flight batch).
            rows = np.arange(self._rows)
            self._keys[rows, :, lengths] = new_keys[:, :, 0]
            self._values[rows, :, lengths] = new_values[:, :, 0]
        else:
            for row in range(self._rows):
                start = int(lengths[row])
                self._keys[row, :, start:start + steps] = new_keys[row]
                self._values[row, :, start:start + steps] = new_values[row]
        lengths += steps
        self._length = needed
        return self.keys, self.values

    def _grow(self, new_keys: np.ndarray, new_values: np.ndarray,
              needed: int) -> None:
        """Reallocate the step axis to hold ``needed`` steps (doubling).

        Ragged buffers are zero-allocated so trailing regions of short rows
        are never NaN-capable garbage (see the class docstring); uniform
        buffers keep the cheaper uninitialised allocation — no position past
        the shared length is ever read there.
        """
        capacity = max(self.MIN_CAPACITY, 2 * needed,
                       0 if self._keys is None else 2 * self._keys.shape[2])
        if self._keys is None:
            batch, heads, _, head_dim = new_keys.shape
            self._rows = batch
        else:
            batch = self._rows
            _, heads, _, head_dim = self._keys.shape
        alloc = np.empty if self._row_lengths is None else np.zeros
        grown_keys = alloc((batch, heads, capacity, head_dim),
                           dtype=new_keys.dtype)
        grown_values = alloc((batch, heads, capacity, head_dim),
                             dtype=new_values.dtype)
        if self._keys is not None and self._length:
            grown_keys[:, :, :self._length] = self._keys[:batch, :, :self._length]
            grown_values[:, :, :self._length] = self._values[:batch, :, :self._length]
        self._keys = grown_keys
        self._values = grown_values

    def insert_rows(self, index: int, keys: np.ndarray | None = None,
                    values: np.ndarray | None = None, *,
                    count: int | None = None) -> None:
        """Insert rows at ``index``, admitting a request into a live batch.

        Two call shapes:

        * ``insert_rows(i, keys, values)`` — the new rows carry an initial
          history (``(count, heads, steps, head_dim)``): how cross-attention
          caches adopt a joining request's projected encoder memory.
        * ``insert_rows(i, count=n)`` — ``n`` empty rows (length zero): how
          self-attention caches make room before the joiner's first step.
          On an *empty* cache this is a no-op — there is no history to be
          ragged against, and the rows materialise at the first append.

        The surviving rows' histories are preserved bit-for-bit; the row axis
        is rebuilt around the insertion point into zero-filled buffers (the
        cache is ragged from here on, see the class docstring).
        """
        if (keys is None) != (values is None):
            raise ValueError("insert_rows needs keys and values together "
                             "(or neither)")
        if keys is not None:
            keys = np.asarray(keys)
            values = np.asarray(values)
            if values.shape != keys.shape:
                raise ValueError(f"keys shape {keys.shape} != values shape "
                                 f"{values.shape}")
            if count is not None and count != keys.shape[0]:
                raise ValueError(f"count={count} disagrees with "
                                 f"{keys.shape[0]} key rows")
            count = keys.shape[0]
            steps = keys.shape[2]
        else:
            if count is None:
                raise ValueError("insert_rows needs keys/values or count")
            steps = 0
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        rows = self.rows
        if self._keys is None and keys is None:
            # Empty cache, empty rows: a pure no-op at ANY index — several
            # requests may join before the first append materialises the row
            # axis, so ``index`` can legitimately exceed the (zero) row
            # count here; the first append carries every pending row.
            if index < 0:
                raise ValueError(f"insert index {index} out of range")
            return
        if index < 0 or index > rows:
            raise ValueError(f"insert index {index} out of range for "
                             f"{rows} rows")
        if self._keys is None:
            batch, heads, _, head_dim = keys.shape
            capacity = max(self.MIN_CAPACITY, 2 * steps)
            self._keys = np.zeros((batch, heads, capacity, head_dim),
                                  dtype=keys.dtype)
            self._values = np.zeros((batch, heads, capacity, head_dim),
                                    dtype=values.dtype)
            self._keys[:, :, :steps] = keys
            self._values[:, :, :steps] = values
            self._rows = batch
            self._length = steps
            self._row_lengths = np.full(batch, steps, dtype=np.int64)
            return
        if self._values is None:
            raise ValueError("KVCache has keys but no values; assign both "
                             "before inserting rows")
        lengths = self.row_lengths
        new_length = max(self._length, steps)
        capacity = self._keys.shape[2]
        if new_length > capacity:
            capacity = max(self.MIN_CAPACITY, 2 * new_length)
        _, heads, _, head_dim = self._keys.shape
        new_rows = rows + count
        grown_keys = np.zeros((new_rows, heads, capacity, head_dim),
                              dtype=self._keys.dtype)
        grown_values = np.zeros((new_rows, heads, capacity, head_dim),
                                dtype=self._values.dtype)
        if self._length:
            grown_keys[:index, :, :self._length] = \
                self._keys[:index, :, :self._length]
            grown_keys[index + count:, :, :self._length] = \
                self._keys[index:rows, :, :self._length]
            grown_values[:index, :, :self._length] = \
                self._values[:index, :, :self._length]
            grown_values[index + count:, :, :self._length] = \
                self._values[index:rows, :, :self._length]
        if steps:
            grown_keys[index:index + count, :, :steps] = keys
            grown_values[index:index + count, :, :steps] = values
        self._keys = grown_keys
        self._values = grown_values
        self._rows = new_rows
        self._length = new_length
        self._row_lengths = np.concatenate(
            [lengths[:index], np.full(count, steps, dtype=np.int64),
             lengths[index:]])

    def retire_rows(self, rows_to_remove) -> None:
        """Remove the given row indices and compact the survivors in place.

        The buffers are reused (surviving rows shift down inside the existing
        allocation); the exposed view narrows to the surviving rows and to
        their longest remaining history.  Retiring every row empties the
        cache entirely.
        """
        drop = sorted(set(int(r) for r in rows_to_remove))
        if not drop:
            return
        if self._keys is None:
            raise ValueError("cannot retire rows from an empty cache")
        if drop[0] < 0 or drop[-1] >= self._rows:
            raise ValueError(f"retire indices {drop} out of range for "
                             f"{self._rows} rows")
        dropped = set(drop)
        keep = [r for r in range(self._rows) if r not in dropped]
        if not keep:
            self.keys = None
            return
        lengths = self.row_lengths[keep]
        prefix = self._length
        self._keys[:len(keep), :, :prefix] = self._keys[keep, :, :prefix]
        self._values[:len(keep), :, :prefix] = self._values[keep, :, :prefix]
        self._rows = len(keep)
        self._row_lengths = lengths
        self._length = int(lengths.max())

    def reorder_rows(self, parents: np.ndarray) -> None:
        """In-place row gather: row ``r`` becomes old row ``parents[r]``.

        Used by beam pruning to make each hypothesis row continue its parent
        hypothesis' history.  Only the valid prefix is touched and the
        buffers are reused — no reallocation, capacity is preserved.
        """
        if self._keys is None or not self._length:
            return
        parents = np.asarray(parents)
        changed = np.nonzero(parents != np.arange(parents.size))[0]
        if not changed.size:
            return
        lo, hi = int(changed[0]), int(changed[-1]) + 1
        moved = parents[lo:hi]
        if int(moved.min()) < lo or int(moved.max()) >= hi:
            # The permutation crosses the untouched span: full gather.
            lo, hi, moved = 0, self._rows, parents
        keys = self._keys[:self._rows, :, :self._length]
        values = self._values[:self._rows, :, :self._length]
        keys[lo:hi] = keys[moved]
        values[lo:hi] = values[moved]
        if self._row_lengths is not None:
            lengths = self._row_lengths.copy()
            lengths[lo:hi] = self._row_lengths[moved]
            self._row_lengths = lengths
            self._length = int(lengths.max())


class MultiHeadAttention(Module):
    """Standard multi-head attention (self- or cross-)."""

    def __init__(self, dim: int, num_heads: int, rng: np.random.Generator,
                 dropout: float = 0.0) -> None:
        if dim % num_heads != 0:
            raise ValueError(f"model dim {dim} not divisible by num_heads {num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        #: A Python float, so a float32 score buffer keeps a float32 multiply.
        self.scale = 1.0 / float(np.sqrt(self.head_dim))
        self.dropout = dropout
        self.q_proj = Linear(dim, dim, rng)
        self.k_proj = Linear(dim, dim, rng)
        self.v_proj = Linear(dim, dim, rng)
        self.out_proj = Linear(dim, dim, rng)

    # ------------------------------------------------------------------ api

    def __call__(
        self,
        query: Tensor,
        key: Tensor,
        value: Tensor,
        mask: np.ndarray | None = None,
        *,
        rng: np.random.Generator | None = None,
        training: bool = False,
        cache: KVCache | None = None,
        use_cached_kv: bool = False,
    ) -> Tensor:
        """Attend ``query`` over ``key``/``value``.

        Parameters
        ----------
        mask:
            Boolean array broadcastable to ``(batch, heads, q_len, k_len)``;
            True marks positions that must NOT be attended.
        cache:
            When given for self-attention decoding, new keys/values are
            appended to the cache and attention runs over the full history.
        use_cached_kv:
            For cross-attention decoding: reuse the cached keys/values without
            recomputing the projections of the (static) encoder output.
        """
        batch, q_len, _ = query.shape

        q = self._split_heads(self.q_proj(query), batch, q_len)

        if use_cached_kv and cache is not None and cache.keys is not None:
            k_data, v_data = cache.keys, cache.values
            k = Tensor(k_data)
            v = Tensor(v_data)
        else:
            k_len = key.shape[1]
            k = self._split_heads(self.k_proj(key), batch, k_len)
            v = self._split_heads(self.v_proj(value), batch, k_len)
            if cache is not None:
                if use_cached_kv:
                    # First call of a cross-attention cache: store projections.
                    cache.keys, cache.values = k.data, v.data
                else:
                    k_data, v_data = cache.append(k.data, v.data)
                    k = Tensor(k_data)
                    v = Tensor(v_data)

        context = scaled_dot_product_attention(
            q, k, v, mask, self.scale, dropout=self.dropout, rng=rng,
            training=training)
        merged = self._merge_heads(context, batch, q_len)
        return self.out_proj(merged)

    def forward_data(
        self,
        query: np.ndarray,
        key: np.ndarray,
        value: np.ndarray,
        mask: np.ndarray | None = None,
        *,
        dtype: np.dtype,
        cache: KVCache | None = None,
        use_cached_kv: bool = False,
    ) -> np.ndarray:
        """Fused no-tape attention on raw ndarrays (the inference kernel).

        Mirrors :meth:`__call__` with ``training=False``: the same
        projections and the same :func:`attention_probs` kernel, so at
        float64 the result is bitwise identical to the tape path while
        skipping every Tensor/tape allocation.
        """
        batch, q_len, _ = query.shape

        q = self._split_data(self.q_proj.forward_data(query, dtype), batch, q_len)

        if use_cached_kv and cache is not None and cache.keys is not None:
            k, v = cache.keys, cache.values
        else:
            k_len = key.shape[1]
            k = self._split_data(self.k_proj.forward_data(key, dtype), batch, k_len)
            v = self._split_data(self.v_proj.forward_data(value, dtype), batch, k_len)
            if cache is not None:
                if use_cached_kv:
                    cache.keys, cache.values = k, v
                else:
                    k, v = cache.append(k, v)

        context = np.matmul(attention_probs(q, k, mask, self.scale), v)
        merged = np.transpose(context, (0, 2, 1, 3)).reshape(batch, q_len, self.dim)
        return self.out_proj.forward_data(merged, dtype)

    # ------------------------------------------------------------ internals

    def _split_heads(self, x: Tensor, batch: int, length: int) -> Tensor:
        """(batch, length, dim) -> (batch, heads, length, head_dim)"""
        return x.reshape(batch, length, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def _split_data(self, x: np.ndarray, batch: int, length: int) -> np.ndarray:
        """Raw-ndarray :meth:`_split_heads` (same view-producing steps)."""
        return x.reshape(batch, length, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge_heads(self, x: Tensor, batch: int, length: int) -> Tensor:
        """(batch, heads, length, head_dim) -> (batch, length, dim)"""
        return x.transpose(0, 2, 1, 3).reshape(batch, length, self.dim)


def attention_probs(q: np.ndarray, k: np.ndarray, mask: np.ndarray | None,
                    scale: float) -> np.ndarray:
    """Attention weights ``softmax(q kᵀ · scale)`` over the last axis.

    ``q`` is ``(batch, heads, q_len, head_dim)``, ``k`` is ``(batch, heads,
    k_len, head_dim)`` and ``mask`` (True = not attended) broadcasts to the
    score shape ``(batch, heads, q_len, k_len)``.  One
    score buffer is allocated and the scaling, masking and max-shifted
    softmax all run in place on it, in the op order of the composed tape
    chain this kernel replaced.
    """
    scores = np.matmul(q, np.transpose(k, (0, 1, 3, 2)))
    scores *= scale
    if mask is not None:
        np.copyto(scores, -1e9, where=mask)
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def _dropped(probs: np.ndarray, keep: np.ndarray, rate: float) -> np.ndarray:
    """Inverted-dropout weights ``probs * keep / (1 - rate)`` (a new array)."""
    weights = probs * keep
    weights *= 1.0 / (1.0 - rate)
    return weights


def scaled_dot_product_attention(q: Tensor, k: Tensor, v: Tensor,
                                 mask: np.ndarray | None, scale: float, *,
                                 dropout: float = 0.0,
                                 rng: np.random.Generator | None = None,
                                 training: bool = False) -> Tensor:
    """``dropout(softmax(q kᵀ · scale, masked)) v`` as one tape op.

    The forward is :func:`attention_probs` plus inverted dropout on the
    weights (its mask drawn as ``rng.random(shape) >= dropout``, the draw
    :meth:`Tensor.dropout` makes) and the value matmul.  For backward the op
    saves only ``q``, ``k``, ``v``, ``mask``, the probabilities and the bool
    keep-mask; see the module docstring for why the probabilities are kept
    rather than recomputed.
    """
    probs = attention_probs(q.data, k.data, mask, scale)
    keep = None
    weights = probs
    if training and dropout > 0.0:
        rng = rng or np.random.default_rng()
        keep = rng.random(probs.shape) >= dropout
        weights = _dropped(probs, keep, dropout)
    return fused_op(np.matmul(weights, v.data), (q, k, v), _attention_backward,
                    q.data, k.data, v.data, mask, probs, keep, dropout, scale)


def _attention_backward(g: np.ndarray, needs: tuple[bool, bool, bool],
                        q: np.ndarray, k: np.ndarray, v: np.ndarray,
                        mask: np.ndarray | None, probs: np.ndarray,
                        keep: np.ndarray | None, rate: float,
                        scale: float) -> dict[int, np.ndarray]:
    """Gradients ``{0: dq, 1: dk, 2: dv}`` (only the ``needs``-ed ones).

    Same floats as the composed chain's backward: the value matmul, the
    dropout mask, the softmax gradient, mask zeroing, ``×scale``, then the
    q/k matmuls.  ``g`` may alias other tape gradients, so it is only read;
    the in-place steps run on arrays allocated here.
    """
    grads: dict[int, np.ndarray] = {}
    if needs[2]:
        weights = probs if keep is None else _dropped(probs, keep, rate)
        grads[2] = np.matmul(np.swapaxes(weights, -1, -2), g)
        del weights
    if not (needs[0] or needs[1]):
        return grads
    d_scores = np.matmul(g, np.swapaxes(v, -1, -2))
    if keep is not None:
        np.multiply(d_scores, keep, out=d_scores)
        d_scores *= 1.0 / (1.0 - rate)
    dot = (d_scores * probs).sum(axis=-1, keepdims=True)
    d_scores -= dot
    d_scores *= probs
    if mask is not None:
        np.copyto(d_scores, 0.0, where=mask)
    d_scores *= scale
    if needs[0]:
        grads[0] = np.matmul(d_scores, k)
    if needs[1]:
        grads[1] = np.swapaxes(np.matmul(np.swapaxes(q, -1, -2), d_scores), -1, -2)
    return grads


def padding_mask(ids: np.ndarray, pad_id: int) -> np.ndarray:
    """Mask of shape (batch, 1, 1, length): True where ``ids`` is padding."""
    return (ids == pad_id)[:, None, None, :]


@lru_cache(maxsize=64)
def _causal_mask_cached(length: int) -> np.ndarray:
    mask = np.triu(np.ones((length, length), dtype=bool), k=1)[None, None, :, :]
    mask.flags.writeable = False
    return mask


def causal_mask(length: int) -> np.ndarray:
    """Mask of shape (1, 1, length, length): True above the diagonal.

    Cached per length (and therefore read-only): every training step and
    teacher-forced decode of the same width shares one allocation.
    """
    return _causal_mask_cached(length)


def combined_decoder_mask(target_ids: np.ndarray, pad_id: int) -> np.ndarray:
    """Causal mask combined with target padding mask."""
    length = target_ids.shape[1]
    return causal_mask(length) | padding_mask(target_ids, pad_id)
