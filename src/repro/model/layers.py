"""Neural-network building blocks on top of the autograd engine.

Every block has two forward paths:

* ``__call__`` — the tape path used for training (Tensor in, Tensor out);
* ``forward_data`` — the no-tape inference path on raw ndarrays, running
  at the execution mode's compute dtype.  Parameters keep float64 masters;
  :func:`cast_param` memoises the dtype-cast copies the fast path reads,
  keyed by each parameter's :attr:`~repro.model.autograd.Tensor.version`
  (bumped by the optimiser / checkpoint loader on in-place updates), so a
  float32 decode never pays a per-step cast and never reads stale weights.

Linear and GELU have one kernel each (:func:`linear_data`,
:func:`gelu_data`) that ``forward_data`` calls and that their tape ops
(:func:`linear`, :func:`gelu`) wrap with a hand-written backward.  Each
kernel keeps the float expressions of the composed Tensor chain it replaced,
operation for operation (in-place where that gives the same bits), and each
backward replays that chain's backward, so outputs and gradients are bitwise
those of the chain (``tests/test_fused_kernels.py``); the tape keeps only
what a backward reads (Linear its input, GELU its input and
``tanh(inner)``).  LayerNorm still trains through its composed chain, and
its ``forward_data`` replicates that chain's float expressions operation for
operation.  Both ways the float64 fast path is bitwise identical to the
tape reference (see ``tests/test_inference_fastpath.py``).
"""

from __future__ import annotations

import numpy as np

from .autograd import Tensor, _unbroadcast, embedding_lookup, fused_op, parameter


def cast_param(cache: dict, param: Tensor, dtype) -> np.ndarray:
    """``param.data`` cast to ``dtype``, memoised in ``cache``.

    When ``dtype`` matches the master dtype the master array itself is
    returned (``astype(copy=False)``), so the float64 fast path can never go
    stale.  Other dtypes cache one cast copy, invalidated when the parameter
    is rebound (``id`` changes) or mutated in place (``version`` bumped).
    """
    key = np.dtype(dtype)
    token = (id(param.data), param.version)
    hit = cache.get(key)
    if hit is not None and hit[0] == token:
        return hit[1]
    cast = param.data.astype(key, copy=False)
    cache[key] = (token, cast)
    return cast


# ----------------------------------------------------------------- kernels


def linear_data(x: np.ndarray, weight: np.ndarray,
                bias: np.ndarray | None) -> np.ndarray:
    """``x W + b`` in one output buffer (the bias is added in place)."""
    out = np.matmul(x, weight)
    if bias is not None:
        out += bias
    return out


def linear(x: Tensor, weight: Tensor, bias: Tensor | None) -> Tensor:
    """:func:`linear_data` as one tape op; backward reads only ``x`` and
    ``weight``."""
    parents = (x, weight) if bias is None else (x, weight, bias)
    out = linear_data(x.data, weight.data, None if bias is None else bias.data)
    return fused_op(out, parents, _linear_backward, x.data, weight.data)


def _linear_backward(g: np.ndarray, needs: tuple[bool, ...], x: np.ndarray,
                     weight: np.ndarray) -> dict[int, np.ndarray]:
    """``{0: dx, 1: dW, 2: db}``, the matmul and bias-add backward of the
    composed chain."""
    grads = {}
    if needs[0]:
        grads[0] = _unbroadcast(np.matmul(g, np.swapaxes(weight, -1, -2)), x.shape)
    if needs[1]:
        grads[1] = _unbroadcast(np.matmul(np.swapaxes(x, -1, -2), g), weight.shape)
    if len(needs) > 2 and needs[2]:
        grads[2] = _unbroadcast(g, weight.shape[-1:])
    return grads


_GELU_C = float(np.sqrt(2.0 / np.pi))


def gelu_data(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU (tanh approximation): ``(value, tanh(inner))``.

    The cubic is explicit multiplies: NumPy's float ``**`` lowers to a full
    ``pow`` for exponent 3, an order of magnitude slower on the FFN path.
    """
    inner = x * x
    inner *= x
    inner *= 0.044715
    inner += x
    inner *= _GELU_C
    t = np.tanh(inner, out=inner)
    value = 0.5 * x
    value *= 1.0 + t
    return value, t


def gelu(x: Tensor) -> Tensor:
    """:func:`gelu_data` as one tape op; backward reads ``x`` and
    ``tanh(inner)``."""
    value, t = gelu_data(x.data)
    return fused_op(value, (x,), _gelu_backward, x.data, t)


def _gelu_backward(g: np.ndarray, needs: tuple[bool], x: np.ndarray,
                   t: np.ndarray) -> dict[int, np.ndarray]:
    dinner = _GELU_C * (1.0 + 3 * 0.044715 * (x * x))
    dt = (1.0 - t ** 2) * dinner
    return {0: g * (0.5 * (1.0 + t) + 0.5 * x * dt)}


class Module:
    """Base class: tracks parameters of itself and registered sub-modules."""

    def parameters(self) -> list[Tensor]:
        """Return every trainable parameter reachable from this module."""
        params: list[Tensor] = []
        seen: set[int] = set()
        for value in vars(self).values():
            params.extend(_collect(value, seen))
        return params

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        return int(sum(p.data.size for p in self.parameters()))


def _collect(value, seen: set[int]) -> list[Tensor]:
    if isinstance(value, Tensor) and value.requires_grad:
        if id(value) in seen:
            return []
        seen.add(id(value))
        return [value]
    if isinstance(value, Module):
        out = []
        for sub in vars(value).values():
            out.extend(_collect(sub, seen))
        return out
    if isinstance(value, (list, tuple)):
        out = []
        for item in value:
            out.extend(_collect(item, seen))
        return out
    return []


class Linear(Module):
    """Affine projection ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, *, bias: bool = True) -> None:
        scale = np.sqrt(2.0 / (in_features + out_features))
        self.weight = parameter(rng.normal(0.0, scale, size=(in_features, out_features)),
                                name="linear.weight")
        self.bias = parameter(np.zeros(out_features), name="linear.bias") if bias else None
        self._cast_weight: dict = {}
        self._cast_bias: dict = {}

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)

    def forward_data(self, x: np.ndarray, dtype) -> np.ndarray:
        """No-tape affine projection; weights stored pre-oriented ``(in, out)``
        so the projection is a single matmul with no transpose."""
        bias = (None if self.bias is None
                else cast_param(self._cast_bias, self.bias, dtype))
        return linear_data(x, cast_param(self._cast_weight, self.weight, dtype), bias)


class LayerNorm(Module):
    """Layer normalisation over the last dimension."""

    def __init__(self, dim: int, epsilon: float = 1e-5) -> None:
        self.gamma = parameter(np.ones(dim), name="layernorm.gamma")
        self.beta = parameter(np.zeros(dim), name="layernorm.beta")
        self.epsilon = epsilon
        self._cast_gamma: dict = {}
        self._cast_beta: dict = {}

    def __call__(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        variance = (centered * centered).mean(axis=-1, keepdims=True)
        normalised = centered / (variance + self.epsilon).sqrt()
        return normalised * self.gamma + self.beta

    def forward_data(self, x: np.ndarray, dtype) -> np.ndarray:
        # Same expression as the tape path, which computes the mean as
        # sum * (1/dim) with the reciprocal lifted to the compute dtype.
        inv_dim = np.asarray(1.0 / x.shape[-1], dtype=dtype)
        mean = x.sum(axis=-1, keepdims=True) * inv_dim
        centered = x - mean
        variance = (centered * centered).sum(axis=-1, keepdims=True) * inv_dim
        normalised = centered / np.sqrt(variance + np.asarray(self.epsilon, dtype=dtype))
        return (normalised * cast_param(self._cast_gamma, self.gamma, dtype)
                + cast_param(self._cast_beta, self.beta, dtype))


class Embedding(Module):
    """Token embedding table."""

    def __init__(self, vocab_size: int, dim: int, rng: np.random.Generator) -> None:
        self.weight = parameter(rng.normal(0.0, 0.02, size=(vocab_size, dim)),
                                name="embedding.weight")
        self.dim = dim
        self._cast_weight: dict = {}

    def __call__(self, ids: np.ndarray) -> Tensor:
        return embedding_lookup(self.weight, ids)

    def lookup_data(self, ids: np.ndarray, dtype) -> np.ndarray:
        """No-tape row gather from the dtype-cast embedding table."""
        return cast_param(self._cast_weight, self.weight, dtype)[np.asarray(ids, dtype=np.int64)]


class FeedForward(Module):
    """Position-wise feed-forward network with GELU activation."""

    def __init__(self, dim: int, hidden_dim: int, rng: np.random.Generator,
                 dropout: float = 0.0) -> None:
        self.fc1 = Linear(dim, hidden_dim, rng)
        self.fc2 = Linear(hidden_dim, dim, rng)
        self.dropout = dropout

    def __call__(self, x: Tensor, *, rng: np.random.Generator | None = None,
                 training: bool = False) -> Tensor:
        hidden = gelu(self.fc1(x)).dropout(self.dropout, rng, training)
        return self.fc2(hidden)

    def forward_data(self, x: np.ndarray, dtype) -> np.ndarray:
        hidden, _ = gelu_data(self.fc1.forward_data(x, dtype))
        return self.fc2.forward_data(hidden, dtype)


def sinusoidal_positions(length: int, dim: int) -> np.ndarray:
    """Sinusoidal positional encoding matrix of shape ``(length, dim)``."""
    positions = np.arange(length)[:, None].astype(np.float64)
    dims = np.arange(dim)[None, :].astype(np.float64)
    angle_rates = 1.0 / np.power(10000.0, (2 * (dims // 2)) / dim)
    angles = positions * angle_rates
    encoding = np.zeros((length, dim))
    encoding[:, 0::2] = np.sin(angles[:, 0::2])
    encoding[:, 1::2] = np.cos(angles[:, 1::2])
    return encoding


class PositionalEncoding(Module):
    """Adds (non-trainable) sinusoidal position information to embeddings."""

    def __init__(self, max_length: int, dim: int) -> None:
        self.encoding = sinusoidal_positions(max_length, dim)
        self.max_length = max_length
        self.dim = dim
        self._cast_encoding: dict = {}

    def __call__(self, x: Tensor, offset: int = 0) -> Tensor:
        length = x.shape[-2]
        self._check_bounds(offset, length)
        positions = Tensor(self.encoding[offset:offset + length])
        return x + positions

    def slice_data(self, offset: int, length: int, dtype) -> np.ndarray:
        """The dtype-cast encoding rows ``[offset, offset + length)``.

        The cast table is cached per dtype (the encoding is static), so a
        float32 decode reads a slice view rather than re-casting per step.
        """
        self._check_bounds(offset, length)
        return self._cast_table(dtype)[offset:offset + length]

    def rows_data(self, positions: np.ndarray, dtype) -> np.ndarray:
        """Per-row encoding gather: row ``r`` gets position ``positions[r]``.

        Shape ``(rows, 1, dim)`` — the continuous decode step's positional
        term, where every batch row sits at its own decode position.  Each
        row is the same table entry :meth:`slice_data` would return for that
        position, so a row's sum is bitwise identical to its sequential
        decode.
        """
        positions = np.asarray(positions)
        if positions.size and int(positions.max()) >= self.max_length:
            raise ValueError(
                f"position {int(positions.max())} exceeds positional table "
                f"({self.max_length}); increase ModelConfig.max_positions"
            )
        return self._cast_table(dtype)[positions][:, None, :]

    def _cast_table(self, dtype) -> np.ndarray:
        key = np.dtype(dtype)
        table = self._cast_encoding.get(key)
        if table is None:
            table = self.encoding.astype(key, copy=False)
            self._cast_encoding[key] = table
        return table

    def _check_bounds(self, offset: int, length: int) -> None:
        if offset + length > self.max_length:
            raise ValueError(
                f"sequence of length {offset + length} exceeds positional table "
                f"({self.max_length}); increase ModelConfig.max_positions"
            )
