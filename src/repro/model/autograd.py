"""A minimal reverse-mode automatic-differentiation engine on NumPy arrays.

This is the reproduction's stand-in for PyTorch: the paper fine-tunes
SPT-Code with PyTorch on a V100; here the Transformer is trained on CPU with
this tape-based autograd.  Only the operations the Transformer needs are
implemented (broadcast arithmetic, matmul, reshape/transpose, embedding
gather, dropout, reductions), each with an explicit backward function.  The
layers train through fused ops built with :func:`fused_op`, each one tape
node with a hand-written backward: attention
(``repro.model.attention.scaled_dot_product_attention``), the biased Linear
and GELU (``repro.model.layers``) and the log-softmax fused with the
label-smoothed NLL (``repro.model.loss.cross_entropy``).

Design notes
------------
* A :class:`Tensor` wraps a float ndarray, a gradient buffer and a closure
  list of ``(parent, backward_fn)`` pairs.
* :meth:`Tensor.backward` runs a topological sort of the tape and accumulates
  gradients; broadcasting is undone with :func:`_unbroadcast`.
* **Gradient release.**  Backward walks the tape in reverse topological
  order, so a node's gradient is complete once it is reached; it is dropped
  from the walk's gradient table as soon as the node's backward functions
  have run, so only the gradients of the walk's frontier are alive at once.
  Keeping every intermediate gradient until ``backward`` returns cost about
  570 MB of peak on the train-steps benchmark.  Leaf parameters still
  accumulate into ``.grad`` across calls.
* **Bool masks.**  :meth:`Tensor.dropout` keeps its keep-mask as ``bool``
  (an eighth of a float64 mask); ``float * bool`` gives the same values as
  multiplying by a float 0/1 mask.
* No graph retention subtleties: each forward pass builds a fresh tape, which
  matches how the trainer uses it (one tape per mini-batch).

Execution modes (the inference fast path)
-----------------------------------------
Inference never calls :meth:`Tensor.backward`, so building the tape is pure
overhead on the decode hot path.  Two thread-local context managers control
execution:

* :func:`inference_mode` — the **no-tape mode**: every op skips tape
  construction *and* backward-closure allocation entirely (the ``if grad
  enabled`` guard sits in front of the closure literals, so not even the
  closure objects are created), and newly created tensors follow the mode's
  compute dtype (float32 by default, see below).  Tensors created in this
  mode carry an empty tape — calling ``backward()`` on them is a no-op.
* :func:`tape_mode` — forces the tape path (and float64) even inside the
  generation entry points, which otherwise switch themselves onto the fast
  path.  This is how the differential tests and benchmarks summon the
  reference implementation.

Dtype policy
------------
Each execution mode carries a compute dtype: training/tape code runs float64
(the historical behaviour), while :func:`inference_mode` defaults to float32
(configurable per-context via ``inference_mode(dtype=...)`` or globally via
:func:`set_default_inference_dtype`).  ``Tensor.__init__`` and the scalar
lifting in ``_as_tensor`` follow :func:`current_dtype` instead of a
hard-coded ``np.float64``, so constants created under a float32 policy stay
float32 rather than silently upcasting every downstream result; gradients
likewise follow the tensor's own dtype.

Parameters keep float64 master weights at all times — the fast path casts
them on demand (see ``repro.model.layers.cast_param``), keyed by
:attr:`Tensor.version`, which in-place mutators (the optimiser, the
checkpoint loader) bump via :meth:`Tensor.mark_updated`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterable

import numpy as np

Array = np.ndarray


# ------------------------------------------------------------ execution mode


_TAPE_DTYPE = np.dtype(np.float64)
_DEFAULT_INFERENCE_DTYPE = np.dtype(np.float32)


class _ExecState(threading.local):
    """Per-thread execution mode: tape on/off, compute dtype, explicitness."""

    def __init__(self) -> None:
        self.grad_enabled = True
        self.dtype = _TAPE_DTYPE
        #: True once a mode context manager is active — generation entry
        #: points only switch to the fast path when no caller pinned a mode.
        self.explicit = False


_STATE = _ExecState()


def is_grad_enabled() -> bool:
    """True when ops record the tape (the default outside inference mode)."""
    return _STATE.grad_enabled


def current_dtype() -> np.dtype:
    """The compute dtype new tensors and lifted constants follow."""
    return _STATE.dtype


def mode_is_explicit() -> bool:
    """True when a caller pinned the execution mode with a context manager."""
    return _STATE.explicit


def default_inference_dtype() -> np.dtype:
    """The dtype :func:`inference_mode` uses when none is passed."""
    return _DEFAULT_INFERENCE_DTYPE


def set_default_inference_dtype(dtype) -> None:
    """Set the module-wide inference compute dtype (float32 or float64)."""
    global _DEFAULT_INFERENCE_DTYPE
    resolved = np.dtype(dtype)
    if resolved not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"inference dtype must be float32 or float64, got {dtype!r}")
    _DEFAULT_INFERENCE_DTYPE = resolved


@contextmanager
def _mode(grad_enabled: bool, dtype: np.dtype):
    previous = (_STATE.grad_enabled, _STATE.dtype, _STATE.explicit)
    _STATE.grad_enabled, _STATE.dtype, _STATE.explicit = grad_enabled, dtype, True
    try:
        yield
    finally:
        _STATE.grad_enabled, _STATE.dtype, _STATE.explicit = previous


def inference_mode(dtype=None):
    """No-tape execution: ops skip tape and closure allocation entirely.

    ``dtype`` selects the compute dtype (default: the module inference dtype,
    float32 unless reconfigured).  ``inference_mode(dtype=np.float64)`` gives
    the bitwise-reproducible fast path the differential tests compare against
    :func:`tape_mode`.
    """
    resolved = _DEFAULT_INFERENCE_DTYPE if dtype is None else np.dtype(dtype)
    return _mode(False, resolved)


def tape_mode(dtype=None):
    """Force the tape path (float64 by default) even inside generation."""
    resolved = _TAPE_DTYPE if dtype is None else np.dtype(dtype)
    return _mode(True, resolved)


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Reduce ``grad`` so its shape matches ``shape`` (reverse of broadcasting).

    The reductions preserve ``grad``'s dtype, so gradients follow the tensor
    dtype they flow through rather than being forced to float64.
    """
    if grad.shape == shape:
        return grad
    # Sum out leading extra dimensions.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A differentiable array node."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "name", "version")

    def __init__(self, data, *, requires_grad: bool = False, name: str = "") -> None:
        self.data = np.asarray(data, dtype=_STATE.dtype)
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self._parents: list[tuple["Tensor", Callable[[Array], Array]]] = []
        self.name = name
        #: Bumped by in-place mutators (optimiser steps, checkpoint loads) so
        #: the inference fast path can cache dtype-cast copies safely.
        self.version = 0

    # ------------------------------------------------------------- plumbing

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def detach(self) -> "Tensor":
        """A new tensor sharing data but cut from the tape."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def mark_updated(self) -> None:
        """Record an in-place ``data`` mutation (invalidates cast caches)."""
        self.version += 1

    def _add_parent(self, parent: "Tensor", backward_fn: Callable[[Array], Array]) -> None:
        if parent.requires_grad:
            self._parents.append((parent, backward_fn))
            self.requires_grad = True

    def backward(self, grad: Array | None = None) -> None:
        """Backpropagate ``grad`` (defaults to ones) through the tape."""
        if grad is None:
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        # Topological order of the sub-graph reachable from self.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent, _ in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, Array] = {id(self): grad}
        for node in reversed(topo):
            # Every child of ``node`` ran before it, so its gradient is
            # complete: take it out of ``grads`` to release it once this
            # node's backward functions have run.
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad and not node._parents:
                # Leaf parameter: accumulate.
                node.grad = node_grad if node.grad is None else node.grad + node_grad
            for parent, backward_fn in node._parents:
                contribution = backward_fn(node_grad)
                existing = grads.get(id(parent))
                grads[id(parent)] = contribution if existing is None else existing + contribution
        # Non-leaf tensors that the caller may inspect.
        if self.requires_grad and self._parents:
            self.grad = grad

    # ------------------------------------------------------------ arithmetic

    def __add__(self, other) -> "Tensor":
        other = _as_tensor(other)
        out = Tensor(self.data + other.data)
        if _STATE.grad_enabled:
            out._add_parent(self, lambda g: _unbroadcast(g, self.data.shape))
            out._add_parent(other, lambda g: _unbroadcast(g, other.data.shape))
        return out

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = _as_tensor(other)
        out = Tensor(self.data - other.data)
        if _STATE.grad_enabled:
            out._add_parent(self, lambda g: _unbroadcast(g, self.data.shape))
            out._add_parent(other, lambda g: _unbroadcast(-g, other.data.shape))
        return out

    def __mul__(self, other) -> "Tensor":
        other = _as_tensor(other)
        out = Tensor(self.data * other.data)
        if _STATE.grad_enabled:
            out._add_parent(self, lambda g: _unbroadcast(g * other.data, self.data.shape))
            out._add_parent(other, lambda g: _unbroadcast(g * self.data, other.data.shape))
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = _as_tensor(other)
        out = Tensor(self.data / other.data)
        if _STATE.grad_enabled:
            out._add_parent(self, lambda g: _unbroadcast(g / other.data, self.data.shape))
            out._add_parent(
                other,
                lambda g: _unbroadcast(-g * self.data / (other.data ** 2), other.data.shape),
            )
        return out

    def __neg__(self) -> "Tensor":
        out = Tensor(-self.data)
        if _STATE.grad_enabled:
            out._add_parent(self, lambda g: -g)
        return out

    def __pow__(self, exponent: float) -> "Tensor":
        out = Tensor(self.data ** exponent)
        if _STATE.grad_enabled:
            out._add_parent(
                self, lambda g: g * exponent * (self.data ** (exponent - 1))
            )
        return out

    # ------------------------------------------------------------ linear alg

    def matmul(self, other: "Tensor") -> "Tensor":
        other = _as_tensor(other)
        out = Tensor(np.matmul(self.data, other.data))
        if not _STATE.grad_enabled:
            return out

        def grad_self(g: Array) -> Array:
            return _unbroadcast(np.matmul(g, np.swapaxes(other.data, -1, -2)),
                                self.data.shape)

        def grad_other(g: Array) -> Array:
            return _unbroadcast(np.matmul(np.swapaxes(self.data, -1, -2), g),
                                other.data.shape)

        out._add_parent(self, grad_self)
        out._add_parent(other, grad_other)
        return out

    __matmul__ = matmul

    def transpose(self, *axes: int) -> "Tensor":
        axes_tuple = axes if axes else tuple(reversed(range(self.ndim)))
        out = Tensor(np.transpose(self.data, axes_tuple))
        if _STATE.grad_enabled:
            inverse = np.argsort(axes_tuple)
            out._add_parent(self, lambda g: np.transpose(g, inverse))
        return out

    def reshape(self, *shape: int) -> "Tensor":
        out = Tensor(self.data.reshape(shape))
        if _STATE.grad_enabled:
            original = self.data.shape
            out._add_parent(self, lambda g: g.reshape(original))
        return out

    # -------------------------------------------------------------- reductions

    def sum(self, axis: int | tuple[int, ...] | None = None,
            keepdims: bool = False) -> "Tensor":
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims))
        if not _STATE.grad_enabled:
            return out

        def grad_fn(g: Array) -> Array:
            if axis is None:
                return np.broadcast_to(g, self.data.shape).copy()
            g_expanded = g if keepdims else np.expand_dims(g, axis=axis)
            return np.broadcast_to(g_expanded, self.data.shape).copy()

        out._add_parent(self, grad_fn)
        return out

    def mean(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ------------------------------------------------------------ elementwise

    def exp(self) -> "Tensor":
        value = np.exp(self.data)
        out = Tensor(value)
        if _STATE.grad_enabled:
            out._add_parent(self, lambda g: g * value)
        return out

    def log(self) -> "Tensor":
        out = Tensor(np.log(self.data))
        if _STATE.grad_enabled:
            out._add_parent(self, lambda g: g / self.data)
        return out

    def sqrt(self) -> "Tensor":
        value = np.sqrt(self.data)
        out = Tensor(value)
        if _STATE.grad_enabled:
            out._add_parent(self, lambda g: g * 0.5 / value)
        return out

    def tanh(self) -> "Tensor":
        value = np.tanh(self.data)
        out = Tensor(value)
        if _STATE.grad_enabled:
            out._add_parent(self, lambda g: g * (1.0 - value ** 2))
        return out

    def relu(self) -> "Tensor":
        mask = (self.data > 0).astype(self.data.dtype)
        out = Tensor(self.data * mask)
        if _STATE.grad_enabled:
            out._add_parent(self, lambda g: g * mask)
        return out

    # --------------------------------------------------------------- nn ops

    def dropout(self, rate: float, rng: np.random.Generator | None = None,
                training: bool = True) -> "Tensor":
        """Inverted dropout; identity when not training or rate == 0."""
        if not training or rate <= 0.0:
            return self
        rng = rng or np.random.default_rng()
        keep = rng.random(self.data.shape) >= rate
        scale = 1.0 / (1.0 - rate)
        out = Tensor(self.data * keep * scale)
        if _STATE.grad_enabled:
            out._add_parent(self, lambda g: g * keep * scale)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _as_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=_STATE.dtype))


# --------------------------------------------------------------------- helpers


def parameter(data: Array, name: str = "") -> Tensor:
    """Create a trainable parameter tensor."""
    return Tensor(data, requires_grad=True, name=name)


def fused_op(data: Array, parents: tuple[Tensor, ...], backward: Callable,
             *saved) -> Tensor:
    """One tape node over ``parents`` with a hand-written backward.

    ``backward(g, needs, *saved)`` returns ``{index: gradient}`` for every
    parent whose ``needs[index]`` is true.  The tape asks for each parent's
    gradient separately: the first request runs ``backward`` once and each
    later one collects its own.  ``saved`` are the only arrays the node
    keeps for backward; under :func:`inference_mode` it keeps none.
    """
    out = Tensor(data)
    if not _STATE.grad_enabled:
        return out
    needs = tuple(parent.requires_grad for parent in parents)
    pending: dict[int, Array] = {}

    def parent_grad(index: int) -> Callable[[Array], Array]:
        def grad_fn(g: Array) -> Array:
            if not pending:
                pending.update(backward(g, needs, *saved))
            return pending.pop(index)
        return grad_fn

    for index, parent in enumerate(parents):
        out._add_parent(parent, parent_grad(index))
    return out


def embedding_lookup(weight: Tensor, ids: Array) -> Tensor:
    """Gather rows ``ids`` from an embedding matrix with scatter-add backward."""
    ids = np.asarray(ids, dtype=np.int64)
    out = Tensor(weight.data[ids])
    if not _STATE.grad_enabled:
        return out

    def grad_fn(g: Array) -> Array:
        grad_weight = np.zeros_like(weight.data)
        np.add.at(grad_weight, ids.reshape(-1), g.reshape(-1, weight.data.shape[1]))
        return grad_weight

    out._add_parent(weight, grad_fn)
    return out


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis``."""
    datas = [t.data for t in tensors]
    out = Tensor(np.concatenate(datas, axis=axis))
    if not _STATE.grad_enabled:
        return out
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    for i, t in enumerate(tensors):
        start, stop = offsets[i], offsets[i + 1]

        def make_grad(start=start, stop=stop):
            def grad_fn(g: Array) -> Array:
                slicer = [slice(None)] * g.ndim
                slicer[axis] = slice(start, stop)
                return g[tuple(slicer)]
            return grad_fn

        out._add_parent(t, make_grad())
    return out


def numerical_gradient(fn: Callable[[Tensor], Tensor], x: Tensor,
                       epsilon: float = 1e-6) -> Array:
    """Central-difference gradient of a scalar-valued ``fn`` w.r.t. ``x``
    (used only by the test suite to validate analytic gradients)."""
    grad = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + epsilon
        plus = fn(Tensor(x.data.copy())).data.item()
        flat[i] = original - epsilon
        minus = fn(Tensor(x.data.copy())).data.item()
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * epsilon)
    return grad
