"""Cross-entropy loss with label smoothing and padding masking.

:func:`cross_entropy` is one tape op: the log-softmax fused with the
label-smoothed negative log-likelihood, with a hand-written backward.  Its
forward keeps the op order of the composed chain it replaced
(``log_softmax``, ``× target distribution``, ``sum``, ``-``, ``× 1/tokens``),
so the loss is bitwise the chain's; for backward it keeps only the
probabilities and the target distribution, each ``(batch, length, vocab)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import Tensor, fused_op, is_grad_enabled


@dataclass
class LossResult:
    """Loss tensor plus scalar monitoring values."""

    loss: Tensor
    token_accuracy: float
    num_tokens: int


def cross_entropy(logits: Tensor, targets: np.ndarray, pad_id: int,
                  label_smoothing: float = 0.0) -> LossResult:
    """Token-level cross-entropy.

    Parameters
    ----------
    logits:
        Tensor of shape (batch, length, vocab).
    targets:
        Integer array of shape (batch, length); positions equal to ``pad_id``
        are excluded from both the loss and the accuracy.
    label_smoothing:
        Mass spread uniformly over the non-target classes.
    """
    batch, length, vocab = logits.shape
    targets = np.asarray(targets, dtype=np.int64)
    mask = (targets != pad_id).astype(np.float64)
    num_tokens = int(mask.sum())
    if num_tokens == 0:
        raise ValueError("loss called on a batch with no non-padding tokens")

    # Dense one-hot (possibly smoothed) target distribution.
    smooth_value = label_smoothing / max(vocab - 1, 1)
    dense = np.full((batch, length, vocab), smooth_value, dtype=np.float64)
    rows = np.arange(batch)[:, None]
    cols = np.arange(length)[None, :]
    dense[rows, cols, targets] = 1.0 - label_smoothing
    dense *= mask[:, :, None]

    # Log-softmax in one buffer, then the smoothed NLL.
    log_probs = logits.data - logits.data.max(axis=-1, keepdims=True)
    log_probs -= np.log(np.exp(log_probs).sum(axis=-1, keepdims=True))
    scale = 1.0 / num_tokens
    value = -(log_probs * dense).sum() * scale
    probs = np.exp(log_probs, out=log_probs) if is_grad_enabled() else None
    loss = fused_op(value, (logits,), _nll_backward, probs, dense, scale)

    predictions = logits.data.argmax(axis=-1)
    correct = ((predictions == targets) * mask).sum()
    accuracy = float(correct / num_tokens)
    return LossResult(loss=loss, token_accuracy=accuracy, num_tokens=num_tokens)


def _nll_backward(g: np.ndarray, needs: tuple[bool], probs: np.ndarray,
                 dense: np.ndarray, scale: float) -> dict[int, np.ndarray]:
    """``{0: dlogits}``: the NLL gradient ``-g · scale · dense``, then the
    log-softmax gradient, in the composed chain's op order."""
    d_log_probs = dense * -(g * scale)
    return {0: d_log_probs - probs * d_log_probs.sum(axis=-1, keepdims=True)}


def perplexity(loss_value: float) -> float:
    """Perplexity corresponding to a mean cross-entropy value."""
    return float(np.exp(min(loss_value, 50.0)))
