"""Training loop for the translation task.

Produces the per-epoch training loss, validation loss and validation token
accuracy that Figure 5 of the paper plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..tokenization.code_tokenizer import EncodedExample, pad_batch
from ..utils.blas import blas_policy
from ..utils.timing import Stopwatch
from .autograd import inference_mode
from .config import TrainingConfig
from .loss import cross_entropy
from .optimizer import Adam, AdamConfig
from .transformer import Seq2SeqTransformer


@dataclass
class EpochMetrics:
    """Metrics recorded at the end of one epoch (one point of Figure 5)."""

    epoch: int
    train_loss: float
    validation_loss: float
    validation_accuracy: float
    steps: int
    seconds: float


@dataclass
class TrainingHistory:
    """Full training run record."""

    epochs: list[EpochMetrics] = field(default_factory=list)

    def train_losses(self) -> list[float]:
        return [e.train_loss for e in self.epochs]

    def validation_losses(self) -> list[float]:
        return [e.validation_loss for e in self.epochs]

    def validation_accuracies(self) -> list[float]:
        return [e.validation_accuracy for e in self.epochs]


class Trainer:
    """Mini-batch trainer for :class:`Seq2SeqTransformer`."""

    def __init__(self, model: Seq2SeqTransformer, pad_id: int,
                 config: TrainingConfig | None = None) -> None:
        self.model = model
        self.pad_id = pad_id
        self.config = config or TrainingConfig()
        self.optimizer = Adam(
            model.parameters(),
            AdamConfig(
                learning_rate=self.config.learning_rate,
                warmup_steps=self.config.warmup_steps,
                gradient_clip=self.config.gradient_clip,
            ),
        )
        self.rng = np.random.default_rng(self.config.seed)
        self.history = TrainingHistory()
        self.stopwatch = Stopwatch()

    # ----------------------------------------------------------------- steps

    def _make_batches(self, examples: list[EncodedExample],
                      shuffle: bool) -> list[list[EncodedExample]]:
        order = np.arange(len(examples))
        if shuffle:
            self.rng.shuffle(order)
        # Sort within a window by target length to reduce padding waste while
        # keeping some shuffling between epochs.
        ordered = [examples[i] for i in order]
        batches: list[list[EncodedExample]] = []
        size = self.config.batch_size
        for start in range(0, len(ordered), size):
            batches.append(ordered[start:start + size])
        return batches

    def _blas_scope(self):
        """The one-OpenBLAS-thread policy for a step of this batch size and
        model width (see :func:`repro.utils.blas.blas_policy`)."""
        return blas_policy(self.config.batch_size * self.model.config.d_model)

    def train_step(self, batch: list[EncodedExample]) -> tuple[float, float]:
        """One optimisation step; returns (loss, token accuracy)."""
        with self._blas_scope():
            src = pad_batch([b.encoder_ids for b in batch], self.pad_id)
            tgt = pad_batch([b.decoder_ids for b in batch], self.pad_id)
            decoder_input = tgt[:, :-1]
            decoder_target = tgt[:, 1:]

            self.optimizer.zero_grad()
            logits = self.model.forward(src, decoder_input, self.pad_id, rng=self.rng,
                                        training=True)
            result = cross_entropy(logits, decoder_target, self.pad_id,
                                   self.config.label_smoothing)
            result.loss.backward()
            self.optimizer.clip_gradients()
            self.optimizer.step()
            return float(result.loss.data), result.token_accuracy

    def evaluate(self, examples: list[EncodedExample]) -> tuple[float, float]:
        """Mean loss and token accuracy over ``examples`` (no grad updates).

        Runs without a tape at float64: the losses equal the tape path's
        bit for bit, and no validation batch holds a graph it never
        differentiates.
        """
        if not examples:
            return 0.0, 0.0
        losses: list[float] = []
        accuracies: list[float] = []
        weights: list[int] = []
        with self._blas_scope():
            for batch in self._make_batches(examples, shuffle=False):
                src = pad_batch([b.encoder_ids for b in batch], self.pad_id)
                tgt = pad_batch([b.decoder_ids for b in batch], self.pad_id)
                with inference_mode(np.float64):
                    logits = self.model.forward(src, tgt[:, :-1], self.pad_id,
                                                training=False)
                    result = cross_entropy(logits, tgt[:, 1:], self.pad_id, 0.0)
                losses.append(float(result.loss.data))
                accuracies.append(result.token_accuracy)
                weights.append(result.num_tokens)
        total = sum(weights)
        loss = sum(l * w for l, w in zip(losses, weights)) / total
        accuracy = sum(a * w for a, w in zip(accuracies, weights)) / total
        return loss, accuracy

    # ------------------------------------------------------------------- api

    def fit(self, train_examples: list[EncodedExample],
            validation_examples: list[EncodedExample] | None = None,
            *, verbose: bool = False) -> TrainingHistory:
        """Train for ``config.epochs`` epochs and return the history."""
        validation_examples = validation_examples or []
        for epoch in range(1, self.config.epochs + 1):
            with self.stopwatch.measure(f"epoch_{epoch}"):
                epoch_losses: list[float] = []
                steps = 0
                for batch in self._make_batches(train_examples, shuffle=True):
                    loss, _accuracy = self.train_step(batch)
                    epoch_losses.append(loss)
                    steps += 1
                    if (self.config.max_steps_per_epoch is not None
                            and steps >= self.config.max_steps_per_epoch):
                        break
                val_loss, val_accuracy = self.evaluate(validation_examples)
            metrics = EpochMetrics(
                epoch=epoch,
                train_loss=float(np.mean(epoch_losses)) if epoch_losses else 0.0,
                validation_loss=val_loss,
                validation_accuracy=val_accuracy,
                steps=steps,
                seconds=self.stopwatch.laps.get(f"epoch_{epoch}", 0.0),
            )
            self.history.epochs.append(metrics)
            if verbose:
                print(f"epoch {epoch}: train_loss={metrics.train_loss:.4f} "
                      f"val_loss={metrics.validation_loss:.4f} "
                      f"val_acc={metrics.validation_accuracy:.3f} "
                      f"({metrics.seconds:.1f}s)")
        return self.history
