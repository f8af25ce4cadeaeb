"""The MPI-RICAL pipeline: dataset → vocabulary → Transformer → predictions.

This is the library's primary entry point.  :class:`MPIRical` wires the
dataset builder, the tokenizer, the seq2seq Transformer, greedy decoding and
the evaluation metrics into the workflow of Figure 1a:

>>> corpus = default_corpus(num_repositories=80)
>>> dataset = build_dataset(corpus)
>>> mpirical = MPIRical.fit(dataset.splits.train, dataset.splits.validation)
>>> evaluation = mpirical.evaluate(dataset.splits.test)   # Table II metrics
>>> generated = mpirical.predict_code(some_mpi_free_program)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..dataset.records import TranslationExample
from ..evaluation.report import CorpusEvaluation, ExamplePrediction, evaluate_corpus
from ..model.checkpoints import load_checkpoint, model_fingerprint, save_checkpoint
from ..model.config import ExperimentConfig, small_config
from ..model.decoding import DecodingStrategy, GreedyStrategy
from ..model.trainer import Trainer, TrainingHistory
from ..model.transformer import Seq2SeqTransformer
from ..tokenization.code_tokenizer import ExampleEncoder, SequenceConfig, tokenize_code
from ..xsbt.xsbt import xsbt_for_source
from .suggestions import MPISuggestion, extract_suggestions


@dataclass
class PredictionResult:
    """Everything produced for one input program."""

    generated_code: str
    generated_tokens: list[str]
    suggestions: list[MPISuggestion] = field(default_factory=list)


def _load_experiment_config(path: str | Path) -> ExperimentConfig | None:
    """The checkpoint's saved :class:`ExperimentConfig`, or None if absent."""
    import json

    from ..model.config import ModelConfig, TrainingConfig

    experiment_path = Path(path) / "experiment.json"
    if not experiment_path.exists():
        return None
    data = json.loads(experiment_path.read_text())
    return ExperimentConfig(
        model=ModelConfig(**data.get("model", {})),
        training=TrainingConfig(**data.get("training", {})),
        **{key: value for key, value in data.items()
           if key not in ("model", "training")},
    )


class MPIRical:
    """The trained MPI-RICAL assistant."""

    def __init__(self, model: Seq2SeqTransformer, encoder: ExampleEncoder,
                 config: ExperimentConfig, history: TrainingHistory | None = None,
                 max_length: int | None = None) -> None:
        self.model = model
        self.encoder = encoder
        self.config = config
        self.history = history or TrainingHistory()
        #: Default decode bound (generated tokens) of every ``predict_*``
        #: call; pass ``max_length=`` to an individual call to override it.
        self.max_length = (config.max_target_tokens + 2 if max_length is None
                           else max_length)

    # --------------------------------------------------------------- training

    @classmethod
    def fit(cls, train_examples: list[TranslationExample],
            validation_examples: list[TranslationExample] | None = None,
            config: ExperimentConfig | None = None, *, verbose: bool = False) -> "MPIRical":
        """Fine-tune the Transformer on translation examples.

        This is the reproduction's equivalent of fine-tuning SPT-Code on
        MPICodeCorpus.  The vocabulary is built from the training split only.
        """
        config = config or small_config()
        sequence_config = SequenceConfig(
            max_source_tokens=config.max_source_tokens,
            max_xsbt_tokens=config.max_xsbt_tokens,
            max_target_tokens=config.max_target_tokens,
        )
        encoder = ExampleEncoder.fit(train_examples, sequence_config,
                                     use_xsbt=config.use_xsbt)
        config.model.vocab_size = len(encoder.vocab)
        model = Seq2SeqTransformer(config.model)

        trainer = Trainer(model, encoder.vocab.pad_id, config.training)
        encoded_train = encoder.encode_examples(train_examples)
        encoded_val = encoder.encode_examples(validation_examples or [])
        history = trainer.fit(encoded_train, encoded_val, verbose=verbose)
        return cls(model=model, encoder=encoder, config=config, history=history)

    # -------------------------------------------------------------- inference

    def _encode_for_inference(self, source_code: str, xsbt: str | None,
                              tokens: list[str] | None = None) -> list[int]:
        if xsbt is None and self.config.use_xsbt:
            xsbt = xsbt_for_source(source_code)
        return self.encoder.encode_source(source_code, xsbt, tokens=tokens)

    def encode_source_ids(self, source_code: str, xsbt: str | None = None,
                          tokens: list[str] | None = None) -> list[int]:
        """Public source encoding: the exact id sequence the decode paths
        feed the model (XSBT derivation, truncation, joint layout).  The
        continuous-batching scheduler encodes through this so a request
        joining an in-flight batch sees the same ids a sequential
        :meth:`predict_code` would."""
        return self._encode_for_inference(source_code, xsbt, tokens)

    def package_prediction(self, source_code: str,
                           generated_ids: list[int]) -> PredictionResult:
        """Public packaging: decode ids through the vocabulary and package
        exactly as :meth:`predict_code` does (standardise + suggestion
        extraction)."""
        return self._package_prediction(source_code,
                                        self.encoder.vocab.decode(generated_ids))

    def _resolve_decode(self, strategy: DecodingStrategy | None,
                        max_length: int | None) -> tuple[DecodingStrategy, int]:
        """The ``(strategy, max_length)`` of a predict call: greedy and the
        pipeline's :attr:`max_length` unless the call names its own."""
        return (strategy or GreedyStrategy(),
                self.max_length if max_length is None else max_length)

    def predict_tokens(self, source_code: str, xsbt: str | None = None, *,
                       strategy: DecodingStrategy | None = None,
                       max_length: int | None = None,
                       source_tokens: list[str] | None = None,
                       on_token=None) -> list[str]:
        """Generate the output token sequence for ``source_code``.

        ``strategy`` (any :class:`repro.model.decoding.DecodingStrategy`,
        greedy by default) selects the decoding algorithm; ``max_length``
        overrides the pipeline-level :attr:`max_length` bound.  ``on_token``
        streams each generated token id as it is emitted; ``source_tokens``
        carries a pre-lexed token stream (the serving layer lexes each
        buffer once).
        """
        strategy, max_length = self._resolve_decode(strategy, max_length)
        source_ids = self._encode_for_inference(source_code, xsbt, source_tokens)
        vocab = self.encoder.vocab
        generated_ids = strategy.decode(
            self.model, source_ids, sos_id=vocab.sos_id, eos_id=vocab.eos_id,
            pad_id=vocab.pad_id, max_length=max_length, on_token=on_token)
        return vocab.decode(generated_ids)

    @staticmethod
    def _package_prediction(source_code: str, tokens: list[str]) -> PredictionResult:
        from ..clang.codegen import standardize
        from ..clang.parser import parses_cleanly
        from ..tokenization.code_tokenizer import detokenize

        generated_code = detokenize(tokens)
        if parses_cleanly(generated_code):
            generated_code = standardize(generated_code)
        suggestions = extract_suggestions(source_code, generated_code)
        return PredictionResult(generated_code=generated_code,
                                generated_tokens=tokens,
                                suggestions=suggestions)

    def predict_code(self, source_code: str, xsbt: str | None = None, *,
                     strategy: DecodingStrategy | None = None,
                     max_length: int | None = None,
                     source_tokens: list[str] | None = None,
                     on_token=None) -> PredictionResult:
        """Generate a full program and extract insertion suggestions.

        When the generated token stream parses cleanly it is re-standardised
        through the code generator, so well-formed predictions come back in
        exactly the corpus' canonical style (same line discipline as the
        reference labels); malformed generations fall back to the raw
        detokenised text.  ``strategy`` and ``max_length`` are those of
        :meth:`predict_tokens`; ``on_token`` streams token ids as they are
        emitted (the serving layer's streaming path).
        """
        tokens = self.predict_tokens(source_code, xsbt, strategy=strategy,
                                     max_length=max_length,
                                     source_tokens=source_tokens,
                                     on_token=on_token)
        return self._package_prediction(source_code, tokens)

    def predict_code_candidates(self, source_code: str, xsbt: str | None = None, *,
                                strategy: DecodingStrategy | None = None,
                                max_length: int | None = None,
                                source_tokens: list[str] | None = None,
                                max_candidates: int = 1) -> list[PredictionResult]:
        """Up to ``max_candidates`` packaged candidate predictions, best first.

        Candidate 0 is exactly the :meth:`predict_code` result for the same
        arguments (beam: the winning hypothesis; sampling: the request's own
        seed), so a caller that already holds the served prediction can treat
        it as candidate 0 without re-decoding.  Duplicate token sequences —
        beam runner-ups frequently converge — are dropped, so the list may be
        shorter than requested.  The source is encoded once for all
        candidates.
        """
        strategy, max_length = self._resolve_decode(strategy, max_length)
        max_candidates = min(max(1, max_candidates), strategy.nbest_limit())
        source_ids = self._encode_for_inference(source_code, xsbt, source_tokens)
        vocab = self.encoder.vocab
        candidate_ids = strategy.decode_nbest(
            self.model, source_ids, sos_id=vocab.sos_id, eos_id=vocab.eos_id,
            pad_id=vocab.pad_id, max_length=max_length,
            max_candidates=max_candidates)
        results: list[PredictionResult] = []
        seen: set[tuple[int, ...]] = set()
        for ids in candidate_ids:
            key = tuple(ids)
            if key in seen:
                continue
            seen.add(key)
            results.append(self._package_prediction(source_code,
                                                    vocab.decode(ids)))
        # An empty source yields no hypotheses at all; keep the
        # predict_code contract of always returning at least one result.
        if not results:
            results.append(self._package_prediction(source_code, []))
        return results

    def predict_example(self, example: TranslationExample) -> ExamplePrediction:
        """Generate and package a prediction for a dataset example."""
        result = self.predict_code(example.source_code, example.source_xsbt)
        return ExamplePrediction(
            example_id=example.example_id,
            predicted_code=result.generated_code,
            reference_code=example.target_code,
            predicted_tokens=result.generated_tokens,
            reference_tokens=tokenize_code(example.target_code),
        )

    # -------------------------------------------------------------- evaluation

    def evaluate(self, examples: list[TranslationExample], *,
                 line_tolerance: int = 1,
                 limit: int | None = None) -> CorpusEvaluation:
        """Run Table II's metric suite over ``examples``.

        ``limit`` caps the number of evaluated examples (decoding whole
        programs is the slow part); None evaluates everything.
        """
        selected = examples[:limit] if limit is not None else examples
        predictions = [self.predict_example(example) for example in selected]
        return evaluate_corpus(predictions, line_tolerance=line_tolerance)

    # ------------------------------------------------------------ persistence

    def save(self, path: str | Path) -> Path:
        """Save weights + vocabulary + config under ``path`` (a directory).

        The checkpoint carries a ``manifest.json`` (shapes digest, vocab
        hash, content-hash revision) that is verified on load and gives the
        model registry its version identity, plus an ``experiment.json``
        with the full experiment config (sequence limits, training preset)
        so :meth:`load` rebuilds the pipeline exactly — without it a loaded
        model would silently fall back to default truncation limits and
        behave differently from the pipeline that saved it.
        """
        import json
        from dataclasses import asdict

        path = save_checkpoint(path, self.model, self.encoder.vocab)
        (path / "experiment.json").write_text(
            json.dumps(asdict(self.config), indent=2))
        return path

    def fingerprint(self) -> str:
        """The content-hash revision of this pipeline's weights + config +
        vocabulary — equal to the ``revision`` recorded by :meth:`save`, so a
        registry entry built from the live pipeline and one built from its
        checkpoint share one ``name@revision`` identity."""
        return model_fingerprint(self.model, self.encoder.vocab)

    @classmethod
    def load(cls, path: str | Path, config: ExperimentConfig | None = None) -> "MPIRical":
        """Load a model saved with :meth:`save`.

        An explicit ``config`` wins; otherwise the checkpoint's own
        ``experiment.json`` (written by :meth:`save`) restores the exact
        sequence limits the model was trained with, and only pre-experiment
        checkpoints fall back to :func:`small_config`.
        """
        if config is None:
            config = _load_experiment_config(path) or small_config()
        model, vocab = load_checkpoint(path)
        sequence_config = SequenceConfig(
            max_source_tokens=config.max_source_tokens,
            max_xsbt_tokens=config.max_xsbt_tokens,
            max_target_tokens=config.max_target_tokens,
        )
        encoder = ExampleEncoder(vocab, sequence_config, use_xsbt=config.use_xsbt)
        config.model = model.config
        return cls(model=model, encoder=encoder, config=config)
