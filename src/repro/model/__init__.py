"""NumPy Transformer: autograd, layers, seq2seq model, trainer and decoding."""

from .autograd import (
    Tensor,
    concat,
    default_inference_dtype,
    embedding_lookup,
    inference_mode,
    is_grad_enabled,
    numerical_gradient,
    parameter,
    set_default_inference_dtype,
    tape_mode,
)
from .attention import KVCache, MultiHeadAttention, causal_mask, combined_decoder_mask, padding_mask
from .checkpoints import load_checkpoint, save_checkpoint
from .decoding import (
    MAX_BEAM_SIZE,
    BeamStrategy,
    DecodingStrategy,
    GreedyStrategy,
    SampleStrategy,
    StrategyParamError,
    register_strategy,
    registered_strategies,
    sample_decode,
    strategy_from_dict,
)
from .config import ExperimentConfig, ModelConfig, TrainingConfig, paper_config, small_config, tiny_config
from .generation import (
    ContinuousDecoderLoop,
    beam_search_decode,
    beam_search_nbest,
    greedy_decode,
)
from .layers import Embedding, FeedForward, LayerNorm, Linear, Module, PositionalEncoding, sinusoidal_positions
from .loss import LossResult, cross_entropy, perplexity
from .optimizer import Adam, AdamConfig
from .trainer import EpochMetrics, Trainer, TrainingHistory
from .transformer import DecoderLayer, DecodingState, EncoderLayer, Seq2SeqTransformer

__all__ = [
    "Tensor",
    "concat",
    "default_inference_dtype",
    "embedding_lookup",
    "inference_mode",
    "is_grad_enabled",
    "numerical_gradient",
    "parameter",
    "set_default_inference_dtype",
    "tape_mode",
    "KVCache",
    "MultiHeadAttention",
    "causal_mask",
    "combined_decoder_mask",
    "padding_mask",
    "load_checkpoint",
    "save_checkpoint",
    "MAX_BEAM_SIZE",
    "BeamStrategy",
    "DecodingStrategy",
    "GreedyStrategy",
    "SampleStrategy",
    "StrategyParamError",
    "register_strategy",
    "registered_strategies",
    "sample_decode",
    "strategy_from_dict",
    "ExperimentConfig",
    "ModelConfig",
    "TrainingConfig",
    "paper_config",
    "small_config",
    "tiny_config",
    "ContinuousDecoderLoop",
    "beam_search_decode",
    "beam_search_nbest",
    "greedy_decode",
    "Embedding",
    "FeedForward",
    "LayerNorm",
    "Linear",
    "Module",
    "PositionalEncoding",
    "sinusoidal_positions",
    "LossResult",
    "cross_entropy",
    "perplexity",
    "Adam",
    "AdamConfig",
    "EpochMetrics",
    "Trainer",
    "TrainingHistory",
    "DecoderLayer",
    "DecodingState",
    "EncoderLayer",
    "Seq2SeqTransformer",
]
