"""Forecaster assembly: normalization shell, embedding, blocks, head, checkpoints."""

from .checkpoint import load_checkpoint, save_checkpoint
from .network import (
    AttentionBlock,
    FilterFormer,
    ForecastHead,
    ModelConfig,
    PatchEmbedding,
    attention_block_forward,
    count_parameters,
    patchify,
)
from .revin import RevIN, RevInState, revin_denormalize, revin_normalize

__all__ = [
    "AttentionBlock",
    "FilterFormer",
    "ForecastHead",
    "ModelConfig",
    "PatchEmbedding",
    "RevIN",
    "RevInState",
    "attention_block_forward",
    "count_parameters",
    "load_checkpoint",
    "patchify",
    "revin_denormalize",
    "revin_normalize",
    "save_checkpoint",
]
