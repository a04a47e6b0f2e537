"""Forecaster assembly: normalization shell, embedding, blocks, head, checkpoints."""

from .checkpoint import load_checkpoint, save_checkpoint
from .network import (
    AttentionBlock,
    FilterFormer,
    ForecastHead,
    ModelConfig,
    PatchEmbedding,
    count_parameters,
)
from .revin import RevIN

__all__ = [
    "AttentionBlock",
    "FilterFormer",
    "ForecastHead",
    "ModelConfig",
    "PatchEmbedding",
    "RevIN",
    "count_parameters",
    "load_checkpoint",
    "save_checkpoint",
]
