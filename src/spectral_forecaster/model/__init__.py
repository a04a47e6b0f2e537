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
from .revin import RevIN, RevInState, revin_normalize

__all__ = [
    "AttentionBlock",
    "FilterFormer",
    "ForecastHead",
    "ModelConfig",
    "PatchEmbedding",
    "RevIN",
    "RevInState",
    "count_parameters",
    "load_checkpoint",
    "revin_normalize",
    "save_checkpoint",
]
