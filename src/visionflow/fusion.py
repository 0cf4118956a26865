"""Fusing low- and high-resolution token streams into one stream.

The default strategy channel-aligns both streams with 1D convolutions,
derives a sigmoid gate from their concatenation, and adds the gated
high-resolution signal onto the low-resolution tokens:

    fused = e_low + gate(conv(e_low), conv(e_high)) * align(e_high)

Alternatives kept for ablation: plain channel concatenation and two
single-head cross-attention variants. All strategies preserve the token
count, so downstream assembly is strategy-agnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import rng
from .tensor import Params, ShapeError, Tensor, affine, attention, concat, conv1d


class FusionStrategy(str, Enum):
    CONV_GATE = "conv_gate"
    CHANNEL_CONCAT = "channel_concat"
    F_TO_B_XATTN = "f_to_b_xattn"
    B_TO_F_XATTN = "b_to_f_xattn"


@dataclass(frozen=True)
class FusionConfig:
    strategy: FusionStrategy = FusionStrategy.CONV_GATE
    channels_low: int = 32
    channels_high: int = 48
    gate_channels: int = 16
    conv_kernel: int = 1  # pointwise by default; 3 widens the receptive field
    gate_per_channel: bool = True  # False collapses the gate to one scalar per token

    def __post_init__(self):
        if self.gate_channels < 1:
            raise ValueError(f"gate_channels must be >= 1, got {self.gate_channels}")
        if self.conv_kernel < 1 or self.conv_kernel % 2 == 0:
            raise ValueError(f"conv_kernel must be a positive odd number, got {self.conv_kernel}")


@dataclass
class CrossAttentionParams(Params):
    """Single-head scaled dot-product attention with a residual query stream."""

    wq: Tensor
    wk: Tensor
    wv: Tensor

    @classmethod
    def build(cls, dim: int, gen: np.random.Generator) -> CrossAttentionParams:
        scale = 1.0 / math.sqrt(dim)
        return cls(
            wq=Tensor(gen.normal(0.0, scale, size=(dim, dim)), requires_grad=True),
            wk=Tensor(gen.normal(0.0, scale, size=(dim, dim)), requires_grad=True),
            wv=Tensor(gen.normal(0.0, scale, size=(dim, dim)), requires_grad=True),
        )


@dataclass
class FusionParams(Params):
    """Trainable parameters for one fusion strategy (unused slots stay None)."""

    cfg: FusionConfig
    conv_low_w: Tensor | None = None
    conv_low_b: Tensor | None = None
    conv_high_w: Tensor | None = None
    conv_high_b: Tensor | None = None
    gate_w: Tensor | None = None
    gate_b: Tensor | None = None
    align_w: Tensor | None = None
    xattn: CrossAttentionParams | None = None

    @classmethod
    def build(cls, cfg: FusionConfig, seed: int) -> FusionParams:
        gen = rng.stream(seed, "params.fusion")
        c_l, c_h, c_g, k = cfg.channels_low, cfg.channels_high, cfg.gate_channels, cfg.conv_kernel
        params = cls(cfg=cfg)
        if cfg.strategy is FusionStrategy.CONV_GATE:
            gate_out = c_l if cfg.gate_per_channel else 1
            params.conv_low_w = Tensor(gen.normal(0.0, 1.0 / math.sqrt(c_l * k), size=(c_g, c_l, k)), requires_grad=True)
            params.conv_low_b = Tensor(np.zeros(c_g), requires_grad=True)
            params.conv_high_w = Tensor(gen.normal(0.0, 1.0 / math.sqrt(c_h * k), size=(c_g, c_h, k)), requires_grad=True)
            params.conv_high_b = Tensor(np.zeros(c_g), requires_grad=True)
            params.gate_w = Tensor(gen.normal(0.0, 1.0 / math.sqrt(2 * c_g), size=(2 * c_g, gate_out)), requires_grad=True)
            params.gate_b = Tensor(np.zeros(gate_out), requires_grad=True)
            params.align_w = Tensor(gen.normal(0.0, 1.0 / math.sqrt(c_h), size=(c_h, c_l)), requires_grad=True)
        elif cfg.strategy in (FusionStrategy.F_TO_B_XATTN, FusionStrategy.B_TO_F_XATTN):
            params.align_w = Tensor(gen.normal(0.0, 1.0 / math.sqrt(c_h), size=(c_h, c_l)), requires_grad=True)
            params.xattn = CrossAttentionParams.build(c_l, gen)
        # channel_concat has no parameters of its own
        return params


def fused_width(cfg: FusionConfig) -> int:
    """Channel width of the fused stream; the downstream projector absorbs it."""
    if cfg.strategy is FusionStrategy.CHANNEL_CONCAT:
        return cfg.channels_low + cfg.channels_high
    return cfg.channels_low


def _check_token_counts(e_low: Tensor, e_high: Tensor) -> None:
    if e_low.ndim != 2 or e_high.ndim != 2:
        raise ShapeError(f"fusion expects flat [N, C] streams, got {e_low.shape} and {e_high.shape}")
    if e_low.shape[0] != e_high.shape[0]:
        raise ShapeError(
            f"token counts disagree: low has {e_low.shape[0]}, high has {e_high.shape[0]}"
        )


def conv_gate_fuse(e_low: Tensor, e_high: Tensor, p: FusionParams,
                   bounds: tuple[int, ...] | None = None) -> Tensor:
    """Gated residual fusion; output matches the low stream's shape."""
    _check_token_counts(e_low, e_high)
    low_al = conv1d(e_low, p.conv_low_w, p.conv_low_b, bounds)
    high_al = conv1d(e_high, p.conv_high_w, p.conv_high_b, bounds)
    gate_in = concat([low_al, high_al], axis=1)
    gate = affine(gate_in, p.gate_w, p.gate_b).sigmoid()
    if not p.cfg.gate_per_channel:
        # repeat the per-token scalar across the channels without broadcasting
        gate = concat([gate] * p.cfg.channels_low, axis=1)
    return e_low + gate * (e_high @ p.align_w)


def channel_concat_fuse(e_low: Tensor, e_high: Tensor) -> Tensor:
    """Per-token concatenation along the channel dimension."""
    _check_token_counts(e_low, e_high)
    return concat([e_low, e_high], axis=1)


def cross_attention(query: Tensor, keyvalue: Tensor, p: CrossAttentionParams,
                    q_bounds: tuple[int, ...] | None = None,
                    kv_bounds: tuple[int, ...] | None = None) -> Tensor:
    """Single-head scaled dot-product attention, residual on the query stream.

    With bounds, both streams pack samples back to back and each sample's
    queries attend only to its own keys; a sample without keys keeps its
    query rows as they are."""
    if query.ndim != 2 or keyvalue.ndim != 2:
        raise ShapeError(f"attention expects [A, D] and [B, D], got {query.shape} and {keyvalue.shape}")
    if query.shape[1] != keyvalue.shape[1]:
        raise ShapeError(f"model dims disagree: {query.shape[1]} vs {keyvalue.shape[1]}")
    if keyvalue.shape[0] == 0:
        raise ShapeError("attention over an empty key/value set is undefined")
    return query + attention(query @ p.wq, keyvalue @ p.wk, keyvalue @ p.wv, q_bounds, kv_bounds)


def fuse(e_low: Tensor, e_high: Tensor, p: FusionParams,
         bounds: tuple[int, ...] | None = None) -> Tensor:
    """Dispatch on the configured strategy; token count is always preserved.

    ``bounds`` marks samples packed back to back in both streams (sample i
    is rows ``bounds[i]..bounds[i+1]-1``; None is one sample). The
    convolutions pad at every sample edge and the attentions stay within a
    sample, so no sample reads another's tokens."""
    strategy = p.cfg.strategy
    if strategy is FusionStrategy.CONV_GATE:
        return conv_gate_fuse(e_low, e_high, p, bounds)
    if strategy is FusionStrategy.CHANNEL_CONCAT:
        return channel_concat_fuse(e_low, e_high)
    _check_token_counts(e_low, e_high)
    high_aligned = e_high @ p.align_w
    if strategy is FusionStrategy.F_TO_B_XATTN:
        return cross_attention(e_low, high_aligned, p.xattn, bounds, bounds)
    if strategy is FusionStrategy.B_TO_F_XATTN:
        return cross_attention(high_aligned, e_low, p.xattn, bounds, bounds)
    raise ValueError(f"unknown fusion strategy {strategy!r}")
