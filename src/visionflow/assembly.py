"""Projectors, multimodal token assembly, and the toy causal answer scorer.

One path, ``assemble_video``, builds every sequence: one block per frame,
fused -> object, then one text segment (leading instead with ``text_first``);
an image is the one-frame case. Object tokens can instead be merged into the
fused stream (or enhanced by it) via single-head cross-attention. No
separator tokens are inserted between segments (segment and frame tags carry
that structure; a learned separator would be the alternative). The scorer
is the smallest causal model in which ordering, causality and gradient-flow
properties are nondegenerate: a trainable embedding table, sinusoidal
positions (one cached table per width), one causal self-attention block with
a small GELU MLP, and a softmax over a toy vocabulary. The block is built from
the fused ``affine``, ``gelu`` and ``causal_attention`` tensor ops, so the
attention adds one tape node and no mask tensor. Answers are scored
teacher-forced; the loss is the mean negative log-likelihood per answer
token. With a single block only the L answer-prediction rows are ever read,
so only they are queried: attention costs L x T, not T x T, for scoring and
for each decode step.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fusion import CrossAttentionParams, cross_attention
from .tensor import Params, Tensor, affine, causal_attention, concat, gelu, one_hot

log = logging.getLogger(__name__)

SEGMENT_FUSED = "fused"
SEGMENT_OBJECT = "object"
SEGMENT_TEXT = "text"
SEGMENT_ANSWER = "answer"


class MergeMethod(str, Enum):
    CONCAT = "concat"
    F_TO_B_XATTN = "f_to_b_xattn"
    B_TO_F_XATTN = "b_to_f_xattn"


@dataclass(frozen=True)
class AssemblyConfig:
    merge: MergeMethod = MergeMethod.CONCAT
    model_dim: int = 32
    vocab_size: int = 64
    text_first: bool = False  # experimentation flag; canonical order is visual-first
    scorer_hidden: int = 64

    def __post_init__(self):
        for name in ("model_dim", "vocab_size", "scorer_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass
class TokenSequence:
    """Ordered multimodal embeddings with per-token segment and frame tags."""

    embeddings: Tensor  # [S, D]
    segments: tuple[str, ...]
    frames: tuple[int, ...]

    def __post_init__(self):
        s = self.embeddings.shape[0]
        if len(self.segments) != s or len(self.frames) != s:
            raise ValueError(
                f"tag lengths ({len(self.segments)}, {len(self.frames)}) != sequence length {s}"
            )

    def __len__(self) -> int:
        return self.embeddings.shape[0]

    def segment_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for tag in self.segments:
            counts[tag] = counts.get(tag, 0) + 1
        return counts


@dataclass
class ProjectorParams(Params):
    """Two-layer MLP mapping a feature width onto the model dimension."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    @classmethod
    def build(cls, in_dim: int, out_dim: int, gen: np.random.Generator) -> ProjectorParams:
        hidden = out_dim
        return cls(
            w1=Tensor(gen.normal(0.0, 1.0 / math.sqrt(in_dim), size=(in_dim, hidden)), requires_grad=True),
            b1=Tensor(np.zeros(hidden), requires_grad=True),
            w2=Tensor(gen.normal(0.0, 1.0 / math.sqrt(hidden), size=(hidden, out_dim)), requires_grad=True),
            b2=Tensor(np.zeros(out_dim), requires_grad=True),
        )

    def apply(self, x: Tensor) -> Tensor:
        return affine(gelu(affine(x, self.w1, self.b1)), self.w2, self.b2)


@dataclass
class ScorerParams(Params):
    """Embedding table, one causal attention block, and the vocab head."""

    embed: Tensor  # [vocab, D]
    wq: Tensor
    wk: Tensor
    wv: Tensor
    ffn_w1: Tensor
    ffn_b1: Tensor
    ffn_w2: Tensor
    ffn_b2: Tensor
    out_w: Tensor  # [D, vocab]
    out_b: Tensor

    @classmethod
    def build(cls, cfg: AssemblyConfig, gen: np.random.Generator) -> ScorerParams:
        d, v, h = cfg.model_dim, cfg.vocab_size, cfg.scorer_hidden
        s = 1.0 / math.sqrt(d)
        return cls(
            embed=Tensor(gen.normal(0.0, 0.5, size=(v, d)), requires_grad=True),
            wq=Tensor(gen.normal(0.0, s, size=(d, d)), requires_grad=True),
            wk=Tensor(gen.normal(0.0, s, size=(d, d)), requires_grad=True),
            wv=Tensor(gen.normal(0.0, s, size=(d, d)), requires_grad=True),
            ffn_w1=Tensor(gen.normal(0.0, s, size=(d, h)), requires_grad=True),
            ffn_b1=Tensor(np.zeros(h), requires_grad=True),
            ffn_w2=Tensor(gen.normal(0.0, 1.0 / math.sqrt(h), size=(h, d)), requires_grad=True),
            ffn_b2=Tensor(np.zeros(d), requires_grad=True),
            out_w=Tensor(gen.normal(0.0, s, size=(d, v)), requires_grad=True),
            out_b=Tensor(np.zeros(v), requires_grad=True),
        )


def sinusoidal_positions(length: int, dim: int) -> np.ndarray:
    """Fixed sin/cos position table [length, dim]."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    idx = np.arange(dim, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * np.floor(idx / 2.0) / dim)
    table = np.where(idx % 2 == 0, np.sin(angle), np.cos(angle))
    return table


# one read-only table per width, grown to a power of two; every entry depends
# only on its own (position, column), so a prefix equals the shorter table
_POSITION_TABLES: dict[int, np.ndarray] = {}


def position_table(length: int, dim: int) -> np.ndarray:
    """``sinusoidal_positions(length, dim)`` as a read-only view of a table
    built once per ``dim``."""
    table = _POSITION_TABLES.get(dim)
    if table is None or table.shape[0] < length:
        table = sinusoidal_positions(1 << max(length - 1, 0).bit_length(), dim)
        table.flags.writeable = False
        _POSITION_TABLES[dim] = table
    return table[:length]


def assemble(
    e_fused: Tensor,
    e_objects: Tensor,
    e_text: Tensor,
    merge: MergeMethod = MergeMethod.CONCAT,
    merge_params: CrossAttentionParams | None = None,
    text_first: bool = False,
) -> TokenSequence:
    """One image's token sequence: the one-frame case of ``assemble_video``."""
    return assemble_video([(e_fused, e_objects)], e_text, merge, merge_params, text_first)


def assemble_video(
    frame_streams: list[tuple[Tensor, Tensor]],
    e_text: Tensor,
    merge: MergeMethod = MergeMethod.CONCAT,
    merge_params: CrossAttentionParams | None = None,
    text_first: bool = False,
) -> TokenSequence:
    """Build the token sequence of one or more frames from projected streams.

    All inputs must already share the model width. Each frame gives one block
    tagged with its index. ``concat`` appends object tokens after the fused
    ones; ``f_to_b_xattn`` folds object information into the fused tokens
    (objects are consumed, not emitted); ``b_to_f_xattn`` enhances object
    tokens from the fused stream and keeps both. With no objects the
    attention variants skip the merge entirely. The one text segment, tagged
    frame -1, trails the frame blocks, or leads them with ``text_first``.
    """
    if not frame_streams:
        raise ValueError("video assembly requires at least one frame")
    d = frame_streams[0][0].shape[1]
    if e_text.shape[0] > 0 and e_text.shape[1] != d:
        raise ValueError(f"text stream width {e_text.shape[1]} != model dim {d}")
    blocks: list[tuple[str, Tensor, int]] = []
    for f, (e_fused, e_objects) in enumerate(frame_streams):
        k = e_objects.shape[0]
        if k > 0 and e_objects.shape[1] != e_fused.shape[1]:
            raise ValueError(f"object stream width {e_objects.shape[1]} != model dim {e_fused.shape[1]}")
        if k == 0 and merge is not MergeMethod.CONCAT:
            log.info("no object tokens: %s merge degenerates to the fused stream", merge.value)
        if merge is MergeMethod.F_TO_B_XATTN and k > 0:
            e_fused = cross_attention(e_fused, e_objects, merge_params)
        blocks.append((SEGMENT_FUSED, e_fused, f))
        if merge is MergeMethod.B_TO_F_XATTN and k > 0:
            e_objects = cross_attention(e_objects, e_fused, merge_params)
        if merge is not MergeMethod.F_TO_B_XATTN and k > 0:
            blocks.append((SEGMENT_OBJECT, e_objects, f))
    text = [(SEGMENT_TEXT, e_text, -1)] if e_text.shape[0] > 0 else []
    ordered = text + blocks if text_first else blocks + text
    segments: list[str] = []
    frames: list[int] = []
    for tag, t, frame in ordered:
        segments.extend((tag,) * t.shape[0])
        frames.extend((frame,) * t.shape[0])
    emb = concat([t for _, t, _ in ordered], axis=0)
    return TokenSequence(embeddings=emb, segments=tuple(segments), frames=tuple(frames))


def causal_hidden(full: Tensor, p: ScorerParams, first: int) -> Tensor:
    """One causal self-attention block plus MLP over [T, D] embeddings,
    queried only at rows ``first..T-1``: returns their [T - first, D] states.

    Row ``first + i`` attends to rows ``0..first + i`` through the fused
    ``causal_attention`` op, one tape node with no mask tensor."""
    rows = full.narrow(0, first, full.shape[0] - first)
    x = rows + causal_attention(rows @ p.wq, full @ p.wk, full @ p.wv, first)
    return x + affine(gelu(affine(x, p.ffn_w1, p.ffn_b1)), p.ffn_w2, p.ffn_b2)


def scorer_logits(prefix: Tensor, answer_ids: list[int], p: ScorerParams) -> Tensor:
    """Teacher-forced logits [L, vocab]: row i predicts answer token i."""
    # the state just before each answer token carries its prediction, so no
    # row reads the last answer token and it stays out of the context
    vocab = p.embed.shape[0]
    answer_emb = one_hot(answer_ids[:-1], vocab) @ p.embed
    full = concat([prefix, answer_emb], axis=0)
    full = full + Tensor(position_table(full.shape[0], full.shape[1]))
    hidden = causal_hidden(full, p, first=prefix.shape[0] - 1)
    return affine(hidden, p.out_w, p.out_b)


def score_answer(seq: TokenSequence, answer_ids: list[int], p: ScorerParams) -> Tensor:
    """Mean NLL of the answer under teacher forcing, as a scalar tensor."""
    if len(answer_ids) == 0:
        raise ValueError("cannot score an empty answer")
    logits = scorer_logits(seq.embeddings, answer_ids, p)
    log_probs = logits.log_softmax(axis=-1)
    picked = (log_probs * one_hot(answer_ids, p.embed.shape[0])).sum(axis=1)
    return -picked.mean()


def greedy_decode(seq: TokenSequence, p: ScorerParams, max_new: int) -> list[int]:
    """Argmax continuation of the sequence; deterministic, no sampling.

    Each step scores [generated; placeholder] after the prefix; the
    placeholder never enters the context and only prediction rows are
    queried, so a step costs T-row projections plus len(generated) + 1
    attention rows, not a T x T block.
    """
    generated: list[int] = []
    for _ in range(max_new):
        logits = scorer_logits(seq.embeddings, generated + [0], p)
        generated.append(int(np.argmax(logits.data[len(generated)])))
    return generated
