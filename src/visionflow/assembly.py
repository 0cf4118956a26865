"""Projectors, multimodal token assembly, and the toy causal answer scorer.

A sample's sequence is one block per frame, fused -> object, then one text
segment (leading instead with ``text_first``). ``assemble`` is the one place
that lays sequences out: one image, or a packed batch of images.
``assemble_video`` packs its frames into ``assemble`` as samples and returns
the result as one sample, so one frame gives an image's sequence. Object
tokens can instead be merged into the fused stream (or enhanced by it) via
single-head cross-attention. No separator tokens are inserted between
segments (segment tags carry that structure; a learned separator would be
the alternative).

Packed samples. A ``TokenSequence`` may hold several samples back to back;
its ``bounds`` say where each starts. Every op that mixes rows is told those
bounds: the merges attend within a sample, and the scorer gives each sample
its own positions (from 0) and its own causal attention segment. So a packed
sequence scores each sample exactly as it would alone, and attention costs
the sum over samples of L_i x T_i, never a cross-sample block.

The scorer is the smallest causal model in which ordering, causality and
gradient-flow properties are nondegenerate: a trainable embedding table,
sinusoidal positions (one cached table per width), one causal self-attention
block with a small GELU MLP, and a softmax over a toy vocabulary. The block
is built from the fused ``affine``, ``gelu`` and ``causal_attention`` tensor
ops, so the attention adds one tape node and no mask tensor. Answers are
scored teacher-forced; a sample's loss is the mean negative log-likelihood
per answer token, and a packed sequence's loss is the mean over its samples.
With a single block only the L answer-prediction rows are ever read, so only
they are queried: attention costs L x T, not T x T, for scoring and for each
decode step.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain, repeat
from typing import Sequence

import numpy as np

from .fusion import CrossAttentionParams, cross_attention
from .tensor import (
    Params,
    Tensor,
    affine,
    causal_attention,
    concat,
    gelu,
    one_hot,
    segment_bounds,
    segment_mean,
)

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
    """Ordered multimodal embeddings with per-token segment tags.

    Sample i of a packed sequence is rows ``bounds[i]..bounds[i+1]-1``; the
    default is one sample holding every row."""

    embeddings: Tensor  # [S, D]
    segments: tuple[str, ...]
    bounds: tuple[int, ...] | None = None

    def __post_init__(self):
        s = self.embeddings.shape[0]
        if len(self.segments) != s:
            raise ValueError(f"tag length {len(self.segments)} != sequence length {s}")
        if self.bounds is None:
            self.bounds = (0, s)
        b = self.bounds
        if len(b) < 2 or b[0] != 0 or b[-1] != s or any(lo > hi for lo, hi in zip(b, b[1:])):
            raise ValueError(f"sample bounds {b} must rise from 0 to sequence length {s}")

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


def _sample_major(stream_bounds: list[tuple[int, ...]]) -> np.ndarray | None:
    """Row order over streams concatenated one after another, each holding
    the same samples in order (at these bounds): a stable sort by sample
    gathers each sample's rows and keeps the stream order within it. None
    for one sample, whose rows are in order already."""
    if len(stream_bounds[0]) == 2:
        return None
    sample = np.concatenate([np.repeat(np.arange(len(b) - 1), np.diff(b)) for b in stream_bounds])
    return np.argsort(sample, kind="stable")


def assemble(
    e_fused: Tensor,
    e_objects: Tensor,
    e_text: Tensor,
    merge: MergeMethod = MergeMethod.CONCAT,
    merge_params: CrossAttentionParams | None = None,
    text_first: bool = False,
    sizes: list[tuple[int, int, int]] | None = None,
) -> TokenSequence:
    """The token sequence of one image, or of several packed back to back.

    All inputs must already share the model width. ``sizes`` gives each
    sample's (fused, object, text) row counts; each stream holds the samples'
    rows in sample order. None is one sample holding every row. Sample i's
    block is its fused tokens, its object tokens, then its text (the text
    leads with ``text_first``), and the blocks follow in sample order.
    ``concat`` keeps the object tokens; ``f_to_b_xattn`` folds object
    information into the fused tokens (objects are consumed, not emitted);
    ``b_to_f_xattn`` enhances object tokens from the fused stream and keeps
    both. The merges attend within a sample; a sample with no objects skips
    the merge.
    """
    if sizes is None:
        sizes = [(e_fused.shape[0], e_objects.shape[0], e_text.shape[0])]
    fused_b, object_b, text_b = (segment_bounds(col) for col in zip(*sizes))
    for name, t in (("object", e_objects), ("text", e_text)):
        if t.shape[0] > 0 and t.shape[1] != e_fused.shape[1]:
            raise ValueError(f"{name} stream width {t.shape[1]} != model dim {e_fused.shape[1]}")
    k = e_objects.shape[0]
    if k == 0 and merge is not MergeMethod.CONCAT:
        log.info("no object tokens: %s merge degenerates to the fused stream", merge.value)
    if merge is MergeMethod.F_TO_B_XATTN and k > 0:
        e_fused = cross_attention(e_fused, e_objects, merge_params, fused_b, object_b)
    if merge is MergeMethod.B_TO_F_XATTN and k > 0:
        e_objects = cross_attention(e_objects, e_fused, merge_params, object_b, fused_b)
    streams = [(SEGMENT_FUSED, e_fused, fused_b)]
    if merge is not MergeMethod.F_TO_B_XATTN:
        streams.append((SEGMENT_OBJECT, e_objects, object_b))
    text = (SEGMENT_TEXT, e_text, text_b)
    streams = [text] + streams if text_first else streams + [text]
    streams = [stream for stream in streams if stream[1].shape[0] > 0]
    emb = concat([t for _, t, _ in streams], order=_sample_major([b for _, _, b in streams]))
    segments = chain.from_iterable(repeat(tag, b[i + 1] - b[i])
                                   for i in range(len(sizes)) for tag, _, b in streams)
    lengths = [sum(b[i + 1] - b[i] for _, _, b in streams) for i in range(len(sizes))]
    return TokenSequence(embeddings=emb, segments=tuple(segments), bounds=segment_bounds(lengths))


def assemble_video(
    frame_streams: list[tuple[Tensor, Tensor]],
    e_text: Tensor,
    merge: MergeMethod = MergeMethod.CONCAT,
    merge_params: CrossAttentionParams | None = None,
    text_first: bool = False,
) -> TokenSequence:
    """One sample's token sequence over several frames of projected streams.

    The frames pack into ``assemble`` as its samples, so each frame's block
    is merged on its own. The one text segment goes with the first frame
    under ``text_first`` and with the last otherwise, so it leads or trails
    the frame blocks. The result is one sample; one frame gives
    ``assemble``'s sequence.
    """
    if not frame_streams:
        raise ValueError("video assembly requires at least one frame")
    text_at = 0 if text_first else len(frame_streams) - 1
    sizes = [(f.shape[0], o.shape[0], e_text.shape[0] if i == text_at else 0)
             for i, (f, o) in enumerate(frame_streams)]
    e_fused, e_objects = (concat(list(stream)) for stream in zip(*frame_streams))
    seq = assemble(e_fused, e_objects, e_text, merge, merge_params, text_first, sizes)
    return TokenSequence(embeddings=seq.embeddings, segments=seq.segments)


def causal_hidden(full: Tensor, p: ScorerParams, firsts: Sequence[int],
                  bounds: tuple[int, ...]) -> Tensor:
    """One causal self-attention block plus MLP over [T, D] embeddings that
    pack samples back to back (sample i is rows ``bounds[i]..bounds[i+1]-1``).

    Sample i is queried only from its row ``firsts[i]`` (counted within it)
    to its end, and its row ``firsts[i] + j`` attends to its rows
    ``0..firsts[i] + j`` through the fused ``causal_attention`` op, one tape
    node with no mask tensor; no sample sees another's rows. Returns the
    queried rows' [Q, D] states in sample order."""
    queried = [np.arange(lo + f, hi) for lo, hi, f in zip(bounds, bounds[1:], firsts)]
    rows = concat([full], order=np.concatenate(queried))
    x = rows + causal_attention(rows @ p.wq, full @ p.wk, full @ p.wv, firsts,
                                segment_bounds(q.size for q in queried), bounds)
    return x + affine(gelu(affine(x, p.ffn_w1, p.ffn_b1)), p.ffn_w2, p.ffn_b2)


def scorer_logits(prefix: Tensor, answers: Sequence[Sequence[int]], p: ScorerParams,
                  bounds: tuple[int, ...] | None = None) -> Tensor:
    """Teacher-forced logits, one row per answer token: row i of sample s's
    rows predicts ``answers[s][i]``.

    The prefix packs the samples back to back at ``bounds`` (None is one
    sample holding every row), and ``answers`` holds one id list per sample.
    The rows follow in sample order, each sample scored as if alone."""
    bounds = segment_bounds([prefix.shape[0]]) if bounds is None else bounds
    prefix_lens = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
    # the state just before each answer token carries its prediction, so no
    # row reads the last answer token and it stays out of the context
    contexts = [a[:-1] for a in answers]
    vocab = p.embed.shape[0]
    answer_emb = one_hot([t for c in contexts for t in c], vocab) @ p.embed
    # sample i's context: its prefix rows, then its answer rows
    order = _sample_major([bounds, segment_bounds(len(c) for c in contexts)])
    full = concat([prefix, answer_emb], axis=0, order=order)
    lengths = [n + len(c) for n, c in zip(prefix_lens, contexts)]
    table = position_table(max(lengths), full.shape[1])
    positions = table if len(lengths) == 1 else np.concatenate([table[:n] for n in lengths])
    full = full + Tensor(positions)
    hidden = causal_hidden(full, p, [n - 1 for n in prefix_lens], segment_bounds(lengths))
    return affine(hidden, p.out_w, p.out_b)


def score_answer(seq: TokenSequence, answers: Sequence[Sequence[int]], p: ScorerParams) -> Tensor:
    """Mean NLL of the answers under teacher forcing, as a scalar tensor.

    ``answers`` holds one answer per sample of ``seq``; the loss is the mean
    over samples of each sample's mean NLL."""
    if any(len(a) == 0 for a in answers):
        raise ValueError("cannot score an empty answer")
    if len(answers) != len(seq.bounds) - 1:
        raise ValueError(f"{len(answers)} answers for {len(seq.bounds) - 1} packed samples")
    logits = scorer_logits(seq.embeddings, answers, p, seq.bounds)
    log_probs = logits.log_softmax(axis=-1)
    picked = (log_probs * one_hot([t for a in answers for t in a], p.embed.shape[0])).sum(axis=1)
    return -segment_mean(picked, segment_bounds(len(a) for a in answers))


def greedy_decode(seq: TokenSequence, p: ScorerParams, max_new: int) -> list[int]:
    """Argmax continuation of the sequence; deterministic, no sampling.

    Each step scores [generated; placeholder] after the prefix; the
    placeholder never enters the context and only prediction rows are
    queried, so a step costs T-row projections plus len(generated) + 1
    attention rows, not a T x T block.
    """
    generated: list[int] = []
    for _ in range(max_new):
        logits = scorer_logits(seq.embeddings, [generated + [0]], p)
        generated.append(int(np.argmax(logits.data[len(generated)])))
    return generated
