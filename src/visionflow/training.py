"""Trainable parameter groups, the two-stage freeze schedule, and the loop.

Stage 1 ("pretrain") updates only the fusion network and the two projectors;
stage 2 ("finetune") unfreezes everything except the vision encoders, which
are never trainable (they live outside the parameter set entirely; the empty
"encoders" group records that contract). All updates are plain first-order
Adam steps with a fixed reduction order, so runs are bit-reproducible per
seed.

Every parameter is a view into one float64 buffer, ``ModelParams.flat``, in
``named_tensors()`` order (the checkpoint's byte order). Adam updates it in
place with two buffer-sized moment arrays; a checkpoint writes it at once. A
tensor without a gradient in a step (frozen, or unused by the batch, like the
merge weights of an object-free batch) keeps its values and moments. Frozen
tensors never get one: backward writes only into inputs that require one.

A training step builds one graph for its whole batch: ``sample_loss`` packs
the samples back to back (each stream stacks their rows) and passes the
per-sample row bounds to every op that mixes rows, so no sample reads
another's tokens. The batch loss is the mean over samples of each sample's
mean answer NLL; one sample is the one-element batch of the same path.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .assembly import (
    AssemblyConfig,
    MergeMethod,
    ScorerParams,
    ProjectorParams,
    TokenSequence,
    assemble,
    score_answer,
)
from .encoders import DataError, load_json
from .fusion import CrossAttentionParams, FusionConfig, FusionParams, fuse, fused_width
from .tensor import Tensor, segment_bounds

GROUP_FUSION = "fusion"
GROUP_PROJ_F = "proj_F"
GROUP_PROJ_B = "proj_B"
GROUP_MERGE = "merge"
GROUP_SCORER = "scorer"
GROUP_ENCODERS = "encoders"

CHECKPOINT_FORMAT = "visionflow-checkpoint-v1"

PRETRAIN_TRAINABLE = frozenset({GROUP_FUSION, GROUP_PROJ_F, GROUP_PROJ_B})


@dataclass
class ModelParams:
    """Every trainable tensor, partitioned into named groups.

    Each tensor's ``data`` is a view into ``flat``: write into it in place,
    because a rebound ``data`` no longer trains or saves."""

    fusion: FusionParams
    proj_f: ProjectorParams
    proj_b: ProjectorParams
    scorer: ScorerParams
    merge: CrossAttentionParams | None = None
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tensors = [t for _, t in self.named_tensors()]
        self.flat = np.concatenate([t.data.ravel() for t in tensors])
        for t, lo in zip(tensors, segment_bounds(t.size for t in tensors)):
            t.data = self.flat[lo:lo + t.size].reshape(t.shape)

    @classmethod
    def build(cls, fusion_cfg: FusionConfig, assembly_cfg: AssemblyConfig,
              object_channels: int, seed: int) -> ModelParams:
        d = assembly_cfg.model_dim
        fusion_params = FusionParams.build(fusion_cfg, seed)
        proj_f = ProjectorParams.build(fused_width(fusion_cfg), d, rng.stream(seed, "params.proj_F"))
        proj_b = ProjectorParams.build(object_channels, d, rng.stream(seed, "params.proj_B"))
        scorer = ScorerParams.build(assembly_cfg, rng.stream(seed, "params.scorer"))
        merge = None
        if assembly_cfg.merge is not MergeMethod.CONCAT:
            merge = CrossAttentionParams.build(d, rng.stream(seed, "params.merge"))
        return cls(fusion=fusion_params, proj_f=proj_f, proj_b=proj_b, scorer=scorer, merge=merge)

    def groups(self) -> dict[str, dict[str, Tensor]]:
        out = {
            GROUP_FUSION: self.fusion.tensors(),
            GROUP_PROJ_F: self.proj_f.tensors(),
            GROUP_PROJ_B: self.proj_b.tensors(),
            GROUP_SCORER: self.scorer.tensors(),
            GROUP_ENCODERS: {},
        }
        if self.merge is not None:
            out[GROUP_MERGE] = self.merge.tensors()
        return out

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        """(group/name, tensor) pairs in a fixed sorted order."""
        groups = self.groups()
        return [(f"{group}/{name}", t) for group in sorted(groups)
                for name, t in sorted(groups[group].items())]

    def group_bytes(self, group: str) -> bytes:
        """Concatenated little-endian value bytes, for freeze verification."""
        tensors = self.groups().get(group, {})
        chunks = [tensors[name].data.astype("<f8").tobytes() for name in sorted(tensors)]
        return b"".join(chunks)


@dataclass(frozen=True)
class FreezeMask:
    """Which parameter groups may move during one training stage."""

    stage: str
    trainable: frozenset[str]

    @classmethod
    def for_stage(cls, stage: str, model: ModelParams) -> FreezeMask:
        groups = set(model.groups())
        if stage == "pretrain":
            return cls(stage, frozenset(PRETRAIN_TRAINABLE & groups))
        if stage == "finetune":
            return cls(stage, frozenset(groups - {GROUP_ENCODERS}))
        raise ValueError(f"unknown stage {stage!r}")

    def apply(self, model: ModelParams) -> None:
        for group, tensors in model.groups().items():
            flag = group in self.trainable
            for t in tensors.values():
                t.requires_grad = flag
                t.grad = None


class Adam:
    """Deterministic Adam over the model's flat parameter buffer."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, model: ModelParams, lr: float):
        self.tensors = [t for _, t in model.named_tensors()]
        self.sizes = [t.size for t in self.tensors]
        self.flat = model.flat
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)

    def step(self) -> None:
        """Update every tensor that has a gradient, then clear the gradients."""
        self.t += 1
        b1c = 1.0 - self.BETA1 ** self.t
        b2c = 1.0 - self.BETA2 ** self.t
        live = np.repeat([t.grad is not None for t in self.tensors], self.sizes)
        g = np.concatenate([np.zeros(t.size) if t.grad is None else t.grad.ravel() for t in self.tensors])
        np.copyto(self.m, self.BETA1 * self.m + (1.0 - self.BETA1) * g, where=live)
        np.copyto(self.v, self.BETA2 * self.v + (1.0 - self.BETA2) * (g * g), where=live)
        update = (self.m / b1c) / (np.sqrt(self.v / b2c) + self.EPS)
        np.copyto(self.flat, self.flat - self.lr * update, where=live)
        for t in self.tensors:
            t.grad = None


@dataclass
class PreparedSample:
    """Frozen-encoder outputs for one sample; only downstream params train."""

    e_low: np.ndarray        # [N, C_L]
    e_high: np.ndarray       # [N, C_H], final-stage tokens
    e_objects: np.ndarray    # [k, C_B] pooled box features
    text_emb: np.ndarray     # [L_T, D]
    answer_ids: list[int]


@dataclass(frozen=True)
class TrainConfig:
    stage1_steps: int = 200
    stage2_steps: int = 300
    batch_size: int = 8
    lr_stage1: float = 3e-3
    lr_stage2: float = 3e-3

    def __post_init__(self):
        for name, low in (("stage1_steps", 0), ("stage2_steps", 0), ("batch_size", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")


def packed_sequence(model: ModelParams, samples: list[PreparedSample], merge: MergeMethod,
                    text_first: bool = False) -> TokenSequence:
    """The samples' token sequences, packed back to back in one graph."""
    def stacked(field: str) -> Tensor:
        return Tensor(np.concatenate([getattr(s, field) for s in samples]))

    sizes = [(s.e_low.shape[0], s.e_objects.shape[0], s.text_emb.shape[0]) for s in samples]
    e_fused = fuse(stacked("e_low"), stacked("e_high"), model.fusion,
                   segment_bounds(n for n, _, _ in sizes))
    return assemble(model.proj_f.apply(e_fused), model.proj_b.apply(stacked("e_objects")),
                    stacked("text_emb"), merge=merge, merge_params=model.merge,
                    text_first=text_first, sizes=sizes)


def sample_loss(model: ModelParams, samples: list[PreparedSample], merge: MergeMethod,
                text_first: bool = False) -> Tensor:
    """The mean over ``samples`` of each sample's mean answer NLL, as one graph."""
    seq = packed_sequence(model, samples, merge, text_first)
    return score_answer(seq, [s.answer_ids for s in samples], model.scorer)


def mean_dataset_nll(model: ModelParams, dataset: list[PreparedSample], merge: MergeMethod,
                     text_first: bool = False) -> float:
    total = 0.0
    for sample in dataset:
        total += sample_loss(model, [sample], merge, text_first).item()
    return total / len(dataset)


@dataclass
class CurvePoint:
    step: int
    stage: str
    loss: float


def _run_stage(model: ModelParams, dataset: list[PreparedSample], merge: MergeMethod,
               text_first: bool, stage: str, steps: int, lr: float, batch_size: int,
               start_step: int) -> list[CurvePoint]:
    FreezeMask.for_stage(stage, model).apply(model)
    opt = Adam(model, lr=lr)
    n = len(dataset)
    curve: list[CurvePoint] = []
    for s in range(steps):
        base = (s * batch_size) % n
        batch = [dataset[(base + j) % n] for j in range(min(batch_size, n))]
        loss = sample_loss(model, batch, merge, text_first)
        loss.backward()
        opt.step()
        curve.append(CurvePoint(step=start_step + s, stage=stage, loss=loss.item()))
    return curve


def train_two_stage(model: ModelParams, dataset: list[PreparedSample], cfg: TrainConfig,
                    merge: MergeMethod = MergeMethod.CONCAT, text_first: bool = False) -> list[CurvePoint]:
    """Run both stages in place on ``model``; returns the per-step loss curve."""
    if not dataset:
        raise ValueError("cannot train on an empty dataset")
    curve = _run_stage(model, dataset, merge, text_first, "pretrain", cfg.stage1_steps,
                       cfg.lr_stage1, cfg.batch_size, start_step=0)
    curve += _run_stage(model, dataset, merge, text_first, "finetune", cfg.stage2_steps,
                        cfg.lr_stage2, cfg.batch_size, start_step=cfg.stage1_steps)
    return curve


def curve_to_csv(curve: list[CurvePoint]) -> str:
    lines = ["step,stage,loss"]
    lines += [f"{p.step},{p.stage},{p.loss:.17g}" for p in curve]
    return "\n".join(lines) + "\n"


# -- checkpoints -----------------------------------------------------------------


def save_checkpoint(model: ModelParams, directory: str, stage: str, seed: int,
                    config_hash: str) -> None:
    """Write manifest.json plus one raw little-endian float64 blob file."""
    os.makedirs(directory, exist_ok=True)
    named = model.named_tensors()
    bounds = segment_bounds(t.size for _, t in named)
    entries = [{"name": name, "shape": list(t.shape), "offset": 8 * lo, "nbytes": 8 * (hi - lo)}
               for (name, t), lo, hi in zip(named, bounds, bounds[1:])]
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "stage": stage,
        "seed": seed,
        "config_hash": config_hash,
        "dtype": "<f8",
        "tensors": entries,
    }
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    with open(os.path.join(directory, "params.bin"), "wb") as fh:
        fh.write(model.flat.astype("<f8").tobytes())


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_manifest_tensors(tensors) -> None:
    """Raise DataError naming the first malformed field of the tensor list."""
    if not isinstance(tensors, list):
        raise DataError(f"checkpoint manifest 'tensors' must be a list, got {type(tensors).__name__}")
    for n, entry in enumerate(tensors):
        if not isinstance(entry, dict):
            raise DataError(f"checkpoint manifest tensors[{n}] must be an object, got {type(entry).__name__}")
        name = entry.get("name")
        if not isinstance(name, str):
            raise DataError(f"checkpoint manifest tensors[{n}] 'name' must be a string, got {name!r}")
        shape = entry.get("shape")
        if not isinstance(shape, list) or not all(_is_int(s) and s >= 0 for s in shape):
            raise DataError(f"checkpoint tensor {name!r}: 'shape' must be a list of non-negative ints, "
                             f"got {shape!r}")
        for field in ("offset", "nbytes"):
            if not _is_int(entry.get(field)):
                raise DataError(f"checkpoint tensor {name!r}: {field!r} must be an int, got {entry.get(field)!r}")


def load_checkpoint_state(directory: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Read back (manifest, {qualified name: array}).

    Rejects another format, a malformed tensor list, and any tensor whose
    byte count disagrees with its shape or whose bytes run past the end of
    params.bin.
    """
    manifest = load_json(os.path.join(directory, "manifest.json"))
    fmt = manifest.get("format") if isinstance(manifest, dict) else None
    if fmt != CHECKPOINT_FORMAT:
        raise DataError(f"checkpoint format {fmt!r} is not {CHECKPOINT_FORMAT!r}")
    _check_manifest_tensors(manifest.get("tensors"))
    with open(os.path.join(directory, "params.bin"), "rb") as fh:
        raw = fh.read()
    state: dict[str, np.ndarray] = {}
    for entry in manifest["tensors"]:
        name, shape, offset, nbytes = entry["name"], entry["shape"], entry["offset"], entry["nbytes"]
        if nbytes != 8 * math.prod(shape):
            raise DataError(f"checkpoint tensor {name!r}: nbytes {nbytes} != 8 x {shape}")
        if offset < 0 or offset + nbytes > len(raw):
            raise DataError(f"checkpoint tensor {name!r}: bytes [{offset}, {offset + nbytes}) "
                             f"run past params.bin ({len(raw)} bytes)")
        state[name] = np.frombuffer(raw[offset: offset + nbytes], dtype="<f8").reshape(shape).copy()
    return manifest, state


def restore_model(model: ModelParams, state: dict[str, np.ndarray]) -> None:
    """Copy checkpoint arrays into a structurally matching model, in place."""
    for name, t in model.named_tensors():
        if name not in state:
            raise DataError(f"checkpoint missing tensor {name!r}")
        if tuple(state[name].shape) != t.shape:
            raise DataError(f"checkpoint tensor {name!r} has shape {state[name].shape}, expected {t.shape}")
        t.data[...] = state[name]


def checkpoint_hash(directory: str) -> str:
    h = hashlib.sha256()
    for fname in ("manifest.json", "params.bin"):
        with open(os.path.join(directory, fname), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()
