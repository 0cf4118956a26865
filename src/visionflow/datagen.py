"""Synthetic dataset and video descriptor generation."""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import rng
from .config import RunConfig, config_from_dict
from .encoders import DataError, SceneDescriptor, generate_scene, load_json

DATASET_FORMAT = "visionflow-dataset-v1"


@dataclass
class RawSample:
    scene: SceneDescriptor
    text_ids: list[int]
    answer_ids: list[int]


def small_training_config(seed: int = 0) -> RunConfig:
    """A desk-scale config for the bundled overfit dataset (64 tokens/frame)."""
    return config_from_dict({
        "seed": seed,
        "encoder": {"low_res": 112, "channels_low": 12, "stage_channels": [4, 6, 8, 12]},
        "fusion": {"channels_low": 12, "channels_high": 12, "gate_channels": 8},
        "roi": {"bins": [3, 3], "samples_per_bin": 2},
        "train": {"stage1_steps": 200, "stage2_steps": 300, "batch_size": 8},
    })


def generate_dataset(cfg: RunConfig, n_samples: int = 32, scene_objects: int = 3) -> list[RawSample]:
    """Seeded (scene, text, answer) tuples; ids stay within the toy vocab."""
    gen = rng.stream(cfg.seed, "dataset")
    vocab = cfg.assembly.vocab_size
    samples = []
    for i in range(n_samples):
        scene = generate_scene(int(gen.integers(0, 2**31)), n_objects=scene_objects)
        text_len = int(gen.integers(4, 9))
        answer_len = int(gen.integers(2, 6))
        samples.append(RawSample(
            scene=scene,
            text_ids=[int(v) for v in gen.integers(0, vocab, size=text_len)],
            answer_ids=[int(v) for v in gen.integers(0, vocab, size=answer_len)],
        ))
    return samples


def save_dataset(samples: list[RawSample], path: str, seed: int) -> None:
    payload = {
        "format": DATASET_FORMAT,
        "seed": seed,
        "samples": [
            {"scene": s.scene.to_dict(), "text_ids": s.text_ids, "answer_ids": s.answer_ids}
            for s in samples
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)


def load_dataset(path: str) -> list[RawSample]:
    payload = load_json(path)
    if not isinstance(payload, dict) or payload.get("format") != DATASET_FORMAT:
        raise DataError(f"{path}: not a {DATASET_FORMAT} file")
    entries = payload.get("samples", [])
    if not isinstance(entries, list):
        raise DataError(f"{path}: samples must be a list, got {type(entries).__name__}")
    samples = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise DataError(f"{path}: samples[{i}] must be a JSON object, got {type(entry).__name__}")
        try:
            scene = SceneDescriptor.from_dict(entry.get("scene"))
        except DataError as exc:
            raise DataError(f"{path}: sample {i} is malformed: {exc}") from exc
        ids = [entry.get("text_ids"), entry.get("answer_ids")]
        for key, value in zip(("text_ids", "answer_ids"), ids):
            if not isinstance(value, list) or any(type(v) is not int for v in value):
                raise DataError(f"{path}: samples[{i}].{key} must be a list of integers, got {value!r}")
        if not ids[1]:
            raise DataError(f"{path}: samples[{i}].answer_ids is empty")
        samples.append(RawSample(scene, *ids))
    if not samples:
        raise DataError(f"{path}: dataset holds no samples")
    return samples


def generate_video_descriptor(seed: int, n_frames: int = 8, scene_objects: int = 2) -> dict:
    """A toy video: per-frame scene descriptors under one seed."""
    gen = rng.stream(seed, "video")
    frames = [
        generate_scene(int(gen.integers(0, 2**31)), n_objects=scene_objects).to_dict()
        for _ in range(n_frames)
    ]
    return {"seed": seed, "frames": frames}
