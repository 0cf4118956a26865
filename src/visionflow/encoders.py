"""Deterministic frozen stand-ins for the two vision encoders and the text embedder.

The low-resolution branch patch-pools at stride 14 and applies a fixed seeded
linear map; the high-resolution branch is a fixed seeded 4-stage strided
patch-conv stack with tanh, emitting grids at strides 4, 8, 16 and 32. Both
are pure functions of (image, config): no weight is ever trained, so all
downstream tests are reproducible without model downloads.

Also hosts the seeded procedural scene generator (colored rectangles on
noise) whose descriptors double as detection ground truth.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from . import rng, sampling

# Mix of detector-vocabulary names and novel ones, so restricting the tag
# list (fixed COCO-style tags vs scene ground truth) visibly drops boxes.
LABEL_POOL = (
    "person", "car", "dog", "cat", "chair", "bottle", "bicycle", "bird",
    "widget", "gadget", "sprocket", "flange", "crate", "beacon", "pylon", "gnome",
)


@dataclass(frozen=True)
class EncoderConfig:
    """Resolution, stride and channel widths for the two vision branches.

    The conv-gate fusion adds high-res features onto the low-res tokens one
    for one, so two values follow from these fields: the high-res side is
    ``low_res / stride_low * 32`` (32 is the deepest stage stride) and the
    high-res width is the last stage width.
    """

    low_res: int = 336
    stride_low: int = 14
    channels_low: int = 32
    stage_channels: tuple[int, ...] = (8, 16, 32, 48)

    def __post_init__(self):
        for name in ("low_res", "stride_low", "channels_low"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if any(c < 1 for c in self.stage_channels):
            raise ValueError(f"stage_channels must all be >= 1, got {list(self.stage_channels)}")
        if self.low_res % self.stride_low != 0:
            raise ValueError(
                f"low_res {self.low_res} not divisible by stride {self.stride_low}"
            )
        if len(self.stage_channels) != 4:
            raise ValueError("high-res encoder has exactly four stages")

    @property
    def high_res(self) -> int:
        return self.tokens_per_side * math.prod(HighResEncoder.STAGE_FACTORS)

    @property
    def channels_high(self) -> int:
        return self.stage_channels[-1]

    @property
    def tokens_per_side(self) -> int:
        return self.low_res // self.stride_low

    @property
    def num_tokens(self) -> int:
        return self.tokens_per_side ** 2


def resize_image(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize of an [H, W, 3] image with the shared corner convention, no antialias."""
    if img.shape[:2] == (out_h, out_w):
        return img
    return np.clip(sampling.resize(img, out_h, out_w), 0.0, 1.0)


class LowResEncoder:
    """Patch-mean pooling at stride 14 followed by a fixed seeded linear map."""

    def __init__(self, cfg: EncoderConfig, seed: int):
        self.cfg = cfg
        gen = rng.stream(seed, "encoder.low")
        self.weight = gen.normal(0.0, 0.8, size=(3, cfg.channels_low))
        self.bias = gen.normal(0.0, 0.2, size=(cfg.channels_low,))

    def encode(self, img: np.ndarray) -> np.ndarray:
        """[H, W, 3] image -> [N, C] flat tokens in row-major order."""
        cfg = self.cfg
        pixels = resize_image(img, cfg.low_res, cfg.low_res)
        side = cfg.tokens_per_side
        s = cfg.stride_low
        patches = pixels.reshape(side, s, side, s, 3).mean(axis=(1, 3))
        return patches.reshape(side * side, 3) @ self.weight + self.bias


class HighResEncoder:
    """Fixed seeded 4-stage strided patch-conv stack, strides 4/8/16/32."""

    STAGE_FACTORS = (4, 2, 2, 2)

    def __init__(self, cfg: EncoderConfig, seed: int):
        self.cfg = cfg
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        in_ch = 3
        for i, (k, out_ch) in enumerate(zip(self.STAGE_FACTORS, cfg.stage_channels)):
            gen = rng.stream(seed, f"encoder.high.stage{i}")
            fan_in = in_ch * k * k
            self.weights.append(gen.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, out_ch)))
            self.biases.append(gen.normal(0.0, 0.05, size=(out_ch,)))
            in_ch = out_ch

    def encode(self, img: np.ndarray) -> list[np.ndarray]:
        """[H, W, 3] image -> the four [h, w, C] stages, strides 4, 8, 16, 32 in order."""
        cfg = self.cfg
        x = resize_image(img, cfg.high_res, cfg.high_res)
        stages: list[np.ndarray] = []
        for i, k in enumerate(self.STAGE_FACTORS):
            h, w, c = x.shape
            hh, ww = h // k, w // k
            patches = x.reshape(hh, k, ww, k, c).transpose(0, 2, 1, 3, 4).reshape(hh, ww, k * k * c)
            x = np.tanh(patches @ self.weights[i] + self.biases[i])
            stages.append(x)
        return stages


class TextEmbedder:
    """Seeded fixed embedding-table lookup; the frozen text-input stub."""

    def __init__(self, vocab_size: int, dim: int, seed: int):
        self.vocab_size = vocab_size
        self.dim = dim
        self.table = rng.stream(seed, "encoder.text").normal(0.0, 0.5, size=(vocab_size, dim))

    def embed(self, token_ids: list[int]) -> np.ndarray:
        ids = np.asarray(list(token_ids), dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.vocab_size):
            raise ValueError(f"token id out of vocab [0, {self.vocab_size})")
        if ids.size == 0:
            return np.zeros((0, self.dim), dtype=np.float64)
        return self.table[ids]


# -- procedural scenes ---------------------------------------------------------


@dataclass(frozen=True)
class ObjectSpec:
    x0: float
    y0: float
    x1: float
    y1: float
    label: str


# Largest scene height or width accepted from a descriptor. render_scene holds
# an H*W*3 float64 canvas plus same-sized noise and clip copies: ~100 MB each
# at 2048 x 2048, so an unchecked extent could exhaust memory before any model
# code runs.
MAX_SCENE_SIDE = 2048
_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class SceneDescriptor:
    """Ground truth for one synthetic image: seed, extent, placed objects."""

    seed: int
    height: int = 256
    width: int = 256
    objects: tuple[ObjectSpec, ...] = field(default_factory=tuple)

    @property
    def image_id(self) -> str:
        return f"scene-{self.seed:08d}"

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "height": self.height,
            "width": self.width,
            "objects": [
                {"x0": o.x0, "y0": o.y0, "x1": o.x1, "y1": o.y1, "label": o.label}
                for o in self.objects
            ],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> SceneDescriptor:
        if not isinstance(obj, dict):
            raise DataError(f"a scene must be a JSON object, got {type(obj).__name__}")
        if not isinstance(obj.get("objects", []), list):
            raise DataError(f"scene objects must be a list, got {type(obj['objects']).__name__}")
        objects = []
        for n, o in enumerate(obj.get("objects", [])):
            if not isinstance(o, dict):
                raise DataError(f"scene objects[{n}] must be a JSON object, got {type(o).__name__}")
            coords = [finite_number(o.get(k), f"scene objects[{n}].{k}") for k in ("x0", "y0", "x1", "y1")]
            if not (coords[0] < coords[2] and coords[1] < coords[3]):
                raise DataError(f"scene objects[{n}] must have x0 < x1 and y0 < y1, got {coords}")
            label = o.get("label")
            if not isinstance(label, str) or not label:
                raise DataError(f"scene objects[{n}].label must be a non-empty string, got {label!r}")
            objects.append(ObjectSpec(*coords, label))
        extent = {}
        for key in ("height", "width"):
            value = finite_number(obj.get(key, 256), f"scene {key}")
            if not (0 < value <= MAX_SCENE_SIDE and value == int(value)):
                raise DataError(f"scene {key} must be an integer in [1, {MAX_SCENE_SIDE}], got {value}")
            extent[key] = int(value)
        seed = obj.get("seed")
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
            raise DataError(f"scene seed must be an integer, got {seed!r}")
        return cls(seed=int(seed), objects=tuple(objects), **extent)


class DataError(ValueError):
    """Input from outside the program (a scene, box, tag, dataset, checkpoint or
    config file, or a config value) is malformed; the message names the field."""


def finite_number(value, name: str) -> float:
    """``value`` as a float if it is a JSON number within the float range, else a
    DataError naming the field; bools, NaN, infinities and integers too large
    for a float are not numbers here. Scene files, box files and config floats
    share this check."""
    if (type(value) is float or type(value) is int) and -_FLOAT_MAX <= value <= _FLOAT_MAX:
        return float(value)
    raise DataError(f"{name} must be a finite number, got {value!r}")


def load_json(path: str):
    """The JSON document in file ``path``. An integer past Python's digit limit or
    nesting past the decoder's recursion limit is a DataError; other malformed
    JSON stays a json.JSONDecodeError."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except (ValueError, RecursionError) as exc:
        raise DataError(f"{path}: {exc}") from exc


def _boxes_overlap(a: ObjectSpec, b: ObjectSpec) -> float:
    ix = max(0.0, min(a.x1, b.x1) - max(a.x0, b.x0))
    iy = max(0.0, min(a.y1, b.y1) - max(a.y0, b.y0))
    inter = ix * iy
    if inter == 0.0:
        return 0.0
    area_a = (a.x1 - a.x0) * (a.y1 - a.y0)
    area_b = (b.x1 - b.x0) * (b.y1 - b.y0)
    return inter / (area_a + area_b - inter)


def generate_scene(seed: int, n_objects: int = 3, height: int = 256, width: int = 256) -> SceneDescriptor:
    """Seeded scene with well-separated rectangles and distinct labels."""
    if n_objects > len(LABEL_POOL):
        raise ValueError(f"at most {len(LABEL_POOL)} objects per scene")
    gen = rng.stream(seed, "scene.layout")
    labels = list(gen.choice(len(LABEL_POOL), size=n_objects, replace=False))
    objects: list[ObjectSpec] = []
    for li in labels:
        for _ in range(200):
            w = gen.uniform(0.12, 0.38) * width
            h = gen.uniform(0.12, 0.38) * height
            x0 = gen.uniform(0.0, width - w)
            y0 = gen.uniform(0.0, height - h)
            candidate = ObjectSpec(x0, y0, x0 + w, y0 + h, LABEL_POOL[li])
            if all(_boxes_overlap(candidate, o) <= 0.15 for o in objects):
                objects.append(candidate)
                break
        else:
            # crowded scene: accept the last candidate anyway
            objects.append(candidate)
    return SceneDescriptor(seed=seed, height=height, width=width, objects=tuple(objects))


def _label_color(label: str) -> np.ndarray:
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return 0.25 + 0.7 * np.array([digest[0], digest[1], digest[2]]) / 255.0


def render_scene(desc: SceneDescriptor) -> np.ndarray:
    """Render colored rectangles over low-amplitude noise: [H, W, 3], values in [0, 1]."""
    gen = rng.stream(desc.seed, "scene.render")
    canvas = 0.15 * gen.random((desc.height, desc.width, 3))
    for obj in desc.objects:
        # an object may extend past the image; only its visible part is drawn
        x0, y0 = max(int(round(obj.x0)), 0), max(int(round(obj.y0)), 0)
        x1, y1 = min(int(round(obj.x1)), desc.width), min(int(round(obj.y1)), desc.height)
        color = _label_color(obj.label)
        canvas[y0:y1, x0:x1] = color + 0.05 * gen.random((max(0, y1 - y0), max(0, x1 - x0), 3))
    return np.clip(canvas, 0.0, 1.0)


def save_descriptor(desc: SceneDescriptor, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(desc.to_dict(), fh, indent=2)
