"""Bounding-box generation and filtering: tags -> detector -> NMS -> cap.

Detectors are pluggable; the bundled mock detector reads a scene descriptor's
ground-truth objects so the whole pipeline stays deterministic and offline,
and a file-ingestion detector covers externally produced boxes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Protocol

import numpy as np

from . import rng
from .encoders import DataError, SceneDescriptor, finite_number, load_json

COCO80_LABELS = (
    "person", "bicycle", "car", "motorcycle", "airplane", "bus", "train", "truck",
    "boat", "traffic light", "fire hydrant", "stop sign", "parking meter", "bench",
    "bird", "cat", "dog", "horse", "sheep", "cow", "elephant", "bear", "zebra",
    "giraffe", "backpack", "umbrella", "handbag", "tie", "suitcase", "frisbee",
    "skis", "snowboard", "sports ball", "kite", "baseball bat", "baseball glove",
    "skateboard", "surfboard", "tennis racket", "bottle", "wine glass", "cup",
    "fork", "knife", "spoon", "bowl", "banana", "apple", "sandwich", "orange",
    "broccoli", "carrot", "hot dog", "pizza", "donut", "cake", "chair", "couch",
    "potted plant", "bed", "dining table", "toilet", "tv", "laptop", "mouse",
    "remote", "keyboard", "cell phone", "microwave", "oven", "toaster", "sink",
    "refrigerator", "book", "clock", "vase", "scissors", "teddy bear",
    "hair drier", "toothbrush",
)

HISTOGRAM_BINS = ((0, 0, "0"), (1, 10, "1-10"), (11, 20, "11-20"),
                  (21, 30, "21-30"), (31, 50, "31-50"), (51, None, ">50"))


@dataclass(frozen=True)
class Detection:
    """A scored, labeled axis-aligned box in image pixel coordinates."""

    x0: float
    y0: float
    x1: float
    y1: float
    score: float
    label: str

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError(f"degenerate box ({self.x0}, {self.y0}, {self.x1}, {self.y1})")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score {self.score} outside [0, 1]")

    @property
    def area(self) -> float:
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    def clipped(self, width: float, height: float) -> Detection | None:
        """Clip to image bounds; None when nothing remains."""
        x0, y0 = max(self.x0, 0.0), max(self.y0, 0.0)
        x1, y1 = min(self.x1, width), min(self.y1, height)
        if x1 <= x0 or y1 <= y0:
            return None
        return replace(self, x0=x0, y0=y0, x1=x1, y1=y1)

    def to_dict(self) -> dict:
        return {"box": [self.x0, self.y0, self.x1, self.y1], "score": self.score, "label": self.label}

    @classmethod
    def from_dict(cls, obj: dict, name: str) -> Detection:
        """Validate one box-file entry; a DataError names the bad field under ``name``."""
        if not isinstance(obj, dict):
            raise DataError(f"{name} must be a JSON object, got {type(obj).__name__}")
        box, score, label = obj.get("box"), obj.get("score"), obj.get("label")
        if not isinstance(box, list) or len(box) != 4:
            raise DataError(f"{name}.box must be a list of 4 numbers, got {box!r}")
        where = name + ".box value"
        coords = [finite_number(v, where) for v in box]
        score = finite_number(score, name + ".score")
        if not isinstance(label, str) or not label:
            raise DataError(f"{name}.label must be a non-empty string, got {label!r}")
        try:
            return cls(*coords, score, label)
        except ValueError as exc:  # a degenerate box or a score outside [0, 1]
            raise DataError(f"{name}: {exc}") from None


@dataclass
class DetectionSet:
    image_id: str
    detections: list[Detection] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.detections)

    def to_dict(self) -> dict:
        return {"image_id": self.image_id, "detections": [d.to_dict() for d in self.detections]}

    @classmethod
    def from_dict(cls, obj: dict) -> DetectionSet:
        if not isinstance(obj, dict):
            raise DataError(f"a box set must be a JSON object, got {type(obj).__name__}")
        image_id, detections = obj.get("image_id"), obj.get("detections")
        if not isinstance(image_id, str) or not image_id:
            raise DataError(f"box set image_id must be a non-empty string, got {image_id!r}")
        if not isinstance(detections, list):
            raise DataError(f"box set detections must be a list, got {type(detections).__name__}")
        return cls(image_id, [Detection.from_dict(d, f"detections[{n}]") for n, d in enumerate(detections)])


def iou(a: Detection, b: Detection) -> float:
    """Intersection over union; 0 for disjoint boxes."""
    ix = min(a.x1, b.x1) - max(a.x0, b.x0)
    iy = min(a.y1, b.y1) - max(a.y0, b.y0)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def _nms_order(dets: list[Detection]) -> list[int]:
    # deterministic total order: score desc, then x0, y0, input index asc
    return sorted(range(len(dets)), key=lambda i: (-dets[i].score, dets[i].x0, dets[i].y0, i))


def nms_indices(dets: list[Detection], iou_threshold: float, class_aware: bool = True) -> list[int]:
    """Indices surviving greedy suppression, in descending-score keep order.

    A candidate is suppressed when its IoU with an already-kept box strictly
    exceeds the threshold (and, when class_aware, only if labels match).
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou threshold must lie in (0, 1], got {iou_threshold}")
    n = len(dets)
    if n == 0:
        return []
    order = _nms_order(dets)
    x0 = np.array([dets[i].x0 for i in order])
    y0 = np.array([dets[i].y0 for i in order])
    x1 = np.array([dets[i].x1 for i in order])
    y1 = np.array([dets[i].y1 for i in order])
    areas = (x1 - x0) * (y1 - y0)
    labels = np.unique([dets[i].label for i in order], return_inverse=True)[1]
    alive = np.ones(n, dtype=bool)
    keep: list[int] = []
    for pos in range(n):
        if not alive[pos]:
            continue
        keep.append(order[pos])
        rest = np.nonzero(alive[pos + 1:])[0] + pos + 1
        if rest.size == 0:
            continue
        ix = np.minimum(x1[pos], x1[rest]) - np.maximum(x0[pos], x0[rest])
        iy = np.minimum(y1[pos], y1[rest]) - np.maximum(y0[pos], y0[rest])
        inter = np.maximum(ix, 0.0) * np.maximum(iy, 0.0)
        overlap = inter / (areas[pos] + areas[rest] - inter)
        suppress = overlap > iou_threshold
        if class_aware:
            suppress &= labels[rest] == labels[pos]
        alive[rest[suppress]] = False
    return keep


# -- tag sources ---------------------------------------------------------------


class TagSource(Protocol):
    def tags_for(self, scene: SceneDescriptor) -> list[str]: ...


class SyntheticTags:
    """Ground-truth labels straight from the scene descriptor."""

    def tags_for(self, scene: SceneDescriptor) -> list[str]:
        return _dedup(o.label for o in scene.objects)


class FixedTags:
    """A fixed label list (COCO-80 style), independent of the image."""

    def __init__(self, labels=COCO80_LABELS):
        self.labels = list(labels)

    def tags_for(self, scene: SceneDescriptor) -> list[str]:
        return _dedup(self.labels)


class FileTags:
    """Labels read from a JSON file: either a list or {"tags": [...]}."""

    def __init__(self, path: str):
        obj = load_json(path)
        labels = obj.get("tags") if isinstance(obj, dict) else obj
        if not isinstance(labels, list):
            raise DataError(f"tag file {path}: tags must be a list, got {type(labels).__name__}")
        self.labels = labels

    def tags_for(self, scene: SceneDescriptor) -> list[str]:
        return _dedup(self.labels)


def _dedup(labels) -> list[str]:
    seen: set[str] = set()
    out: list[str] = []
    for lab in labels:
        lab = str(lab).strip()
        if lab and lab not in seen:
            seen.add(lab)
            out.append(lab)
    return out


def make_tag_source(spec: str) -> TagSource:
    """Parse a tag-source spec: synthetic | coco80 | file:PATH."""
    if spec == "synthetic":
        return SyntheticTags()
    if spec == "coco80":
        return FixedTags()
    if spec.startswith("file:"):
        return FileTags(spec[len("file:"):])
    raise DataError(f"unknown tag source {spec!r}")


# -- detectors -----------------------------------------------------------------


class Detector(Protocol):
    def detect(self, scene: SceneDescriptor, labels: list[str]) -> list[Detection]: ...


class MockDetector:
    """Emits each ground-truth box whose label is in the tag list.

    The primary proposal gets sub-percent coordinate jitter and a high score;
    a seeded number of near-duplicates with stronger jitter and lower scores
    exercise NMS. Fully deterministic per (detector seed, scene seed).
    """

    JITTER_FRAC = 0.001
    DUPLICATE_JITTER = 0.05
    MAX_DUPLICATES = 2

    def __init__(self, seed: int = 0):
        self.seed = seed

    def _jitter(self, obj, frac: float, gen: np.random.Generator) -> tuple[float, float, float, float]:
        w, h = obj.x1 - obj.x0, obj.y1 - obj.y0
        dx = gen.uniform(-frac, frac, size=4)
        return (obj.x0 + dx[0] * w, obj.y0 + dx[1] * h, obj.x1 + dx[2] * w, obj.y1 + dx[3] * h)

    def detect(self, scene: SceneDescriptor, labels: list[str]) -> list[Detection]:
        gen = rng.stream(self.seed, f"detector.mock.{scene.seed}")
        wanted = set(labels)
        out: list[Detection] = []
        for obj in scene.objects:
            if obj.label not in wanted:
                continue
            x0, y0, x1, y1 = self._jitter(obj, self.JITTER_FRAC, gen)
            score = gen.uniform(0.7, 1.0)
            out.append(Detection(x0, y0, x1, y1, score, obj.label))
            for _ in range(int(gen.integers(0, self.MAX_DUPLICATES + 1))):
                dx0, dy0, dx1, dy1 = self._jitter(obj, self.DUPLICATE_JITTER, gen)
                out.append(Detection(dx0, dy0, dx1, dy1, score * gen.uniform(0.4, 0.9), obj.label))
        return out


class FileDetector:
    """Serves detections ingested from box JSON files, filtered by tag list."""

    def __init__(self, path: str):
        self.sets = {s.image_id: s for s in load_box_file(path)}

    def detect(self, scene: SceneDescriptor, labels: list[str]) -> list[Detection]:
        entry = self.sets.get(scene.image_id)
        if entry is None:
            raise DataError(f"no detections on file for image {scene.image_id!r}")
        wanted = set(labels)
        return [d for d in entry.detections if d.label in wanted]


# -- the pipeline ----------------------------------------------------------------


@dataclass(frozen=True)
class BoxPipelineConfig:
    nms_iou: float = 0.5
    score_floor: float = 0.05
    max_boxes: int = 100
    class_aware: bool = True

    def __post_init__(self):
        if not 0.0 < self.nms_iou <= 1.0:
            raise ValueError(f"nms_iou must lie in (0, 1], got {self.nms_iou}")
        if self.max_boxes < 0:
            raise ValueError(f"max_boxes must be nonnegative, got {self.max_boxes}")


def generate_boxes(
    scene: SceneDescriptor,
    tags: TagSource,
    detector: Detector,
    cfg: BoxPipelineConfig = BoxPipelineConfig(),
) -> DetectionSet:
    """tag -> detect -> clip -> score filter -> NMS -> cap, score-descending."""
    labels = tags.tags_for(scene)
    if not labels:
        return DetectionSet(scene.image_id, [])
    proposals = detector.detect(scene, labels)
    clipped = [c for d in proposals if (c := d.clipped(scene.width, scene.height)) is not None]
    scored = [d for d in clipped if d.score >= cfg.score_floor]
    keep = nms_indices(scored, cfg.nms_iou, cfg.class_aware)
    survivors = [scored[i] for i in keep][: cfg.max_boxes]
    return DetectionSet(scene.image_id, survivors)


def box_stats(corpus: list[DetectionSet]) -> dict[str, int]:
    """Histogram of per-image box counts over the fixed reporting bins."""
    counts = {name: 0 for _, _, name in HISTOGRAM_BINS}
    for dets in corpus:
        k = len(dets)
        for lo, hi, name in HISTOGRAM_BINS:
            if k >= lo and (hi is None or k <= hi):
                counts[name] += 1
                break
    return counts


# -- file I/O --------------------------------------------------------------------


def load_box_file(path: str) -> list[DetectionSet]:
    """Load one box JSON file: a single set or a list of sets."""
    obj = load_json(path)
    entries = obj if isinstance(obj, list) else [obj]
    return [DetectionSet.from_dict(e) for e in entries]


def save_box_file(sets: list[DetectionSet], path: str) -> None:
    payload = [s.to_dict() for s in sets]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload[0] if len(payload) == 1 else payload, fh, indent=2)
