"""End-to-end orchestration: tag -> detect -> NMS -> encode -> fuse -> RoI ->
assemble -> score or decode, for images and frame-sampled videos.

Reports carry a hash over their deterministic content; wall-clock timings are
reported alongside but excluded from the hash so reruns compare bit-equal.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .assembly import (
    SEGMENT_FUSED,
    SEGMENT_OBJECT,
    SEGMENT_TEXT,
    TokenSequence,
    assemble,
    assemble_video,
    greedy_decode,
    score_answer,
)
from .boxes import DetectionSet, FileDetector, MockDetector, generate_boxes, make_tag_source
from .config import RunConfig
from .encoders import (
    HighResEncoder,
    LowResEncoder,
    SceneDescriptor,
    TextEmbedder,
    render_scene,
)
from .fusion import fuse
from .roi import build_pyramid, extract_object_features
from .tensor import Tensor
from .training import ModelParams, PreparedSample


@dataclass
class Components:
    """Frozen encoders plus trainable model parameters for one config."""

    cfg: RunConfig
    low_encoder: LowResEncoder
    high_encoder: HighResEncoder
    text_embedder: TextEmbedder
    model: ModelParams


def build_components(cfg: RunConfig, model: ModelParams | None = None) -> Components:
    if model is None:
        model = ModelParams.build(cfg.fusion, cfg.assembly, cfg.object_channels, cfg.seed)
    return Components(
        cfg=cfg,
        low_encoder=LowResEncoder(cfg.encoder, cfg.seed),
        high_encoder=HighResEncoder(cfg.encoder, cfg.seed),
        text_embedder=TextEmbedder(cfg.assembly.vocab_size, cfg.assembly.model_dim, cfg.seed),
        model=model,
    )


def scene_boxes(cfg: RunConfig, scene: SceneDescriptor, boxes_file: str | None = None) -> DetectionSet:
    tags = make_tag_source(cfg.tags)
    detector = FileDetector(boxes_file) if boxes_file else MockDetector(cfg.seed)
    return generate_boxes(scene, tags, detector, cfg.boxes)


def encode_frame(comp: Components, scene: SceneDescriptor, boxes_file: str | None = None):
    """Run the frozen side for one frame: features, pooled boxes, detections, pyramid."""
    img = render_scene(scene)
    dets = scene_boxes(comp.cfg, scene, boxes_file)
    e_low = comp.low_encoder.encode(img)
    stages = comp.high_encoder.encode(img)
    e_high = stages[-1].reshape(-1, stages[-1].shape[2])
    pyramid = build_pyramid(stages, image_height=scene.height, image_width=scene.width)
    e_objects = extract_object_features(pyramid, dets, comp.cfg.roi)
    return e_low, e_high, e_objects, dets, pyramid


def prepare_sample(comp: Components, scene: SceneDescriptor, text_ids: list[int],
                   answer_ids: list[int]) -> PreparedSample:
    e_low, e_high, e_objects, _, _ = encode_frame(comp, scene)
    return PreparedSample(
        e_low=e_low,
        e_high=e_high,
        e_objects=e_objects,
        text_emb=comp.text_embedder.embed(text_ids),
        answer_ids=list(answer_ids),
    )


def _frame_streams(comp: Components, scene: SceneDescriptor, boxes_file: str | None):
    # drop the pyramid before fusion: holding it raised image peak RSS by
    # ~2 MB and latency by ~5% (2-vCPU host, 1 BLAS thread)
    e_low, e_high, e_objects, dets = encode_frame(comp, scene, boxes_file)[:4]
    fused = fuse(Tensor(e_low), Tensor(e_high), comp.model.fusion)
    proj_fused = comp.model.proj_f.apply(fused)
    proj_objects = comp.model.proj_b.apply(Tensor(e_objects))
    return proj_fused, proj_objects, dets


def uniform_frame_indices(total: int, wanted: int) -> list[int]:
    """Uniformly spaced frame picks (midpoint rule), deterministic."""
    if total <= wanted:
        return list(range(total))
    return [int((i + 0.5) * total / wanted) for i in range(wanted)]


def _result_hash(result: dict) -> str:
    payload = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def run_image(cfg: RunConfig, scene: SceneDescriptor, text_ids: list[int],
              answer_ids: list[int] | None = None, decode: int = 0,
              components: Components | None = None, boxes_file: str | None = None) -> dict:
    """Single-image inference report."""
    comp = components or build_components(cfg)
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    proj_fused, proj_objects, dets = _frame_streams(comp, scene, boxes_file)
    timings["encode_and_boxes"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    text_emb = Tensor(comp.text_embedder.embed(text_ids))
    seq = assemble(proj_fused, proj_objects, text_emb,
                   merge=cfg.assembly.merge, merge_params=comp.model.merge,
                   text_first=cfg.assembly.text_first)
    timings["assemble"] = time.perf_counter() - t0
    return _finish_report(cfg, comp, seq, [dets], text_ids, answer_ids, decode,
                          timings, input_id=scene.image_id, mode="image")


def run_video(cfg: RunConfig, frames: list[SceneDescriptor], text_ids: list[int],
              answer_ids: list[int] | None = None, decode: int = 0,
              components: Components | None = None, threads: int = 1) -> dict:
    """Video inference: uniform frame sampling, per-frame blocks, shared text.

    With ``threads > 1`` frames are encoded concurrently (the encoders are
    pure) and gathered back in frame order, so the output is unchanged.
    """
    comp = components or build_components(cfg)
    picks = uniform_frame_indices(len(frames), cfg.video_frames)
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda i: _frame_streams(comp, frames[i], None), picks))
    else:
        results = [_frame_streams(comp, frames[i], None) for i in picks]
    streams = [(fused, objects) for fused, objects, _ in results]
    det_sets = [dets for _, _, dets in results]
    timings["encode_and_boxes"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    text_emb = Tensor(comp.text_embedder.embed(text_ids))
    seq = assemble_video(streams, text_emb, merge=cfg.assembly.merge,
                         merge_params=comp.model.merge, text_first=cfg.assembly.text_first)
    timings["assemble"] = time.perf_counter() - t0
    return _finish_report(cfg, comp, seq, det_sets, text_ids, answer_ids, decode,
                          timings, input_id=f"video-{len(picks)}f", mode="video")


def _finish_report(cfg: RunConfig, comp: Components, seq: TokenSequence,
                   det_sets: list[DetectionSet], text_ids, answer_ids, decode,
                   timings, input_id: str, mode: str) -> dict:
    counts = seq.segment_counts()
    result = {
        "command": "infer",
        "mode": mode,
        "input": input_id,
        "config_hash": cfg.config_hash(),
        "frames": len(det_sets),
        "k_per_frame": [len(d) for d in det_sets],
        "k": sum(len(d) for d in det_sets),
        "segments": {
            SEGMENT_FUSED: counts.get(SEGMENT_FUSED, 0),
            SEGMENT_OBJECT: counts.get(SEGMENT_OBJECT, 0),
            SEGMENT_TEXT: counts.get(SEGMENT_TEXT, 0),
        },
        "sequence_length": len(seq),
        "text_len": len(text_ids),
        "degenerate_object_path": all(len(d) == 0 for d in det_sets),
        "nll": None,
        "decoded_ids": None,
    }
    t0 = time.perf_counter()
    if answer_ids:
        result["nll"] = score_answer(seq, [list(answer_ids)], comp.model.scorer).item()
    elif decode > 0:
        result["decoded_ids"] = greedy_decode(seq, comp.model.scorer, decode)
    timings["score"] = time.perf_counter() - t0
    report = dict(result)
    report["result_hash"] = _result_hash(result)
    report["timings_ms"] = {k: round(v * 1e3, 3) for k, v in timings.items()}
    return report
