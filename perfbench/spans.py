"""Outside-in span tracer for the benchmark's traced runs.

The program has no spans of its own yet, so the tracer replaces the module
and class attributes that callers resolve at call time (for example
``visionflow.pipeline.build_pyramid``, which ``encode_frame`` looks up in its
module globals) with timing wrappers. Nothing under ``src/`` changes, and
``restore`` puts every original back.

Spans are kept in memory per traced item (one request, one training call or
one prepared sample). A span records its name, its parent's name, its
duration and its self time (duration minus its direct children). Bookkeeping
done inside the tracer, such as counting tape nodes, runs under ``untimed``
and is subtracted from every span open at the time, so it lands in the
tracing overhead and not in a layer.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager

import numpy as np


class _Open:
    __slots__ = ("name", "start", "excluded", "child_s")

    def __init__(self, name: str):
        self.name = name
        self.start = time.perf_counter()
        self.excluded = 0.0
        self.child_s = 0.0


class Item:
    """Spans and counters of one traced unit of work."""

    def __init__(self, phase: str, divisor: int = 1):
        self.phase = phase
        self.divisor = divisor  # per-step figures on training calls
        self.spans: list[tuple[str, str | None, float, float]] = []  # name, parent, dur_s, self_s
        self.counts: dict[str, list[float]] = {}


class Tracer:
    def __init__(self):
        self.items: list[Item] = []
        self.missing_targets: list[str] = []
        self.violations: list[str] = []
        self._item: Item | None = None
        self._stack: list[_Open] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- items and counters ------------------------------------------------

    @contextmanager
    def item(self, phase: str, divisor: int = 1):
        self._item = Item(phase, divisor)
        try:
            yield self._item
        finally:
            self.items.append(self._item)
            self._item = None
            self._stack.clear()

    def count(self, name: str, value: float) -> None:
        if self._item is not None:
            self._item.counts.setdefault(name, []).append(float(value))

    @property
    def parent_name(self) -> str | None:
        return self._stack[-1].name if self._stack else None

    @contextmanager
    def untimed(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            for s in self._stack:
                s.excluded += dt

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr: str, span: str | None, hook=None) -> None:
        """Replace ``owner.attr`` with a wrapper timing it as ``span``.

        ``span=None`` only runs ``hook(tracer, args, kwargs, result)``, which
        always runs untimed. A missing attribute is recorded by name.
        """
        original = owner.__dict__.get(attr)
        if original is None:
            self.missing_targets.append(f"{owner.__name__}.{attr}")
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer._item is None:
                return original(*args, **kwargs)
            if span is None:
                result = original(*args, **kwargs)
            else:
                result = tracer._timed(span, original, args, kwargs)
            if hook is not None:
                with tracer.untimed():
                    hook(tracer, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def _timed(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        rec = _Open(name)
        self._stack.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - rec.start - rec.excluded
            if rec.child_s > dur + 1e-9:
                self.violations.append(f"{name}: children {rec.child_s:.6f}s > span {dur:.6f}s")
            if parent is not None:
                parent.child_s += dur
            self._item.spans.append((name, parent.name if parent else None, dur, dur - rec.child_s))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


# -- wrap targets -----------------------------------------------------------


def _cells_read_ratio(pyramid, dets, roi_cfg) -> float:
    """Distinct pyramid cells the RoI reads touch, over cells built."""
    from visionflow import roi, sampling

    gh, gw = pyramid.grid.shape[0], pyramid.grid.shape[1]
    touched = []
    for d in dets.detections:
        x0, y0, x1, y1 = roi._clip_box_to_grid(pyramid, d)
        pts = sampling.box_sample_points(x0, y0, x1, y1, tuple(roi_cfg.bins), roi_cfg.samples_per_bin)
        i0, i1, j0, j1, _ = sampling.corner_weights(gh, gw, pts)
        touched += [i0 * gw + j0, i0 * gw + j1, i1 * gw + j0, i1 * gw + j1]
    if not touched:
        return 0.0
    return np.unique(np.concatenate(touched)).size / float(gh * gw)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports."""
    from visionflow import assembly, boxes, encoders, pipeline, roi, sampling, tensor, training

    def on_resize(t, args, kwargs, result):
        t.count("sampling.resize.points", result.shape[0] * result.shape[1])

    def on_detect(t, args, kwargs, result):
        t.count("boxes.proposals", len(result))

    def on_generate_boxes(t, args, kwargs, result):
        t.count("boxes.kept", len(result))

    def on_roi(t, args, kwargs, result):
        pyramid, dets = args[0], args[1]
        roi_cfg = args[2] if len(args) > 2 else kwargs.get("cfg", roi.RoiConfig())
        t.count("roi.boxes_pooled", len(dets))
        t.count("roi.pyramid_mb", pyramid.grid.nbytes / 1e6)
        t.count("roi.cells_read_ratio", _cells_read_ratio(pyramid, dets, roi_cfg))

    def on_assemble(t, args, kwargs, result):
        t.count("assembly.sequence_tokens", len(result))

    def on_causal_hidden(t, args, kwargs, result):
        rows = args[0].shape[0]
        t.count("assembly.scores_mb", rows * rows * 8 / 1e6)

    def on_score(t, args, kwargs, result):
        t.count("tape.loss", len(result.linearize()))

    def on_logits(t, args, kwargs, result):
        if t.parent_name == "assembly.greedy_decode":
            t.count("tape.decode", len(result.linearize()))

    def on_decode(t, args, kwargs, result):
        t.count("assembly.decoded_tokens", len(result))

    def on_backward(t, args, kwargs, result):
        t.count("tape.step", len(args[0].linearize()))

    w = tracer.wrap
    w(pipeline, "run_image", "pipeline.run_image")
    w(pipeline, "run_video", "pipeline.run_video")
    w(pipeline, "prepare_sample", "pipeline.prepare_sample")
    w(pipeline, "render_scene", "encoders.render_scene")
    w(encoders.LowResEncoder, "encode", "encoders.LowResEncoder.encode")
    w(encoders.HighResEncoder, "encode", "encoders.HighResEncoder.encode")
    w(encoders, "resize_image", "encoders.resize_image")
    w(sampling, "resize", "sampling.resize", on_resize)
    w(pipeline, "build_pyramid", "roi.build_pyramid")
    w(pipeline, "extract_object_features", "roi.extract_object_features", on_roi)
    w(pipeline, "generate_boxes", "boxes.generate_boxes", on_generate_boxes)
    w(boxes, "nms_indices", "boxes.nms_indices")
    w(boxes, "load_box_file", "boxes.load_box_file")
    w(boxes.MockDetector, "detect", None, on_detect)
    w(boxes.FileDetector, "detect", None, on_detect)
    for caller in (pipeline, training):
        w(caller, "fuse", "fusion.fuse")
        w(caller, "assemble", "assembly.assemble", on_assemble)
        w(caller, "score_answer", "assembly.score_answer", on_score)
    w(pipeline, "assemble_video", "assembly.assemble", on_assemble)
    w(pipeline, "greedy_decode", "assembly.greedy_decode", on_decode)
    w(assembly.ProjectorParams, "apply", "assembly.ProjectorParams.apply")
    w(assembly, "causal_hidden", "assembly.causal_hidden", on_causal_hidden)
    w(assembly, "scorer_logits", None, on_logits)
    w(tensor.Tensor, "backward", "tensor.Tensor.backward", on_backward)
    w(training, "sample_loss", "training.sample_loss")
    w(training.Adam, "step", "training.Adam.step")
    w(training, "train_two_stage", "training.train_two_stage")


# -- per-layer metrics -------------------------------------------------------

# (metric, unit, how): "ms" sums span durations per item, "self" sums self
# times, "calls" counts spans, ("under", parent) sums spans with that parent,
# "sum"/"mean" fold a counter per item. Figures are per item, divided by the
# item's divisor (optimizer steps on a training call), then the median over
# the traced items that hold the span or counter.
LAYER_METRICS = (
    ("encoders.render_scene.ms", "ms", ("ms", "encoders.render_scene")),
    ("encoders.LowResEncoder.encode.self_ms", "ms", ("self", "encoders.LowResEncoder.encode")),
    ("encoders.HighResEncoder.encode.self_ms", "ms", ("self", "encoders.HighResEncoder.encode")),
    ("encoders.resize_image.ms", "ms", ("ms", "encoders.resize_image")),
    ("sampling.resize.ms", "ms", ("ms", "sampling.resize")),
    ("sampling.resize.under_encoders.ms", "ms", ("under", "sampling.resize", "encoders.resize_image")),
    ("sampling.resize.under_pyramid.ms", "ms", ("under", "sampling.resize", "roi.build_pyramid")),
    ("sampling.resize.points", "count", ("sum", "sampling.resize.points")),
    ("roi.build_pyramid.self_ms", "ms", ("self", "roi.build_pyramid")),
    ("roi.pyramid_mb", "MB", ("mean", "roi.pyramid_mb")),
    ("roi.cells_read_ratio", "ratio", ("mean", "roi.cells_read_ratio")),
    ("roi.extract_object_features.ms", "ms", ("ms", "roi.extract_object_features")),
    ("roi.boxes_pooled", "count", ("sum", "roi.boxes_pooled")),
    ("boxes.generate_boxes.ms", "ms", ("ms", "boxes.generate_boxes")),
    ("boxes.nms_indices.ms", "ms", ("ms", "boxes.nms_indices")),
    ("boxes.load_box_file.ms", "ms", ("ms", "boxes.load_box_file")),
    ("boxes.proposals", "count", ("sum", "boxes.proposals")),
    ("boxes.kept", "count", ("sum", "boxes.kept")),
    ("boxes.kept_ratio", "ratio", ("ratio", "boxes.kept", "boxes.proposals")),
    ("fusion.fuse.ms", "ms", ("ms", "fusion.fuse")),
    ("assembly.ProjectorParams.apply.ms", "ms", ("ms", "assembly.ProjectorParams.apply")),
    ("assembly.assemble.ms", "ms", ("ms", "assembly.assemble")),
    ("assembly.score_answer.ms", "ms", ("ms", "assembly.score_answer")),
    ("assembly.greedy_decode.ms", "ms", ("ms", "assembly.greedy_decode")),
    ("assembly.greedy_decode.ms_per_token", "ms", ("per", "assembly.greedy_decode", "assembly.decoded_tokens")),
    ("assembly.causal_hidden.calls", "count", ("calls", "assembly.causal_hidden")),
    ("assembly.causal_hidden.ms", "ms", ("ms", "assembly.causal_hidden")),
    ("assembly.sequence_tokens", "count", ("mean", "assembly.sequence_tokens")),
    ("assembly.scores_mb", "MB", ("max", "assembly.scores_mb")),
    ("tensor.tape_nodes", "count", ("tape",)),
    ("tensor.Tensor.backward.ms", "ms", ("ms", "tensor.Tensor.backward")),
    ("training.sample_loss.ms", "ms", ("ms", "training.sample_loss")),
    ("training.Adam.step.ms", "ms", ("ms", "training.Adam.step")),
    ("training.train_two_stage.ms", "ms", ("ms", "training.train_two_stage")),
    ("pipeline.prepare_sample.ms", "ms", ("ms", "pipeline.prepare_sample")),
    ("pipeline.run_image.ms", "ms", ("ms", "pipeline.run_image")),
    ("pipeline.run_video.ms", "ms", ("ms", "pipeline.run_video")),
    ("pipeline.other_ms", "ms", ("root_self",)),
)

# a traced item's tape: the training step's loss, else the scored loss,
# else the last decode step's logits
_TAPE_KEYS = ("tape.step", "tape.loss", "tape.decode")


def _item_value(item: Item, how: tuple) -> float | None:
    """One item's figure for a metric, or None when the item lacks it."""
    kind = how[0]
    per = float(item.divisor)
    if kind in ("ms", "self", "calls", "under"):
        sel = [s for s in item.spans if s[0] == how[1] and (kind != "under" or s[1] == how[2])]
        if not any(s[0] == how[1] for s in item.spans):
            return None
        if kind == "calls":
            return len(sel) / per
        col = 3 if kind == "self" else 2
        return sum(s[col] for s in sel) * 1e3 / per
    if kind == "root_self":
        roots = [s for s in item.spans if s[1] is None]
        return sum(s[3] for s in roots) * 1e3 / per if roots else None
    if kind == "tape":
        for key in _TAPE_KEYS:
            if key in item.counts:
                return item.counts[key][-1]
        return None
    if kind == "per":
        spans = [s[2] for s in item.spans if s[0] == how[1]]
        tokens = sum(item.counts.get(how[2], []))
        return sum(spans) * 1e3 / tokens if spans and tokens else None
    if kind == "ratio":
        num, den = item.counts.get(how[1]), item.counts.get(how[2])
        return sum(num) / sum(den) if num and den and sum(den) > 0 else None
    values = item.counts.get(how[1])
    if not values:
        return None
    if kind == "sum":
        return sum(values) / per
    if kind == "mean":
        return sum(values) / len(values)
    return max(values)


def layer_metrics(items: list[Item], expected: set[str]) -> tuple[dict[str, dict], list[str]]:
    """Per-layer metrics over traced items, and the expected ones missing.

    A layer a workload never calls reads 0. A layer the workload is expected
    to call but no traced item recorded is left out and named, so a renamed
    call site shows up instead of reading as free.
    """
    out: dict[str, dict] = {}
    missing: list[str] = []
    main = [it for it in items if it.phase == "request"]
    for name, unit, how in LAYER_METRICS:
        values = [v for it in items if (v := _item_value(it, how)) is not None]
        if how[0] == "root_self":
            values = [v for it in main if (v := _item_value(it, how)) is not None]
        if values:
            out[name] = {"value": statistics.median(values), "unit": unit}
        elif name in expected:
            missing.append(name)
        else:
            out[name] = {"value": 0.0, "unit": unit}
    return out, missing
