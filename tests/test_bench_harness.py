"""What the benchmark tracer in ``perfbench/spans.py`` relies on: every module
and class attribute it wraps still exists, its hooks read a real pyramid, and
``restore`` leaves the program as it found it."""

import importlib.util
from pathlib import Path

from visionflow import pipeline, roi
from visionflow.config import RunConfig
from visionflow.encoders import generate_scene

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_wrap_target_and_restores_them():
    spans = load_spans()
    cfg = RunConfig(seed=0)
    comp = pipeline.build_components(cfg)
    scene = generate_scene(0, n_objects=3)
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        assert tracer.missing_targets == []
        with tracer.item("request"):
            traced = pipeline.run_image(cfg, scene, [1, 2, 3], answer_ids=[4, 5], components=comp)
    finally:
        tracer.restore()
    assert tracer.violations == []
    names = {span[0] for span in tracer.items[0].spans}
    assert {"pipeline.run_image", "roi.build_pyramid", "roi.extract_object_features"} <= names
    assert tracer.items[0].counts["roi.boxes_pooled"] == [3.0]
    assert pipeline.build_pyramid is roi.build_pyramid
    untraced = pipeline.run_image(cfg, scene, [1, 2, 3], answer_ids=[4, 5], components=comp)
    assert traced["result_hash"] == untraced["result_hash"]


def test_cells_read_ratio_reads_a_real_pyramid():
    spans = load_spans()
    cfg = RunConfig(seed=0)
    _, _, _, dets, pyramid = pipeline.encode_frame(pipeline.build_components(cfg),
                                                   generate_scene(0, n_objects=3))
    assert len(dets) == 3
    assert 0.0 < spans._cells_read_ratio(pyramid, dets, cfg.roi) < 1.0
