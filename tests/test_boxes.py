"""Box pipeline: IoU, NMS vs the brute-force oracle, the cap, tag sources,
the mock detector, stats bins, and file ingestion."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visionflow import rng
from visionflow.boxes import (
    BoxPipelineConfig,
    Detection,
    DetectionSet,
    FileDetector,
    FixedTags,
    MockDetector,
    SyntheticTags,
    box_stats,
    generate_boxes,
    iou,
    load_box_file,
    make_tag_source,
    nms_indices,
    save_box_file,
)
from visionflow.encoders import generate_scene
from visionflow.verify import naive_nms, random_detections


def det(x0, y0, x1, y1, score=0.9, label="a"):
    return Detection(x0, y0, x1, y1, score, label)


def test_iou_self_is_one():
    a = det(0, 0, 4, 4)
    assert iou(a, a) == 1.0


def test_iou_disjoint_is_zero():
    assert iou(det(0, 0, 1, 1), det(5, 5, 6, 6)) == 0.0


def test_iou_hand_value_one_seventh():
    # intersection 1, union 4 + 4 - 1 = 7
    assert iou(det(0, 0, 2, 2), det(1, 1, 3, 3)) == pytest.approx(1.0 / 7.0)


def test_iou_symmetric():
    a, b = det(0, 0, 3, 2), det(1, 1, 5, 5)
    assert iou(a, b) == iou(b, a)


def test_nms_single_box_survives():
    keep = nms_indices([det(0, 0, 2, 2)], 0.5)
    assert keep == [0]


def test_nms_identical_boxes_keeps_higher_score():
    boxes = [det(0, 0, 2, 2, score=0.8), det(0, 0, 2, 2, score=0.9)]
    assert nms_indices(boxes, 0.5) == [1]


def test_nms_class_aware_spares_other_labels():
    boxes = [det(0, 0, 2, 2, 0.9, "cat"), det(0, 0, 2, 2, 0.8, "dog")]
    assert nms_indices(boxes, 0.5, class_aware=True) == [0, 1]
    assert nms_indices(boxes, 0.5, class_aware=False) == [0]


def test_nms_tie_break_is_deterministic():
    # equal scores: kept order follows x0, then y0, then input index
    boxes = [det(5, 0, 7, 2, 0.5), det(1, 0, 3, 2, 0.5), det(1, 0, 3, 2, 0.5)]
    assert nms_indices(boxes, 0.5) == [1, 0]


def test_nms_threshold_validation():
    with pytest.raises(ValueError, match="threshold"):
        nms_indices([det(0, 0, 1, 1)], 0.0)


@pytest.mark.parametrize("trial", range(40))
def test_nms_matches_bruteforce_oracle(trial):
    gen = rng.stream(trial, "test.nms.oracle")
    dets = random_detections(gen, int(gen.integers(1, 120)),
                             tie_fraction=0.5 if trial % 3 == 0 else 0.0)
    thr = float(gen.uniform(0.2, 0.8))
    aware = bool(gen.integers(0, 2))
    assert nms_indices(dets, thr, aware) == naive_nms(dets, thr, aware)


box_strategy = st.builds(
    lambda x0, y0, w, h, score, label: Detection(x0, y0, x0 + w, y0 + h, score, label),
    x0=st.floats(0, 50), y0=st.floats(0, 50),
    w=st.floats(0.5, 30), h=st.floats(0.5, 30),
    score=st.floats(0, 1), label=st.sampled_from(["a", "b"]),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(box_strategy, max_size=30), st.floats(0.1, 0.9), st.booleans())
def test_nms_survivors_are_suppression_free(boxes, thr, aware):
    keep = nms_indices(boxes, thr, aware)
    survivors = [boxes[i] for i in keep]
    for i, a in enumerate(survivors):
        for b in survivors[i + 1:]:
            if aware and a.label != b.label:
                continue
            assert iou(a, b) <= thr


@settings(max_examples=40, deadline=None)
@given(st.lists(box_strategy, max_size=30), st.floats(0.1, 0.9))
def test_nms_idempotent(boxes, thr):
    survivors = [boxes[i] for i in nms_indices(boxes, thr)]
    assert nms_indices(survivors, thr) == list(range(len(survivors)))


def test_generate_boxes_recovers_ground_truth():
    scene = generate_scene(3, n_objects=3)
    result = generate_boxes(scene, SyntheticTags(), MockDetector(seed=0))
    assert len(result) == 3
    for obj in scene.objects:
        truth = Detection(obj.x0, obj.y0, obj.x1, obj.y1, 1.0, obj.label)
        best = max(iou(truth, d) for d in result.detections)
        assert best >= 0.99
    scores = [d.score for d in result.detections]
    assert scores == sorted(scores, reverse=True)


def test_generate_boxes_empty_tags_gives_empty_set():
    scene = generate_scene(3, n_objects=2)

    class NoTags:
        def tags_for(self, scene):
            return []

    result = generate_boxes(scene, NoTags(), MockDetector())
    assert len(result) == 0


def test_generate_boxes_cap_keeps_top_scores():
    scene = generate_scene(1, n_objects=1)

    class ManyBoxes:
        def detect(self, scene, labels):
            out = []
            for i in range(150):  # disjoint 1x1 boxes, no NMS suppression
                x = (i % 16) * 2.0
                y = (i // 16) * 2.0
                out.append(Detection(x, y, x + 1.0, y + 1.0, (i + 1) / 150.0, "person"))
            return out

    cfg = BoxPipelineConfig(max_boxes=100)
    result = generate_boxes(scene, FixedTags(["person"]), ManyBoxes(), cfg)
    assert len(result) == 100
    # exactly the 100 highest scores survive
    assert min(d.score for d in result.detections) == pytest.approx(51 / 150.0)


def test_generate_boxes_restricted_tags_drop_objects():
    # scenes mix detector-vocabulary labels with novel ones; COCO-80 tags
    # cannot cover the novel objects
    dropped = 0
    for seed in range(12):
        scene = generate_scene(seed, n_objects=4)
        full = generate_boxes(scene, SyntheticTags(), MockDetector(seed=1))
        coco = generate_boxes(scene, FixedTags(), MockDetector(seed=1))
        assert len(coco) <= len(full)
        dropped += len(full) - len(coco)
    assert dropped > 0


def test_generate_boxes_lets_a_detector_error_through_unchanged():
    failure = RuntimeError("socket closed")

    class Broken:
        def detect(self, scene, labels):
            raise failure

    with pytest.raises(RuntimeError) as err:
        generate_boxes(generate_scene(0, n_objects=1), SyntheticTags(), Broken())
    assert err.value is failure


def test_box_stats_bins():
    def fake(k):
        return DetectionSet("x", [det(i * 2.0, 0, i * 2.0 + 1, 1, 0.5) for i in range(k)])

    assert box_stats([fake(0)] * 3) == {"0": 3, "1-10": 0, "11-20": 0, "21-30": 0, "31-50": 0, ">50": 0}
    assert box_stats([fake(7)])["1-10"] == 1
    hist = box_stats([fake(0), fake(1), fake(10), fake(11), fake(20), fake(21),
                      fake(30), fake(31), fake(50), fake(51), fake(60)])
    assert hist == {"0": 1, "1-10": 2, "11-20": 2, "21-30": 2, "31-50": 2, ">50": 2}


def test_box_stats_matches_independent_recount():
    gen = rng.stream(0, "test.stats")
    corpus = []
    for _ in range(100):
        k = int(gen.integers(0, 80))
        dets = [det(i * 2.0, 0.0, i * 2.0 + 1.0, 1.0, 0.5) for i in range(k)]
        corpus.append(DetectionSet("img", dets))
    hist = box_stats(corpus)
    # independent recount with plain comparisons
    recount = {"0": 0, "1-10": 0, "11-20": 0, "21-30": 0, "31-50": 0, ">50": 0}
    for ds in corpus:
        k = len(ds.detections)
        if k == 0:
            recount["0"] += 1
        elif k <= 10:
            recount["1-10"] += 1
        elif k <= 20:
            recount["11-20"] += 1
        elif k <= 30:
            recount["21-30"] += 1
        elif k <= 50:
            recount["31-50"] += 1
        else:
            recount[">50"] += 1
    assert hist == recount


def test_box_file_roundtrip_and_file_detector(tmp_path):
    scene = generate_scene(9, n_objects=2)
    original = generate_boxes(scene, SyntheticTags(), MockDetector(seed=0))
    path = tmp_path / "boxes.json"
    save_box_file([original], str(path))
    loaded = load_box_file(str(path))
    assert len(loaded) == 1 and loaded[0].image_id == scene.image_id
    assert [d.to_dict() for d in loaded[0].detections] == [d.to_dict() for d in original.detections]

    detector = FileDetector(str(path))
    via_file = generate_boxes(scene, SyntheticTags(), detector)
    assert len(via_file) == len(original)


def test_make_tag_source_variants(tmp_path):
    assert isinstance(make_tag_source("synthetic"), SyntheticTags)
    assert isinstance(make_tag_source("coco80"), FixedTags)
    tag_file = tmp_path / "tags.json"
    tag_file.write_text(json.dumps({"tags": ["cat", "cat", " ", "dog"]}))
    src = make_tag_source(f"file:{tag_file}")
    assert src.tags_for(generate_scene(0, n_objects=1)) == ["cat", "dog"]
    with pytest.raises(ValueError, match="unknown tag source"):
        make_tag_source("ram")


def test_detection_validation():
    with pytest.raises(ValueError, match="degenerate"):
        Detection(2, 0, 2, 2, 0.5, "a")
    with pytest.raises(ValueError, match="score"):
        Detection(0, 0, 2, 2, 1.5, "a")
    clipped = Detection(-5, -5, 3, 3, 0.5, "a").clipped(10, 10)
    assert (clipped.x0, clipped.y0) == (0, 0)
    assert Detection(-5, -5, -1, -1, 0.5, "a").clipped(10, 10) is None
