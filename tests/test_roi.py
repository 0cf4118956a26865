"""Pyramid assembly and box feature extraction: upsample oracle, sampling
oracle, constant/convexity properties, and ordering."""

import numpy as np
import pytest

from visionflow import rng, sampling
from visionflow.boxes import Detection, DetectionSet
from visionflow.roi import DegenerateBoxError, RoiConfig, build_pyramid, extract_object_features
from visionflow.verify import naive_bilinear, naive_roi_align, per_box_roi_align


def random_stages(gen, extent=64, widths=(2, 3, 4, 5)):
    return [gen.normal(size=(extent // s, extent // s, c)) for s, c in zip((4, 8, 16, 32), widths)]


def test_single_stage_pyramid_is_identity():
    gen = rng.stream(0, "test.pyr.single")
    stage = gen.normal(size=(8, 8, 3))
    pyr = build_pyramid([stage])
    np.testing.assert_array_equal(pyr.grid, stage)
    assert (pyr.image_height, pyr.image_width) == (32, 32)


def test_constant_stages_give_constant_pyramid():
    stages = [np.full((32 // s, 32 // s, c), 1.5) for s, c in zip((4, 8, 16, 32), (2, 3, 4, 5))]
    pyr = build_pyramid(stages)
    assert pyr.grid.shape == (8, 8, 14)  # channels sum across stages
    np.testing.assert_allclose(pyr.grid, 1.5)


def test_pyramid_matches_naive_bilinear_oracle():
    gen = rng.stream(1, "test.pyr.oracle")
    stages = random_stages(gen)
    pyr = build_pyramid(stages)
    out_side = 16
    offset = 0
    for stage in stages:
        h, c = stage.shape[0], stage.shape[2]
        for i in range(out_side):
            for j in range(out_side):
                y = (i + 0.5) * h / out_side
                x = (j + 0.5) * h / out_side
                want = naive_bilinear(stage, y, x)
                got = pyr.grid[i, j, offset: offset + c]
                np.testing.assert_allclose(got, want, atol=1e-12)
        offset += c


def test_sample_grid_reads_cell_centers_exactly():
    grid = np.arange(12.0).reshape(3, 4, 1)
    pts = np.array([[0.5, 0.5], [2.5, 3.5], [1.5, 2.5]])
    np.testing.assert_array_equal(sampling.sample_grid(grid, pts).ravel(), [0.0, 11.0, 6.0])


def constant_pyramid(value, side=8, channels=3):
    return build_pyramid([np.full((side, side, channels), float(value))])


def pooled_row(pyr, det, cfg=RoiConfig()):
    """The product read of one box: its row of ``extract_object_features``."""
    return extract_object_features(pyr, DetectionSet("img", [det]), cfg)[0]


def test_roi_align_constant_map():
    pyr = constant_pyramid(2.25)
    out = pooled_row(pyr, Detection(3.0, 5.0, 27.0, 30.0, 0.9, "x"), RoiConfig(bins=(7, 7), samples_per_bin=2))
    assert out.shape == (3,)
    np.testing.assert_allclose(out, 2.25, atol=1e-12)


def test_roi_align_single_cell_center_sample():
    gen = rng.stream(3, "test.roi.cell")
    grid = gen.normal(size=(6, 6, 2))
    pyr = build_pyramid([grid])
    # box covering exactly cell (2, 4): pixels [16, 20) x [8, 12)
    det = Detection(16.0, 8.0, 20.0, 12.0, 0.9, "x")
    out = pooled_row(pyr, det, RoiConfig(bins=(1, 1), samples_per_bin=1))
    np.testing.assert_allclose(out, grid[2, 4], atol=1e-12)


@pytest.mark.parametrize("pair", range(25))
def test_roi_align_matches_naive_sampler(pair):
    gen = rng.stream(pair, "test.roi.oracle")
    h, w = int(gen.integers(4, 12)), int(gen.integers(4, 12))
    grid = gen.normal(size=(h, w, int(gen.integers(1, 5))))
    pyr = build_pyramid([grid])
    x0 = float(gen.uniform(0, w * 2)); y0 = float(gen.uniform(0, h * 2))
    x1 = float(min(x0 + gen.uniform(1, w * 2), w * 4))
    y1 = float(min(y0 + gen.uniform(1, h * 2), h * 4))
    bins = (int(gen.integers(1, 5)), int(gen.integers(1, 5)))
    s = int(gen.integers(1, 4))
    det, cfg = Detection(x0, y0, x1, y1, 0.9, "x"), RoiConfig(bins=bins, samples_per_bin=s)
    want = naive_roi_align(grid, (x0 / 4, y0 / 4, x1 / 4, y1 / 4), bins, s)
    np.testing.assert_allclose(per_box_roi_align(pyr, det, cfg), want, atol=1e-9)
    np.testing.assert_allclose(pooled_row(pyr, det, cfg), want.mean(axis=(0, 1)), atol=1e-9)


def test_roi_align_clips_but_never_rejects_partial_boxes():
    pyr = constant_pyramid(1.0)
    out = pooled_row(pyr, Detection(-10.0, -10.0, 5.0, 5.0, 0.9, "x"))
    np.testing.assert_allclose(out, 1.0)


def test_roi_align_degenerate_box_error():
    pyr = constant_pyramid(1.0, side=8)  # image is 32x32
    fully_outside = Detection(40.0, 40.0, 50.0, 50.0, 0.9, "x")
    with pytest.raises(DegenerateBoxError):
        pooled_row(pyr, fully_outside)


def test_extract_empty_detection_set():
    pyr = constant_pyramid(1.0)
    out = extract_object_features(pyr, DetectionSet("img", []))
    assert out.shape == (0, 3)


def test_extract_full_image_box_on_constant_pyramid():
    pyr = constant_pyramid(3.5)
    dets = DetectionSet("img", [Detection(0.0, 0.0, 32.0, 32.0, 0.9, "x")])
    out = extract_object_features(pyr, dets)
    assert out.shape == (1, 3)
    np.testing.assert_allclose(out, 3.5, atol=1e-12)


def test_extract_rows_match_per_box_oracle_and_order():
    gen = rng.stream(4, "test.roi.rows")
    grid = gen.normal(size=(10, 10, 4))
    pyr = build_pyramid([grid])
    dets = []
    for _ in range(5):
        x0 = float(gen.uniform(0, 20)); y0 = float(gen.uniform(0, 20))
        dets.append(Detection(x0, y0, x0 + float(gen.uniform(2, 18)),
                              y0 + float(gen.uniform(2, 18)), 0.9, "x"))
    cfg = RoiConfig(bins=(3, 3), samples_per_bin=2)
    out = extract_object_features(pyr, DetectionSet("img", dets), cfg)
    for i, det in enumerate(dets):
        x0, y0 = max(det.x0, 0) / 4, max(det.y0, 0) / 4
        x1, y1 = min(det.x1, 40) / 4, min(det.y1, 40) / 4
        want = naive_roi_align(grid, (x0, y0, x1, y1), (3, 3), 2).mean(axis=(0, 1))
        np.testing.assert_allclose(out[i], want, atol=1e-9)


def test_extract_degenerate_box_reports_index():
    pyr = constant_pyramid(1.0, side=8)
    dets = DetectionSet("img", [
        Detection(0.0, 0.0, 8.0, 8.0, 0.9, "x"),
        Detection(40.0, 40.0, 50.0, 50.0, 0.8, "x"),
    ])
    with pytest.raises(DegenerateBoxError, match=r"box 1"):
        extract_object_features(pyr, dets)


def test_translation_consistency_on_tiled_pyramid():
    # over a periodic pyramid, shifting a box by a whole period (four cells,
    # 16 pixels) reads the same values, leaving the pooled row unchanged
    gen = rng.stream(5, "test.roi.shift")
    tile = gen.normal(size=(4, 4, 2))
    grid = np.tile(tile, (4, 4, 1))  # 16x16 grid, period 4 cells
    pyr = build_pyramid([grid])
    cfg = RoiConfig(bins=(2, 2), samples_per_bin=2)
    base = Detection(5.0, 9.0, 21.0, 25.0, 0.9, "x")
    moved = Detection(base.x0 + 16.0, base.y0 + 16.0, base.x1 + 16.0, base.y1 + 16.0, 0.9, "x")
    np.testing.assert_allclose(pooled_row(pyr, base, cfg), pooled_row(pyr, moved, cfg), atol=1e-12)


def test_pooled_features_respect_convex_bounds():
    gen = rng.stream(6, "test.roi.bounds")
    grid = gen.normal(size=(9, 9, 3))
    pyr = build_pyramid([grid])
    dets = DetectionSet("img", [Detection(2.0, 3.0, 30.0, 33.0, 0.9, "x")])
    out = extract_object_features(pyr, dets)
    assert np.all(out <= grid.max() + 1e-12)
    assert np.all(out >= grid.min() - 1e-12)


# -- separable inference read: the per-box reference and the naive sampler as oracles


def scene_pyramid(seed):
    from visionflow.config import RunConfig
    from visionflow.encoders import HighResEncoder, generate_scene, render_scene

    cfg = RunConfig(seed=seed)
    scene = generate_scene(seed, n_objects=3)
    stages = HighResEncoder(cfg.encoder, cfg.seed).encode(render_scene(scene))
    pyr = build_pyramid(stages, image_height=scene.height, image_width=scene.width)
    return pyr, scene, cfg


def per_box_rows(pyr, dets, cfg):
    return np.stack([per_box_roi_align(pyr, d, cfg).mean(axis=(0, 1)) for d in dets.detections])


def max_abs_diff(a, b):
    assert a.shape == b.shape
    return float(np.max(np.abs(a - b)))


def test_batched_features_equal_per_box_roi_align_on_a_scene():
    from visionflow.pipeline import scene_boxes

    pyr, scene, cfg = scene_pyramid(11)
    dets = scene_boxes(cfg, scene)
    assert len(dets) == 3
    got = extract_object_features(pyr, dets, cfg.roi)
    assert "grid" not in vars(pyr)  # the inference read never builds the dense grid
    assert max_abs_diff(got, per_box_rows(pyr, dets, cfg.roi)) < 1e-12


def test_non_square_scene_keeps_its_extent_and_batched_rows_equal_per_box():
    from visionflow.config import RunConfig
    from visionflow.encoders import generate_scene
    from visionflow.pipeline import build_components, encode_frame

    cfg = RunConfig(seed=3)
    scene = generate_scene(3, n_objects=4, height=200, width=320)
    _, _, batched, dets, pyr = encode_frame(build_components(cfg), scene)
    assert (pyr.image_height, pyr.image_width) == (200, 320)
    assert (pyr.height, pyr.width) == (cfg.encoder.high_res // 4, cfg.encoder.high_res // 4)
    assert len(dets) == 4
    assert max_abs_diff(batched, per_box_rows(pyr, dets, cfg.roi)) < 1e-12


def test_batched_features_equal_per_box_roi_align_on_100_overlapping_boxes():
    pyr, _, cfg = scene_pyramid(12)
    gen = rng.stream(12, "test.roi.crowd")
    dets = []
    for _ in range(100):
        x0, y0 = (float(v) for v in gen.uniform(-20.0, 200.0, size=2))
        w, h = (float(v) for v in gen.uniform(4.0, 120.0, size=2))
        dets.append(Detection(x0, y0, x0 + w, y0 + h, 0.5, "x"))
    dets = DetectionSet("img", dets)
    got = extract_object_features(pyr, dets, cfg.roi)
    assert "grid" not in vars(pyr)
    assert got.shape == (100, 104)
    assert max_abs_diff(got, per_box_rows(pyr, dets, cfg.roi)) < 1e-12


def test_batched_read_of_no_boxes_keeps_channel_width():
    pyr, _, cfg = scene_pyramid(13)
    out = extract_object_features(pyr, DetectionSet("img", []), cfg.roi)
    assert out.shape == (0, 104)
    assert "grid" not in vars(pyr)


def test_batched_read_reports_the_degenerate_box_index():
    pyr, _, cfg = scene_pyramid(14)
    dets = DetectionSet("img", [
        Detection(10.0, 10.0, 60.0, 70.0, 0.9, "x"),
        Detection(30.0, 5.0, 90.0, 40.0, 0.8, "x"),
        Detection(300.0, 300.0, 320.0, 310.0, 0.7, "x"),  # outside the 256px image
    ])
    with pytest.raises(DegenerateBoxError, match=r"box 2") as info:
        extract_object_features(pyr, dets, cfg.roi)
    assert info.value.box_index == 2
    assert "grid" not in vars(pyr)


def test_separable_read_matches_naive_sampler_on_a_non_square_multi_stage_pyramid():
    # stage extents that are not multiples of one another, a scene frame that
    # is not 4x the grid, and boxes past the clamped edge or under one cell wide
    gen = rng.stream(15, "test.roi.separable")
    stages = [gen.normal(size=shape) for shape in ((11, 17, 2), (6, 9, 3), (4, 5, 1), (1, 3, 2))]
    pyr = build_pyramid(stages, image_height=50, image_width=90)
    dets = [Detection(-12.0, -7.0, 40.0, 30.0, 0.9, "x"), Detection(70.0, 20.0, 130.0, 80.0, 0.9, "x"),
            Detection(33.3, 10.2, 35.1, 48.9, 0.9, "x"), Detection(5.0, 44.0, 89.0, 49.5, 0.9, "x")]
    cfg = RoiConfig(bins=(3, 2), samples_per_bin=3)
    got = extract_object_features(pyr, DetectionSet("img", dets), cfg)
    sy, sx = 11 / 50, 17 / 90
    for row, d in zip(got, dets):
        box = (max(d.x0, 0) * sx, max(d.y0, 0) * sy, min(d.x1, 90) * sx, min(d.y1, 50) * sy)
        want = naive_roi_align(pyr.grid, box, cfg.bins, cfg.samples_per_bin).mean(axis=(0, 1))
        assert max_abs_diff(row, want) < 1e-12
