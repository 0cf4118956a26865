"""Synthetic encoders: token counts, stage strides, determinism, the derived
high-res side and width, the shared resize convention, and scene generation."""

import numpy as np
import pytest

from visionflow import rng, sampling
from visionflow.encoders import (
    EncoderConfig,
    HighResEncoder,
    LowResEncoder,
    ObjectSpec,
    SceneDescriptor,
    TextEmbedder,
    generate_scene,
    render_scene,
)


def small_cfg():
    return EncoderConfig(low_res=56, channels_low=6, stage_channels=(2, 3, 4, 8))


def zero_image(h=64, w=64):
    return np.zeros((h, w, 3))


def test_default_config_yields_576_tokens():
    cfg = EncoderConfig()
    assert cfg.num_tokens == 576
    assert cfg.low_res // cfg.stride_low == cfg.high_res // 32 == 24
    assert (cfg.high_res, cfg.channels_high) == (768, 48)


def test_encode_low_token_count_and_shape():
    cfg = EncoderConfig()
    tokens = LowResEncoder(cfg, 0).encode(zero_image(100, 100))
    assert tokens.shape == (576, cfg.channels_low)


def test_encode_low_zero_image_zero_bias_gives_zeros():
    enc = LowResEncoder(small_cfg(), 0)
    enc.bias[:] = 0.0
    np.testing.assert_array_equal(enc.encode(zero_image()), 0.0)


def test_encoders_are_pure_and_seeded():
    cfg = small_cfg()
    scene = generate_scene(11, n_objects=2)
    img = render_scene(scene)
    a = LowResEncoder(cfg, 3).encode(img)
    b = LowResEncoder(cfg, 3).encode(img)
    assert a.tobytes() == b.tobytes()
    other = LowResEncoder(cfg, 4).encode(img)
    assert a.tobytes() != other.tobytes()


def test_encode_high_stage_strides_and_extents():
    cfg = small_cfg()
    stages = HighResEncoder(cfg, 0).encode(zero_image())
    assert len(stages) == 4
    for stage, stride in zip(stages, (4, 8, 16, 32)):
        assert stage.shape[:2] == (cfg.high_res // stride, cfg.high_res // stride)
    assert stages[-1].shape[0] * stages[-1].shape[1] == cfg.num_tokens  # equality with the low branch


def test_encode_high_default_config_final_stage_24x24():
    cfg = EncoderConfig()  # 768 input, stride 32
    stages = HighResEncoder(cfg, 0).encode(zero_image(32, 32))
    assert stages[-1].shape[:2] == (24, 24)
    assert stages[-1].shape[0] * stages[-1].shape[1] == 576


def test_encode_high_zero_image_zero_biases():
    cfg = small_cfg()
    enc = HighResEncoder(cfg, 0)
    for b in enc.biases:
        b[:] = 0.0
    for stage in enc.encode(zero_image()):
        np.testing.assert_array_equal(stage, 0.0)


def test_high_stage_channels_follow_config():
    cfg = small_cfg()
    stages = HighResEncoder(cfg, 0).encode(zero_image())
    assert tuple(stage.shape[2] for stage in stages) == cfg.stage_channels
    assert stages[-1].shape[2] == cfg.channels_high


def test_config_rejects_indivisible_resolution():
    with pytest.raises(ValueError, match="not divisible"):
        EncoderConfig(low_res=100)


def test_embed_text_empty_and_lookup():
    emb = TextEmbedder(vocab_size=16, dim=8, seed=0)
    assert emb.embed([]).shape == (0, 8)
    rows = emb.embed([3, 3, 5])
    np.testing.assert_array_equal(rows[0], rows[1])
    with pytest.raises(ValueError, match="vocab"):
        emb.embed([16])


def test_embed_text_seed_changes_table():
    a = TextEmbedder(16, 8, seed=0).embed([0, 1, 2])
    b = TextEmbedder(16, 8, seed=1).embed([0, 1, 2])
    assert a.tobytes() != b.tobytes()


def test_resize_matches_naive_per_pixel_oracle():
    from visionflow.verify import naive_bilinear

    gen = rng.stream(0, "test.resize")
    src = gen.normal(size=(5, 7, 2))
    out = sampling.resize(src, 9, 4)
    for i in range(9):
        for j in range(4):
            y = (i + 0.5) * 5 / 9
            x = (j + 0.5) * 7 / 4
            np.testing.assert_allclose(out[i, j], naive_bilinear(src, y, x), atol=1e-12)


def test_resize_of_constant_is_constant():
    out = sampling.resize(np.full((6, 6, 3), 2.5), 11, 13)
    np.testing.assert_allclose(out, 2.5)


def test_scene_descriptor_roundtrip():
    scene = generate_scene(42, n_objects=3)
    back = SceneDescriptor.from_dict(scene.to_dict())
    assert back == scene
    assert back.image_id == "scene-00000042"


def test_scene_labels_distinct_and_render_in_range():
    scene = generate_scene(5, n_objects=4)
    labels = [o.label for o in scene.objects]
    assert len(set(labels)) == len(labels)
    img = render_scene(scene)
    assert img.shape == (scene.height, scene.width, 3)
    assert img.min() >= 0.0 and img.max() <= 1.0
    assert img.tobytes() == render_scene(scene).tobytes()


def test_render_draws_only_the_visible_part_of_an_object_past_the_edge():
    # the object overhangs the top-left corner and the right edge of a 16 x 16 image
    scene = SceneDescriptor(seed=3, height=16, width=16, objects=(ObjectSpec(-4.0, -6.0, 40.0, 5.0, "cat"),))
    img = render_scene(scene)
    assert img.shape == (16, 16, 3)
    background = render_scene(SceneDescriptor(seed=3, height=16, width=16))
    assert (img[:5] != background[:5]).all() and (img[5:] == background[5:]).all()
