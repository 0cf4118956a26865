"""Two-stage training: freeze soundness, determinism, convergence on a tiny
set, and checkpoint round-trips."""

import json
import re

import numpy as np
import pytest

from visionflow import rng
from visionflow.assembly import MergeMethod
from visionflow.datagen import generate_dataset, load_dataset, save_dataset, small_training_config
from visionflow.encoders import DataError
from visionflow.pipeline import build_components, prepare_sample
from visionflow.training import (
    Adam,
    FreezeMask,
    ModelParams,
    PreparedSample,
    TrainConfig,
    checkpoint_hash,
    curve_to_csv,
    load_checkpoint_state,
    mean_dataset_nll,
    restore_model,
    sample_loss,
    save_checkpoint,
    train_two_stage,
)
from visionflow.verify import tiny_config


def make_dataset(cfg, n=6, k=2, seed=0):
    gen = rng.stream(seed, "test.training.data")
    samples = []
    for _ in range(n):
        samples.append(PreparedSample(
            e_low=gen.normal(size=(cfg.encoder.num_tokens, cfg.encoder.channels_low)),
            e_high=gen.normal(size=(cfg.encoder.num_tokens, cfg.encoder.channels_high)),
            e_objects=gen.normal(size=(k, cfg.object_channels)),
            text_emb=gen.normal(size=(3, cfg.assembly.model_dim)),
            answer_ids=[int(v) for v in gen.integers(0, cfg.assembly.vocab_size, size=3)],
        ))
    return samples


def fresh_model(cfg):
    return ModelParams.build(cfg.fusion, cfg.assembly, cfg.object_channels, cfg.seed)


def test_freeze_mask_stage_definitions():
    cfg = tiny_config(merge="b_to_f_xattn")
    model = fresh_model(cfg)
    pre = FreezeMask.for_stage("pretrain", model)
    assert pre.trainable == frozenset({"fusion", "proj_F", "proj_B"})
    fin = FreezeMask.for_stage("finetune", model)
    assert fin.trainable == frozenset({"fusion", "proj_F", "proj_B", "merge", "scorer"})
    with pytest.raises(ValueError, match="unknown stage"):
        FreezeMask.for_stage("warmup", model)


def test_stage1_keeps_frozen_groups_bitwise_identical():
    cfg = tiny_config(merge="b_to_f_xattn")
    model = fresh_model(cfg)
    data = make_dataset(cfg)
    before = {g: model.group_bytes(g) for g in model.groups()}
    train_two_stage(model, data, TrainConfig(stage1_steps=25, stage2_steps=0, batch_size=3),
                    merge=cfg.assembly.merge)
    assert model.group_bytes("scorer") == before["scorer"]
    assert model.group_bytes("merge") == before["merge"]
    assert model.group_bytes("encoders") == before["encoders"] == b""
    for group in ("fusion", "proj_F", "proj_B"):
        assert model.group_bytes(group) != before[group]


def test_stage2_trains_everything_but_encoders():
    cfg = tiny_config(merge="b_to_f_xattn")
    model = fresh_model(cfg)
    data = make_dataset(cfg)
    before = {g: model.group_bytes(g) for g in model.groups()}
    train_two_stage(model, data, TrainConfig(stage1_steps=0, stage2_steps=25, batch_size=3),
                    merge=cfg.assembly.merge)
    for group in ("fusion", "proj_F", "proj_B", "merge", "scorer"):
        assert model.group_bytes(group) != before[group]


def test_training_reduces_loss_on_tiny_set():
    cfg = tiny_config()
    model = fresh_model(cfg)
    data = make_dataset(cfg, n=4)
    initial = mean_dataset_nll(model, data, MergeMethod.CONCAT)
    curve = train_two_stage(model, data, TrainConfig(stage1_steps=40, stage2_steps=80, batch_size=4))
    final = mean_dataset_nll(model, data, MergeMethod.CONCAT)
    assert final < 0.5 * initial
    assert len(curve) == 120
    assert [p.stage for p in curve[:40]] == ["pretrain"] * 40
    assert [p.stage for p in curve[40:]] == ["finetune"] * 80


def test_training_is_bit_deterministic():
    cfg = tiny_config()

    def run():
        model = fresh_model(cfg)
        data = make_dataset(cfg, n=4)
        curve = train_two_stage(model, data, TrainConfig(stage1_steps=5, stage2_steps=5, batch_size=2))
        blob = b"".join(model.group_bytes(g) for g in sorted(model.groups()))
        return blob, [p.loss for p in curve]

    blob_a, losses_a = run()
    blob_b, losses_b = run()
    assert blob_a == blob_b
    assert losses_a == losses_b


def test_empty_dataset_rejected():
    cfg = tiny_config()
    with pytest.raises(ValueError, match="empty dataset"):
        train_two_stage(fresh_model(cfg), [], TrainConfig())


@pytest.mark.parametrize("key, value", [
    ("text_ids", "123"),
    ("answer_ids", [2.9, 1]),
    ("answer_ids", [2, True]),
    ("text_ids", 5),
], ids=["string", "float", "bool", "not_a_list"])
def test_load_dataset_rejects_token_ids_that_are_not_integer_lists(tmp_path, key, value):
    path = tmp_path / "data.json"
    save_dataset(generate_dataset(small_training_config(0), n_samples=2), str(path), seed=0)
    payload = json.loads(path.read_text())
    payload["samples"][1][key] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match=re.escape(f"samples[1].{key}")):
        load_dataset(str(path))


def test_load_dataset_rejects_samples_that_are_not_a_list(tmp_path):
    path = tmp_path / "data.json"
    path.write_text(json.dumps({"format": "visionflow-dataset-v1", "samples": 5}))
    with pytest.raises(DataError, match="samples must be a list"):
        load_dataset(str(path))


def test_adam_skips_gradless_tensors():
    model = fresh_model(tiny_config())
    t = model.named_tensors()[0][1]  # the first slice of the buffer
    start = model.flat.copy()
    opt = Adam(model, lr=0.1)
    opt.step()  # no grad: no movement
    np.testing.assert_array_equal(model.flat, start)
    t.grad = np.ones(t.shape)
    opt.step()
    assert not np.allclose(t.data, start[:t.size].reshape(t.shape))
    # every other tensor had no gradient: its values and moments stay put
    np.testing.assert_array_equal(model.flat[t.size:], start[t.size:])
    assert not opt.m[t.size:].any() and not opt.v[t.size:].any()
    assert t.grad is None  # step consumed the gradient


def test_buffer_adam_equals_per_tensor_adam_bit_for_bit():
    model = fresh_model(tiny_config(merge="b_to_f_xattn"))
    named = model.named_tensors()
    lr, gen = 0.01, rng.stream(0, "test.training.adam")
    opt = Adam(model, lr=lr)
    # the per-tensor reference: each tensor's own moments, skipped without a gradient
    ref = {name: t.data.copy() for name, t in named}
    m = {name: np.zeros_like(a) for name, a in ref.items()}
    v = {name: np.zeros_like(a) for name, a in ref.items()}
    for step in range(1, 51):
        grads = {name: gen.normal(size=t.shape) if gen.random() < 0.7 else None for name, t in named}
        for name, t in named:
            t.grad = grads[name]
        opt.step()
        b1c, b2c = 1.0 - Adam.BETA1 ** step, 1.0 - Adam.BETA2 ** step
        for name, g in grads.items():
            if g is not None:
                m[name] = Adam.BETA1 * m[name] + (1.0 - Adam.BETA1) * g
                v[name] = Adam.BETA2 * v[name] + (1.0 - Adam.BETA2) * (g * g)
                ref[name] = ref[name] - lr * ((m[name] / b1c) / (np.sqrt(v[name] / b2c) + Adam.EPS))
    for name, t in named:
        assert t.data.tobytes() == ref[name].tobytes(), name
    assert opt.m.tobytes() == np.concatenate([m[name].ravel() for name, _ in named]).tobytes()
    assert opt.v.tobytes() == np.concatenate([v[name].ravel() for name, _ in named]).tobytes()


def test_every_parameter_stays_a_view_of_the_buffer(tmp_path):
    # a parameter whose data were rebound would silently stop training and saving
    cfg = tiny_config(merge="b_to_f_xattn")

    def assert_aliased(model):
        for name, t in model.named_tensors():
            assert np.shares_memory(t.data, model.flat), name

    model = fresh_model(cfg)
    assert_aliased(model)
    train_two_stage(model, make_dataset(cfg, n=3), TrainConfig(stage1_steps=2, stage2_steps=2, batch_size=2),
                    merge=cfg.assembly.merge)
    assert_aliased(model)
    save_checkpoint(model, str(tmp_path), stage="both", seed=cfg.seed, config_hash=cfg.config_hash())
    assert (tmp_path / "params.bin").read_bytes() == model.flat.astype("<f8").tobytes()
    restored = fresh_model(cfg)
    restore_model(restored, load_checkpoint_state(str(tmp_path))[1])
    assert_aliased(restored)
    assert restored.flat.tobytes() == model.flat.tobytes()


def test_checkpoint_roundtrip_and_hash(tmp_path):
    cfg = tiny_config(merge="b_to_f_xattn")
    model = fresh_model(cfg)
    data = make_dataset(cfg, n=3)
    train_two_stage(model, data, TrainConfig(stage1_steps=3, stage2_steps=3, batch_size=2),
                    merge=cfg.assembly.merge)
    ckpt = tmp_path / "ckpt"
    save_checkpoint(model, str(ckpt), stage="both", seed=cfg.seed, config_hash=cfg.config_hash())
    manifest, state = load_checkpoint_state(str(ckpt))
    assert manifest["config_hash"] == cfg.config_hash()
    assert manifest["dtype"] == "<f8"
    restored = fresh_model(cfg)
    restore_model(restored, state)
    for g in model.groups():
        assert restored.group_bytes(g) == model.group_bytes(g)
    # saving the restored model elsewhere produces the identical byte surface
    ckpt2 = tmp_path / "ckpt2"
    save_checkpoint(restored, str(ckpt2), stage="both", seed=cfg.seed, config_hash=cfg.config_hash())
    assert checkpoint_hash(str(ckpt)) == checkpoint_hash(str(ckpt2))


def test_restore_rejects_shape_mismatch(tmp_path):
    cfg = tiny_config()
    model = fresh_model(cfg)
    save_checkpoint(model, str(tmp_path / "c"), stage="both", seed=0, config_hash="x")
    _, state = load_checkpoint_state(str(tmp_path / "c"))
    state["scorer/embed"] = state["scorer/embed"][:2]
    with pytest.raises(ValueError, match="shape"):
        restore_model(fresh_model(cfg), state)


def test_load_rejects_an_entry_whose_bytes_disagree_with_its_shape(tmp_path):
    save_checkpoint(fresh_model(tiny_config()), str(tmp_path), stage="both", seed=0, config_hash="x")
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["tensors"][1]["shape"][0] += 1
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=re.escape(repr(manifest["tensors"][1]["name"]))):
        load_checkpoint_state(str(tmp_path))


def test_curve_csv_format():
    from visionflow.training import CurvePoint

    text = curve_to_csv([CurvePoint(0, "pretrain", 1.5), CurvePoint(1, "finetune", 0.25)])
    lines = text.strip().split("\n")
    assert lines[0] == "step,stage,loss"
    assert lines[1].startswith("0,pretrain,1.5")


def test_prepared_pipeline_samples_train(tmp_path):
    # end-to-end: real scenes through the frozen side, then a short fit
    cfg = small_training_config(0)
    comp = build_components(cfg)
    raw = generate_dataset(cfg, n_samples=4)
    prepared = [prepare_sample(comp, s.scene, s.text_ids, s.answer_ids) for s in raw]
    assert all(p.e_low.shape == (64, cfg.encoder.channels_low) for p in prepared)
    initial = mean_dataset_nll(comp.model, prepared, cfg.assembly.merge)
    train_two_stage(comp.model, prepared, TrainConfig(stage1_steps=10, stage2_steps=20, batch_size=4))
    final = mean_dataset_nll(comp.model, prepared, cfg.assembly.merge)
    assert final < initial


def test_sample_loss_tape_has_at_most_40_op_nodes():
    # 87 op nodes with the composed affine (4 nodes), gelu (9) and masked
    # softmax attention; the fused ops record one node each
    cfg = small_training_config(0)
    comp = build_components(cfg)
    raw = generate_dataset(cfg, n_samples=1)[0]
    sample = prepare_sample(comp, raw.scene, raw.text_ids, raw.answer_ids)
    loss = sample_loss(comp.model, [sample], cfg.assembly.merge)
    ops = [node for node in loss.linearize() if not node.is_leaf()]
    assert len(ops) <= 40


# checkpoint names, recorded when each parameter dataclass still listed its
# own tensors by hand: they cover the fusion "xattn_" prefix and the merge group
XATTN_MODEL_TENSOR_NAMES = [
    "fusion/align_w", "fusion/xattn_wk", "fusion/xattn_wq", "fusion/xattn_wv",
    "merge/wk", "merge/wq", "merge/wv",
    "proj_B/b1", "proj_B/b2", "proj_B/w1", "proj_B/w2",
    "proj_F/b1", "proj_F/b2", "proj_F/w1", "proj_F/w2",
    "scorer/embed", "scorer/ffn_b1", "scorer/ffn_b2", "scorer/ffn_w1", "scorer/ffn_w2",
    "scorer/out_b", "scorer/out_w", "scorer/wk", "scorer/wq", "scorer/wv",
]


def test_named_tensors_of_an_xattn_model_keep_their_checkpoint_names():
    model = fresh_model(tiny_config(fusion_strategy="f_to_b_xattn", merge="b_to_f_xattn"))
    assert sorted(name for name, _ in model.named_tensors()) == XATTN_MODEL_TENSOR_NAMES
