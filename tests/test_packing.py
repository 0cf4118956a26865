"""Packed training batches: one graph per step scores every sample as alone."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from visionflow import rng
from visionflow.assembly import AssemblyConfig, MergeMethod, scorer_logits
from visionflow.datagen import generate_dataset, small_training_config
from visionflow.fusion import FusionConfig, FusionStrategy
from visionflow.pipeline import build_components, prepare_sample
from visionflow.training import FreezeMask, ModelParams, PreparedSample, packed_sequence, sample_loss

OBJECT_CHANNELS = 5

configs = st.fixed_dictionaries({
    "strategy": st.sampled_from(list(FusionStrategy)),
    "merge": st.sampled_from(list(MergeMethod)),
    "text_first": st.booleans(),
    "kernel": st.sampled_from([1, 3]),
})
# per sample: (tokens, objects, text rows, answer length)
sample_shapes = st.tuples(st.integers(1, 5), st.integers(0, 3), st.integers(0, 8), st.integers(1, 5))


def tiny_model(cfg: dict) -> ModelParams:
    fusion = FusionConfig(strategy=cfg["strategy"], channels_low=3, channels_high=4,
                          gate_channels=2, conv_kernel=cfg["kernel"])
    assembly = AssemblyConfig(merge=cfg["merge"], model_dim=4, vocab_size=7, scorer_hidden=5)
    model = ModelParams.build(fusion, assembly, OBJECT_CHANNELS, seed=3)
    FreezeMask.for_stage("finetune", model).apply(model)
    return model


def make_sample(gen, shape) -> PreparedSample:
    n, k, text, answer = shape
    return PreparedSample(
        e_low=gen.normal(size=(n, 3)),
        e_high=gen.normal(size=(n, 4)),
        e_objects=gen.normal(size=(k, OBJECT_CHANNELS)),
        text_emb=gen.normal(size=(text, 4)),
        answer_ids=[int(v) for v in gen.integers(0, 7, size=answer)],
    )


def make_batch(shapes, seed: int) -> list[PreparedSample]:
    gen = rng.stream(seed, "test.packing")
    return [make_sample(gen, shape) for shape in shapes]


def grads(model: ModelParams) -> dict[str, np.ndarray]:
    out = {}
    for name, t in model.named_tensors():
        out[name] = np.zeros_like(t.data) if t.grad is None else t.grad.copy()
        t.grad = None
    return out


@settings(max_examples=120, deadline=None, derandomize=True)
@given(cfg=configs, shapes=st.lists(sample_shapes, min_size=1, max_size=5), seed=st.integers(0, 999))
def test_packed_loss_and_gradients_equal_the_mean_of_one_sample_graphs(cfg, shapes, seed):
    model = tiny_model(cfg)
    batch = make_batch(shapes, seed)
    packed = sample_loss(model, batch, cfg["merge"], cfg["text_first"])
    packed.backward()
    packed_grads = grads(model)
    losses = []
    for sample in batch:
        loss = sample_loss(model, [sample], cfg["merge"], cfg["text_first"])
        loss.backward()  # leaf gradients add up over the samples
        losses.append(loss.item())
    want = sum(losses) / len(losses)
    assert abs(packed.item() - want) <= 1e-12 * abs(want)
    for name, summed in grads(model).items():
        mean = summed / len(batch)
        scale = max(np.max(np.abs(mean), initial=0.0), np.max(np.abs(packed_grads[name]), initial=0.0))
        assert np.max(np.abs(packed_grads[name] - mean), initial=0.0) <= 1e-12 * scale, name


def per_sample_log_probs(model, batch, cfg) -> list[bytes]:
    seq = packed_sequence(model, batch, cfg["merge"], cfg["text_first"])
    answers = [s.answer_ids for s in batch]
    log_probs = scorer_logits(seq.embeddings, answers, model.scorer, seq.bounds).log_softmax(axis=-1).data
    ends = np.cumsum([len(a) for a in answers])
    return [rows.tobytes() for rows in np.split(log_probs, ends[:-1])]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(cfg=configs, shapes=st.lists(sample_shapes, min_size=2, max_size=5), seed=st.integers(0, 999),
       pick=st.integers(0, 4))
def test_perturbing_one_sample_leaves_the_others_log_probs_bit_identical(cfg, shapes, seed, pick):
    model = tiny_model(cfg)
    batch = make_batch(shapes, seed)
    j = pick % len(batch)
    perturbed = list(batch)
    perturbed[j] = make_sample(rng.stream(seed, "test.packing.perturbed"), shapes[j])
    before = per_sample_log_probs(model, batch, cfg)
    after = per_sample_log_probs(model, perturbed, cfg)
    assert before[j] != after[j]
    assert [b for i, b in enumerate(before) if i != j] == [a for i, a in enumerate(after) if i != j]


def test_a_small_config_batch_of_eight_is_at_most_60_tape_nodes():
    cfg = small_training_config(0)
    comp = build_components(cfg)
    batch = [prepare_sample(comp, s.scene, s.text_ids, s.answer_ids) for s in generate_dataset(cfg, 8)]
    FreezeMask.for_stage("finetune", comp.model).apply(comp.model)
    loss = sample_loss(comp.model, batch, cfg.assembly.merge)
    # 305 nodes when each sample built its own graph
    assert len(loss.linearize()) <= 60
