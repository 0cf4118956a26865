"""Token assembly and the toy causal scorer: accounting, segment order,
merge variants, video concatenation, causality, and the NLL objective."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visionflow import rng
from visionflow.assembly import (
    SEGMENT_FUSED,
    SEGMENT_TEXT,
    AssemblyConfig,
    MergeMethod,
    ScorerParams,
    TokenSequence,
    assemble,
    assemble_video,
    greedy_decode,
    position_table,
    scorer_logits,
    score_answer,
    sinusoidal_positions,
)
from visionflow.cli import main
from visionflow.config import RunConfig
from visionflow.datagen import generate_video_descriptor
from visionflow.encoders import SceneDescriptor, generate_scene
from visionflow.fusion import CrossAttentionParams
from visionflow.pipeline import build_components, run_image, run_video
from visionflow.tensor import Tensor, gelu
from visionflow.training import checkpoint_hash
from visionflow.verify import fd_check, full_greedy_decode, full_scorer_logits

D = 8
VOCAB = 11


def parts(n, k, lt, seed=0):
    gen = rng.stream(seed, "test.assembly.parts")
    return (Tensor(gen.normal(size=(n, D))), Tensor(gen.normal(size=(k, D))),
            Tensor(gen.normal(size=(lt, D))))


def scorer(seed=0):
    cfg = AssemblyConfig(model_dim=D, vocab_size=VOCAB, scorer_hidden=10)
    return ScorerParams.build(cfg, rng.stream(seed, "test.assembly.scorer"))


def test_concat_assembly_counts_and_segment_order():
    fused, objects, text = parts(576, 5, 10)
    seq = assemble(fused, objects, text)
    assert len(seq) == 591
    assert seq.segments[:576] == ("fused",) * 576
    assert seq.segments[576:581] == ("object",) * 5
    assert seq.segments[581:] == ("text",) * 10


def test_concat_with_no_objects_drops_the_segment():
    fused, objects, text = parts(20, 0, 7)
    seq = assemble(fused, objects, text)
    assert len(seq) == 27
    assert "object" not in seq.segments


def test_f_to_b_merge_consumes_object_tokens():
    fused, objects, text = parts(30, 3, 4)
    p = CrossAttentionParams.build(D, rng.stream(1, "test.assembly.merge"))
    seq = assemble(fused, objects, text, merge=MergeMethod.F_TO_B_XATTN, merge_params=p)
    assert len(seq) == 34  # N + L_T: objects folded in, not emitted
    assert "object" not in seq.segments


def test_b_to_f_merge_keeps_object_tokens():
    fused, objects, text = parts(30, 3, 4)
    p = CrossAttentionParams.build(D, rng.stream(2, "test.assembly.merge"))
    seq = assemble(fused, objects, text, merge=MergeMethod.B_TO_F_XATTN, merge_params=p)
    assert len(seq) == 37
    assert seq.segment_counts()["object"] == 3


def test_xattn_merge_with_no_objects_degenerates_cleanly(caplog):
    fused, objects, text = parts(10, 0, 4)
    p = CrossAttentionParams.build(D, rng.stream(3, "test.assembly.merge"))
    with caplog.at_level("INFO", logger="visionflow.assembly"):
        seq = assemble(fused, objects, text, merge=MergeMethod.F_TO_B_XATTN, merge_params=p)
    assert len(seq) == 14
    np.testing.assert_array_equal(seq.embeddings.data[:10], fused.data)
    assert any("degenerates" in rec.message for rec in caplog.records)


def test_concat_with_no_objects_is_the_plain_two_stream_baseline():
    # with k=0 the sequence is exactly [fused; text]: the single-encoder path
    fused, objects, text = parts(16, 0, 5)
    seq = assemble(fused, objects, text)
    np.testing.assert_array_equal(
        seq.embeddings.data, np.concatenate([fused.data, text.data], axis=0))


def test_text_first_flag_reorders_segments():
    fused, objects, text = parts(6, 2, 3)
    seq = assemble(fused, objects, text, text_first=True)
    assert seq.segments[:3] == ("text",) * 3


def test_width_mismatch_rejected():
    gen = rng.stream(4, "test.assembly.width")
    with pytest.raises(ValueError, match="width"):
        assemble(Tensor(gen.normal(size=(4, D))), Tensor(gen.normal(size=(2, D + 1))),
                 Tensor(gen.normal(size=(3, D))))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 40), k=st.integers(0, 100), lt=st.integers(1, 32))
def test_token_accounting_property(n, k, lt):
    gen = rng.stream(0, "test.assembly.prop")
    seq = assemble(Tensor(gen.normal(size=(n, D))), Tensor(gen.normal(size=(k, D))),
                   Tensor(gen.normal(size=(lt, D))))
    assert len(seq) == n + k + lt


def test_video_eight_frames_accounting():
    gen = rng.stream(5, "test.assembly.video")
    frames = [(Tensor(gen.normal(size=(576, D))), Tensor(np.zeros((0, D)))) for _ in range(8)]
    text = Tensor(gen.normal(size=(4, D)))
    seq = assemble_video(frames, text)
    assert len(seq) == 8 * 576 + 4  # 4612
    assert seq.segments == (SEGMENT_FUSED,) * 4608 + (SEGMENT_TEXT,) * 4
    assert seq.bounds == (0, 4612)


def test_video_single_frame_degenerates_to_image_assembly():
    fused, objects, text = parts(12, 3, 5, seed=6)
    video = assemble_video([(fused, objects)], text)
    image = assemble(fused, objects, text)
    np.testing.assert_array_equal(video.embeddings.data, image.embeddings.data)
    assert video.segments == image.segments


@pytest.mark.parametrize("k", [0, 3])
@pytest.mark.parametrize("text_first", [False, True])
@pytest.mark.parametrize("merge", list(MergeMethod))
def test_video_single_frame_equals_image_assembly_for_every_merge(merge, text_first, k):
    fused, objects, text = parts(12, k, 5, seed=6)
    p = CrossAttentionParams.build(D, rng.stream(6, "test.assembly.single_frame_xattn"))
    video = assemble_video([(fused, objects)], text, merge, p, text_first)
    image = assemble(fused, objects, text, merge, p, text_first)
    assert video.embeddings.data.tobytes() == image.embeddings.data.tobytes()
    assert video.segments == image.segments


@pytest.mark.parametrize("text_first", [False, True])
@pytest.mark.parametrize("merge", list(MergeMethod))
def test_video_frames_merge_on_their_own(merge, text_first):
    # each frame's block equals the frame assembled alone, so no frame's merge
    # reads another frame's tokens; the middle frame has no objects
    gen = rng.stream(8, "test.assembly.video_frames_merge")
    frames = [(Tensor(gen.normal(size=(n, D))), Tensor(gen.normal(size=(k, D))))
              for n, k in ((5, 2), (3, 0), (4, 3))]
    text = Tensor(gen.normal(size=(2, D)))
    p = CrossAttentionParams.build(D, rng.stream(8, "test.assembly.video_frames_xattn"))
    video = assemble_video(frames, text, merge, p, text_first)
    blocks = [assemble(f, o, Tensor(np.zeros((0, D))), merge, p) for f, o in frames]
    rows = [b.embeddings.data for b in blocks]
    segments = sum((b.segments for b in blocks), ())
    if text_first:
        rows, segments = [text.data] + rows, (SEGMENT_TEXT,) * 2 + segments
    else:
        rows, segments = rows + [text.data], segments + (SEGMENT_TEXT,) * 2
    np.testing.assert_allclose(video.embeddings.data, np.concatenate(rows), rtol=0, atol=1e-12)
    assert video.segments == segments
    assert video.bounds == (0, len(video))


def test_video_text_stream_of_the_wrong_width_rejected():
    gen = rng.stream(6, "test.assembly.video_width")
    frames = [(Tensor(gen.normal(size=(4, D))), Tensor(gen.normal(size=(2, D)))) for _ in range(2)]
    with pytest.raises(ValueError, match="text stream width"):
        assemble_video(frames, Tensor(gen.normal(size=(3, D + 1))))


def test_video_frame_order_matters():
    gen = rng.stream(7, "test.assembly.order")
    a = (Tensor(gen.normal(size=(4, D))), Tensor(np.zeros((0, D))))
    b = (Tensor(gen.normal(size=(4, D))), Tensor(np.zeros((0, D))))
    text = Tensor(gen.normal(size=(2, D)))
    fwd = assemble_video([a, b], text).embeddings.data.tobytes()
    rev = assemble_video([b, a], text).embeddings.data.tobytes()
    assert fwd != rev


def test_video_text_first_leads_with_the_text_segment():
    gen = rng.stream(9, "test.assembly.video_text_first")
    frames = [(Tensor(gen.normal(size=(4, D))), Tensor(gen.normal(size=(2, D)))) for _ in range(2)]
    text = Tensor(gen.normal(size=(3, D)))
    last = assemble_video(frames, text)
    first = assemble_video(frames, text, text_first=True)
    assert first.segments[:6] == (SEGMENT_TEXT,) * 3 + (SEGMENT_FUSED,) * 3
    assert first.segments[3:] == last.segments[:-3]
    np.testing.assert_array_equal(first.embeddings.data[:3], text.data)
    np.testing.assert_array_equal(first.embeddings.data[3:], last.embeddings.data[:-3])
    single = assemble_video(frames[:1], text, text_first=True)
    assert single.segments == assemble(*frames[0], text, text_first=True).segments


def test_run_video_honours_text_first():
    frames = [SceneDescriptor.from_dict(f) for f in generate_video_descriptor(1, n_frames=2)["frames"]]
    cfg = RunConfig(seed=1)
    flipped = dataclasses.replace(cfg, assembly=dataclasses.replace(cfg.assembly, text_first=True))
    comp = build_components(cfg)
    last = run_video(cfg, frames, [1, 2, 3], answer_ids=[4, 5], components=comp)
    first = run_video(flipped, frames, [1, 2, 3], answer_ids=[4, 5], components=comp)
    assert first["segments"] == last["segments"]
    assert first["nll"] != last["nll"]


def test_video_requires_frames():
    with pytest.raises(ValueError, match="at least one frame"):
        assemble_video([], Tensor(np.zeros((2, D))))


def seq_for_scoring(n=6, k=2, lt=3, seed=8):
    fused, objects, text = parts(n, k, lt, seed=seed)
    return assemble(fused, objects, text)


def test_uniform_logits_give_log_vocab_nll():
    p = scorer()
    p.out_w.data = np.zeros_like(p.out_w.data)
    p.out_b.data = np.zeros_like(p.out_b.data)
    loss = score_answer(seq_for_scoring(), [[1, 5, 9]], p)
    assert loss.item() == pytest.approx(math.log(VOCAB), abs=1e-12)


def test_permuting_fused_tokens_changes_nll():
    p = scorer()
    fused, objects, text = parts(6, 2, 3, seed=9)
    base = score_answer(assemble(fused, objects, text), [[2, 3]], p).item()
    perm = Tensor(fused.data[::-1].copy())
    swapped = score_answer(assemble(perm, objects, text), [[2, 3]], p).item()
    assert base != swapped  # sinusoidal positions make order matter


def test_scorer_causality_probe():
    # logits at answer position i must ignore embeddings at later positions:
    # perturbing answer token 0 may move rows 1.. but never row 0
    p = scorer(seed=10)
    gen = rng.stream(11, "test.assembly.causal")
    prefix = Tensor(gen.normal(size=(5, D)))
    answers = [1, 2, 3]
    base = scorer_logits(prefix, [answers], p).data.copy()
    p.embed.data = p.embed.data.copy()
    p.embed.data[answers[0]] += 10.0
    moved = scorer_logits(prefix, [answers], p).data
    np.testing.assert_allclose(moved[0], base[0], atol=1e-12)
    assert not np.allclose(moved[1], base[1])
    assert not np.allclose(moved[2], base[2])


def test_empty_answer_rejected():
    with pytest.raises(ValueError, match="empty answer"):
        score_answer(seq_for_scoring(), [[]], scorer())


def test_score_answer_gradients_pass_fd():
    p = scorer(seed=12)
    seq = seq_for_scoring(seed=12)
    gen = rng.stream(12, "test.assembly.fd")
    errors = fd_check(lambda: score_answer(seq, [[4, 7, 1]], p),
                      list(p.tensors().items()), gen, max_coords=8)
    assert max(errors.values()) < 1e-4


def test_greedy_decode_is_deterministic_and_bounded():
    p = scorer(seed=13)
    seq = seq_for_scoring(seed=13)
    a = greedy_decode(seq, p, max_new=5)
    b = greedy_decode(seq, p, max_new=5)
    assert a == b and len(a) == 5
    assert all(0 <= t < VOCAB for t in a)


def test_greedy_decode_first_token_matches_teacher_forced_argmax():
    p = scorer(seed=14)
    seq = seq_for_scoring(seed=14)
    decoded = greedy_decode(seq, p, max_new=1)
    logits = scorer_logits(seq.embeddings, [[0]], p)
    assert decoded[0] == int(np.argmax(logits.data[0]))


def prefix_sequence(rows, seed):
    gen = rng.stream(seed, "test.assembly.prefix")
    prefix = Tensor(gen.normal(size=(rows, D)))
    return TokenSequence(prefix, (SEGMENT_TEXT,) * rows)


@pytest.mark.parametrize("rows,answer", [
    (1, [3]), (1, [3, 7, 2]), (6, [5]), (40, [1, 9, 9, 0, 4]), (300, list(range(11)) + [2] * 5),
])
def test_scorer_logits_equal_the_full_sequence_pass(rows, answer):
    p = scorer(seed=rows)
    prefix = prefix_sequence(rows, seed=rows).embeddings
    got = scorer_logits(prefix, [answer], p).data
    want = full_scorer_logits(prefix, answer, p).data
    assert got.shape == (len(answer), VOCAB)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_greedy_decode_equals_full_sequence_decoding():
    for case in range(200):
        gen = rng.stream(case, "test.assembly.decode_oracle")
        rows, new = int(gen.integers(1, 31)), int(gen.integers(1, 7))
        p = scorer(seed=case)
        seq = prefix_sequence(rows, seed=case)
        assert greedy_decode(seq, p, new) == full_greedy_decode(seq.embeddings, p, new), case


def test_scoring_a_long_prefix_never_builds_a_square_block():
    # the full pass holds several 2,000 x 2,000 float64 arrays (32 MB each)
    cfg = AssemblyConfig(model_dim=32, vocab_size=64, scorer_hidden=64)
    p = ScorerParams.build(cfg, rng.stream(16, "test.assembly.memory"))
    seq = TokenSequence(Tensor(rng.stream(17, "test.assembly.memory").normal(size=(2000, 32))),
                        (SEGMENT_TEXT,) * 2000)
    tracemalloc.start()
    try:
        score_answer(seq, [[5, 6]], p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_sinusoidal_positions_shape_and_range():
    table = sinusoidal_positions(10, D)
    assert table.shape == (10, D)
    assert np.all(np.abs(table) <= 1.0)
    assert not np.allclose(table[0], table[1])


@pytest.mark.parametrize("dim", [16, 32])
def test_position_table_prefix_equals_a_fresh_table_and_is_read_only(dim):
    for length in range(1, 2001):
        view = position_table(length, dim)
        assert np.array_equal(view, sinusoidal_positions(length, dim)), length
        assert not view.flags.writeable


def test_gelu_matches_reference_form():
    gen = rng.stream(15, "test.assembly.gelu")
    x = gen.normal(size=(4, 3))
    got = gelu(Tensor(x)).data
    c = math.sqrt(2.0 / math.pi)
    want = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x ** 3)))
    np.testing.assert_allclose(got, want, atol=1e-12)


# run_image result_hash on the default config (scene of the same seed, 3
# objects, prompt 1,2,3), scored on answer 4,5 and decoding 8 tokens, as
# computed with the composed ops: ones-column affine, elementwise gelu and a
# -1e9 mask before a softmax node. The fused ops must leave them unchanged.
# Re-pinned when the encoder section lost its high_res, stride_high,
# channels_high and seed keys: only config_hash moved, every other report
# field stayed equal.
COMPOSED_OPS_HASHES = {
    0: ("c32c2fb6eafafea48f6da6431b0111189233c938288463b73f39d2e28cd8efbb",
        "8cc1d90b161150348cf195b07a14276dd4217f505b683bf1e65488527f6edfdd"),
    7: ("be8ff744d923ca06714ed849e9039c1eb49a3c525edf90a2533959e027bb4c64",
        "07d5b6f4510f65010463a46ac047b2f1a9516af6ea0eb8e84a7694c291dc5f6c"),
}


@pytest.mark.parametrize("seed", sorted(COMPOSED_OPS_HASHES))
def test_run_image_hashes_equal_the_composed_ops(seed):
    cfg = RunConfig(seed=seed)
    comp = build_components(cfg)
    scene = generate_scene(seed, n_objects=3)
    scored = run_image(cfg, scene, [1, 2, 3], answer_ids=[4, 5], components=comp)
    decoded = run_image(cfg, scene, [1, 2, 3], decode=8, components=comp)
    assert (scored["result_hash"], decoded["result_hash"]) == COMPOSED_OPS_HASHES[seed]


# run_video result_hash on the default config for an 8-frame seeded video
# (all 8 frames sampled, prompt 1,2,3, answer 4,5 scored), recorded before the
# unused RoI, tensor and box paths were removed; removing code must leave it
# unchanged. The checkpoint_hash of a 6-step small-config `train` on a
# 6-sample seed-0 dataset was re-pinned when object features moved to the
# separable RoI read (the loss curve kept every printed digit, and parameters
# moved by at most 3.3e-14), and again when a training step began to pack its
# batch into one graph (five of six losses kept all 17 digits, one moved by an
# ulp; parameters moved by at most 2.6e-15; both mean NLLs bit-identical).
# Both were re-pinned when four encoder keys left the config: the reports kept
# every field but config_hash, and params.bin and loss_curve.csv stayed
# byte-equal while manifest.json's config_hash moved.
VIDEO_HASHES = {
    0: "9222d363cc716917eda430cf923aaa45a23c88abf5094f450bf1548bb5c1ee3c",
    7: "543a2564eccc96e0b55392ff5dd3aad1f5736820f401c00ca34645c05d57096c",
}
TRAIN_CHECKPOINT_HASH = "cdcd0abe606c1168f8ed77f53b26f00afcd89d9f617579125bf2d3c1dcac6a56"


@pytest.mark.parametrize("seed", sorted(VIDEO_HASHES))
def test_run_video_hash_is_pinned(seed):
    frames = [SceneDescriptor.from_dict(f) for f in generate_video_descriptor(seed, n_frames=8)["frames"]]
    report = run_video(RunConfig(seed=seed), frames, [1, 2, 3], answer_ids=[4, 5])
    assert report["frames"] == 8
    assert report["result_hash"] == VIDEO_HASHES[seed]


def test_small_config_train_checkpoint_hash_is_pinned(tmp_path):
    data = str(tmp_path / "train.json")
    assert main(["gen-data", "--out", data, "--samples", "6", "--small-config", "--seed", "0"]) == 0
    assert main(["train", "--small-config", "--seed", "0",
                 "--set", 'train={"stage1_steps": 3, "stage2_steps": 3, "batch_size": 2}',
                 "--dataset", data, "--out-dir", str(tmp_path / "ck")]) == 0
    assert checkpoint_hash(str(tmp_path / "ck")) == TRAIN_CHECKPOINT_HASH
