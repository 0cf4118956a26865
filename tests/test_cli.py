"""CLI surface: subcommands, exit codes, flag precedence, determinism."""

import json
import math
import os

import pytest

from visionflow.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main
from visionflow.datagen import generate_video_descriptor
from visionflow.encoders import generate_scene, save_descriptor

TINY = [
    "--set", 'encoder={"low_res": 28, "channels_low": 6, "stage_channels": [2, 3, 4, 8]}',
    "--set", 'fusion={"channels_low": 6, "channels_high": 8, "gate_channels": 4}',
    "--set", 'roi={"bins": [2, 2], "samples_per_bin": 2}',
    "--set", 'assembly={"model_dim": 10, "vocab_size": 13, "scorer_hidden": 12}',
]


def run_infer(tmp_path, *extra, name="report.json"):
    out = tmp_path / name
    code = main(["infer", *TINY, "--scene-seed", "5", "--text-ids", "1,2,3",
                 "--answer-ids", "4,5", "--out", str(out), *extra])
    assert code == EXIT_OK
    with open(out) as fh:
        return json.load(fh)


def test_infer_default_report(tmp_path, capsys):
    report = run_infer(tmp_path)
    assert report["segments"]["fused"] == 4  # 28/14 squared
    assert report["segments"]["object"] == report["k"] == 3
    assert report["segments"]["text"] == 3
    assert report["nll"] is not None
    assert "result_hash" in report and "timings_ms" in report


def test_infer_default_config_fused_576(tmp_path):
    out = tmp_path / "r.json"
    code = main(["infer", "--scene-seed", "5", "--text-ids", "1,2",
                 "--out", str(out)])
    assert code == EXIT_OK
    report = json.load(open(out))
    assert report["segments"]["fused"] == 576
    assert report["segments"]["object"] == 3


def test_infer_max_boxes_flag_caps_objects(tmp_path):
    report = run_infer(tmp_path, "--set", "boxes.max_boxes=1")
    assert report["segments"]["object"] <= 1


def test_infer_scene_file_and_boxes_file(tmp_path):
    scene = generate_scene(9, n_objects=2)
    scene_path = tmp_path / "scene.json"
    save_descriptor(scene, str(scene_path))
    report = run_infer(tmp_path, "--input", str(scene_path))
    assert report["input"] == scene.image_id


def test_infer_video_has_eight_frame_blocks(tmp_path):
    video = generate_video_descriptor(3, n_frames=8)
    path = tmp_path / "video.json"
    path.write_text(json.dumps(video))
    report = run_infer(tmp_path, "--input", str(path))
    assert report["mode"] == "video"
    assert report["frames"] == 8
    assert len(report["k_per_frame"]) == 8
    assert report["segments"]["fused"] == 8 * 4


def test_infer_video_subsamples_long_inputs(tmp_path):
    video = generate_video_descriptor(4, n_frames=20)
    path = tmp_path / "video.json"
    path.write_text(json.dumps(video))
    report = run_infer(tmp_path, "--input", str(path))
    assert report["frames"] == 8  # uniform 8-frame sampling


def test_infer_threads_do_not_change_result(tmp_path):
    video = generate_video_descriptor(5, n_frames=8)
    path = tmp_path / "video.json"
    path.write_text(json.dumps(video))
    a = run_infer(tmp_path, "--input", str(path), name="a.json")
    b = run_infer(tmp_path, "--input", str(path), "--threads", "4", name="b.json")
    assert a["result_hash"] == b["result_hash"]


def test_infer_decode_emits_ids(tmp_path):
    out = tmp_path / "r.json"
    code = main(["infer", *TINY, "--scene-seed", "5", "--text-ids", "1,2",
                 "--decode", "4", "--out", str(out)])
    assert code == EXIT_OK
    report = json.load(open(out))
    assert report["nll"] is None
    assert len(report["decoded_ids"]) == 4


def test_infer_rerun_hash_identical(tmp_path):
    a = run_infer(tmp_path, name="a.json")
    b = run_infer(tmp_path, name="b.json")
    assert a["result_hash"] == b["result_hash"]


def test_config_file_and_flag_precedence(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"boxes": {"max_boxes": 2}}))
    # file caps at 2
    r1 = run_infer(tmp_path, "--config", str(cfg_path), name="f1.json")
    assert r1["segments"]["object"] <= 2
    # --set beats file
    r2 = run_infer(tmp_path, "--config", str(cfg_path), "--set", "boxes.max_boxes=1", name="f2.json")
    assert r2["segments"]["object"] <= 1


def test_a_whole_section_set_keeps_an_earlier_flag(tmp_path):
    # TINY's whole assembly section comes after the dotted merge key
    out = tmp_path / "early.json"
    assert main(["infer", "--set", "assembly.merge=f_to_b_xattn", *TINY, "--scene-seed", "5",
                 "--text-ids", "1,2,3", "--answer-ids", "4,5", "--out", str(out)]) == EXIT_OK
    early = json.loads(out.read_text())
    late = run_infer(tmp_path, "--set", "assembly.merge=f_to_b_xattn", name="late.json")
    assert early["k"] > 0 and early["segments"]["object"] == 0
    assert (early["config_hash"], early["result_hash"]) == (late["config_hash"], late["result_hash"])


def test_a_repeated_set_key_applies_at_its_last_position():
    from visionflow.assembly import MergeMethod
    from visionflow.cli import _config_from_args, build_parser

    argv = ["infer", "--set", "assembly.merge=concat", "--set", 'assembly={"merge": "f_to_b_xattn"}',
            "--set", "assembly.merge=b_to_f_xattn"]
    assert _config_from_args(build_parser().parse_args(argv)).assembly.merge is MergeMethod.B_TO_F_XATTN


def test_a_train_section_set_merges_into_the_small_config():
    from visionflow.config import load_config
    from visionflow.datagen import small_training_config

    base = small_training_config(0).to_dict()
    cfg = load_config(None, {"train.lr_stage2": 1e-3,
                             "train": {"stage1_steps": 3, "stage2_steps": 3, "batch_size": 2}}, base=base)
    assert (cfg.train.stage1_steps, cfg.train.stage2_steps, cfg.train.batch_size) == (3, 3, 2)
    assert cfg.train.lr_stage2 == 1e-3
    assert cfg.train.lr_stage1 == small_training_config(0).train.lr_stage1
    assert cfg.encoder == small_training_config(0).encoder


def leaf_values(doc, prefix=""):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from leaf_values(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def another_value(value):
    """A value of the same JSON type that differs from ``value``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, list):
        return [another_value(v) for v in value]
    if isinstance(value, str):
        return value + "x"
    return value + (1 if isinstance(value, int) else 0.125)


@pytest.mark.parametrize("base", ["defaults", "tiny"])
def test_no_config_key_is_silently_rewritten(base):
    from visionflow.config import RunConfig, load_config
    from visionflow.encoders import DataError
    from visionflow.verify import tiny_config

    doc = (RunConfig() if base == "defaults" else tiny_config()).to_dict()
    rewritten = []
    for key, value in leaf_values(doc):
        wanted = another_value(value)
        try:
            got = load_config(None, {key: wanted}, base=doc).to_dict()
        except DataError:
            continue
        for part in key.split("."):
            got = got[part]
        if got != wanted:
            rewritten.append(f"{key}: set {wanted!r}, got {got!r}")
    assert not rewritten


def test_gen_data_and_train_and_rerun_hash(tmp_path):
    data_path = tmp_path / "train.json"
    assert main(["gen-data", "--out", str(data_path), "--samples", "6",
                 "--small-config", "--seed", "0"]) == EXIT_OK
    fast_train = ["--set", 'train={"stage1_steps": 3, "stage2_steps": 3, "batch_size": 2}']

    def train(out_name):
        out_dir = tmp_path / out_name
        code = main(["train", "--small-config", "--seed", "0", *fast_train,
                     "--dataset", str(data_path), "--out-dir", str(out_dir)])
        assert code == EXIT_OK
        return out_dir

    from visionflow.training import checkpoint_hash

    d1, d2 = train("run1"), train("run2")
    assert checkpoint_hash(str(d1)) == checkpoint_hash(str(d2))
    assert (d1 / "loss_curve.csv").read_text() == (d2 / "loss_curve.csv").read_text()
    assert (d1 / "loss_curve.csv").read_text().startswith("step,stage,loss")


def test_train_small_config_accepts_overrides(tmp_path):
    # --small-config is a base layer; --set still wins
    data_path = tmp_path / "train.json"
    assert main(["gen-data", "--out", str(data_path), "--samples", "4",
                 "--small-config", "--seed", "1"]) == EXIT_OK
    out_dir = tmp_path / "out"
    code = main(["train", "--small-config", "--seed", "1",
                 "--set", 'train={"stage1_steps": 2, "stage2_steps": 1, "batch_size": 2}',
                 "--dataset", str(data_path), "--out-dir", str(out_dir)])
    assert code == EXIT_OK
    curve = (out_dir / "loss_curve.csv").read_text().strip().split("\n")
    assert len(curve) == 1 + 3  # header + 3 steps


def test_train_stage_pretrain_keeps_scorer_frozen(tmp_path):
    from visionflow.training import load_checkpoint_state
    from visionflow.pipeline import build_components
    from visionflow.datagen import small_training_config

    data_path = tmp_path / "train.json"
    assert main(["gen-data", "--out", str(data_path), "--samples", "4",
                 "--small-config", "--seed", "2"]) == EXIT_OK
    out_dir = tmp_path / "pre"
    code = main(["train", "--small-config", "--seed", "2",
                 "--set", 'train={"stage1_steps": 4, "stage2_steps": 9, "batch_size": 2}',
                 "--stage", "pretrain",
                 "--dataset", str(data_path), "--out-dir", str(out_dir)])
    assert code == EXIT_OK
    curve = (out_dir / "loss_curve.csv").read_text().strip().split("\n")
    assert len(curve) == 1 + 4  # stage 2 skipped
    assert all(line.split(",")[1] == "pretrain" for line in curve[1:])
    # scorer bytes in the checkpoint equal the untrained seeded build
    _, state = load_checkpoint_state(str(out_dir))
    fresh = build_components(small_training_config(2)).model
    for name, t in fresh.named_tensors():
        if name.startswith("scorer/"):
            assert state[name].tobytes() == t.data.tobytes()


def test_train_missing_dataset_exits_data(tmp_path):
    code = main(["train", "--small-config", "--dataset", str(tmp_path / "nope.json"),
                 "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_DATA


ONE_STEP = ["--set", 'train={"stage1_steps": 1, "stage2_steps": 0, "batch_size": 2}']


def test_train_orders_tokens_by_text_first(tmp_path, capsys):
    from visionflow.config import load_config
    from visionflow.datagen import load_dataset, small_training_config
    from visionflow.pipeline import build_components, prepare_sample
    from visionflow.training import sample_loss

    data_path = tmp_path / "train.json"
    assert main(["gen-data", "--out", str(data_path), "--samples", "4",
                 "--small-config", "--seed", "0"]) == EXIT_OK
    capsys.readouterr()
    out_dir = tmp_path / "out"
    assert main(["train", "--small-config", "--seed", "0", *ONE_STEP, "--set", "assembly.text_first=true",
                 "--dataset", str(data_path), "--out-dir", str(out_dir)]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    cfg = load_config(None, {"assembly.text_first": True}, base=small_training_config(0).to_dict())
    comp = build_components(cfg)
    prepared = [prepare_sample(comp, s.scene, s.text_ids, s.answer_ids) for s in load_dataset(str(data_path))]

    def nll(text_first, samples):
        losses = [sample_loss(comp.model, [s], cfg.assembly.merge, text_first).item() for s in samples]
        return sum(losses) / len(losses)

    assert summary["initial_mean_nll"] == pytest.approx(nll(True, prepared), rel=1e-12)
    assert abs(nll(True, prepared) - nll(False, prepared)) > 1e-3
    first_step = (out_dir / "loss_curve.csv").read_text().split("\n")[1].split(",")
    assert float(first_step[2]) == pytest.approx(nll(True, prepared[:2]), rel=1e-12)


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    root = tmp_path_factory.mktemp("ckpt")
    data_path = root / "train.json"
    assert main(["gen-data", *TINY, "--out", str(data_path), "--samples", "2", "--seed", "0"]) == EXIT_OK
    out_dir = root / "run"
    assert main(["train", *TINY, *ONE_STEP, "--seed", "0", "--dataset", str(data_path),
                 "--out-dir", str(out_dir)]) == EXIT_OK
    return out_dir


def copy_checkpoint(src, dst):
    dst.mkdir()
    for name in ("manifest.json", "params.bin"):
        (dst / name).write_bytes((src / name).read_bytes())
    return dst


def test_infer_loads_a_checkpoint_of_its_own_config(tmp_path, tiny_checkpoint):
    report = run_infer(tmp_path, *ONE_STEP, "--seed", "0", "--checkpoint", str(tiny_checkpoint))
    assert report["nll"] is not None


def test_infer_rejects_a_checkpoint_of_another_seed(tmp_path, tiny_checkpoint, capsys):
    from visionflow.cli import _config_from_args, build_parser

    argv = ["infer", *TINY, *ONE_STEP, "--seed", "3", "--scene-seed", "5"]
    assert main([*argv, "--checkpoint", str(tiny_checkpoint)]) == EXIT_DATA
    trained = json.loads((tiny_checkpoint / "manifest.json").read_text())["config_hash"]
    run = _config_from_args(build_parser().parse_args(argv)).config_hash()
    err = capsys.readouterr().err
    assert trained != run and trained in err and run in err


def test_infer_rejects_another_checkpoint_format(tmp_path, tiny_checkpoint, capsys):
    ckpt = copy_checkpoint(tiny_checkpoint, tmp_path / "v2")
    manifest = json.loads((ckpt / "manifest.json").read_text())
    manifest["format"] = "visionflow-checkpoint-v2"
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    code = main(["infer", *TINY, *ONE_STEP, "--seed", "0", "--checkpoint", str(ckpt)])
    assert code == EXIT_DATA
    assert "visionflow-checkpoint-v2" in capsys.readouterr().err


def test_infer_rejects_a_truncated_checkpoint_naming_the_tensor(tmp_path, tiny_checkpoint, capsys):
    ckpt = copy_checkpoint(tiny_checkpoint, tmp_path / "cut")
    blob = (ckpt / "params.bin").read_bytes()
    (ckpt / "params.bin").write_bytes(blob[:-8])
    last = json.loads((ckpt / "manifest.json").read_text())["tensors"][-1]["name"]
    code = main(["infer", *TINY, *ONE_STEP, "--seed", "0", "--checkpoint", str(ckpt)])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert repr(last) in err and "run past params.bin" in err


@pytest.mark.parametrize("edit, field", [
    (lambda m: m.update(tensors=None), "'tensors' must be a list"),
    (lambda m: m["tensors"][0].update(shape="3x4"), "'shape' must be a list"),
    (lambda m: m["tensors"].insert(0, 42), "tensors[0] must be an object"),
])
def test_infer_rejects_a_malformed_checkpoint_manifest_naming_the_field(tmp_path, tiny_checkpoint, capsys,
                                                                         edit, field):
    ckpt = copy_checkpoint(tiny_checkpoint, tmp_path / "bad")
    manifest = json.loads((ckpt / "manifest.json").read_text())
    edit(manifest)
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    code = main(["infer", *TINY, *ONE_STEP, "--seed", "0", "--checkpoint", str(ckpt)])
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert field in err and "Traceback" not in err


def test_stats_command(tmp_path, capsys):
    from visionflow.boxes import MockDetector, SyntheticTags, generate_boxes, save_box_file

    corpus_dir = tmp_path / "corpus"
    os.makedirs(corpus_dir)
    for seed in range(3):
        scene = generate_scene(seed, n_objects=2)
        dets = generate_boxes(scene, SyntheticTags(), MockDetector(seed=0))
        save_box_file([dets], str(corpus_dir / f"{seed}.json"))
    csv_out = tmp_path / "hist.csv"
    assert main(["stats", "--corpus", str(corpus_dir), "--csv", str(csv_out)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "1-10" in printed
    assert csv_out.read_text().startswith("bin,count\n")
    assert ",3\n" in csv_out.read_text()  # all three scenes land in 1-10


def test_verify_suite_filter(capsys):
    assert main(["verify", "--suite", "tokens", "--fast"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "tokens/" in out and "nms/" not in out


def test_verify_roi_suite_passes(capsys):
    assert main(["verify", "--suite", "roi", "--fast"]) == EXIT_OK


def test_verify_inject_fault_fails_with_named_check(capsys):
    code = main(["verify", "--suite", "gradients", "--fast", "--inject-fault"])
    assert code == EXIT_VERIFY
    assert "[FAIL] gradients/" in capsys.readouterr().out


def test_usage_errors_exit_one(capsys):
    assert main(["verify", "--suite", "nope", "--fast"]) == EXIT_USAGE
    assert main(["bogus-command"]) == EXIT_USAGE
    assert main(["infer", "--text-ids", "a,b"]) == EXIT_USAGE


def test_video_input_with_boxes_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "video.json"
    path.write_text(json.dumps(generate_video_descriptor(3, n_frames=2)))
    code = main(["infer", *TINY, "--input", str(path), "--boxes-file", str(tmp_path / "b.json")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--boxes-file" in err and "--input" in err


@pytest.mark.parametrize("flags, named", [
    (["--decode", "-3"], "--decode"),
    (["--threads", "0"], "--threads"),
    (["--threads", "-2"], "--threads"),
    (["--text-ids", ""], "--text-ids"),
    (["--answer-ids", " "], "--answer-ids"),
    (["--scene-objects", "-1"], "--scene-objects"),
    (["--scene-objects", "17"], "--scene-objects"),
    (["--text-ids", "1,13"], "--text-ids"),
    (["--answer-ids", "4,-1"], "--answer-ids"),
    (["--set", "assembly.vocab_size=1"], "--text-ids"),
])
def test_out_of_range_infer_flags_are_usage_errors(flags, named, capsys):
    assert main(["infer", *TINY, "--scene-seed", "5", *flags]) == EXIT_USAGE
    assert named in capsys.readouterr().err


def test_answer_ids_with_decode_is_a_usage_error_naming_both(capsys):
    assert main(["infer", *TINY, "--scene-seed", "5", "--answer-ids", "3", "--decode", "4"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--answer-ids" in err and "--decode" in err


@pytest.mark.parametrize("edit, field", [
    (lambda d: d["objects"][0].update(x0=float("nan")), "objects[0].x0"),
    (lambda d: d.update(height=-16), "height"),
    (lambda d: d.update(width=100_000), "width"),
    (lambda d: d["objects"][0].update(x1=d["objects"][0]["x0"]), "objects[0] must have x0 < x1"),
    (lambda d: d["objects"][1].update(y0=d["objects"][1]["y1"] + 1), "objects[1] must have x0 < x1 and y0 < y1"),
])
def test_invalid_scene_descriptor_exits_data_naming_the_field(tmp_path, capsys, edit, field):
    scene = generate_scene(9, n_objects=2).to_dict()
    edit(scene)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    assert main(["infer", *TINY, "--input", str(path)]) == EXIT_DATA
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("edit, field", [
    (lambda d: d.update(seed=None), "seed"),
    (lambda d: d.update(seed=2.5), "seed"),
    (lambda d: d.update(height=None), "height"),
    (lambda d: d.update(width="wide"), "width"),
    (lambda d: d["objects"][0].update(x0=None), "objects[0].x0"),
    (lambda d: d["objects"][1].pop("y1"), "objects[1].y1"),
    (lambda d: d["objects"][0].update(label=None), "objects[0].label"),
    (lambda d: d["objects"][1].update(label=5), "objects[1].label"),
    (lambda d: d["objects"][0].pop("label"), "objects[0].label"),
    (lambda d: d["objects"][0].update(x0=10**400), "objects[0].x0"),
    (lambda d: d.update(height=10**400), "height"),
], ids=["seed_null", "seed_fractional", "height_null", "width_string", "x0_null", "y1_missing",
        "label_null", "label_number", "label_missing", "x0_past_float_range", "height_past_float_range"])
def test_mistyped_scene_descriptor_exits_data_naming_the_field(tmp_path, capsys, edit, field):
    scene = generate_scene(9, n_objects=2).to_dict()
    edit(scene)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    assert main(["infer", *TINY, "--input", str(path)]) == EXIT_DATA
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("encoder.high_res", 768),
    ("encoder.stride_high", 32),
    ("encoder.channels_high", 48),
    ("encoder.seed", 0),
], ids=["high_res", "stride_high", "channels_high", "seed"])
def test_a_removed_encoder_key_exits_data_naming_it(key, value, capsys):
    # the high-res side and width are derived and the root seed is the only seed
    assert main(["infer", "--scene-seed", "5", "--set", f"{key}={value}"]) == EXIT_DATA
    assert repr(key.split(".")[1]) in capsys.readouterr().err


@pytest.mark.parametrize("payload, field", [
    ([{"seed": 1}], "a scene must be a JSON object, got list"),
    ({"frames": 5}, "'frames' must be a list"),
    ({"seed": 1, "objects": [1]}, "objects[0]"),
    ({"seed": 1, "objects": {"x0": 1}}, "objects must be a list"),
    ({"frames": [{"seed": 1, "objects": 7}]}, "objects must be a list"),
], ids=["top_level_list", "frames_not_a_list", "object_not_an_object", "objects_not_a_list",
        "frame_objects_not_a_list"])
def test_malformed_input_file_exits_data_naming_the_field(tmp_path, capsys, payload, field):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    assert main(["infer", *TINY, "--input", str(path)]) == EXIT_DATA
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--samples", "-3"],
    ["--samples", "0"],
    ["--video", "--frames", "0"],
])
def test_gen_data_counts_below_one_are_usage_errors(tmp_path, capsys, flags):
    out = tmp_path / "out.json"
    assert main(["gen-data", "--out", str(out), *flags]) == EXIT_USAGE
    assert flags[-2] in capsys.readouterr().err
    assert not out.exists()


def test_data_errors_exit_two(tmp_path, capsys):
    assert main(["infer", "--input", str(tmp_path / "missing.json")]) == EXIT_DATA
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["infer", "--input", str(bad)]) == EXIT_DATA
    assert main(["stats", "--corpus", str(tmp_path / "void")]) == EXIT_DATA
    # config whose low_res is not a multiple of stride_low
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"encoder": {"low_res": 100}}))
    assert main(["infer", "--config", str(cfg), "--scene-seed", "1"]) == EXIT_DATA
    # a directory, a tag file without a tags list, a video without frames
    assert main(["infer", *TINY, "--input", str(tmp_path)]) == EXIT_DATA
    tags = tmp_path / "tags.json"
    tags.write_text(json.dumps({"labels": ["cat"]}))
    capsys.readouterr()
    assert main(["infer", *TINY, "--scene-seed", "5", "--set", f"tags=file:{tags}"]) == EXIT_DATA
    assert "tags must be a list" in capsys.readouterr().err
    video = tmp_path / "video.json"
    video.write_text(json.dumps({"frames": []}))
    assert main(["infer", *TINY, "--input", str(video)]) == EXIT_DATA
    assert "'frames' must be a list of at least one scene" in capsys.readouterr().err


def test_infer_boxes_file_for_wrong_image_exits_data(tmp_path, capsys):
    # box file is keyed by a different image id: the detect stage fails
    from visionflow.boxes import DetectionSet, Detection, save_box_file

    other = DetectionSet("scene-99999999", [Detection(0, 0, 5, 5, 0.9, "cat")])
    box_path = tmp_path / "boxes.json"
    save_box_file([other], str(box_path))
    code = main(["infer", *TINY, "--scene-seed", "5", "--boxes-file", str(box_path)])
    assert code == EXIT_DATA
    assert "detect" in capsys.readouterr().err


def test_gen_data_video_descriptor(tmp_path):
    out = tmp_path / "video.json"
    assert main(["gen-data", "--video", "--frames", "5", "--out", str(out), "--seed", "2"]) == EXIT_OK
    payload = json.load(open(out))
    assert len(payload["frames"]) == 5


@pytest.mark.parametrize("flags, video", [
    (["--samples", "5"], True),
    (["--small-config"], True),
    (["--config", "config.json"], True),
    (["--set", "train.batch_size=3"], True),
    (["--frames", "3"], False),  # and the video flag without --video
], ids=["samples", "small_config", "config", "set", "frames_without_video"])
def test_gen_data_video_rejects_dataset_flags(tmp_path, capsys, flags, video):
    out = tmp_path / "video.json"
    mode = ["--video", "--frames", "2"] if video else []
    assert main(["gen-data", *mode, "--out", str(out), *flags]) == EXIT_USAGE
    assert flags[0] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("edit, field", [
    (lambda s: s["detections"][1].update(box="1234"), "detections[1].box"),
    (lambda s: s["detections"][1].update(box=[1, 2, 3, 4, 5]), "detections[1].box"),
    (lambda s: s["detections"][1].update(box=[1, 2]), "detections[1].box"),
    (lambda s: s["detections"][1].update(box=[1, 2, float("nan"), 4]), "detections[1].box"),
    (lambda s: s["detections"][1].update(box=[1, 2, 10**400, 4]), "detections[1].box"),
    (lambda s: s["detections"][1].update(box=[10, 2, 3, 4]), "detections[1]: degenerate box"),
    (lambda s: s["detections"][1].update(score=True), "detections[1].score"),
    (lambda s: s["detections"][1].update(score=None), "detections[1].score"),
    (lambda s: s["detections"][1].update(label=5), "detections[1].label"),
    (lambda s: s["detections"].__setitem__(1, 7), "detections[1] must be a JSON object"),
    (lambda s: s.update(detections=None), "detections must be a list"),
    (lambda s: s.update(image_id=3), "image_id"),
], ids=["box_string", "box_five_values", "box_two_values", "box_nan", "box_past_float_range", "box_degenerate",
        "score_bool", "score_null", "label_number", "entry_not_an_object", "detections_null", "image_id_number"])
def test_malformed_boxes_file_exits_data_naming_the_field(tmp_path, capsys, edit, field):
    from visionflow.boxes import Detection, DetectionSet

    image_id = generate_scene(5).image_id
    entry = DetectionSet(image_id, [Detection(0, 0, 5, 5, 0.9, "cat"), Detection(2, 2, 9, 9, 0.8, "dog")]).to_dict()
    edit(entry)
    path = tmp_path / "boxes.json"
    path.write_text(json.dumps(entry))
    assert main(["infer", *TINY, "--scene-seed", "5", "--boxes-file", str(path)]) == EXIT_DATA
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("flags, field", [
    (["--set", "assembly.merge=foo"], "assembly.merge"),
    (["--set", "fusion.strategy=foo"], "fusion.strategy"),
    (["--set", "fusion.strategy=[1]"], "fusion.strategy"),
    (["--set", "boxes.nms_iou=2"], "nms_iou"),
    (["--set", "boxes.nms_iou=0"], "nms_iou"),
    (["--set", "fusion.conv_kernel=2"], "conv_kernel"),
    (["--set", "fusion.gate_channels=0"], "gate_channels"),
    (["--set", 'seed="a"'], "seed"),
    (["--set", "seed=1.5"], "seed"),
    (["--set", "seed=" + "1" * 5000], "seed"),
    (["--set", "roi.samples_per_bin=0"], "samples_per_bin"),
    (["--set", "roi.bins=[0,2]"], "bins"),
    (["--set", "roi.bins=[2]"], "bins"),
    (["--set", "assembly.model_dim=0"], "model_dim"),
    (["--set", "encoder.stride_low=0"], "stride_low"),
    (["--set", "train.batch_size=0"], "batch_size"),
    (["--set", "train.stage2_steps=-1"], "stage2_steps"),
    (["--set", "train.lr_stage1=nan"], "train.lr_stage1"),
    (["--set", "train.lr_stage1=NaN"], "train.lr_stage1"),
    (["--set", "boxes=5"], "'boxes'"),
    (["--set", 'encoder.stage_channels=["a",2,3,48]'], "encoder.stage_channels[0]"),
    (["--set", 'video_frames="x"'], "video_frames"),
    (["--set", "tags=5"], "tags"),
    (["--set", "boxes.class_aware=1"], "boxes.class_aware"),
    (["--set", "boxes.max_boxes=true"], "boxes.max_boxes"),
], ids=["merge_flag", "strategy_flag", "strategy_list", "nms_iou_above_one", "nms_iou_flag_zero",
        "even_conv_kernel", "zero_gate_channels", "seed_string", "seed_fractional", "seed_past_the_digit_limit",
        "zero_samples_per_bin",
        "zero_bin", "one_bin_axis", "zero_model_dim", "zero_stride_low", "zero_batch_size",
        "negative_steps", "lr_string", "lr_nan", "section_not_an_object", "stage_channel_string",
        "video_frames_string", "tags_number", "bool_as_int", "int_as_bool"])
def test_malformed_config_value_exits_data_naming_the_field(flags, field, capsys):
    assert main(["infer", "--scene-seed", "5", *flags]) == EXIT_DATA
    assert field in capsys.readouterr().err


def test_an_internal_value_error_is_not_reported_as_a_data_error(monkeypatch):
    def broken_fuse(*args):
        raise ValueError("internal bug")

    monkeypatch.setattr("visionflow.pipeline.fuse", broken_fuse)
    with pytest.raises(ValueError, match="internal bug"):
        main(["infer", *TINY, "--scene-seed", "5"])


@pytest.mark.parametrize("key, value", [
    ("text_ids", [1, 999]),
    ("answer_ids", [-1]),
    ("answer_ids", []),
], ids=["text_id_past_vocab", "negative_answer_id", "empty_answer"])
def test_train_rejects_dataset_token_ids_naming_the_sample(tmp_path, capsys, key, value):
    path = tmp_path / "train.json"
    assert main(["gen-data", *TINY, "--out", str(path), "--samples", "2", "--seed", "0"]) == EXIT_OK
    payload = json.loads(path.read_text())
    payload["samples"][1][key] = value
    path.write_text(json.dumps(payload))
    code = main(["train", *TINY, *ONE_STEP, "--dataset", str(path), "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_DATA
    assert f"samples[1].{key}" in capsys.readouterr().err


def test_box_narrower_than_the_grid_resolution_exits_data(tmp_path, capsys):
    # at a 300 px width the stride-4 grid scale 16/300 is inexact, so a box one
    # float step wide lands on a single grid coordinate
    from visionflow.boxes import Detection, DetectionSet, save_box_file

    scene = generate_scene(5, n_objects=1, height=300, width=300)
    scene_path = tmp_path / "scene.json"
    save_descriptor(scene, str(scene_path))
    sliver = Detection(3.1, 10.0, math.nextafter(3.1, 4.0), 50.0, 0.9, scene.objects[0].label)
    box_path = tmp_path / "boxes.json"
    save_box_file([DetectionSet(scene.image_id, [sliver])], str(box_path))
    assert main(["infer", *TINY, "--input", str(scene_path), "--boxes-file", str(box_path)]) == EXIT_DATA
    assert "zero area" in capsys.readouterr().err


@pytest.mark.parametrize("text, named", [
    ('{"seed": ' + "1" * 5000 + "}", "4300 digits"),
    ("[" * 100_000 + "]" * 100_000, "recursion"),
], ids=["integer_past_the_digit_limit", "nesting_past_the_recursion_limit"])
def test_json_the_decoder_cannot_hold_exits_data_naming_the_file(tmp_path, capsys, text, named):
    path = tmp_path / "scene.json"
    path.write_text(text)
    assert main(["infer", *TINY, "--input", str(path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert str(path) in err and named in err


def test_readme_cli_examples_parse():
    import shlex
    from pathlib import Path

    from visionflow.cli import build_parser

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = readme.split("```sh\n")[1:]
    lines = [line for block in blocks for line in block.split("```")[0].splitlines()
             if line.startswith("visionflow ")]
    assert len(lines) >= 10
    for line in lines:
        build_parser().parse_args(shlex.split(line, comments=True)[1:])
