"""Ingestion fuzzing through the CLI. Each input a user can hand the program (a
scene, a video, a box file, a tag file, a dataset, a config file, a
checkpoint manifest, ``--set`` values and flag values) starts valid under a
tiny config; one field is then replaced by an arbitrary JSON value or
removed. ``cli.main`` must answer every case with exit 0, 1 or 2 and never
raise: malformed input is a usage or data error, never a traceback.

Integers in config values stay small: nothing caps a config size or step
count yet, so a value like ``vocab_size=10**9`` asks numpy for tens of GB
instead of exiting 2 (ROADMAP #6). File fields also draw unbounded integers.
"""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from visionflow.boxes import Detection, DetectionSet
from visionflow.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from visionflow.datagen import generate_video_descriptor
from visionflow.encoders import generate_scene

TINY_CONFIG = {
    "encoder": {"low_res": 28, "channels_low": 6, "stage_channels": [2, 3, 4, 8]},
    "fusion": {"channels_low": 6, "channels_high": 8, "gate_channels": 4},
    "roi": {"bins": [2, 2], "samples_per_bin": 2},
    "assembly": {"model_dim": 10, "vocab_size": 13, "scorer_hidden": 12},
    "train": {"stage1_steps": 1, "stage2_steps": 0, "batch_size": 2},
}
TINY = [arg for section, body in TINY_CONFIG.items() for arg in ("--set", f"{section}={json.dumps(body)}")]
EXITS = (EXIT_OK, EXIT_USAGE, EXIT_DATA)
FUZZ = settings(derandomize=True, max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

DELETE = object()  # replace a field by removing it


def json_values(ints):
    scalars = st.none() | st.booleans() | ints | st.floats() | st.text(max_size=6)
    return st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=6)


SMALL_JSON = json_values(st.integers(-3, 40))
FILE_JSON = json_values(st.integers(-3, 40) | st.integers() | st.just(10**400))


def field_paths(doc, prefix=()):
    """Every position in a JSON document, the root included."""
    yield prefix
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield from field_paths(value, prefix + (key,))


@st.composite
def one_field_replaced(draw, doc, values):
    """``doc`` with one field replaced by a drawn value, or removed."""
    path = draw(st.sampled_from(list(field_paths(doc))))
    value = draw(values | st.just(DELETE)) if path else draw(values)
    if not path:
        return value
    out = copy.deepcopy(doc)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("ingest")


@pytest.fixture(scope="module")
def dataset_doc(work):
    path = work / "valid_dataset.json"
    assert main(["gen-data", *TINY, "--out", str(path), "--samples", "2", "--seed", "0"]) == EXIT_OK
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def checkpoint(work, dataset_doc):
    out_dir = work / "checkpoint"
    data = write_json(work / "train.json", dataset_doc)
    assert main(["train", *TINY, "--seed", "0", "--dataset", data, "--out-dir", str(out_dir)]) == EXIT_OK
    return out_dir


def infer(work, *extra):
    return main(["infer", *TINY, "--answer-ids", "1,2", "--out", str(work / "report.json"), *extra])


SCENE = generate_scene(9, n_objects=2).to_dict()
VIDEO = generate_video_descriptor(3, n_frames=2)
BOXES = DetectionSet(generate_scene(5).image_id,
                     [Detection(0, 0, 5, 5, 0.9, "cat"), Detection(2, 2, 9, 9, 0.8, "dog")]).to_dict()
TAGS = {"tags": ["cat", "dog"]}


@FUZZ
@given(doc=one_field_replaced(SCENE, FILE_JSON))
def test_any_scene_file_exits_cleanly(work, doc):
    assert infer(work, "--input", write_json(work / "scene.json", doc)) in EXITS


@FUZZ
@given(doc=one_field_replaced(VIDEO, FILE_JSON))
def test_any_video_file_exits_cleanly(work, doc):
    assert infer(work, "--input", write_json(work / "video.json", doc)) in EXITS


@FUZZ
@given(doc=one_field_replaced(BOXES, FILE_JSON))
def test_any_box_file_exits_cleanly(work, doc):
    path = write_json(work / "boxes.json", doc)
    assert infer(work, "--scene-seed", "5", "--boxes-file", path) in EXITS
    assert main(["stats", "--corpus", path]) in EXITS


@FUZZ
@given(doc=one_field_replaced(TAGS, FILE_JSON))
def test_any_tag_file_exits_cleanly(work, doc):
    assert infer(work, "--scene-seed", "5", "--set", "tags=file:" + write_json(work / "tags.json", doc)) in EXITS


@FUZZ
@given(data=st.data())
def test_any_dataset_file_exits_cleanly(work, dataset_doc, data):
    doc = data.draw(one_field_replaced(dataset_doc, FILE_JSON))
    path = write_json(work / "dataset.json", doc)
    assert main(["train", *TINY, "--dataset", path, "--out-dir", str(work / "run")]) in EXITS


@FUZZ
@given(doc=one_field_replaced(TINY_CONFIG, SMALL_JSON))
def test_any_config_file_exits_cleanly(work, doc):
    path = write_json(work / "config.json", doc)
    code = main(["infer", "--config", path, "--scene-seed", "5", "--answer-ids", "1,2",
                 "--out", str(work / "report.json")])
    assert code in EXITS


@FUZZ
@given(data=st.data())
def test_any_checkpoint_manifest_exits_cleanly(work, checkpoint, data):
    manifest = json.loads((checkpoint / "manifest.json").read_text())
    doc = data.draw(one_field_replaced(manifest, FILE_JSON))
    fuzzed = work / "fuzzed_checkpoint"
    fuzzed.mkdir(exist_ok=True)
    (fuzzed / "params.bin").write_bytes((checkpoint / "params.bin").read_bytes())
    write_json(fuzzed / "manifest.json", doc)
    assert infer(work, "--seed", "0", "--scene-seed", "5", "--checkpoint", str(fuzzed)) in EXITS


CONFIG_KEYS = (["seed", "tags", "video_frames", *TINY_CONFIG, "boxes"]
               + [f"{section}.{key}" for section, body in TINY_CONFIG.items() for key in body]
               + ["encoder.stride_low", "fusion.strategy", "fusion.conv_kernel",
                  "fusion.gate_per_channel", "boxes.nms_iou", "boxes.score_floor", "boxes.max_boxes",
                  "boxes.class_aware", "assembly.merge", "assembly.text_first", "train.lr_stage1"])


@FUZZ
@given(key=st.sampled_from(CONFIG_KEYS),
       raw=SMALL_JSON.map(json.dumps) | st.text(max_size=8))
def test_any_set_value_exits_cleanly(work, key, raw):
    assert infer(work, "--scene-seed", "5", "--set", f"{key}={raw}") in EXITS


@FUZZ
@given(flag=st.sampled_from(["--text-ids", "--answer-ids", "--scene-objects", "--scene-seed", "--seed",
                             "--decode"]),
       value=st.text(max_size=8) | st.integers(-3, 40).map(str) | st.floats().map(str))
def test_any_flag_value_exits_cleanly(work, flag, value):
    assert infer(work, "--scene-seed", "5", f"{flag}={value}") in EXITS
