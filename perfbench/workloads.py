"""The benchmark's four seeded workloads: inputs, requests and output checks.

Every input comes from the workload seed, outside the timed section. Scenes
come from ``generate_scene``, videos from ``generate_video_descriptor`` and
the training set from ``generate_dataset(small_training_config(seed))``.
Box files for ``crowded_decode`` come from the benchmark's own named stream,
``perfbench.crowded_decode.boxes``, one file per scene, because
``FileDetector`` parses its whole file on every request.

Each request's output is checked (token accounting, box cap, vocabulary,
finite NLL or loss). On ``DEFAULT_SEED`` it is also compared with the
outputs stored in ``reference.json``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import time
import traceback
from pathlib import Path

from visionflow import boxes, datagen, encoders, pipeline, rng, training
from visionflow.config import RunConfig

DEFAULT_SEED = 0
# Not used while the benchmark was tuned; a later speed claim must also hold here.
HELD_OUT_SEED = 7

REFERENCE_PATH = Path(__file__).with_name("reference.json")
# A change that only alters roundoff (a separable resize moves features by at
# most 2.7e-14) must pass; a wrong NLL or loss must not.
NLL_REL_TOL = 1e-9
LOSS_REL_TOL = 1e-8
REFERENCE_INT_FIELDS = ("sequence_length", "k", "k_per_frame", "segments", "frames", "decoded_ids", "steps")

POOL_SIZE = 8  # distinct inputs per image run, cycled; every input repeats in a run
VIDEO_POOL_SIZE = 2
VIDEO_FRAMES = 12
PROPOSALS = 300
DECODE_TOKENS = 16
TRAIN_SAMPLES = 32
TRAIN_STEPS = (10, 15)  # pretrain, finetune: split 2:3

_FROZEN = {
    "encoders.render_scene.ms", "encoders.LowResEncoder.encode.self_ms",
    "encoders.HighResEncoder.encode.self_ms", "encoders.resize_image.ms",
    "sampling.resize.ms", "sampling.resize.under_encoders.ms",
    "sampling.resize.under_pyramid.ms", "sampling.resize.points",
    "roi.build_pyramid.self_ms", "roi.pyramid_mb", "roi.cells_read_ratio",
    "roi.extract_object_features.ms", "roi.boxes_pooled",
    "boxes.generate_boxes.ms", "boxes.nms_indices.ms", "boxes.proposals",
    "boxes.kept", "boxes.kept_ratio",
}
_MODEL = {
    "fusion.fuse.ms", "assembly.ProjectorParams.apply.ms", "assembly.assemble.ms",
    "assembly.causal_hidden.calls", "assembly.causal_hidden.ms",
    "assembly.sequence_tokens", "assembly.scores_mb", "tensor.tape_nodes",
    "pipeline.other_ms",
}


def _ids(gen, n: int, vocab: int) -> list[int]:
    return [int(v) for v in gen.integers(0, vocab, size=n)]


def _hash(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


class Workload:
    """Inputs and requests of one workload; ``request(i)`` serves pool entry i."""

    name = ""
    expected: frozenset[str] = frozenset()
    pool_size = POOL_SIZE
    steps_per_request = 1
    decode = 0  # greedy-decoded tokens per request; 0 scores the answer instead
    frames = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.cfg = RunConfig()

    def make_inputs(self) -> None:
        """Generate the seeded inputs, writing any files the requests read."""

    def setup(self, on_sample=None) -> None:
        """The set-up a user of this path pays once per process.

        ``on_sample`` is a context-manager factory entered around each
        prepared training sample (the tracer's set-up items)."""
        self.comp = pipeline.build_components(self.cfg)

    def request(self, index: int) -> dict:
        raise NotImplementedError

    # -- output checks ---------------------------------------------------------

    def expectation(self, index: int) -> dict:
        text = self.inputs[index][1]
        return {"frames": self.frames, "text_len": len(text), "decode": self.decode,
                "tokens_per_frame": self.cfg.encoder.num_tokens,
                "max_boxes": self.cfg.boxes.max_boxes, "vocab": self.cfg.assembly.vocab_size}

    def check(self, index: int, out: dict) -> list[str]:
        return check_report(out, self.expectation(index))

    def record(self, out: dict) -> dict:
        """The fields compared with the stored reference outputs."""
        keep = ("sequence_length", "k", "k_per_frame", "segments", "frames",
                "decoded_ids", "nll", "result_hash")
        return {k: out[k] for k in keep}


class ImageWorkload(Workload):
    name = "image"
    expected = frozenset(_FROZEN | _MODEL | {"assembly.score_answer.ms", "pipeline.run_image.ms"})

    def make_inputs(self) -> None:
        gen = rng.stream(self.seed, f"perfbench.{self.name}")
        vocab = self.cfg.assembly.vocab_size
        self.inputs = []
        for _ in range(self.pool_size):
            scene = encoders.generate_scene(int(gen.integers(0, 2**31)), n_objects=3)
            self.inputs.append((scene, _ids(gen, 3, vocab), _ids(gen, 2, vocab)))

    def request(self, index: int) -> dict:
        scene, text, answer = self.inputs[index]
        return pipeline.run_image(self.cfg, scene, text, answer, components=self.comp)


def crowded_proposals(scene: encoders.SceneDescriptor, gen) -> list[boxes.Detection]:
    """300 overlapping proposals labelled with the scene's own tags.

    Half are anchors spread over (and slightly past) the image, half are
    jittered lower-scored copies of an anchor, so the score floor, clipping,
    NMS and the 100-box cap all act.
    """
    labels = [o.label for o in scene.objects]
    dets: list[boxes.Detection] = []
    while len(dets) < PROPOSALS:
        w, h = gen.uniform(32.0, 128.0, size=2)
        x0 = gen.uniform(-8.0, scene.width - w + 8.0)
        y0 = gen.uniform(-8.0, scene.height - h + 8.0)
        score = float(gen.uniform(0.0, 1.0))
        label = labels[int(gen.integers(0, len(labels)))]
        dets.append(boxes.Detection(x0, y0, x0 + w, y0 + h, score, label))
        j = gen.uniform(-0.06, 0.06, size=4) * [w, h, w, h]
        dets.append(boxes.Detection(x0 + j[0], y0 + j[1], x0 + w + j[2], y0 + h + j[3],
                                    score * float(gen.uniform(0.5, 0.95)), label))
    return dets


class CrowdedDecodeWorkload(ImageWorkload):
    name = "crowded_decode"
    expected = frozenset(_FROZEN | _MODEL | {
        "assembly.greedy_decode.ms", "assembly.greedy_decode.ms_per_token",
        "boxes.load_box_file.ms", "pipeline.run_image.ms"})
    decode = DECODE_TOKENS

    def make_inputs(self) -> None:
        super().make_inputs()
        gen = rng.stream(self.seed, f"perfbench.{self.name}.boxes")
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.box_files = []
        for i, (scene, _, _) in enumerate(self.inputs):
            path = self.workdir / f"boxes-{i}.json"
            boxes.save_box_file([boxes.DetectionSet(scene.image_id, crowded_proposals(scene, gen))], str(path))
            self.box_files.append(str(path))

    def request(self, index: int) -> dict:
        scene, text, _ = self.inputs[index]
        return pipeline.run_image(self.cfg, scene, text, decode=self.decode,
                                  components=self.comp, boxes_file=self.box_files[index])


class VideoWorkload(Workload):
    name = "video8"
    expected = frozenset(_FROZEN | _MODEL | {"assembly.score_answer.ms", "pipeline.run_video.ms"})
    pool_size = VIDEO_POOL_SIZE

    @property
    def frames(self) -> int:
        return self.cfg.video_frames

    def make_inputs(self) -> None:
        gen = rng.stream(self.seed, f"perfbench.{self.name}")
        vocab = self.cfg.assembly.vocab_size
        self.inputs = []
        for _ in range(self.pool_size):
            video = datagen.generate_video_descriptor(int(gen.integers(0, 2**31)), n_frames=VIDEO_FRAMES)
            frames = [encoders.SceneDescriptor.from_dict(f) for f in video["frames"]]
            self.inputs.append((frames, _ids(gen, 2, vocab), _ids(gen, 2, vocab)))

    def request(self, index: int) -> dict:
        frames, text, answer = self.inputs[index]
        return pipeline.run_video(self.cfg, frames, text, answer, components=self.comp, threads=1)


class TrainSmallWorkload(Workload):
    name = "train_small"
    expected = frozenset(_FROZEN | _MODEL | {
        "assembly.score_answer.ms", "tensor.Tensor.backward.ms", "training.sample_loss.ms",
        "training.Adam.step.ms", "training.train_two_stage.ms", "pipeline.prepare_sample.ms"})
    pool_size = 1
    steps_per_request = sum(TRAIN_STEPS)

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.cfg = datagen.small_training_config(seed)
        self.dataset_path = self.workdir / "train.json"
        self.train_cfg = dataclasses.replace(self.cfg.train, stage1_steps=TRAIN_STEPS[0],
                                             stage2_steps=TRAIN_STEPS[1])

    def make_inputs(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        raw = datagen.generate_dataset(self.cfg, TRAIN_SAMPLES)
        datagen.save_dataset(raw, str(self.dataset_path), self.seed)

    def setup(self, on_sample=None) -> None:
        """What ``visionflow train`` pays per run: load the set, encode every sample."""
        super().setup()
        raw = datagen.load_dataset(str(self.dataset_path))
        self.prepared = []
        for s in raw:
            with (on_sample or contextlib.nullcontext)():
                self.prepared.append(pipeline.prepare_sample(self.comp, s.scene, s.text_ids, s.answer_ids))

    def request(self, index: int) -> dict:
        model = training.ModelParams.build(self.cfg.fusion, self.cfg.assembly,
                                           self.cfg.object_channels, self.cfg.seed)
        curve = training.train_two_stage(model, self.prepared, self.train_cfg, merge=self.cfg.assembly.merge)
        losses = [p.loss for p in curve]
        return {"steps": len(curve), "stages": [p.stage for p in curve], "losses": losses,
                "result_hash": _hash({"losses": [repr(v) for v in losses]})}

    def check(self, index: int, out: dict) -> list[str]:
        return check_training(out, TRAIN_STEPS)

    def record(self, out: dict) -> dict:
        return {k: out[k] for k in ("steps", "losses", "result_hash")}


WORKLOADS = {w.name: w for w in (ImageWorkload, CrowdedDecodeWorkload, VideoWorkload, TrainSmallWorkload)}


# -- checks -------------------------------------------------------------------


def check_report(report: dict, expect: dict) -> list[str]:
    """Problems with one inference report; an empty list means it passed."""
    problems = []
    seg = report["segments"]
    total = seg["fused"] + seg["object"] + seg["text"]
    if report["sequence_length"] != total:
        problems.append(f"sequence_length {report['sequence_length']} != fused+object+text {total}")
    if seg["fused"] != expect["frames"] * expect["tokens_per_frame"]:
        problems.append(f"fused tokens {seg['fused']} != {expect['frames']} x {expect['tokens_per_frame']}")
    if seg["text"] != expect["text_len"]:
        problems.append(f"text tokens {seg['text']} != {expect['text_len']}")
    if seg["object"] != report["k"] or report["k"] != sum(report["k_per_frame"]):
        problems.append(f"object tokens {seg['object']}, k {report['k']}, k_per_frame {report['k_per_frame']} disagree")
    if len(report["k_per_frame"]) != expect["frames"]:
        problems.append(f"{len(report['k_per_frame'])} frames reported, expected {expect['frames']}")
    if any(k > expect["max_boxes"] for k in report["k_per_frame"]):
        problems.append(f"k_per_frame {report['k_per_frame']} exceeds the box cap {expect['max_boxes']}")
    if not expect["decode"]:
        nll = report["nll"]
        if not isinstance(nll, float) or not math.isfinite(nll) or nll <= 0.0:
            problems.append(f"nll {nll!r} is not a finite positive number")
    else:
        ids = report["decoded_ids"] or []
        if len(ids) != expect["decode"]:
            problems.append(f"{len(ids)} decoded ids, expected {expect['decode']}")
        if any(not isinstance(t, int) or not 0 <= t < expect["vocab"] for t in ids):
            problems.append(f"decoded ids {ids} leave the vocabulary [0, {expect['vocab']})")
    return problems


def check_training(out: dict, steps: tuple[int, int]) -> list[str]:
    problems = []
    want = ["pretrain"] * steps[0] + ["finetune"] * steps[1]
    if out["stages"] != want:
        problems.append(f"stage schedule {out['stages']} != {steps[0]} pretrain + {steps[1]} finetune")
    bad = [v for v in out["losses"] if not math.isfinite(v) or v <= 0.0]
    if bad:
        problems.append(f"non-finite or non-positive losses {bad[:3]}")
    return problems


def compare_reference(record: dict, ref: dict) -> tuple[list[str], list[str]]:
    """(problems, notes) of one output against its stored reference.

    Integer fields must match exactly; NLL and losses within the relative
    tolerances above. ``result_hash`` differences are notes only, since a
    roundoff-only change moves the hash.
    """
    problems, notes = [], []
    for key in REFERENCE_INT_FIELDS:
        if key in ref and record.get(key) != ref[key]:
            problems.append(f"{key} {record.get(key)!r} != reference {ref[key]!r}")
    if ref.get("nll") is not None:
        nll = record.get("nll")
        if not isinstance(nll, float) or not _rel_close(nll, ref["nll"], NLL_REL_TOL):
            problems.append(f"nll {nll!r} differs from reference {ref['nll']!r} by more than {NLL_REL_TOL:g} relative")
    if "losses" in ref:
        got = record.get("losses") or []
        if len(got) != len(ref["losses"]) or not all(
                _rel_close(a, b, LOSS_REL_TOL) for a, b in zip(got, ref["losses"])):
            problems.append(f"loss curve differs from reference by more than {LOSS_REL_TOL:g} relative")
    if record.get("result_hash") != ref.get("result_hash"):
        notes.append("result_hash differs from reference (recorded for information)")
    return problems, notes


def load_reference(name: str) -> list[dict] | None:
    if not REFERENCE_PATH.exists():
        return None
    data = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    if data.get("seed") != DEFAULT_SEED:
        return None
    return data["workloads"].get(name)


# -- serving -------------------------------------------------------------------


class Runner:
    """Serves requests in a closed loop and checks every output."""

    def __init__(self, wl, tracer, reference):
        self.wl = wl
        self.tracer = tracer
        self.reference = reference
        self.first_hash: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: set[str] = set()

    def serve(self, index: int, traced: bool = False) -> float | None:
        """Run pool entry ``index``; seconds taken, or None if it failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if traced:
                with self.tracer.item("request", self.wl.steps_per_request):
                    out = self.wl.request(index)
            else:
                out = self.wl.request(index)
        except Exception:  # noqa: BLE001 - a failed request is counted, the run goes on
            self._fail(index, "raised:\n" + traceback.format_exc())
            return None
        elapsed = time.perf_counter() - t0
        problems = self.check(index, out)
        if problems:
            self._fail(index, "; ".join(problems))
            return None
        return elapsed

    def check(self, index: int, out: dict) -> list[str]:
        problems = self.wl.check(index, out)
        seen = self.first_hash.setdefault(index, out["result_hash"])
        if seen != out["result_hash"]:
            problems.append(f"result_hash {out['result_hash'][:12]} != earlier run of the same input {seen[:12]}")
        if self.reference is not None:
            bad, notes = compare_reference(self.wl.record(out), self.reference[index])
            problems += bad
            self.notes.update(notes)
        return problems

    def _fail(self, index: int, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(f"{self.wl.name}[{index}]: {why}")
