"""Command-line entry point: infer, train, verify, stats, gen-data.

Exit codes: 0 ok, 1 usage error, 2 data error, 3 verification failure.
A data error is a ``DataError`` (malformed input, named by field), a file
that cannot be read, or malformed JSON or UTF-8; a bad flag value is a usage
error. Anything else is a bug and ends in a traceback. Config precedence is
``--set`` > ``--seed`` > config file > defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import json
import math
import os
import sys

from .boxes import box_stats, load_box_file
from .config import RunConfig, load_config
from .datagen import (
    generate_dataset,
    generate_video_descriptor,
    load_dataset,
    save_dataset,
    small_training_config,
)
from .encoders import LABEL_POOL, DataError, SceneDescriptor, generate_scene, load_json
from .pipeline import build_components, prepare_sample, run_image, run_video
from .training import (
    checkpoint_hash,
    curve_to_csv,
    load_checkpoint_state,
    mean_dataset_nll,
    restore_model,
    save_checkpoint,
    train_two_stage,
)
from .verify import SUITE_BUILDERS, run_suites

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFY = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        raise UsageError(message)


def _parse_ids(text: str | None) -> list[int]:
    if not text:
        return []
    try:
        return [int(v) for v in text.replace(",", " ").split()]
    except ValueError as exc:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from exc


def _int_in(low: int, high: float = math.inf):
    """argparse type: an integer in ``[low, high]``."""
    def parse(text: str) -> int:
        value = int(text)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be in [{low}, {high}], got {value}")
        return value

    parse.__name__ = "integer"
    return parse


def _config_from_args(args, base: dict | None = None) -> RunConfig:
    overrides: dict = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    for item in args.set or []:
        if "=" not in item:
            raise UsageError(f"--set expects KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except (ValueError, RecursionError):  # not JSON (or past the decoder's limits): the raw string
            value = raw
        overrides.pop(key, None)  # a repeated key applies at its last position
        overrides[key] = value
    return load_config(args.config, overrides, base=base)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="root seed (overrides config)")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="dotted config override, e.g. roi.samples_per_bin=4")


def build_parser() -> _Parser:
    parser = _Parser(prog="visionflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("infer", help="run the image/video pipeline and report")
    _add_common(p)
    p.add_argument("--input", help="scene or video descriptor JSON file")
    p.add_argument("--scene-seed", type=int, help="generate a scene instead of reading one")
    p.add_argument("--scene-objects", type=_int_in(0, len(LABEL_POOL)), default=3)
    p.add_argument("--boxes-file", help="ingest detections from a box JSON file")
    p.add_argument("--text-ids", help="comma-separated prompt token ids")
    p.add_argument("--answer-ids", help="comma-separated answer ids to score")
    p.add_argument("--decode", type=_int_in(0), default=0, help="greedy-decode N tokens")
    p.add_argument("--checkpoint", help="load trained parameters from this directory")
    p.add_argument("--threads", type=_int_in(1), default=1,
                   help="parallel per-frame encoding for video inputs")
    p.add_argument("--out", help="write the report JSON here (default stdout)")

    p = sub.add_parser("train", help="two-stage training on a dataset file")
    _add_common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out-dir", required=True, help="checkpoint + loss curve directory")
    p.add_argument("--stage", choices=["both", "pretrain", "finetune"], default="both")
    p.add_argument("--small-config", action="store_true",
                   help="use the bundled desk-scale training config")

    p = sub.add_parser("verify", help="run the invariant battery")
    _add_common(p)
    p.add_argument("--suite", action="append",
                   help="suite name (repeatable): gradients nms roi tokens freeze determinism")
    p.add_argument("--fast", action="store_true", help="reduced trial counts")
    p.add_argument("--inject-fault", action="store_true",
                   help="perturb one analytic gradient; the battery must fail")

    p = sub.add_parser("stats", help="box-count histogram over a corpus")
    p.add_argument("--corpus", required=True, help="box JSON file, directory, or glob")
    p.add_argument("--csv", help="also write CSV here")

    p = sub.add_parser("gen-data", help="generate a synthetic training dataset or video")
    _add_common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--samples", type=_int_in(1), help="dataset size (default 32)")
    p.add_argument("--video", action="store_true", help="emit a video descriptor instead")
    p.add_argument("--frames", type=_int_in(1), help="video frames (default 8)")
    p.add_argument("--small-config", action="store_true",
                   help="use the bundled desk-scale training config")
    return parser


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_infer(args) -> int:
    text_ids = [1, 2, 3, 4] if args.text_ids is None else _parse_ids(args.text_ids)
    if not text_ids:
        raise UsageError("--text-ids is empty; omit the flag for the default prompt 1,2,3,4")
    answer_ids = None if args.answer_ids is None else _parse_ids(args.answer_ids)
    if answer_ids == []:
        raise UsageError("--answer-ids is empty; omit the flag to score nothing")
    if answer_ids and args.decode:
        raise UsageError("--answer-ids scores an answer and --decode generates one; give only one")
    cfg = _config_from_args(args)
    vocab = cfg.assembly.vocab_size
    for flag, ids in (("--text-ids", text_ids), ("--answer-ids", answer_ids or [])):
        if not all(0 <= v < vocab for v in ids):
            raise UsageError(f"{flag} {ids} must lie in [0, {vocab}), the vocabulary")
    components = build_components(cfg)
    if args.checkpoint:
        manifest, state = load_checkpoint_state(args.checkpoint)
        if manifest.get("config_hash") != cfg.config_hash():
            raise DataError(f"checkpoint config_hash {manifest.get('config_hash')!r} != this run's "
                            f"{cfg.config_hash()!r}; infer with the config it was trained with")
        restore_model(components.model, state)
    if args.input:
        payload = load_json(args.input)
        if isinstance(payload, dict) and "frames" in payload:
            if args.boxes_file:
                raise UsageError("--boxes-file applies to single images, but --input names a video")
            frames = payload["frames"]
            if not isinstance(frames, list) or not frames:
                raise DataError(f"video 'frames' must be a list of at least one scene, got {frames!r:.40}")
            frames = [SceneDescriptor.from_dict(f) for f in frames]
            report = run_video(cfg, frames, text_ids, answer_ids, args.decode, components,
                               threads=args.threads)
        else:
            scene = SceneDescriptor.from_dict(payload)
            report = run_image(cfg, scene, text_ids, answer_ids, args.decode,
                               components, args.boxes_file)
    else:
        scene = generate_scene(args.scene_seed if args.scene_seed is not None else cfg.seed,
                               n_objects=args.scene_objects)
        report = run_image(cfg, scene, text_ids, answer_ids, args.decode,
                           components, args.boxes_file)
    _emit(report, args.out)
    return EXIT_OK


def cmd_train(args) -> int:
    base = small_training_config(args.seed or 0).to_dict() if args.small_config else None
    cfg = _config_from_args(args, base=base)
    raw = load_dataset(args.dataset)
    vocab = cfg.assembly.vocab_size
    for i, sample in enumerate(raw):
        for key, ids in (("text_ids", sample.text_ids), ("answer_ids", sample.answer_ids)):
            if not all(0 <= v < vocab for v in ids):
                raise DataError(f"{args.dataset}: samples[{i}].{key} {ids} must lie in [0, {vocab}), the vocabulary")
    components = build_components(cfg)
    prepared = [prepare_sample(components, s.scene, s.text_ids, s.answer_ids) for s in raw]
    model = components.model
    train_cfg = cfg.train
    if args.stage == "pretrain":
        train_cfg = dataclasses.replace(train_cfg, stage2_steps=0)
    elif args.stage == "finetune":
        train_cfg = dataclasses.replace(train_cfg, stage1_steps=0)
    merge, text_first = cfg.assembly.merge, cfg.assembly.text_first
    initial = mean_dataset_nll(model, prepared, merge, text_first)
    curve = train_two_stage(model, prepared, train_cfg, merge=merge, text_first=text_first)
    final = mean_dataset_nll(model, prepared, merge, text_first)
    os.makedirs(args.out_dir, exist_ok=True)
    save_checkpoint(model, args.out_dir, stage=args.stage, seed=cfg.seed,
                    config_hash=cfg.config_hash())
    curve_path = os.path.join(args.out_dir, "loss_curve.csv")
    with open(curve_path, "w", encoding="utf-8") as fh:
        fh.write(curve_to_csv(curve))
    summary = {
        "command": "train",
        "config_hash": cfg.config_hash(),
        "samples": len(prepared),
        "steps": len(curve),
        "initial_mean_nll": initial,
        "final_mean_nll": final,
        "checkpoint": args.out_dir,
        "checkpoint_hash": checkpoint_hash(args.out_dir),
        "loss_curve": curve_path,
    }
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_verify(args) -> int:
    names = None
    if args.suite:
        names = []
        for item in args.suite:
            names.extend(s for s in item.split(",") if s)
        unknown = [n for n in names if n not in SUITE_BUILDERS]
        if unknown:
            raise UsageError(f"unknown suite(s) {unknown}; available: {sorted(SUITE_BUILDERS)}")
    results = run_suites(names, seed=args.seed or 0, fast=args.fast,
                         inject_fault=args.inject_fault)
    all_ok = True
    for suite in results:
        for check in suite.checks:
            status = "PASS" if check.passed else "FAIL"
            print(f"[{status}] {suite.name}/{check.name}: {check.detail}")
        all_ok &= suite.passed
    print(f"verify: {'all suites passed' if all_ok else 'FAILURES detected'}")
    return EXIT_OK if all_ok else EXIT_VERIFY


def cmd_stats(args) -> int:
    paths: list[str] = []
    if os.path.isdir(args.corpus):
        paths = sorted(glob.glob(os.path.join(args.corpus, "*.json")))
    elif os.path.exists(args.corpus):
        paths = [args.corpus]
    else:
        paths = sorted(glob.glob(args.corpus))
    if not paths:
        raise FileNotFoundError(f"no box files match {args.corpus!r}")
    sets = []
    for path in paths:
        sets.extend(load_box_file(path))
    hist = box_stats(sets)
    print(f"{'bin':>8}  count")
    for name, count in hist.items():
        print(f"{name:>8}  {count}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("bin,count\n")
            for name, count in hist.items():
                fh.write(f"{name},{count}\n")
    return EXIT_OK


def cmd_gen_data(args) -> int:
    seed = args.seed or 0
    if args.video:
        given = [flag for flag, value in (("--samples", args.samples), ("--small-config", args.small_config),
                                          ("--config", args.config), ("--set", args.set)) if value]
        if given:
            raise UsageError(f"{', '.join(given)} configure a dataset, but --video emits a video descriptor")
        payload = generate_video_descriptor(seed, n_frames=args.frames or 8)
        _emit(payload, args.out)
        return EXIT_OK
    if args.frames is not None:
        raise UsageError("--frames sets a video's length, but without --video gen-data emits a dataset")
    base = small_training_config(seed).to_dict() if args.small_config else None
    cfg = _config_from_args(args, base=base)
    samples = generate_dataset(cfg, n_samples=args.samples or 32)
    save_dataset(samples, args.out, seed=cfg.seed)
    print(json.dumps({"command": "gen-data", "samples": len(samples), "out": args.out}))
    return EXIT_OK


COMMANDS = {
    "infer": cmd_infer,
    "train": cmd_train,
    "verify": cmd_verify,
    "stats": cmd_stats,
    "gen-data": cmd_gen_data,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, DataError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
