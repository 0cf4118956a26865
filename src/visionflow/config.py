"""Run configuration: defaults, JSON loading, dotted overrides, validation.

Precedence is overrides over file over defaults. Validation happens at
construction time; invalid combinations are rejected with the violated
constraint named. All randomness downstream flows from the single root seed
via named streams.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum

from .assembly import AssemblyConfig
from .boxes import BoxPipelineConfig
from .encoders import DataError, EncoderConfig, finite_number, load_json
from .fusion import FusionConfig
from .roi import RoiConfig
from .training import TrainConfig


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    boxes: BoxPipelineConfig = field(default_factory=BoxPipelineConfig)
    roi: RoiConfig = field(default_factory=RoiConfig)
    assembly: AssemblyConfig = field(default_factory=AssemblyConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    tags: str = "synthetic"  # synthetic | coco80 | file:PATH
    video_frames: int = 8

    def __post_init__(self):
        if self.fusion.channels_low != self.encoder.channels_low:
            raise ValueError(
                f"fusion.channels_low {self.fusion.channels_low} != encoder.channels_low {self.encoder.channels_low}"
            )
        if self.fusion.channels_high != self.encoder.channels_high:
            raise ValueError(
                f"fusion.channels_high {self.fusion.channels_high} != encoder.stage_channels[-1] {self.encoder.channels_high}"
            )
        if self.video_frames <= 0:
            raise ValueError(f"video_frames must be positive, got {self.video_frames}")

    @property
    def object_channels(self) -> int:
        return sum(self.encoder.stage_channels)

    def to_dict(self) -> dict:
        def unpack(obj):
            if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
                return {f.name: unpack(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
            if isinstance(obj, Enum):
                return obj.value
            if isinstance(obj, tuple):
                return list(obj)
            return obj

        return unpack(self)

    def config_hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _typed(default, value, name: str):
    """``value`` checked against the type of the field default ``default``: bools
    and ints must be JSON bools and integers, floats any finite number, tuples
    are checked element by element and enums by value. A DataError names ``name``."""
    if isinstance(default, Enum):
        values = [m.value for m in type(default)]
        if value not in values:
            raise DataError(f"{name} must be one of {values}, got {value!r}")
        return type(default)(value)
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)):
            raise DataError(f"{name} must be a list, got {value!r}")
        return tuple(_typed(default[0], v, f"{name}[{i}]") for i, v in enumerate(value))
    if isinstance(default, float):
        finite_number(value, name)
    elif type(value) is not type(default):
        raise DataError(f"{name} must be a JSON {type(default).__name__}, got {value!r}")
    return value


def _build_section(cls, data: dict, path: str):
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    unknown = set(data) - set(defaults)
    if unknown:
        raise DataError(f"unknown key(s) {sorted(unknown)} in config section {path!r}")
    kwargs = {key: _typed(defaults[key], value, f"{path}.{key}") for key, value in data.items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise DataError(f"invalid config section {path!r}: {exc}") from exc


_SECTIONS = {
    "encoder": EncoderConfig,
    "fusion": FusionConfig,
    "boxes": BoxPipelineConfig,
    "roi": RoiConfig,
    "assembly": AssemblyConfig,
    "train": TrainConfig,
}


def config_from_dict(data: dict) -> RunConfig:
    data = dict(data)
    kwargs = {"seed": _typed(RunConfig.seed, data.pop("seed", 0), "seed")}
    for name, cls in _SECTIONS.items():
        section = data.pop(name, {})
        if not isinstance(section, dict):
            raise DataError(f"config section {name!r} must be a JSON object, got {section!r}")
        kwargs[name] = _build_section(cls, section, name)
    for scalar in ("tags", "video_frames"):
        if scalar in data:
            kwargs[scalar] = _typed(getattr(RunConfig, scalar), data.pop(scalar), scalar)
    if data:
        raise DataError(f"unknown top-level config key(s): {sorted(data)}")
    try:
        return RunConfig(**kwargs)
    except ValueError as exc:
        raise DataError(str(exc)) from exc


def _merge_section_wise(base: dict, extra: dict) -> dict:
    """Two-level merge: section dicts update key by key, scalars replace."""
    out = {k: (dict(v) if isinstance(v, dict) else v) for k, v in base.items()}
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key].update(value)
        else:
            out[key] = value
    return out


def load_config(path: str | None = None, overrides: dict | None = None,
                base: dict | None = None) -> RunConfig:
    """Merge defaults, a base dict, an optional JSON file, and overrides.

    Precedence rises left to right. Overrides use dotted keys
    ("boxes.max_boxes") or the top-level names, applied in order; a section
    value merges key by key, as a config file does, so it keeps the keys
    set before it.
    """
    data: dict = {k: (dict(v) if isinstance(v, dict) else v) for k, v in (base or {}).items()}
    if path is not None:
        file_data = load_json(path)
        if not isinstance(file_data, dict):
            raise DataError(f"config file {path!r} must hold a JSON object")
        data = _merge_section_wise(data, file_data)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if "." in key:
            section, leaf = key.split(".", 1)
            data.setdefault(section, {})
            if not isinstance(data[section], dict):
                raise DataError(f"cannot override scalar config key {section!r} with {key!r}")
            data[section][leaf] = value
        else:
            data = _merge_section_wise(data, {key: value})
    return config_from_dict(data)
