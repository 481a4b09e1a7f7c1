"""Experiment configuration: JSON loading with exhaustive validation.

A config file has flat sections (dataset, topology, mode, seed, train, scic,
transform, tech); every field a section leaves out takes its dataclass
default. The top-level seed is the only seed: it draws the initial weights,
the minibatch order and the clustering seeds. The crossbar size is set in
tech only; clustering sizes its clusters to it. Validation collects every
problem before raising, so a bad file reports all its errors at once
instead of one per run attempt.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .datasets import BlobSpec, DigitsSpec, MnistSpec, PlantedSpec
from .hardware import TechConfig
from .mlp import TrainConfig
from .sizecluster import SizeClusterConfig
from .transform import TransformConfig

MODES = ("original", "prune", "offline_cluster", "transform")
DATASET_SPECS = {
    "mnist": MnistSpec, "surrogate_digits": DigitsSpec, "blobs": BlobSpec, "planted": PlantedSpec,
}
DATASET_KINDS = tuple(DATASET_SPECS)
CROSSBAR = ("crossbar_rows", "crossbar_cols")  # set in ``tech`` only; clustering sizes clusters to it


class ConfigError(ValueError):
    """Carries the full list of validation problems."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {p}" for p in problems))


@dataclass
class ExperimentConfig:
    dataset: dict
    topology: list[int]
    mode: str
    seed: int
    out_dir: str | None
    transform: TransformConfig
    tech: TechConfig

    @property
    def scic(self) -> SizeClusterConfig:
        return self.transform.scic


def _matches_type(value, expected: type) -> bool:
    """JSON value check against a field default's type: an int may stand for a float, a bool only for a bool."""
    if isinstance(value, bool):
        return expected is bool
    return isinstance(value, expected) or (expected is float and isinstance(value, int))


def _check_fields(section, name: str, cls, problems: list[str], set_elsewhere=()) -> dict:
    """The known, well-typed fields of one config section; reports the rest to ``problems``.

    Types come from the field defaults; fields in ``set_elsewhere`` take their values elsewhere.
    A float must be finite: ``json`` reads ``NaN`` and ``Infinity``, which slip past range checks.
    """
    if not isinstance(section, dict):
        problems.append(f"{name}: must be an object, got {type(section).__name__}")
        return {}
    defaults = {f.name: f.default for f in fields(cls) if f.name not in set_elsewhere}
    kwargs = {}
    for key, value in section.items():
        if key not in defaults:
            problems.append(f"{name}.{key}: unknown field (expected one of {sorted(defaults)})")
        elif not _matches_type(value, type(defaults[key])):
            problems.append(f"{name}.{key}: must be {type(defaults[key]).__name__}, got {value!r}")
        elif isinstance(value, float) and not math.isfinite(value):
            problems.append(f"{name}.{key}: must be finite, got {value!r}")
        else:
            kwargs[key] = value
    return kwargs


def _construct(cls, name: str, problems: list[str], **kwargs):
    """``cls(**kwargs)``, or None with its range error added to ``problems``."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        problems.append(f"{name}: {exc}")
        return None


def build_config(raw: dict, base_dir: Path | None = None) -> ExperimentConfig:
    """Validate a raw config dict and assemble the typed configuration."""
    problems: list[str] = []

    dataset = raw.get("dataset")
    if not isinstance(dataset, dict) or "kind" not in dataset:
        problems.append("dataset: required object with a 'kind' field")
        dataset = {"kind": "blobs"}
    elif dataset["kind"] not in DATASET_KINDS:
        problems.append(f"dataset.kind: {dataset['kind']!r} not one of {DATASET_KINDS}")
        dataset = {"kind": None}
    if dataset.get("kind") in ("mnist", "surrogate_digits") and "dir" not in dataset:
        problems.append(f"dataset.dir: required for kind {dataset.get('kind')!r}")
    spec_cls = DATASET_SPECS.get(dataset.get("kind"))
    if spec_cls is not None:
        fields_given = {k: v for k, v in dataset.items() if k != "kind"}
        spec_kwargs = _check_fields(fields_given, "dataset", spec_cls, problems)

    topology = raw.get("topology")
    if (
        not isinstance(topology, list)
        or len(topology) < 2
        or not all(_matches_type(w, int) and w >= 1 for w in topology)
    ):
        problems.append("topology: need a list of >=2 integer widths, all >=1")
        topology = [4, 2]

    mode = raw.get("mode", "transform")
    if mode not in MODES:
        problems.append(f"mode: {mode!r} not one of {MODES}")
        mode = "transform"

    seed = raw.get("seed", 0)
    if not (_matches_type(seed, int) and seed >= 0):
        problems.append("seed: must be a non-negative integer")
        seed = 0

    out_dir = raw.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        problems.append("out_dir: must be a string path")
        out_dir = None

    tech_kwargs = _check_fields(raw.get("tech", {}), "tech", TechConfig, problems)
    train_kwargs = _check_fields(raw.get("train", {}), "train", TrainConfig, problems)
    scic_kwargs = _check_fields(raw.get("scic", {}), "scic", SizeClusterConfig, problems, CROSSBAR)
    transform_kwargs = _check_fields(
        raw.get("transform", {}), "transform", TransformConfig, problems, ("scic", "train")
    )

    known_top = {
        "dataset", "topology", "mode", "seed", "out_dir",
        "train", "scic", "transform", "tech", "_comment",
    }
    for key in raw:
        if key not in known_top:
            problems.append(f"{key}: unknown top-level key")

    # constructor range checks, gathered rather than raised one by one
    tech = _construct(TechConfig, "tech", problems, **tech_kwargs)
    train = _construct(TrainConfig, "train", problems, **train_kwargs)
    scic = _construct(
        SizeClusterConfig, "scic", problems, **{k: getattr(tech, k) for k in CROSSBAR if tech}, **scic_kwargs
    )
    transform = _construct(TransformConfig, "transform", problems, scic=scic, train=train, **transform_kwargs)
    if spec_cls is not None:
        _construct(spec_cls, "dataset", problems, **spec_kwargs)

    if problems:
        raise ConfigError(problems)

    if base_dir is not None and "dir" in dataset:
        d = Path(dataset["dir"])
        if not d.is_absolute():
            dataset = {**dataset, "dir": str(base_dir / d)}

    return ExperimentConfig(
        dataset=dataset,
        topology=list(topology),
        mode=mode,
        seed=seed,
        out_dir=out_dir,
        transform=transform,
        tech=tech,
    )


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Read a JSON config file; ``overrides`` (e.g. CLI flags) win over file values."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{path}: not valid JSON ({exc})"]) from None
    except (IsADirectoryError, UnicodeDecodeError) as exc:
        raise ConfigError([f"{path}: unreadable config file ({type(exc).__name__}: {exc})"]) from None
    if not isinstance(raw, dict):
        raise ConfigError([f"{path}: top level must be a JSON object"])
    for key, value in (overrides or {}).items():
        if value is not None:
            raw[key] = value
    return build_config(raw, base_dir=path.parent)
