"""Experiment configuration: JSON loading with exhaustive validation.

A config file has flat sections (dataset, topology, mode, seed, train, scic,
transform, tech, cmos); missing tech/cmos sections fall back to the shipped
default profile. Validation collects every problem before raising, so a bad
file reports all its errors at once instead of one per run attempt.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

from .datasets import BlobSpec, PlantedSpec
from .hardware import CmosConfig, TechConfig
from .mlp import TrainConfig
from .sizecluster import SizeClusterConfig
from .transform import TransformConfig

MODES = ("original", "prune", "offline_cluster", "transform")
DATASET_KINDS = ("mnist", "surrogate_digits", "blobs", "planted")
DATASET_SPECS = {"blobs": BlobSpec, "planted": PlantedSpec}


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
    cmos: CmosConfig
    evals_per_inference: list[int] | None = None

    @property
    def train(self) -> TrainConfig:
        return self.transform.train

    @property
    def scic(self) -> SizeClusterConfig:
        return self.transform.scic


def default_profile() -> dict:
    text = resources.files("xbarnet").joinpath("profiles/default_profile.json").read_text()
    return json.loads(text)


def _check_section(raw: dict, name: str, cls, problems: list[str]) -> dict:
    section = raw.get(name, {})
    if not isinstance(section, dict):
        problems.append(f"{name}: must be an object, got {type(section).__name__}")
        return {}
    known = {f.name for f in fields(cls)}
    for key in section:
        if key not in known:
            problems.append(f"{name}.{key}: unknown field (expected one of {sorted(known)})")
    return {k: v for k, v in section.items() if k in known}


def _matches_type(value, expected: type) -> bool:
    """JSON value check against a field default's type; an int may stand for a float."""
    return isinstance(value, expected) or (expected is float and isinstance(value, int))


def build_config(raw: dict, base_dir: Path | None = None) -> ExperimentConfig:
    """Validate a raw config dict and assemble the typed configuration."""
    problems: list[str] = []

    dataset = raw.get("dataset")
    if not isinstance(dataset, dict) or "kind" not in dataset:
        problems.append("dataset: required object with a 'kind' field")
        dataset = {"kind": "blobs"}
    elif dataset["kind"] not in DATASET_KINDS:
        problems.append(f"dataset.kind: {dataset['kind']!r} not one of {DATASET_KINDS}")
    if dataset.get("kind") in ("mnist", "surrogate_digits") and "dir" not in dataset:
        problems.append(f"dataset.dir: required for kind {dataset.get('kind')!r}")
    spec_cls = DATASET_SPECS.get(dataset.get("kind"))
    spec_kwargs = {}
    if spec_cls is not None:
        defaults = {f.name: f.default for f in fields(spec_cls)}
        for key, value in dataset.items():
            if key == "kind":
                continue
            if key not in defaults:
                problems.append(f"dataset.{key}: unknown field (expected one of {sorted(defaults)})")
            elif not _matches_type(value, type(defaults[key])):
                problems.append(f"dataset.{key}: must be {type(defaults[key]).__name__}, got {value!r}")
            else:
                spec_kwargs[key] = value

    topology = raw.get("topology")
    if (
        not isinstance(topology, list)
        or len(topology) < 2
        or not all(isinstance(w, int) and w >= 1 for w in topology)
    ):
        problems.append("topology: need a list of >=2 integer widths, all >=1")
        topology = [4, 2]

    mode = raw.get("mode", "transform")
    if mode not in MODES:
        problems.append(f"mode: {mode!r} not one of {MODES}")
        mode = "transform"

    seed = raw.get("seed", 0)
    if not isinstance(seed, int):
        problems.append("seed: must be an integer")
        seed = 0

    out_dir = raw.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        problems.append("out_dir: must be a string path")
        out_dir = None

    profile = default_profile()
    tech_kwargs = {**profile["tech"], **_check_section(raw, "tech", TechConfig, problems)}
    cmos_kwargs = {**profile["cmos"], **_check_section(raw, "cmos", CmosConfig, problems)}
    train_kwargs = _check_section(raw, "train", TrainConfig, problems)
    scic_kwargs = _check_section(raw, "scic", SizeClusterConfig, problems)
    transform_kwargs = _check_section(raw, "transform", TransformConfig, problems)
    transform_kwargs.pop("scic", None)
    transform_kwargs.pop("train", None)
    transform_kwargs.pop("seed", None)
    train_kwargs["seed"] = seed

    evals = raw.get("evals_per_inference")
    if evals is not None:
        if not isinstance(evals, list) or len(evals) != len(topology) - 1 or not all(
            isinstance(e, int) and e >= 1 for e in evals
        ):
            problems.append("evals_per_inference: need one integer >=1 per layer")
            evals = None

    known_top = {
        "dataset", "topology", "mode", "seed", "out_dir",
        "train", "scic", "transform", "tech", "cmos", "evals_per_inference", "_comment",
    }
    for key in raw:
        if key not in known_top:
            problems.append(f"{key}: unknown top-level key")

    # constructor range checks, gathered rather than raised one by one
    try:
        tech = TechConfig(**tech_kwargs)
    except (TypeError, ValueError) as exc:
        problems.append(f"tech: {exc}")
        tech = TechConfig()
    try:
        cmos = CmosConfig(**cmos_kwargs)
    except (TypeError, ValueError) as exc:
        problems.append(f"cmos: {exc}")
        cmos = CmosConfig()
    try:
        train = TrainConfig(**train_kwargs)
    except (TypeError, ValueError) as exc:
        problems.append(f"train: {exc}")
        train = TrainConfig(seed=seed)
    try:
        scic = SizeClusterConfig(**scic_kwargs)
    except (TypeError, ValueError) as exc:
        problems.append(f"scic: {exc}")
        scic = SizeClusterConfig()
    try:
        transform = TransformConfig(scic=scic, train=train, seed=seed, **transform_kwargs)
    except (TypeError, ValueError) as exc:
        problems.append(f"transform: {exc}")
        transform = TransformConfig(scic=scic, train=train, seed=seed)
    if spec_cls is not None:
        try:
            spec_cls(**spec_kwargs)
        except ValueError as exc:
            problems.append(f"dataset: {exc}")

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
        cmos=cmos,
        evals_per_inference=evals,
    )


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Read a JSON config file; ``overrides`` (e.g. CLI flags) win over file values."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{path}: not valid JSON ({exc})"]) from None
    if not isinstance(raw, dict):
        raise ConfigError([f"{path}: top level must be a JSON object"])
    for key, value in (overrides or {}).items():
        if value is not None:
            raw[key] = value
    return build_config(raw, base_dir=path.parent)
