"""The benchmark's fixed workloads, as raw ``xbarnet`` configs plus data seeds.

The workload seed generates the data only. The program's own seed (the
config ``seed``: weight init, shuffling, k-means) is fixed per instance, so
every workload seed runs the same program on different data. See NOTES.md for
why: with a dense first layer the clustering round count swings with the
program seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Instance:
    raw: dict  # xbarnet config; its "seed" is the program seed
    data_seed: int


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str  # "planted" or "surrogate_digits"
    compare: bool  # True: all four arms via ``compare``; False: one arm via ``run_experiment``
    headline: str  # arm whose num_mca / energy / accuracy are reported
    topology: tuple[int, ...]
    n_train: int
    n_test: int
    epochs: int
    max_rounds: int = 50  # size-constrained clustering rounds per layer (xbarnet default: 50)
    n_instances: int = 1

    def instances(self, seed: int, data_dir: Path) -> list[Instance]:
        """Instance ``i`` of workload seed ``seed``: data seed ``n*seed+i``, program seed ``i``."""
        seeds = [self.n_instances * seed + i for i in range(self.n_instances)]
        return [Instance(self._config(i, s, data_dir / f"i{i}"), s) for i, s in enumerate(seeds)]

    def _config(self, program_seed: int, data_seed: int, data_dir: Path) -> dict:
        if self.dataset == "planted":
            in_dim, hidden, n_classes = self.topology
            dataset = {"kind": "planted", "in_dim": in_dim, "hidden": hidden, "n_classes": n_classes, "block": 16}
        else:
            dataset = {"kind": "surrogate_digits", "dir": str(data_dir), "gen_seed": data_seed}
        return {
            "dataset": {**dataset, "n_train": self.n_train, "n_test": self.n_test},
            "topology": list(self.topology),
            "mode": self.headline,
            "seed": program_seed,
            "transform": {"max_epochs": self.epochs},
            "scic": {"max_rounds": self.max_rounds},
        }


def build_dataset(cfg, data_seed: int):
    """Generate and load one instance's data; digits go through the IDX files."""
    from xbarnet import datasets, experiment

    if cfg.dataset["kind"] == "planted":
        fields = {k: v for k, v in cfg.dataset.items() if k != "kind"}
        return datasets.gen_planted(datasets.PlantedSpec(**fields), data_seed)[0]
    return experiment.build_dataset(cfg)  # surrogate digits: gen_seed is the data seed


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("planted_compare", "planted", True, "transform", (128, 128, 2), 4000, 1000,
                 epochs=8, n_instances=8),
        Workload("digits_transform", "surrogate_digits", False, "transform", (784, 256, 10), 6000, 2000,
                 epochs=2),
        Workload("digits_offline", "surrogate_digits", False, "offline_cluster", (784, 256, 10), 6000, 2000,
                 epochs=2, max_rounds=8, n_instances=2),
    )
}
