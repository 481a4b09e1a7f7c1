"""One benchmark run in a fresh process: set up, run, reload, check.

    python3 perfbench/job.py --workload NAME --seed N --trace 0|1 --work DIR

Run from the repository root, with BLAS pinned to one thread by the caller
(``run.py`` does both). Writes ``DIR/result.json``; the exit code is 0 even
when an output check fails, since failures are results.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, build_dataset  # noqa: E402

SETUP_REPEATS = 3
RELOAD_REPEATS = 3  # an untraced run reloads each instance at least this often; a traced one once
RELOAD_BUDGET_S = 2.0  # and for this long in all, shared evenly between the instances
CLUSTERED_ARMS = ("offline_cluster", "transform")


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it can be found."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                return int(fn())
    return None


def environment(seed: int) -> dict:
    return {
        "threads": blas_threads(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }


def clustered_arms(out: Path, workload, n_instances: int) -> list[tuple[Path, int]]:
    """(directory, instance) of every clustered arm the run wrote."""
    if workload.compare:
        return [(out / f"i{i}" / mode, i) for i in range(n_instances) for mode in CLUSTERED_ARMS]
    return [(out / f"i{i}", i) for i in range(n_instances)]  # the one arm is a clustered one


def reload(cli, clustered: list[Path]) -> list[str]:
    """Rebuild each clustered arm's mapping.json and energy.json under ``<arm>/reload``."""
    failures = []
    with contextlib.redirect_stdout(io.StringIO()):
        for arm in clustered:
            cfg = str(arm / "config.json")
            rebuilt = arm / "reload"
            code = cli.main(["map", "--config", cfg, "--checkpoint", str(arm / "checkpoint"),
                             "--clusters", str(arm / "clusters.json"), "--out", str(rebuilt / "mapping.json")])
            code = code or cli.main(["report", "--config", cfg, "--mapping", str(rebuilt / "mapping.json"),
                                     "--storage", "clustered", "--out", str(rebuilt / "energy.json")])
            if code:
                failures.append(f"{arm.name}: reload exited with {code}")
    return failures


def run(workload_name: str, seed: int, traced: bool, work: Path) -> dict:
    from xbarnet import cli, experiment  # cli imports every xbarnet module
    from xbarnet.config import build_config
    from xbarnet.mlp import load_checkpoint

    workload = WORKLOADS[workload_name]
    tracer = Tracer() if traced else None
    if tracer:
        layers.install(tracer)
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    failures: list[str] = []

    setup_s = []
    for rep in range(SETUP_REPEATS):
        setup_dir = work / f"setup{rep}"
        t0 = time.perf_counter()
        with span("config.build_config"):
            instances = workload.instances(seed, setup_dir / "data")
            cfgs = [build_config(inst.raw) for inst in instances]
        with span("datasets.build"):
            datas = [build_dataset(cfg, inst.data_seed) for cfg, inst in zip(cfgs, instances)]
        setup_s.append(time.perf_counter() - t0)
        for data in datas:
            failures += checks.check_counts(data, workload.n_train, workload.n_test, workload.topology[0])
        if rep + 1 < SETUP_REPEATS:
            shutil.rmtree(setup_dir, ignore_errors=True)

    out = work / "out"
    arms = clustered_arms(out, workload, len(instances))
    repeats = 1 if traced else RELOAD_REPEATS
    budget = RELOAD_BUDGET_S / len(instances)
    rows = []
    wall_s = reload_s = 0.0
    artifact_bytes = n_reloads = 0
    clustered = []
    for i, (inst, cfg, data) in enumerate(zip(instances, cfgs, datas)):
        t0 = time.perf_counter()
        if workload.compare:
            rows += experiment.compare(cfg, out / f"i{i}", dataset=data)
        else:
            rows.append(experiment.run_experiment(cfg, out / f"i{i}", dataset=data))
        wall_s += time.perf_counter() - t0
        artifact_bytes += sum(p.stat().st_size for p in (out / f"i{i}").rglob("*") if p.is_file())

        # Reload this instance right away, so that the reloads of a run are
        # spread over its whole length rather than bunched at its end.
        mine = [arm for arm, j in arms if j == i]
        for arm in mine:
            (arm / "config.json").write_text(json.dumps(inst.raw))
        times = []
        while len(times) < repeats or not traced and sum(times) < budget:
            t0 = time.perf_counter()
            failures += reload(cli, mine)
            times.append(time.perf_counter() - t0)
        reload_s += statistics.fmean(times)
        n_reloads += len(times)
        clustered += mine

    per_layer = None
    if tracer:
        tracer.uninstall()
        tracer.counters["experiment.artifact_bytes"] = artifact_bytes
        per_layer = layers.per_layer_metrics(tracer)

    tech = cfgs[0].tech
    for arm in clustered:
        model, _ = load_checkpoint(arm / "checkpoint")
        weights = [layer.weights for layer in model.layers]
        failures += checks.check_arm(arm, weights, tech.crossbar_rows, tech.crossbar_cols)
        if (arm / "reload" / "energy.json").exists():
            failures += checks.check_reload(arm, arm / "reload" / "mapping.json", arm / "reload" / "energy.json")

    hashed = [p for p in sorted(out.rglob("*")) if p.name in ("summary.csv", "mapping.json") and "reload" not in p.parts]
    headline = [r for r in rows if r["mode"] == workload.headline]
    return {
        "env": environment(seed),
        "traced": traced,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "reload_s": reload_s,  # sum over instances of the mean time of one reload
        "n_reloads": n_reloads,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "num_mca": statistics.mean(r["num_mca"] for r in headline),
        "total_E_j": statistics.mean(r["total_E"] for r in headline),
        "accuracy": statistics.mean(r["accuracy"] for r in headline),
        "hashes": {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest() for p in hashed},
        "failures": failures,
        "per_layer": per_layer,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, type=Path)
    args = parser.parse_args()
    args.work.mkdir(parents=True, exist_ok=True)
    result = run(args.workload, args.seed, bool(args.trace), args.work)
    (args.work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
