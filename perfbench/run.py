"""Benchmark entry point: a closed loop of fresh-process runs of one workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. One client starts one ``job.py`` process at a
time, back to back, until ``--seconds`` have passed and at least two runs
are done. Every run pins OpenBLAS/OpenMP to one thread. With ``--trace 0``
the runs are untraced and the end-to-end metrics are reported; with
``--trace 1`` traced and untraced runs alternate, the per-layer metrics come
from the traced ones and ``trace_overhead_frac`` compares the two.

Human-readable lines come first, then a ``record`` line holding the
environment (thread count, seed, nproc, numpy version) with every metric, and
last one JSON line with ``correct``, ``attempted``, ``failed`` and
``metrics``. A run fails when it crashes, fails an output check, or writes a
``summary.csv``/``mapping.json`` whose hash differs from the first run's.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import metric_specs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK_ROOT = Path(".perfbench_work")
TIME_LIMIT_S = 170.0  # the whole invocation must end within 180 s
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END = {  # name -> unit; timings are medians over runs, the rest must not vary between runs
    "wall_s": "s",
    "setup_s": "s",
    "reload_s": "s",
    "peak_rss_mb": "MB",
    "num_mca": "count",
    "total_E_j": "J",
    "accuracy": "fraction",
}
QUALITY = ("num_mca", "total_E_j", "accuracy")


def run_job(workload: str, seed: int, traced: bool, work: Path, timeout: float) -> dict:
    """Start one job process and wait for it; a crash comes back as a failure."""
    env = {**os.environ, **PINNED}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "job.py"), "--workload", workload, "--seed", str(seed),
             "--trace", str(int(traced)), "--work", str(work)],
            env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"traced": traced, "failures": [f"run timed out after {timeout:.0f} s"]}
    result_path = work / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"traced": traced, "failures": [f"run exited with {proc.returncode}: {tail[0]}"]}
    return json.loads(result_path.read_text())


def judge(results: list[dict]) -> list[list[str]]:
    """Per run, every reason it fails; runs are compared with the first that finished."""
    reference = next((r for r in results if "hashes" in r), None)
    verdicts = []
    for r in results:
        problems = list(r["failures"])
        if "hashes" in r:
            if r["env"]["threads"] != 1:
                problems.append(f"BLAS runs {r['env']['threads']} threads, not 1")
            if r["env"]["threads"] != reference["env"]["threads"]:
                problems.append("thread count differs from the first run; outputs not compared")
            else:
                changed = sorted(k for k in r["hashes"].keys() | reference["hashes"].keys()
                                 if r["hashes"].get(k) != reference["hashes"].get(k))
                if changed:
                    problems.append(f"output hashes differ from the first run: {changed}")
                problems += [f"{key} {r[key]} differs from the first run's {reference[key]}"
                             for key in QUALITY if r[key] != reference[key]]
        verdicts.append(problems)
    return verdicts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not Path("src/xbarnet/__init__.py").is_file():
        print("src/xbarnet not found; run from the repository root", file=sys.stderr)
        return 1

    start = time.perf_counter()
    results: list[dict] = []
    while True:
        traced = bool(args.trace) and len(results) % 2 == 0
        work = WORK_ROOT / f"{os.getpid()}-{len(results)}"
        job_start = time.perf_counter()
        try:
            results.append(run_job(args.workload, args.seed, traced, work,
                                   TIME_LIMIT_S - (job_start - start)))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        elapsed = time.perf_counter() - start
        if elapsed + (elapsed - (job_start - start)) > TIME_LIMIT_S:
            break  # another run like this one would not fit
        if len(results) >= 2 and elapsed >= args.seconds:
            break
    with contextlib.suppress(OSError):
        WORK_ROOT.rmdir()

    verdicts = judge(results)
    finished = [r for r in results if "wall_s" in r]
    if not finished:
        for v in verdicts:
            print("run failed:", "; ".join(v), file=sys.stderr)
        return 1
    failed = sum(1 for v in verdicts if v)
    for n, v in enumerate(verdicts):
        for problem in v:
            print(f"run {n}: CHECK FAILED: {problem}")

    untraced = [r for r in finished if not r["traced"]]
    traced = [r for r in finished if r["traced"]]
    ref = finished[0]
    print(f"workload={args.workload} seed={args.seed} threads={ref['env']['threads']} "
          f"nproc={ref['env']['nproc']} numpy={ref['env']['numpy']} runs={len(results)}")
    if args.trace:
        if not traced or not untraced:
            print("need a finished traced and a finished untraced run", file=sys.stderr)
            return 1
        specs = metric_specs()
        values = {name: statistics.median(r["per_layer"][name] for r in traced)
                  for name in specs if name != "trace_overhead_frac"}
        wall_traced = statistics.median(r["wall_s"] for r in traced)
        values["trace_overhead_frac"] = wall_traced / statistics.median(r["wall_s"] for r in untraced) - 1
        units = {name: unit for name, (unit, _) in specs.items()}
        notes = dict.fromkeys(units, f"median of {len(traced)} traced runs")
    else:
        setups = [s for r in untraced for s in r["setup_s"]]
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in untraced),
            "setup_s": statistics.median(setups),
            "reload_s": statistics.median(r["reload_s"] for r in untraced),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            **{name: ref[name] for name in QUALITY},
        }
        units = END_TO_END
        notes = {
            "wall_s": f"median of {len(untraced)} runs",
            "setup_s": f"median of {len(setups)} set-ups",
            "reload_s": f"median of {len(untraced)} runs, {sum(r['n_reloads'] for r in untraced)} reloads in all",
            "peak_rss_mb": f"median of {len(untraced)} runs",
            **dict.fromkeys(QUALITY, "headline arm, same in every run"),
        }
        print(f"{'check_fail_frac':>44} = {failed / len(results):<14.6g} {'ratio':<8} {failed} of {len(results)} runs")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name:>44} = {m['value']:<14.6g} {m['unit']:<8} {notes[name]}")
    record = {"env": ref["env"], "workload": args.workload, "trace": args.trace, "metrics": metrics,
              **{k: ref[k] for k in QUALITY},
              "outputs_sha256": hashlib.sha256(json.dumps(ref["hashes"], sort_keys=True).encode()).hexdigest()}
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
