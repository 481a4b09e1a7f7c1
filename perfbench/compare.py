"""Compare two saved benchmark outputs metric by metric.

    python3 perfbench/run.py --workload W > before.txt   # on the parent
    python3 perfbench/run.py --workload W > after.txt    # on the change
    python3 perfbench/compare.py before.txt after.txt

Reads the ``record`` line of each output. Refuses (exit 2) when the two ran
with different BLAS thread counts, workloads or trace settings: the thread
count alone changes clustering outputs such as ``num_mca``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def read_record(path: str) -> dict:
    for line in Path(path).read_text().splitlines():
        if line.startswith("record "):
            return json.loads(line[len("record "):])
    raise ValueError(f"{path}: no record line")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = (read_record(p) for p in argv)
    if before["env"]["threads"] != after["env"]["threads"]:
        print(f"refusing to compare: threads {before['env']['threads']} vs {after['env']['threads']}",
              file=sys.stderr)
        return 2
    for key in ("workload", "trace"):
        if before[key] != after[key]:
            print(f"refusing to compare: {key} {before[key]} vs {after[key]}", file=sys.stderr)
            return 2
    print(f"workload={before['workload']} threads={before['env']['threads']} "
          f"seeds {before['env']['seed']} -> {after['env']['seed']}")
    for name, old in before["metrics"].items():
        new = after["metrics"].get(name)
        if new is None:
            print(f"{name:>44}: missing after")
            continue
        ratio = new["value"] / old["value"] if old["value"] else float("nan")
        print(f"{name:>44}: {old['value']:<12.6g} -> {new['value']:<12.6g} {old['unit']:<6} x{ratio:.3f}")
    for name in ("num_mca", "total_E_j", "accuracy", "outputs_sha256"):
        if before.get(name) != after.get(name):
            print(f"{name:>44}: {before.get(name)} -> {after.get(name)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
