"""Record the values the benchmark's correctness checks compare against.

    python3 bench/record_reference.py --mode smoke
    python3 bench/record_reference.py --mode full      # about 15 minutes

For every seed in 0..REFERENCE_SEEDS-1 this runs one op of each
referenced workload and stores the epoch-1 train loss (train workloads)
or the ERF radius (erf-probe) in bench/reference.json. Re-record only
when a change is meant to alter these values, and say so in its review.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

PATH = os.path.join(HERE, "reference.json")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mode", choices=("full", "smoke"), required=True)
    args = p.parse_args()
    shapes = workloads.SMOKE if args.mode == "smoke" else workloads.FULL
    work_dir = os.path.join(os.path.dirname(HERE), ".bench_out")
    os.makedirs(work_dir, exist_ok=True)
    table = {}
    for name in workloads.REFERENCED:
        values = {}
        for seed in range(workloads.REFERENCE_SEEDS):
            wl = workloads.make(name, shapes, seed, work_dir, reference=None)
            wl.setup()
            wl.op(0)
            values[str(seed)] = wl.recorded
            print(name, seed, repr(wl.recorded), flush=True)
        table[name] = values
    try:
        with open(PATH, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        doc = {}
    doc[args.mode] = table
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
