"""Record the golden regime counts of the ``scan`` workload.

Run from the root of an eppsim checkout, at a commit whose classification is
trusted, for the seeds and scans the benchmark should check:

    python3 perfbench/golden.py

Writes ``perfbench/golden_scan.json``: for seeds 0 .. SEEDS-1 and the first
SCANS scans of each, the count of each regime at each f[00] grid point.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from eppsim import Regime  # noqa: E402
from workloads import GOLDEN_SCAN, SCAN_GRID, SCAN_SAMPLES, SCAN_MAX_ITER, Scan  # noqa: E402

SEEDS = 16
SCANS = 14  # runs of 15 to 20 s complete 3 to 10 scans


def main():
    counts = {}
    for seed in range(SEEDS):
        scan = Scan(seed)
        counts[str(seed)] = [scan.unit(k).output[1] for k in range(SCANS)]
        print(f"seed {seed}: {counts[str(seed)][0]} ...", flush=True)
    with open(GOLDEN_SCAN, "w") as fh:
        json.dump({"f00_grid": SCAN_GRID, "samples": SCAN_SAMPLES, "max_iter": SCAN_MAX_ITER,
                   "regimes": [r.value for r in Regime], "counts": counts}, fh)
        fh.write("\n")


if __name__ == "__main__":
    main()
