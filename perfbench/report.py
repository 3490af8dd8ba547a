"""Print every end-to-end metric of every workload, with units, and check outputs.

    python3 perfbench/report.py --seed 1 --seconds 40

Run from the root of a webflat checkout.  Each workload runs in its own
`run.py` process, one after another, so no run sees another's memory or
load.  Exits 1 if any workload reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from workloads import WORKLOADS

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40)
    args = parser.parse_args(argv)
    all_correct = True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        *report, last = proc.stdout.strip().splitlines()
        result = json.loads(last)
        print("\n".join(report))
        print("%-14s correct=%s attempted=%d failed=%d" % (
            workload, result["correct"], result["attempted"], result["failed"]))
        all_correct = all_correct and result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
