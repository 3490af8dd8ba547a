"""Check that per-layer `.calls` counts repeat exactly between two traced runs.

    python3 perfbench/selfcheck.py --workload cli-mixed --seed 1 --seconds 5

Run from the root of a webflat checkout.  It runs `run.py --trace 1` twice
with the same seed and exits 1 if any `.calls` metric differs, or if either
run reports incorrect output.  Later changes may base count claims on these
counters only while this check passes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

from workloads import WORKLOADS

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def traced_run(workload, seed, seconds):
    argv = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=5)
    args = parser.parse_args(argv)
    first, second = (traced_run(args.workload, args.seed, args.seconds) for _ in range(2))
    differ = [
        name for name, metric in first["metrics"].items()
        if name.endswith(".calls") and metric["value"] != second["metrics"][name]["value"]
    ]
    for name in differ:
        print("%s differs: %s vs %s" % (
            name, first["metrics"][name]["value"], second["metrics"][name]["value"]))
    ok = not differ and first["correct"] and second["correct"]
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "calls_repeat": not differ,
        "correct": first["correct"] and second["correct"],
        "python": platform.python_version(), "nproc": os.cpu_count(),
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
