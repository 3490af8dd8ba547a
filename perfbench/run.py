"""webflat benchmark harness.

    python3 perfbench/run.py --workload curvature-q --seed 1 --seconds 10 --trace 0

Run from the root of a webflat checkout.  It drives the program only
through `webflat.cli.main(argv)` in this process, or through a fresh
interpreter calling it (`setup_s` and the cli-batch workload).  One client
runs a closed loop: a line is sent only after the previous one completed.
Each pass sends every recorded line of the workload once, in an order drawn
from `--seed`; passes repeat while another one fits in `--seconds` (at
least one always runs).  Every output is checked against
`perfbench/corpus/<workload>.json`.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics of a traced run with `--trace 1`.  The lines before it
name every metric with its unit, plus line_p50_s, line_tail_s and
failed_share, which are reported but not gated, the Python version and
nproc.  Between in-process sends, and before each batch, the harness times
a fixed reference computation (`probe`); that time is left out of every
wall time.  A traced run also writes its spans to
`.bench_out/<workload>-<seed>-spans.jsonl`.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shlex
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import tracer
from workloads import CORPUS_DIR, WORKLOADS, error_name, run_main

SETUP_PER_GAP = 3
BATCH_PROBES = 21
SETUP_LINE = ["discriminant", "--web", "p^3 - p"]
SETUP_STDOUT = "-4\n"
OUT_DIR = ".bench_out"

SETUP_CHILD = (
    "import sys; sys.path.insert(0, 'src'); from webflat.cli import main; "
    "sys.exit(main(%r))" % SETUP_LINE
)
# The batch child: argv is the batch file, then, in a traced run, the spans
# file to write and the directory holding tracer.py.
BATCH_CHILD = """
import json, shlex, sys, time
sys.path.insert(0, 'src')
traced = len(sys.argv) > 2
if traced:
    sys.path.insert(0, sys.argv[3])
    import tracer
    t = tracer.Tracer(clock=time.thread_time)
    t.line_of_argv = {}
    with open(sys.argv[1], encoding='utf-8') as handle:
        for index, line in enumerate(handle):
            t.line_of_argv.setdefault(tuple(shlex.split(line)), []).append(index)
    t.install()
from webflat.cli import main
code = main(['--batch', sys.argv[1]])
if traced:
    t.uninstall()
    with open(sys.argv[2], 'w', encoding='utf-8') as handle:
        json.dump({'spans': t.spans, 'counts': t.counts}, handle)
sys.exit(code)
"""


def probe():
    """A fixed piece of pure-Python work in the program's style (products of
    dict polynomials with Fraction coefficients, integer pseudo-remainders),
    about 2 ms on the machine this was tuned on.  It calls nothing of
    webflat, so its time moves only with the machine's speed."""
    f = {(i, j): Fraction(i - 2 * j + 1, j + 2) for i in range(6) for j in range(6 - i)}
    g = {(i, j): Fraction(3 * i + j - 4, i + 1) for i in range(5) for j in range(5 - i)}
    h = {}
    for (a, b), c in f.items():
        for (d, e), k in g.items():
            h[a + d, b + e] = h.get((a + d, b + e), 0) + c * k
    divisor = [5**i + i for i in range(12)]
    for _ in range(3):
        r = [3**i - 7 * i for i in range(40)]
        while len(r) >= len(divisor):
            lead, shift = r[-1], len(r) - len(divisor)
            r = [x * divisor[-1] for x in r]
            for i, y in enumerate(divisor):
                r[i + shift] -= lead * y
            r.pop()
    return h, r


def timed_probe():
    start = time.perf_counter()
    probe()
    return time.perf_counter() - start


def load_corpus(workload):
    with open(os.path.join(CORPUS_DIR, workload + ".json"), encoding="utf-8") as handle:
        return json.load(handle)["lines"]


def is_named_error(name):
    import webflat.errors as errors

    cls = getattr(errors, name or "", None)
    return isinstance(cls, type) and issubclass(cls, errors.WebflatError)


def is_contract(entry):
    """Lines whose expectation is a contract the recording commit did not
    meet; their failures count in `failed` but do not make a run incorrect."""
    return isinstance(entry["exit"], list)


def line_ok(entry, stdout, stderr, code, raised):
    """A line passes on the expected stdout bytes, exit code and error name."""
    if raised is not None:
        return False
    if is_contract(entry):  # any named error, exit 1 or 2, nothing on stdout
        return stdout == "" and code in entry["exit"] and is_named_error(error_name(stderr))
    return stdout == entry["stdout"] and code == entry["exit"] and error_name(stderr) == entry["error"]


class SetupTimer:
    """Wall time of a fresh interpreter answering one trivial line.  Sampled
    SETUP_PER_GAP times before the first pass and after every pass, so the
    median spans the whole run rather than the VM's speed in its first
    seconds."""

    def __init__(self, env):
        self.env = env
        self.times = []
        self.ok = True

    def sample(self):
        for _ in range(SETUP_PER_GAP):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CHILD], capture_output=True, text=True, env=self.env
            )
            self.times.append(time.perf_counter() - start)
            self.ok = self.ok and proc.returncode == 0 and proc.stdout == SETUP_STDOUT


class Tally:
    def __init__(self, entries):
        self.entries = entries
        self.latencies = [[] for _ in entries]
        self.relative = [[] for _ in entries]  # each send over its probe
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.pass_walls = []

    def record(self, index, seconds, probe_s, ok):
        """probe_s: the time of `probe()` at about the moment of the send."""
        self.latencies[index].append(seconds)
        self.relative[index].append(seconds / probe_s)
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not is_contract(self.entries[index]):
                self.incorrect += 1


def tail_rank(n):
    """Index (ascending order) of the highest percentile with at least ten
    lines beyond it; with fewer than 21 lines that would not be above the
    median, so the maximum is used."""
    return n - 11 if n >= 21 else n - 1


def end_to_end(tally, setup_s, peak_rss_kb):
    """The gated end-to-end metrics, and notes printed beside them.

    line_p50_probes is the median line's latency in units of `probe()`:
    each send's time over the mean time of the probes run just before and
    just after it, a line's value the median over its sends.  The VM this
    was tuned on runs light Python code up to 1.8x slower in spells of one
    to several seconds; a 16 ms line then read 11-20 ms in one-second
    windows while its ratio to the probe stayed within 6.0-6.2 in most of
    them.  line_p50_s, the same in seconds, and line_tail_s are notes: both
    spread by more than any admissible bound between runs."""
    per_line = sorted(statistics.median(samples) for samples in tally.latencies)
    k = tail_rank(len(per_line))
    metrics = {
        "setup_s": (setup_s, "s"),
        "lines_per_s": (statistics.median(len(tally.entries) / w for w in tally.pass_walls), "1/s"),
        "line_p50_probes": (statistics.median(statistics.median(r) for r in tally.relative), "probes"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }
    notes = {
        "line_p50_s": statistics.median(per_line),
        "line_tail_s": per_line[k],
        "tail_percentile": round(100.0 * (k + 1) / len(per_line), 2),
        "lines": len(per_line),
        "passes": len(tally.pass_walls),
        "failed_share": tally.failed / tally.attempted,
    }
    return metrics, notes


# -- passes -------------------------------------------------------------------------
#
# A pass function takes (order, tally, traced), sends every line in `order`,
# records each in `tally`, and returns its wall time and, when traced, the
# pass's spans as {"spans": [...], "counts": {...}}.


def in_process_pass(entries):
    """Lines sent one by one to `webflat.cli.main` in this process."""

    def run_pass(order, tally, traced):
        trace = tracer.Tracer() if traced else None
        if traced:
            trace.install()
        try:
            start = time.perf_counter()
            before = timed_probe()
            probes = before
            for index in order:
                if traced:
                    trace.line = index
                t0 = time.perf_counter()
                stdout, stderr, code, raised = run_main(entries[index]["argv"])
                elapsed = time.perf_counter() - t0
                after = timed_probe()
                probes += after
                ok = line_ok(entries[index], stdout, stderr, code, raised)
                tally.record(index, elapsed, (before + after) / 2, ok)
                before = after
            wall = time.perf_counter() - start - probes
        finally:
            if traced:
                trace.uninstall()
        return wall, {"spans": trace.spans, "counts": trace.counts} if traced else None

    return run_pass


def batch_pass(entries, env, run_dir):
    """All lines as one batch file, run by `webflat --batch` in a fresh
    interpreter; the file (and a traced child's spans) go to run_dir."""

    def run_pass(order, tally, traced):
        path = os.path.join(run_dir, "batch.txt")
        with open(path, "w", encoding="utf-8") as handle:
            for index in order:
                handle.write(shlex.join(entries[index]["argv"]) + "\n")
        probe_s = statistics.median(timed_probe() for _ in range(BATCH_PROBES))
        spans_path = os.path.join(run_dir, "batch-spans.json")
        argv = [sys.executable, "-c", BATCH_CHILD, path]
        if traced:
            argv += [spans_path, os.path.dirname(os.path.abspath(__file__))]
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, env=env)
        wall = time.perf_counter() - start
        expected = [entries[i] for i in order]
        names = [name for name in map(error_name, proc.stderr.splitlines()) if name]
        ok = (
            proc.stdout == "".join(e["stdout"] for e in expected)
            and proc.returncode == max(e["exit"] for e in expected)
            and names == [e["error"] for e in expected if e["error"]]
        )
        # a batch is one request: its lines share its wall time, and all fail with it
        for index in order:
            tally.record(index, wall / len(order), probe_s, ok)
        if not traced:
            return wall, None
        spans = {"spans": [], "counts": {}}  # a child that crashed wrote none
        if os.path.exists(spans_path):
            with open(spans_path, encoding="utf-8") as handle:
                spans = json.load(handle)
            os.remove(spans_path)
        return wall, spans

    return run_pass


def measure(entries, run_pass, rng, seconds, traced, between):
    """Passes over every line, each in a new order drawn from rng, while
    another pass still fits in `seconds`.  With `traced`, each untraced pass
    is followed by a traced one over the same order; only the untraced passes
    feed the end-to-end tally.  `between()` runs before the first pass and
    after every pass."""
    tally = Tally(entries)
    traced_tally = Tally(entries)
    per_pass = []
    traced_walls = []
    spans = None
    order = list(range(len(entries)))
    begin = time.perf_counter()
    between()
    while True:
        rng.shuffle(order)
        wall, _ = run_pass(order, tally, False)
        tally.pass_walls.append(wall)
        if traced:
            traced_wall, spans = run_pass(order, traced_tally, True)
            traced_walls.append(traced_wall)
            per_pass.append(tracer.summarise(spans["spans"], spans["counts"]))
            wall += traced_wall
        between()
        if time.perf_counter() - begin + wall > seconds:
            break
    return tally, traced_tally, per_pass, traced_walls, spans


# -- main ---------------------------------------------------------------------------


def per_layer(per_pass, untraced_walls, traced_walls):
    """Median of each per-layer metric over traced passes, plus the overhead."""
    metrics = {}
    for name, unit in tracer.per_layer_metric_units().items():
        if name == "trace.overhead_share":
            value = statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
        else:
            value = statistics.median(p[name] for p in per_pass)
        metrics[name] = (value, unit)
    return metrics


def calls_repeat(per_pass):
    calls = [{k: v for k, v in p.items() if k.endswith(".calls")} for p in per_pass]
    return all(c == calls[0] for c in calls)


def main(argv=None):
    parser = argparse.ArgumentParser(description="webflat benchmark harness")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "webflat", "cli.py")):
        print("error: no webflat source at %s; run from a checkout root" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import webflat

    if os.path.realpath(os.path.dirname(webflat.__file__)) != os.path.realpath(os.path.join(src, "webflat")):
        print("error: imported webflat from %s, not %s" % (webflat.__file__, src), file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)

    entries = load_corpus(args.workload)
    setup = SetupTimer(env)
    rng = random.Random(args.seed)
    traced = bool(args.trace)
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    if args.workload == "cli-batch":
        run_dir = os.path.join(out_dir, "%d" % os.getpid())
        os.makedirs(run_dir)
        try:
            result = measure(entries, batch_pass(entries, env, run_dir), rng, args.seconds, traced,
                             setup.sample)
        finally:
            for name in os.listdir(run_dir):
                os.remove(os.path.join(run_dir, name))
            os.rmdir(run_dir)
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        result = measure(entries, in_process_pass(entries), rng, args.seconds, traced, setup.sample)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tally, traced_tally, per_pass, traced_walls, spans = result

    e2e, notes = end_to_end(tally, statistics.median(setup.times), peak_kb)
    info = dict(python=platform.python_version(), nproc=os.cpu_count(),
                workload=args.workload, seed=args.seed, **notes)
    attempted = tally.attempted
    failed = tally.failed
    correct = setup.ok and tally.incorrect == 0
    if traced:
        metrics = per_layer(per_pass, tally.pass_walls, traced_walls)
        attempted += traced_tally.attempted
        failed += traced_tally.failed
        # traced output must be byte-identical to the recorded untraced output
        correct = correct and traced_tally.incorrect == 0
        info["traced_passes"] = len(per_pass)
        info["calls_repeat_across_passes"] = calls_repeat(per_pass)
        spans_path = os.path.join(out_dir, "%s-%d-spans.jsonl" % (args.workload, args.seed))
        tracer.write_spans(spans_path, info, spans["spans"], spans["counts"])
        info["spans"] = os.path.relpath(spans_path, root)
    else:
        metrics = e2e
    for name, (value, unit) in e2e.items():
        print("%-16s %-12s %.6g %s" % (args.workload, name, value, unit))
    print("%-16s %-12s %.6g s (not gated)" % (args.workload, "line_p50_s", notes["line_p50_s"]))
    print("%-16s %-12s %.6g s (p%s of %d lines, each the median of its %d sends; not gated)" % (
        args.workload, "line_tail_s", notes["line_tail_s"], notes["tail_percentile"],
        notes["lines"], notes["passes"]))
    print("%-16s %-12s %.6g (%d of %d line executions)" % (
        args.workload, "failed_share", notes["failed_share"], tally.failed, tally.attempted))
    if args.workload == "cli-batch":
        print("%-16s line_p50_probes, line_p50_s and line_tail_s are batch wall time per line, "
              "derived from the same batches as lines_per_s" % args.workload)
    if traced:
        for name, (value, unit) in metrics.items():
            print("%-16s %-40s %.6g %s" % (args.workload, name, value, unit))
    print("%-16s env %s" % (args.workload, json.dumps(info, sort_keys=True)))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
