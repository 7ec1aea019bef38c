"""The isorec benchmark: exact-arithmetic workloads, timed end to end.

    python3 isobench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; isorec is imported from ``src/``
without being installed.  Every pass is a fresh interpreter, one at a time:
the cold cost is what a command-line user pays.

``--trace 0`` runs rounds until ``--seconds`` have passed (at least two).
A round is one timed pass (build the inputs, run every stage, run the
correctness gate) and ``SETUP_PER_ROUND`` passes that only build the
inputs; the seed orders the passes of each round.  The workloads are fixed
exact specs, so the seed changes nothing else.  End-to-end metrics are
medians over the passes.

``--trace 1`` runs one untraced and one traced pass, in an order drawn
from the seed, and reports the per-layer metrics of the traced pass and the
tracing overhead (traced minus untraced ``wall_s``).

The last line of standard output is a JSON object with the keys
``correct``, ``attempted`` (passes), ``failed`` (passes that raised, or
whose gate failed a check that is not a known failure) and ``metrics``.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

from tracing import OVERHEAD_METRIC, layer_metric_names

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

WORKLOADS = ("airy-g0n7", "twobranch-g2n1", "p1")
SETUP_PER_ROUND = 5
MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 150


class PassFailed(Exception):
    """A child interpreter exited without reporting a pass."""


def launch(workload, mode):
    """Run one pass in a fresh interpreter and return its report."""
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, workload, mode, repr(spawned_at)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PassFailed("%s pass timed out after %d s"
                         % (mode, CHILD_TIMEOUT_S)) from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed("%s pass exited with %d: %s"
                         % (mode, proc.returncode, proc.stderr.strip()[-2000:]))
    return json.loads(lines[-1])


def spread(values):
    """(median, first quartile, third quartile)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def timed_run(workload, rng, seconds):
    passes, setups, crashes = [], [], []
    launch(workload, "setup")  # warm-up: compiles bytecode, fills the page cache
    start = time.monotonic()
    rounds = 0
    while True:
        round_start = time.monotonic()
        plan = ["timed"] + ["setup"] * SETUP_PER_ROUND
        rng.shuffle(plan)
        for mode in plan:
            try:
                rep = launch(workload, mode)
            except PassFailed as err:
                if mode == "timed":
                    crashes.append(str(err))
                    continue
                raise
            setups.append(rep["setup_s"])
            if mode == "timed":
                passes.append(rep)
        rounds += 1
        now = time.monotonic()
        if rounds >= MIN_ROUNDS and now - start + (now - round_start) > seconds:
            break
    return passes, setups, crashes


def print_failed_checks(passes):
    seen = set()
    for rep in passes:
        if rep["stage_error"] and rep["stage_error"] not in seen:
            seen.add(rep["stage_error"])
            print("  stage raised: %s" % rep["stage_error"])
        for c in rep["checks"]:
            key = (c["name"], c["detail"])
            if not c["pass"] and key not in seen:
                seen.add(key)
                print("  failed check %s%s: %s"
                      % (c["name"], " (known)" if c["known"] else "",
                         c["detail"]))


def report_timed(workload, seed, passes, setups, crashes):
    checks = [c for rep in passes for c in rep["checks"]]
    failed_checks = sum(not c["pass"] for c in checks)
    rows = {
        "wall_s": ("s", [rep["wall_s"] for rep in passes]),
        "setup_s": ("s", setups),
        "peak_rss_mb": ("MB", [rep["peak_rss_mb"] for rep in passes]),
    }
    print("workload %s, seed %d: %d timed passes, %d set-up samples"
          % (workload, seed, len(passes) + len(crashes), len(setups)))
    metrics = {}
    for name, (unit, values) in rows.items():
        med, q1, q3 = spread(values)
        print("  %-20s %12.6f %-3s (q1 %.6f, q3 %.6f, n=%d)"
              % (name, med, unit, q1, q3, len(values)))
        metrics[name] = {"value": med, "unit": unit}
    print("  %-20s %12.6f fraction (%d of %d checks failed)"
          % ("checks_failed_frac", failed_checks / len(checks),
             failed_checks, len(checks)))
    # checks_failed_frac is 0 on a clean workload; the bounded metric is
    # its complement, which never is
    metrics["checks_passed_frac"] = {
        "value": 1 - failed_checks / len(checks), "unit": "fraction"}
    print_failed_checks(passes)
    for err in crashes:
        print("  pass failed: %s" % err)
    bad = len(crashes) + sum(not rep["correct"] for rep in passes)
    return {"correct": bad == 0, "attempted": len(passes) + len(crashes),
            "failed": bad, "metrics": metrics}


def traced_run(workload, rng):
    modes = ["timed", "traced"]
    rng.shuffle(modes)
    reps = {mode: launch(workload, mode) for mode in modes}
    return reps["timed"], reps["traced"]


def report_traced(workload, seed, plain, traced):
    layers = dict(traced["layers"])
    layers[OVERHEAD_METRIC[0]] = traced["wall_s"] - plain["wall_s"]
    print("workload %s, seed %d: traced wall_s %.6f s, untraced %.6f s"
          % (workload, seed, traced["wall_s"], plain["wall_s"]))
    spans = traced["spans"]
    for i, (name, t0, t1, parent) in enumerate(spans):
        depth, p = 0, parent
        while p is not None:
            depth, p = depth + 1, spans[p][3]
        if depth <= 2:
            print("  span %4d %s%-40s %10.6f s at %9.6f"
                  % (i, "  " * depth, name, t1 - t0, t0))
    metrics = {}
    for name, unit in layer_metric_names():
        metrics[name] = {"value": layers[name], "unit": unit}
        print("  %-42s %14.6f %s" % (name, layers[name], unit))
    print_failed_checks([plain, traced])
    bad = sum(not rep["correct"] for rep in (plain, traced))
    return {"correct": bad == 0, "attempted": 2, "failed": bad,
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "isorec", "__init__.py")):
        sys.exit("isobench: no isorec sources under %s"
                 % os.path.join(ROOT, "src"))
    rng = random.Random(args.seed)
    try:
        if args.trace:
            result = report_traced(args.workload, args.seed,
                                   *traced_run(args.workload, rng))
        else:
            passes, setups, crashes = timed_run(args.workload, rng,
                                                args.seconds)
            if not passes:
                sys.exit("isobench: no timed pass completed: %s" % crashes)
            result = report_timed(args.workload, args.seed, passes, setups,
                                  crashes)
    except PassFailed as err:
        sys.exit("isobench: %s" % err)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
