"""One pass of one workload in a fresh interpreter; prints one JSON line.

    python3 isobench/child.py WORKLOAD MODE SPAWNED_AT

MODE is ``setup`` (import isorec and build the inputs, nothing else),
``timed`` (then run every stage and the correctness gate) or ``traced``
(the same with the per-layer tracer installed).  SPAWNED_AT is the
parent's ``time.monotonic()`` just before it started this process, so that
``setup_s`` includes the interpreter's own start-up.
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main(workload, mode, spawned_at):
    import gate
    import workloads
    inputs = workloads.build(workload)
    report = {"setup_s": time.monotonic() - spawned_at}
    if mode == "setup":
        return report
    tracer = None
    if mode == "traced":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    out = dict(inputs)
    try:
        workloads.run(workload, inputs, out)
        report["stage_error"] = None
    except Exception as err:  # the gate counts it through the missing outputs
        report["stage_error"] = "%s: %s" % (type(err).__name__, err)
    report["checks"] = gate.evaluate(workload, out)
    report["wall_s"] = time.perf_counter() - start
    report["correct"] = gate.is_correct(report["checks"])
    report["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        report["layers"] = tracer.metrics()
        report["spans"] = [[name, t0 - start, t1 - start, parent]
                           for name, t0, t1, parent in tracer.spans]
    return report


if __name__ == "__main__":
    workload, mode, spawned_at = sys.argv[1], sys.argv[2], float(sys.argv[3])
    if mode not in ("setup", "timed", "traced"):
        sys.exit("unknown mode %r" % mode)
    print(json.dumps(main(workload, mode, spawned_at)))
