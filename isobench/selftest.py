"""Shows that the correctness gate bites: tampered outputs must fail it.

    python3 isobench/selftest.py

Runs each workload once in this interpreter, checks that the untampered
outputs fail no check outside the known failures, then tampers with one
output at a time and checks that the gate reports the expected failed
checks and an incorrect pass.  Also checks that ``BENCHMARK.json`` names exactly the
metrics the benchmark prints.  Exits non-zero on the first broken
expectation.  Takes about as long as one round of all three workloads.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
import workloads  # noqa: E402
from isorec import hamflow  # noqa: E402
from tracing import layer_metric_names  # noqa: E402

END_TO_END = ("wall_s", "setup_s", "peak_rss_mb", "checks_passed_frac")


def flip_one_omega_sign(out):
    form = out["eo"].omega(0, 6)
    key = min(form.table)
    form.table[key] = -form.table[key]


def wrong_F2(out):
    out["F"][2] = out["eo"].F[2] = out["F"][2] * 2


def wrong_tau_F2(out):
    out["tau"].terms[2] = out["tau"].terms[2] * 2


def perturbed_flow(out):
    flow = out["flow"]
    flow.p.coeffs[1] = flow.p.coeffs[1] + flow.field.one()
    out["hamilton_residuals"] = hamflow.hamilton_residuals(out["H"], flow)


TAMPERS = {
    "airy-g0n7": [(flip_one_omega_sign,
                   {"digest.RecursionResult", "oracle.wk_genus0.n6"})],
    "twobranch-g2n1": [(wrong_F2,
                        {"digest.RecursionResult", "oracle.gaussian_F2"})],
    "p1": [(wrong_tau_F2, {"digest.TauSeries", "oracle.F2_closed_form",
                           "oracle.H4_is_minus_dF2dt"}),
           (perturbed_flow, {"digest.FlowSeries", "residual.hamilton",
                             "oracle.H4_is_minus_dF2dt"})],
}


def failed(verdicts):
    return {v["name"] for v in verdicts if not v["pass"]}


def expect(ok, message):
    print("%s  %s" % ("ok  " if ok else "FAIL", message))
    if not ok:
        sys.exit(1)


def check_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [m["name"] for m in bench["end_to_end"]]
    expect(names == list(END_TO_END), "BENCHMARK.json end_to_end metrics")
    layers = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    expect(layers == layer_metric_names(), "BENCHMARK.json per_layer metrics")


def main():
    check_benchmark_json()
    for workload, tampers in TAMPERS.items():
        inputs = workloads.build(workload)
        out = dict(inputs)
        workloads.run(workload, inputs, out)
        verdicts = gate.evaluate(workload, out)
        known = gate.KNOWN_FAILURES.get(workload, frozenset())
        expect(failed(verdicts) <= known and gate.is_correct(verdicts),
               "%s: untampered outputs fail only known checks: %s"
               % (workload, sorted(failed(verdicts))))
        for tamper, want in tampers:
            # the p1 tampers change different outputs, so they stack; each
            # expectation names only the checks its own tamper must break
            tamper(out)
            verdicts = gate.evaluate(workload, out)
            got = failed(verdicts) - known
            expect(want <= got and not gate.is_correct(verdicts),
                   "%s: %s fails %s" % (workload, tamper.__name__,
                                        sorted(got)))


if __name__ == "__main__":
    main()
