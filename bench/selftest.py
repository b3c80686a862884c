"""Self-test of the benchmark itself, on seed 0 (the acceptance-gate inputs).

    python3 bench/selftest.py

For every workload it runs one operation untraced and the same
operation traced, and requires bit-identical outputs (the descent's
whole state trace and final surface, the reports' text) and passing
output checks.  It then checks the seed-0 counts that pin the call
structure of the seed commit:

* descent: 523 flow iterations, 2 * 523 + 1 el_operator calls and
  2 * 523 + 1 SurfaceGeometry instances;
* refine: 63 christoffel_at calls;
* variation: 168 geometries, 162 of them built by difference quotients.

A change that alters the call structure on purpose (for example one
that stops recomputing el_operator in the flow) changes these counts.
Exit code 0 when every check holds, 1 otherwise.
"""

import sys

import run  # pins BLAS threads before numpy loads

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402
from calibration import HostSpeed  # noqa: E402
from tracing import Tracer  # noqa: E402

EXPECTED = {
    "descent": {
        "flow.iterations": 523,
        "functional.el_operator.calls": 2 * 523 + 1,
        "surface.geometries": 2 * 523 + 1,
        "flow.tau_at_cap_share": 1.0,
    },
    "refine": {"ambient.christoffel_at.calls": 63},
    "variation": {"surface.geometries": 168, "verify.fd_l_beta_calls": 162},
}


def check_workload(name) -> list:
    problems = []
    wl = workloads.WORKLOADS[name](workloads.import_symcrit(),
                                   workloads.parameters(0))
    host = HostSpeed()
    untraced = run.measure(wl, 0.0, host, min_ops=1)
    tracer = Tracer()
    tracer.install(wl.sc)
    try:
        traced = run.measure(wl, 0.0, host, tracer, min_ops=1)
    finally:
        tracer.uninstall()
    if hasattr(wl.sc.functional.l_beta, "__wrapped__"):
        problems.append("tracer left a wrapper installed")
    if run.judge(wl, [untraced.outputs, traced.outputs]):
        problems.append("an output failed its check or differs traced vs untraced")
    compute = run.layer_metrics(tracer, untraced, traced)
    for metric, want in EXPECTED[name].items():
        got = compute(metric)
        status = "ok" if got == want else "MISMATCH"
        print(f"  {name} {metric} = {got:g} (expected {want:g}) {status}")
        if got != want:
            problems.append(f"{metric} = {got:g}, expected {want:g}")
    return problems


def main():
    failures = 0
    for name in workloads.WORKLOADS:
        problems = check_workload(name)
        print(f"{name}: {'PASS' if not problems else 'FAIL ' + '; '.join(problems)}",
              flush=True)
        failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
