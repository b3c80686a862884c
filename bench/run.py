"""symcrit benchmark: one workload in one process, operations back to back.

    python3 bench/run.py --workload descent --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its
``src/`` directory.  BLAS and OpenMP are pinned to one thread.  The
set-up (fresh package import, ambients, inputs, warm-up) is repeated
and its median reported as ``setup_s``; then one client runs
operations in a closed loop for ``--seconds`` and every output is
checked afterwards, outside the timed region.  ``op_s`` and
``setup_s`` are wall times rescaled to the reference host speed
(see calibration.py); the raw wall medians are printed too.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` spends half the time untraced and half traced, reports
the per-layer metrics (per operation) and writes the spans to
``bench/out/``.  Human-readable lines come first; the last line of
standard output is one JSON object.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import workloads  # noqa: E402
from calibration import REFERENCE_S, HostSpeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = HERE / "out"
SETUP_REPEATS = 9


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def rescaled(times, kernel):
    """Wall times rescaled to the reference host speed; ``kernel[i]`` and
    ``kernel[i + 1]`` are the calibration timings taken around ``times[i]``."""
    return [t * 2.0 * REFERENCE_S / (a + b)
            for t, a, b in zip(times, kernel, kernel[1:])]


def set_up(workload_cls, params, host):
    """Repeated set-ups, each between two calibrations; the last
    set-up's workload is kept."""
    times, kernel = [], [host.kernel_s()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        sc = workloads.import_symcrit()
        wl = workload_cls(sc, params)
        times.append(time.perf_counter() - t0)
        kernel.append(host.kernel_s())
    origin = Path(sc.ambient.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"symcrit imported from {origin}, not from {SRC}")
    return wl, times, kernel


def measure(wl, seconds, host, tracer=None, first_op=0, min_ops=None):
    """Closed loop: start operations until ``seconds`` have elapsed and
    at least ``min_ops`` ran (by default one per input).  The host is
    calibrated before the first operation and after each one."""
    min_ops = workloads.DRAWS if min_ops is None else min_ops
    phase = SimpleNamespace(times=[], cpu=[], outputs=[], kernel=[host.kernel_s()])
    start = time.perf_counter()
    while len(phase.times) < min_ops or time.perf_counter() - start < seconds:
        k = len(phase.times)
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            if tracer is None:
                out = wl.run(k)
            else:
                tracer.op = first_op + k
                out = tracer.call("bench.op", wl.run, k)
        except Exception as exc:  # one failed operation must not end the run
            traceback.print_exc(file=sys.stderr)
            out = exc
        phase.times.append(time.perf_counter() - t0)
        phase.cpu.append(time.process_time() - c0)
        phase.outputs.append(out)
        phase.kernel.append(host.kernel_s())
    return phase


def judge(wl, phases):
    """Check every output of every phase.

    Operation k of each phase ran on input k % DRAWS; its output must
    match, bit for bit, the first output seen for that input, so a
    traced operation is compared with an untraced one.
    """
    failed, reference = 0, {}
    for outputs in phases:
        for k, out in enumerate(outputs):
            if isinstance(out, Exception):
                problems = [f"raised {type(out).__name__}: {out}"]
            else:
                problems = wl.check(out)
                digest = wl.digest(out)
                if reference.setdefault(k % workloads.DRAWS, digest) != digest:
                    problems.append("output differs from an earlier one on the same input")
            if problems:
                failed += 1
                print(f"operation {k} failed: {'; '.join(problems)}", file=sys.stderr)
    return failed


def layer_metrics(tracer, untraced, traced):
    """Per-operation layer figures from the spans of the traced phase.

    ``untraced`` and ``traced`` are the two phases from ``measure``;
    time per flow iteration and CPU time come from the untraced one.
    Operation times are rescaled to the reference host speed, like
    ``op_s``; self times and CPU time are raw.
    """
    import numpy as np

    n_ops = len(traced.times)

    T = tracer.table()
    ids = {name: k for k, name in enumerate(tracer.names)}

    def mask(name):
        return T["name"] == ids.get(name, -1)

    def parent_is(name):
        has = T["parent"] >= 0
        out = np.zeros(len(T["name"]), dtype=bool)
        out[has] = T["name"][T["parent"][has]] == ids.get(name, -1)
        return out

    def per_op(x):
        return float(x) / n_ops

    layer_of = np.array([n.split(".", 1)[0] for n in tracer.names], dtype=object)
    span_layer = layer_of[T["name"]]

    # flow: candidates are surfaces the line search displaced; a step is
    # at the cap when its accepted tau equals the stable_step value
    # run_flow computed just before it.
    candidates = np.sum(mask("surface.displaced") & parent_is("flow.flow_step"))
    steps = mask("flow.flow_step") & (T["value"] > 0)
    at_cap, cap = 0, None
    caps = mask("flow.stable_step") & parent_is("flow.run_flow")
    for k in np.flatnonzero(caps | steps):
        if caps[k]:
            cap = T["value"][k]
        elif T["value"][k] == cap:
            at_cap += 1
    accepted = int(np.sum(steps))

    def iterations(outputs):
        return sum(getattr(o, "iterations", 0) for o in outputs)

    untraced_iters = iterations(untraced.outputs)
    untraced_s = rescaled(untraced.times, untraced.kernel)
    op_untraced = statistics.median(untraced_s)
    op_traced = statistics.median(rescaled(traced.times, traced.kernel))

    special = {
        "ambient.christoffel_at.points":
            per_op(np.sum(T["value"][mask("ambient.christoffel_at")])),
        "surface.geometries": per_op(np.sum(mask("surface.SurfaceGeometry"))),
        "flow.iterations": per_op(iterations(traced.outputs)),
        "flow.ms_per_iteration":
            1e3 * sum(untraced_s) / untraced_iters if untraced_iters else 0.0,
        "flow.candidates": per_op(candidates),
        "flow.accept_ratio": accepted / candidates if candidates else 0.0,
        "flow.tau_at_cap_share": at_cap / accepted if accepted else 0.0,
        "verify.fd_l_beta_calls": per_op(np.sum(
            mask("functional.l_beta") & (T["value"] == 1)
            & parent_is("verify.verify_first_variation"))),
        "process.cpu_s_per_op": statistics.median(untraced.cpu),
        "trace.op_s_untraced": op_untraced,
        "trace.op_s_traced": op_traced,
        "trace.overhead": op_traced / op_untraced,
    }

    def compute(metric):
        if metric in special:
            return special[metric]
        head, _, kind = metric.rpartition(".")
        if kind == "self_s" and "." not in head:
            return per_op(np.sum(T["self"][span_layer == head]))
        if kind == "self_s":
            return per_op(np.sum(T["self"][mask(head)]))
        if kind == "calls":
            return per_op(np.sum(mask(head)))
        raise KeyError(f"no rule for per-layer metric {metric!r}")

    return compute


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "symcrit" / "__init__.py").is_file():
        print(f"error: no symcrit package under {SRC}", file=sys.stderr)
        return 2
    if not SPEC.is_file():
        print(f"error: {SPEC} is missing", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    sys.path.insert(0, str(SRC))
    params = workloads.parameters(args.seed)
    host = HostSpeed()
    wl, setup_times, setup_kernel = set_up(workloads.WORKLOADS[args.workload],
                                           params, host)
    print(f"workload {args.workload} seed {args.seed}, inputs cycle over "
          + "; ".join(" ".join(f"{k}={v:.4f}" for k, v in p.items()) for p in params))

    if args.trace:
        from tracing import Tracer

        untraced = measure(wl, args.seconds / 2, host)
        tracer = Tracer()
        tracer.install(wl.sc)
        try:
            traced = measure(wl, args.seconds / 2, host, tracer,
                             first_op=len(untraced.times))
        finally:
            tracer.uninstall()
        compute = layer_metrics(tracer, untraced, traced)
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(trace_path, {
            "workload": args.workload, "seed": args.seed, "params": params,
            "untraced_op_s": untraced.times, "traced_op_s": traced.times,
        })
        print(f"trace {trace_path.relative_to(ROOT)} "
              f"({len(tracer.spans)} spans, {len(traced.times)} traced operations)")
        phases = [untraced.outputs, traced.outputs]
        metrics = [(m, compute(m["name"])) for m in spec["per_layer"]]
    else:
        phase = measure(wl, args.seconds, host)
        phases = [phase.outputs]
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        computed = {
            "op_s": statistics.median(rescaled(phase.times, phase.kernel)),
            "setup_s": statistics.median(rescaled(setup_times, setup_kernel)),
            "peak_rss_mb": peak,
        }
        metrics = [(m, computed[m["name"]]) for m in spec["end_to_end"]]
        speed = REFERENCE_S / statistics.median(phase.kernel)
        print(f"op_s samples {len(phase.times)}; wall median "
              f"{statistics.median(phase.times):.4f} s, min {min(phase.times):.4f} s, "
              f"max {max(phase.times):.4f} s; cpu median "
              f"{statistics.median(phase.cpu):.4f} s; host speed {speed:.3f} "
              f"of reference")
        print(f"setup_s samples {len(setup_times)}; wall median "
              f"{statistics.median(setup_times):.4f} s")

    attempted = sum(len(p) for p in phases)
    failed = judge(wl, phases)
    print(f"fail_share {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for m, value in metrics:
        print(f"{m['name']} {value:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": value, "unit": m["unit"]}
                    for m, value in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
