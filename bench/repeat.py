"""Run the benchmark once per seed and report each metric's spread.

    python3 bench/repeat.py --workload descent --seeds 1 2 3 4 5 6 7 8 9 10

Runs ``bench/run.py`` one seed after another (never in parallel) with
the ``run_seconds`` of BENCHMARK.json, then prints for every end-to-end
metric the median, the quartiles from ``statistics.quantiles(n=4)``,
and the spread (q3 - q1) / median next to the metric's bound.  The
raw results go to ``bench/out/repeat-<workload>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    runs = []
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=180)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"seed {seed}: exit code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        values = " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} {values}", flush=True)

    summary = {}
    for m in spec["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        summary[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                              "spread": spread, "bound": m["bound"]}
        print(f"{m['name']:12s} median {med:.4f} {m['unit']}  q1 {q1:.4f}  "
              f"q3 {q3:.4f}  spread {spread:.3f}  bound {m['bound']}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"repeat-{args.workload}.json"
    path.write_text(json.dumps({"workload": args.workload, "seconds": args.seconds,
                                "runs": runs, "summary": summary}, indent=1))
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
