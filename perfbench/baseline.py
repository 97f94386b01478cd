"""Repeat the benchmark over seeds and record medians, quartiles and spreads.

  python3 perfbench/baseline.py [--first-seed 1] [--out perfbench/baseline.json]

Runs every workload 10 times with --trace 0, each run with its own seed
(--first-seed onwards), interleaving the workloads so that slow drift on
the host hits them alike, then 3 times with --trace 1.  For each metric it
records the median and quartiles (statistics.quantiles, n=4) and the
spread, (q3 - q1) / median.  It exits 1 when an end-to-end spread other
than setup_s reaches the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
TRACED_RUNS = 3


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    res = json.loads(proc.stdout.splitlines()[-1])
    if not res["correct"]:
        raise SystemExit(f"{' '.join(cmd)} reported incorrect output:\n{proc.stderr}")
    return {k: v["value"] for k, v in res["metrics"].items()}


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def versions() -> dict:
    import numpy
    import sympy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "sympy": sympy.__version__,
            "machine": platform.machine()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default=str(HERE / "baseline.json"))
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]

    runs = {(w, t): [] for w in names for t in (0, 1)}
    for trace, count in ((0, RUNS), (1, TRACED_RUNS)):
        for i in range(count):
            for w in names:
                seed = args.first_seed + i
                runs[w, trace].append(run_once(spec, w, seed, trace))
                print(f"{w} seed {seed} trace {trace}: done", file=sys.stderr, flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    out = {"environment": versions(), "run_seconds": spec["run_seconds"],
           "seeds": [args.first_seed, args.first_seed + RUNS - 1],
           "workloads": {}}
    for w in names:
        rec = {}
        for trace in (0, 1):
            got = runs[w, trace]
            if len(got) < 2:
                continue
            for k in got[0]:
                rec[k] = summary([r[k] for r in got])
        out["workloads"][w] = rec
        for k, bound in bounds.items():
            s = rec[k]["spread"]
            flag = "" if k == "setup_s" or s < bound else "  <-- reaches bound"
            ok &= not flag
            print(f"{w:11s} {k:13s} median {rec[k]['median']:12.5g} "
                  f"spread {s:7.2%} (bound {bound:.0%}){flag}")
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
