"""Self-check of the benchmark harness.

  python3 perfbench/selfcheck.py          # about a minute
  python3 perfbench/selfcheck.py --split  # adds two 10 s full-size traced runs

Checks that each workload, run at a tiny size, prints exactly the metric
names and units BENCHMARK.json lists for --trace 0 and --trace 1 and
passes its own oracle; that the oracle rejects perturbed reports; and that
run.py refuses, without a result line, in a directory holding only
BENCHMARK.json and perfbench/.  With --split it also checks the intended
layer split at full size, seed 0: each designated layer covers at least
its stated share of the traced pass (construction half of each workload,
the Sidon generators a fifth of exact-sweep) and each bypassed layer
under 5%.
"""

from __future__ import annotations

import argparse
import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402

# workload -> ({designated layer: least share}, bypassed layers), as
# layer_share.* names.  exact-sweep holds the set-level and the generator
# jobs, so construction must still cover half of it on its own.
SPLIT = {
    "exact-sweep": ({"construction": 0.5, "sidon_generators": 0.2},
                    ("homoclinic", "poisson")),
    "orbit-mc": ({"construction": 0.5}, ("sidon_generators",)),
}


def bench(cwd: Path, *args: str) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout


def result(workload: str, trace: int, size: str, seconds: str) -> dict:
    rc, out = bench(ROOT, "--workload", workload, "--seed", "0", "--seconds",
                    seconds, "--trace", str(trace), "--size", size)
    assert rc == 0, f"{workload} --trace {trace}: exit {rc}"
    res = json.loads(out.splitlines()[-1])
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"], res.keys()
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
    return res


def check_metrics(spec: dict) -> None:
    for workload in workloads.NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            got = result(workload, trace, "tiny", "1")["metrics"]
            want = {m["name"]: m["unit"] for m in spec[key]}
            assert {k: v["unit"] for k, v in got.items()} == want, (workload, trace)
            assert all(isinstance(v["value"], (int, float)) for v in got.values())
            print(f"ok: {workload} --trace {trace} prints {len(got)} metrics")


def check_oracle() -> None:
    with gzip.open(HERE / "reference" / "exact-sweep.json.gz", "rt") as fh:
        corr = json.load(fh)["0"][0]["corr.csv"]
    lines = corr.splitlines()
    body = [i for i, l in enumerate(lines) if l[:1].isdigit()]
    assert oracle.compare("corr.csv", corr, corr) == []

    def perturbed(col: int, value: str) -> str:
        out = list(lines)
        cells = out[body[0]].split(",")
        cells[col] = value
        out[body[0]] = ",".join(cells)
        return "\n".join(out) + "\n"

    # m is an exact column; a huge lo_num leaves lo above the exact value
    assert oracle.compare("corr.csv", perturbed(0, "1"), corr)
    assert oracle.compare("corr.csv", perturbed(1, "1000000"), corr)
    with gzip.open(HERE / "reference" / "orbit-mc.json.gz", "rt") as fh:
        flow = json.load(fh)["0"][0]["flow.csv"]
    header, rows = oracle.parse(flow)
    est, se = float(rows[0]["estimate"]), float(rows[0]["stderr"])
    shifted = flow.replace(rows[0]["estimate"], repr(est + 5 * se), 1)
    assert oracle.compare("flow.csv", shifted, flow)
    print("ok: oracle rejects a changed exact column, a missed exact value and "
          "a 5-stderr Monte Carlo shift")


def check_bare_directory() -> None:
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        rc, out = bench(bare, "--workload", "exact-sweep", "--seed", "0",
                        "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert rc != 0 and '"metrics"' not in out, (rc, out)
    print(f"ok: without the sources run.py exits {rc} and prints no result")


def check_split() -> None:
    for workload, (designated, bypassed) in SPLIT.items():
        m = result(workload, 1, "full", "10")["metrics"]
        share = lambda layer: m[f"layer_share.{layer}"]["value"]
        for layer, least in designated.items():
            assert share(layer) >= least, (workload, layer, share(layer))
        for layer in bypassed:
            assert share(layer) < 0.05, (workload, layer, share(layer))
        print(f"ok: {workload}: "
              + ", ".join(f"{l} {share(l):.1%}" for l in (*designated, *bypassed)))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--split", action="store_true",
                    help="also check the layer split with full-size traced runs")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metrics(spec)
    check_oracle()
    check_bare_directory()
    if args.split:
        check_split()
    return 0


if __name__ == "__main__":
    sys.exit(main())
