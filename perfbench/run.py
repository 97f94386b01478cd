"""sidonlab benchmark: one workload, one closed loop, one JSON result line.

  python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout (it needs ``src/sidonlab``).  The
seed generates the job configs (see workloads.py); the program only sees
the JSON files written from them.  Set-up is timed in fresh processes that
stop once ``sidonlab.cli`` is imported; the jobs then run in one more fresh
process (worker.py), so that set-up time and peak RSS belong to this
workload alone.  Times are scaled to a reference host speed (hostspeed.py);
the unscaled ones go to standard error.  The last line of standard output is

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under ``--trace 0`` and the per-layer metrics
under ``--trace 1``.  ``--size tiny`` shrinks every job for the self-check.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7
WORKER_GRACE_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "rows_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "exact_frac": "frac",
    "ok_frac": "frac",
}


def layer_unit(name: str) -> str:
    if name.endswith("samples_per_s"):
        return "1/s"
    if name.endswith((".calls", ".ranges_out", "lifts_per_query")):
        return "count"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "frac"


def write_jobs(workdir: Path, workload: str, seed: int, tiny: bool) -> list[dict]:
    jobs = []
    for i, job in enumerate(workloads.jobs(workload, seed, tiny)):
        cfg = workdir / "jobs" / f"{i}.json"
        cfg.parent.mkdir(parents=True, exist_ok=True)
        cfg.write_text(json.dumps(job["config"]))
        out = workdir / "out" / str(i)
        argv = [job["cmd"], "--config", str(cfg), "--out", str(out)]
        if job["seed"] is not None:
            argv += ["--seed", str(job["seed"])]
        jobs.append({"argv": argv, "out": str(out)})
    (workdir / "jobs.json").write_text(json.dumps(jobs))
    return jobs


def demo_tower_reproduced() -> bool:
    """Do singer_set + optimal_stage_params still give the frozen demo stages?"""
    sys.path.insert(0, str(ROOT / "src"))
    from sidonlab import ConstructionSpec, singer_set
    from sidonlab.sidon import optimal_stage_params

    h, stages = 1, []
    for q in workloads.DEMO_QS:
        s = singer_set(q)
        stages.append(optimal_stage_params(h, s))
        h *= s.elements[-1] - s.elements[0]
    return ConstructionSpec(1, tuple(stages)).to_dict() == workloads.DEMO_CONSTRUCTION


def stored_reference(workload: str, seed: int) -> list | None:
    """This seed's stored reports (job index -> name -> CSV text), if any."""
    path = HERE / "reference" / f"{workload}.json.gz"
    if not path.is_file():
        return None
    with gzip.open(path, "rt") as fh:
        return json.load(fh).get(str(seed))


def start_worker(args: list[str]) -> tuple[subprocess.Popen, hostspeed.Sampler]:
    """Start worker.py and wait for its ``ready`` line; returns the process
    and the host-speed sampler that timed spawn to ready.  The samples run
    in this process while the worker starts, mostly on the other core, so
    the set-up time is the sampler's ``elapsed``, not its ``busy``."""
    with hostspeed.Sampler() as setup:
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                                stdout=subprocess.PIPE, text=True, cwd=ROOT)
        line = proc.stdout.readline()
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not start: {line!r}")
    return proc, setup


def finish(proc: subprocess.Popen, timeout: float) -> int:
    try:
        rc = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker still running after {timeout:.0f} s")
    proc.stdout.close()
    return rc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sidonlab" / "cli.py").is_file():
        print(f"error: no sidonlab sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    tiny = args.size == "tiny"
    tag = f"{args.workload}-s{args.seed}-{args.size}-t{args.trace}"
    base = ROOT / ".bench_work"
    workdir = base / f"{tag}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        write_jobs(workdir, args.workload, args.seed, tiny)
        problems = []
        if not demo_tower_reproduced():
            problems.append("singer_set no longer reproduces the frozen demo tower")

        result_file = workdir / "result.json"
        wargs = ["--workdir", str(workdir), "--result", str(result_file),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--spans", str(base / f"spans-{tag}.jsonl")]
        reference = None if tiny else stored_reference(args.workload, args.seed)
        if reference is not None:
            (workdir / "reference.json").write_text(json.dumps(reference))
            wargs += ["--reference", str(workdir / "reference.json")]

        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                proc, setup = start_worker([*wargs, "--probe"])
                if finish(proc, WORKER_GRACE_S) != 0:
                    raise RuntimeError("set-up probe failed")
                setups.append(setup)
        proc, setup = start_worker(wargs)
        setups.append(setup)
        if finish(proc, args.seconds + WORKER_GRACE_S) != 0:
            raise RuntimeError("worker failed")
        res = json.loads(result_file.read_text())
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems += res["problems"]
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    if not res["checked_against_reference"]:
        print(f"note: no stored reference for seed {args.seed} at size {args.size}; "
              "checked exit codes and pass-to-pass determinism only",
              file=sys.stderr)

    walls = res["walls"]
    q1, med, q3 = (statistics.quantiles(walls, n=4) if len(walls) > 1
                   else walls * 3)
    print(f"{args.workload} seed {args.seed}: {len(walls)} untraced passes, "
          f"wall_s median {med:.4f} (q1 {q1:.4f}, q3 {q3:.4f}); "
          f"{res['rows_per_pass']} rows per pass", file=sys.stderr)
    print(f"host: loop median {res['loop_ms']:.3f} ms against {1000 * hostspeed.REF_S} ms; "
          f"unscaled pass median {statistics.median(res['raw_walls']):.4f} s"
          + (f", set-up median {statistics.median(s.elapsed for s in setups):.4f} s"
             if not args.trace else ""), file=sys.stderr)

    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in sorted(res["layers"].items())}
    else:
        wall = statistics.median(walls)
        values = {
            "setup_s": statistics.median(s.elapsed * s.scale for s in setups),
            "wall_s": wall,
            "rows_per_s": res["rows_per_pass"] / wall,
            "peak_rss_mib": res["peak_rss_kib"] / 1024,
            "exact_frac": res["exact_rows"] / max(1, res["enclosure_rows"]),
            "ok_frac": (res["attempted"] - res["failed"]) / res["attempted"],
        }
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END_UNITS.items()}
    print(json.dumps({
        "correct": not problems and res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
