"""Runs one workload's jobs through ``sidonlab.cli.main`` in a fresh process.

A closed loop with one client: one thread runs the jobs of a pass one
after another, and the next pass starts when the previous one ends.  The
process prints ``ready`` as soon as ``sidonlab.cli`` is imported (so the
parent can time set-up), then runs passes until ``--seconds`` is used up
and writes its result as JSON to ``--result``.

With ``--trace 1`` untraced and traced passes alternate; the traced ones
give the per-layer metrics and the untraced ones the tracing overhead.
Each pass is timed by a hostspeed.Sampler, both as measured and scaled to
the reference host speed.  Checking outputs happens between passes,
outside the timed region.

Usage (normally started by run.py):
  python3 perfbench/worker.py --workdir DIR --result FILE --seconds S
      --trace 0|1 --spans FILE [--reference FILE] [--probe]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import hostspeed
import oracle
import tracing

ROOT = Path(__file__).resolve().parent.parent


def run_pass(cli, jobs: list[dict]) -> tuple[hostspeed.Sampler, list[int], list[str]]:
    """Run every job once; returns (the pass's host-speed sampler, exit
    codes, stderr texts).  The sampler holds the pass time, raw and at the
    reference host speed."""
    rcs, errs = [], []
    sink = io.StringIO()
    with hostspeed.Sampler() as pass_time:
        for job in jobs:
            err = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(job["argv"])
                except SystemExit as e:
                    rc = e.code
            rcs.append(rc)
            errs.append(err.getvalue())
    return pass_time, rcs, errs


def read_outputs(jobs: list[dict]) -> list[dict[str, str]]:
    return [
        {p.name: p.read_text() for p in sorted(Path(job["out"]).glob("*.csv"))}
        for job in jobs
    ]


def clear_outputs(jobs: list[dict]) -> None:
    for job in jobs:
        shutil.rmtree(job["out"], ignore_errors=True)


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _percentile(xs, q):
    """Nearest-rank percentile (0 when there are no samples)."""
    if not xs:
        return 0.0
    s = sorted(xs)
    return s[min(len(s) - 1, max(0, -(-len(s) * q // 100) - 1))]


def layer_metrics(before: dict, after: dict, wall: float, durations: dict) -> dict:
    """Per-layer metrics of one traced pass from two tracer snapshots."""
    def delta(kind, key):
        return after[kind].get(key, 0) - before[kind].get(key, 0)

    def new_durations(key):
        return durations.get(key, [])[before["n_durations"].get(key, 0):]

    calls = lambda k: delta("calls", k)
    self_s = lambda k: delta("self_s", k)
    count = lambda k: delta("counts", k)
    queries = calls("correlation.pair") + calls("correlation.triple")
    flow_s = delta("total_s", "homoclinic.flow")
    m = {
        "construction.levelset.calls": calls("construction.levelset"),
        "construction.levelset.self_s": self_s("construction.levelset"),
        "construction.lift.calls": calls("construction.lift"),
        "construction.lift.self_s": self_s("construction.lift"),
        "construction.lift.ranges_out": count("lift.ranges_out"),
        "construction.point.calls": calls("construction.point"),
        "construction.point.self_s": self_s("construction.point"),
        "construction.tower_build.self_s": self_s("construction.tower_build"),
        "correlation.pair.calls": calls("correlation.pair"),
        "correlation.pair.self_s": self_s("correlation.pair"),
        "correlation.triple.calls": calls("correlation.triple"),
        "correlation.triple.self_s": self_s("correlation.triple"),
        "correlation.lifts_per_query": count("lift.in_query") / queries if queries else 0.0,
        "correlation.exact_frac": count("query.exact") / queries if queries else 0.0,
        "correlation.mc.self_s": self_s("correlation.mc"),
        "sidon.singer_set.calls": calls("sidon.singer_set"),
        "sidon.singer_set.self_s": self_s("sidon.singer_set"),
        "sidon.singer_set.max_s": max(new_durations("sidon.singer_set"), default=0.0),
        "sidon.mian_chowla.self_s": self_s("sidon.mian_chowla"),
        "sidon.build_from_psi.self_s": self_s("sidon.build_from_psi"),
        "sidon.property_check.calls": calls("sidon.property_check"),
        "sidon.property_check.self_s": self_s("sidon.property_check"),
        "poisson.joint.calls": calls("poisson.joint"),
        "poisson.joint.self_s": self_s("poisson.joint"),
        "poisson.joint.clamped_frac": (count("joint.clamped") / calls("poisson.joint")
                                       if calls("poisson.joint") else 0.0),
        "poisson.mc_joint.self_s": self_s("poisson.mc_joint"),
        "homoclinic.defect.calls": calls("homoclinic.defect"),
        "homoclinic.defect.self_s": self_s("homoclinic.defect"),
        "homoclinic.flow.self_s": self_s("homoclinic.flow"),
        "homoclinic.flow.samples_per_s": count("flow.samples") / flow_s if flow_s else 0.0,
        "homoclinic.pieces.calls": calls("homoclinic.pieces"),
        "homoclinic.pieces.self_s": self_s("homoclinic.pieces"),
        "homoclinic.dmap_init_s": delta("total_s", "homoclinic.dmap_init"),
        "config.parse.self_s": self_s("config.parse"),
        "config.write_csv.self_s": self_s("config.write_csv"),
        "config.write_csv.bytes": count("write_csv.bytes"),
    }
    for layer in tracing.LAYERS:
        busy = sum(v - before["self_s"].get(k, 0) for k, v in after["self_s"].items()
                   if k.split(".")[0] == layer)
        m[f"layer_share.{layer}"] = busy / wall
    m["layer_share.sidon_generators"] = sum(
        self_s(k) for k in tracing.GENERATORS) / wall
    return m


def check_pass(rcs, errs, outputs, first, reference) -> list[list[str]]:
    """Per job, why it failed (empty when it passed).  The first pass is
    checked against the stored reference.  A later report must equal the
    first pass's and then gets that pass's verdict, so a wrong answer is
    charged on every pass, as a nonzero exit is."""
    out = []
    for i, (rc, err, got) in enumerate(zip(rcs, errs, outputs)):
        why = []
        if rc != 0:
            why.append(f"exit {rc}: {err.strip()}")
        elif not got:
            why.append("wrote no report")
        elif first is not None:
            first_got, first_why = first[i]
            why = list(first_why) if got == first_got else [
                "reports differ from the first pass"]
        elif reference is not None:
            ref = reference[i]
            if sorted(ref) != sorted(got):
                why.append(f"reports {sorted(got)} != reference {sorted(ref)}")
            else:
                for name in got:
                    why += oracle.compare(name, got[name], ref[name])
        out.append(why)
    return out


def run(args) -> dict:
    import sidonlab.cli as cli

    jobs = json.loads((Path(args.workdir) / "jobs.json").read_text())
    reference = json.loads(Path(args.reference).read_text()) if args.reference else None

    tracer = tracing.Tracer() if args.trace else None
    passes = {False: [], True: []}  # traced? -> the passes' samplers
    per_pass = []
    attempted = failed = 0
    problems: list[str] = []
    first = None
    rows_per_pass = exact = enclosures = 0
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes[True]) < len(passes[False])
        done = [p.elapsed for p in passes[traced]]
        if done and time.perf_counter() - begin + _median(done) > args.seconds:
            break
        clear_outputs(jobs)
        if traced:
            snap = tracer.snapshot()
            tracer.install()
        try:
            pass_time, rcs, errs = run_pass(cli, jobs)
        finally:
            if traced:
                tracer.uninstall()
        passes[traced].append(pass_time)
        if traced:
            # self times include the loop's samples, like the elapsed time
            per_pass.append(layer_metrics(snap, tracer.snapshot(), pass_time.elapsed,
                                          tracer.durations))

        outputs = read_outputs(jobs)
        verdicts = check_pass(rcs, errs, outputs, first, reference)
        for i, why in enumerate(verdicts):
            attempted += 1
            if why:
                failed += 1
                problems.append(f"job {i} ({jobs[i]['argv'][0]}): " + "; ".join(why[:3]))
        if first is None:
            first = list(zip(outputs, verdicts))
            for out in outputs:
                for name, text in out.items():
                    rows_per_pass += oracle.data_rows(text)
                    e, n = oracle.enclosure_rows(name, text)
                    exact += e
                    enclosures += n

    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "walls": [p.adjusted for p in passes[False]],
        "raw_walls": [p.busy for p in passes[False]],
        "loop_ms": _median([1000 * k for p in passes[False] for k in p.samples]),
        "rows_per_pass": rows_per_pass,
        "exact_rows": exact,
        "enclosure_rows": enclosures,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "checked_against_reference": reference is not None,
    }
    if tracer is not None:
        layers = {k: _median([p[k] for p in per_pass]) for k in per_pass[0]}
        pair = tracer.durations.get("correlation.pair", [])
        layers["correlation.pair.p50_ms"] = 1000 * _percentile(pair, 50)
        layers["correlation.pair.p99_ms"] = 1000 * _percentile(pair, 99)
        layers["trace.overhead_frac"] = (
            _median([p.adjusted for p in passes[True]])
            / _median([p.adjusted for p in passes[False]]) - 1)
        result["layers"] = layers
        with open(args.spans, "w") as fh:
            for sid, parent, name, t0, t1 in tracer.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--probe", action="store_true",
                    help="exit right after set-up (for timing set-up alone)")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--reference", help="this seed's stored reports (JSON)")
    ap.add_argument("--spans", required=True, help="trace file (JSON lines)")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import sidonlab.cli  # noqa: F401  set-up ends when the CLI is importable

    print("ready", flush=True)
    if args.probe:
        return 0
    result = run(args)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
