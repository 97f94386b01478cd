"""Store the reference CSV reports that run.py checks each pass against.

  python3 perfbench/make_reference.py

Runs every job of each workload once per seed 0..31, in this process,
and writes perfbench/reference/<workload>.json.gz, mapping seed -> job
index -> report name -> CSV text.  Regenerate only when a change is meant
to alter the reports, and say so where the change is recorded.
"""

from __future__ import annotations

import gzip
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEEDS = 32


def main() -> int:
    import sidonlab.cli as cli

    workdir = HERE.parent / ".bench_work" / "reference"
    (HERE / "reference").mkdir(exist_ok=True)
    for name in workloads.NAMES:
        refs = {}
        for seed in range(SEEDS):
            shutil.rmtree(workdir, ignore_errors=True)
            jobs = run.write_jobs(workdir, name, seed, tiny=False)
            _, rcs, errs = worker.run_pass(cli, jobs)
            bad = [(i, rc, e) for i, (rc, e) in enumerate(zip(rcs, errs)) if rc]
            if bad:
                print(f"{name} seed {seed}: failed jobs {bad}", file=sys.stderr)
                return 1
            refs[str(seed)] = worker.read_outputs(jobs)
            print(f"{name} seed {seed}: ok", flush=True)
        shutil.rmtree(workdir, ignore_errors=True)
        path = HERE / "reference" / f"{name}.json.gz"
        with gzip.GzipFile(path, "wb", mtime=0) as fh:
            fh.write(json.dumps(refs, sort_keys=True).encode())
        print(f"wrote {path} ({path.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
