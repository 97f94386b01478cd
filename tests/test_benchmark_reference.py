"""Every benchmark job's reports equal the stored reference byte for byte.

perfbench/reference holds the CSVs of each workload's jobs per seed.  The
jobs are written and run here the way perfbench/worker.py runs one pass,
in this process and without timing them.
"""

import importlib
import sys
from pathlib import Path

import pytest

import sidonlab.cli as cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_modules(*names):
    """Import perfbench's scripts as modules, writing no bytecode there."""
    sys.path.insert(0, str(PERFBENCH))
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return [importlib.import_module(name) for name in names]
    finally:
        sys.dont_write_bytecode = saved
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("workload", ["exact-sweep", "orbit-mc"])
def test_reports_equal_stored_reference(tmp_path, workload):
    run, worker = perfbench_modules("run", "worker")
    for seed in range(6):
        jobs = run.write_jobs(tmp_path / str(seed), workload, seed, tiny=False)
        _, rcs, errs = worker.run_pass(cli, jobs)
        assert rcs == [0] * len(jobs), errs
        assert worker.read_outputs(jobs) == run.stored_reference(workload, seed)
