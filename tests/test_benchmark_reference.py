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


def test_demo_tower_reproduced(monkeypatch):
    """run.py's precondition: singer_set and optimal_stage_params still give
    the frozen demo tower that both workloads run on."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py adds src to it
    (run,) = perfbench_modules("run")
    assert run.demo_tower_reproduced()


@pytest.mark.parametrize("workload", ["exact-sweep", "orbit-mc"])
def test_reports_equal_stored_reference(tmp_path, workload):
    run, worker = perfbench_modules("run", "worker")
    for seed in range(6):
        jobs = run.write_jobs(tmp_path / str(seed), workload, seed, tiny=False)
        _, rcs, errs = worker.run_pass(cli, jobs)
        assert rcs == [0] * len(jobs), errs
        assert worker.read_outputs(jobs) == run.stored_reference(workload, seed)


@pytest.mark.parametrize("workload", ["exact-sweep", "orbit-mc"])
def test_traced_later_pass_equals_stored_reference(tmp_path, workload):
    """A second pass in the same process, traced as worker.py traces its
    passes, gives the stored reports too: what one pass leaves behind must
    not change the next one's reports, and neither may the tracer."""
    run, worker, tracing = perfbench_modules("run", "worker", "tracing")
    jobs = run.write_jobs(tmp_path, workload, 0, tiny=False)
    for traced in (False, True):
        worker.clear_outputs(jobs)
        tracer = tracing.Tracer()
        if traced:
            tracer.install()
        try:
            _, rcs, errs = worker.run_pass(cli, jobs)
        finally:
            tracer.uninstall()
        assert rcs == [0] * len(jobs), errs
        assert worker.read_outputs(jobs) == run.stored_reference(workload, 0), traced


def test_traced_names_resolve():
    """Every name perfbench/tracing.py wraps exists, and uninstalling the
    tracer puts every original back."""
    (tracing,) = perfbench_modules("tracing")
    targets = [(sys.modules[f"sidonlab.{mod}"], cls, attr)
               for mod, cls, attr, _, _ in tracing.TARGETS]
    owners = [getattr(home, cls) if cls else home for home, cls, _ in targets]
    owners += [m for name, m in sys.modules.items()
               if name == "sidonlab" or name.startswith("sidonlab.")]
    before = {(id(o), k): v for o in owners for k, v in vars(o).items()}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = {(id(owner), attr) for owner, attr, _ in tracer._saved}
        for owner, (_, _, attr) in zip(owners, targets):
            assert (id(owner), attr) in wrapped, (owner, attr)
    finally:
        tracer.uninstall()
    after = {(id(o), k): v for o in owners for k, v in vars(o).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
