"""Batch command-line front end: one subcommand per harness.

Exit codes: 0 success, 2 config/validation error or unwritable --out, 3
runtime error inside a harness, running out of memory or of the float range
included.  Errors are reported as one JSON object on stderr:
{"code": ..., "module": ..., "message": ..., "context": {...}}.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import __version__
from .config import (
    ConfigError,
    check_keys,
    load_config,
    parse_construction,
    parse_epsilon,
    parse_event,
    parse_int,
    parse_int_grid,
    parse_level_set,
    parse_psi,
    parse_real,
    write_reports,
)
from .construction import (
    NeedsMoreStages,
    SpecValidationError,
    Tower,
    measure_growth,
)
from .correlation import (decay_report, mc_correlation_grid, pair_enclosure_grid,
                          triple_enclosure_grid)
from .homoclinic import (
    PHI_CATALOG,
    DissipativeMap,
    FlowParams,
    NeedsMoreBlocks,
    flow_defect,
    homoclinic_sweep,
    retention_audit,
    wandering_check,
)
from .poisson import mixing_report, triple_mixing_report
from .sidon import GeneratorBudgetError, ShiftBudgetError, sidon_property_check


def _fail(code: int, module: str, message: str, context: dict | None = None):
    print(
        json.dumps(
            {"code": code, "module": module, "message": message,
             "context": context or {}},
            sort_keys=True,
        ),
        file=sys.stderr,
    )
    raise SystemExit(code)


def _tower(cfg: dict, args) -> tuple[Tower, list | None, object]:
    spec, ledger, psi = parse_construction(cfg.get("construction", {}))
    max_depth = len(spec.stages) + 1
    depth = max_depth if args.depth is None else args.depth
    if depth < 1:
        raise ConfigError(f"--depth must be >= 1, got {depth}", "depth")
    if depth > max_depth:
        raise ConfigError(
            f"--depth {depth} exceeds the spec's {max_depth} stages", "depth"
        )
    return Tower(spec, depth), ledger, psi


def _require_seed(args, what: str) -> int:
    if args.seed is None:
        raise ConfigError(f"{what} is stochastic: --seed is mandatory", "seed")
    return args.seed


def _out(args, name: str) -> Path:
    return Path(args.out) / name


# ---------------------------------------------------------------------------
# subcommands


def cmd_build(cfg, digest, args):
    check_keys(cfg, set(), args)
    tower, ledger, _ = _tower(cfg, args)
    r = [st.r for st in tower.spec.stages] + [""]  # the deepest stage is not cut
    rows = []
    for j in range(1, tower.depth + 1):
        st = tower.stage(j)
        E, X = st.base_measure, st.tower_measure
        rows.append({"j": j, "h_j": st.h, "r_j": r[j - 1], "mu_Ej_num": E.numerator,
                     "mu_Ej_den": E.denominator, "mu_Xj_num": X.numerator,
                     "mu_Xj_den": X.denominator})
    _, partials = measure_growth(tower.spec, tower.depth)
    total = tower.stage(tower.depth).tower_measure
    # made before any report is written: float() can overflow
    summary = (f"built {tower.depth} stages; h_max={tower.stage(tower.depth).h}; "
               f"mu(X)={total} ({float(total):.4f}); "
               f"divergence partial sum={float(partials[-1]) if partials else 0:.4f}")
    reports = [(_out(args, "stages.csv"), ["j", "h_j", "r_j", "mu_Ej_num", "mu_Ej_den",
                                           "mu_Xj_num", "mu_Xj_den"], rows)]
    if ledger is not None:
        reports.append((_out(args, "generator_ledger.csv"),
                        ["j", "h_j", "r_j", "N_j", "q", "span", "h_next", "sqrt_ineq_ok"], ledger))
    write_reports(digest, *reports)
    print(summary)


def cmd_check_sidon(cfg, digest, args):
    check_keys(cfg, {"stage", "escape_depth", "m_stride"}, args)
    tower, _, _ = _tower(cfg, args)
    j = parse_int(cfg.get("stage"), "stage", 1)
    report = sidon_property_check(
        tower, j,
        depth=parse_int(cfg.get("escape_depth", 1), "escape_depth", 0),
        m_stride=parse_int(cfg.get("m_stride", 1), "m_stride", 1),
    )
    rows = [{"m": r.m, "pairs": len(r.pairs), "columns": len({p[1] for p in r.pairs}),
             "verdictStrict": r.strict_ok, "verdictRelaxed": r.relaxed_ok,
             "slack_num": r.slack.numerator, "slack_den": r.slack.denominator}
            for r in report.rows]
    write_reports(digest, (_out(args, "check_sidon.csv"),
                           ["m", "pairs", "columns", "verdictStrict", "verdictRelaxed",
                            "slack_num", "slack_den"], rows))
    print(f"stage {j}: strict={report.strict_all} relaxed={report.relaxed_all} "
          f"bound={report.bound} rows={len(report.rows)}")


def cmd_corr(cfg, digest, args):
    check_keys(cfg, {"A", "B", "C", "m", "m_grid", "n", "mc_samples", "epsilon"}, args)
    tower, _, _ = _tower(cfg, args)
    A = parse_level_set(cfg["A"], "A", tower) if "A" in cfg else None
    B = parse_level_set(cfg["B"], "B", tower) if "B" in cfg else None
    if A is None or B is None:
        raise ConfigError("corr config needs sets 'A' and 'B'", "A")
    C = parse_level_set(cfg["C"], "C", tower) if "C" in cfg else None
    eps = parse_epsilon(cfg, args)
    if "m" in cfg and "m_grid" in cfg:
        raise ConfigError("corr config takes 'm' or 'm_grid', not both", "m")
    if "n" in cfg and C is None:
        raise ConfigError("corr config: 'n' is read only with a third set 'C'", "n")
    if "mc_samples" in cfg and C is not None:
        raise ConfigError("corr config: 'mc_samples' is read only without a third set 'C'",
                          "mc_samples")
    if "m_grid" in cfg:
        ms = parse_int_grid(cfg["m_grid"], "m_grid", minimum=0)
    elif "m" in cfg:
        ms = [parse_int(cfg["m"], "m", 0)]
    else:
        raise ConfigError("corr config needs 'm' or 'm_grid'", "m")
    n = parse_int(cfg.get("n", 0), "n", 0)
    mc = parse_int(cfg.get("mc_samples", 0), "mc_samples", 0)
    if mc:
        _require_seed(args, "corr with mc_samples")
    if C is None:
        encs = pair_enclosure_grid(A, B, ms, tower, epsilon=eps)
    else:
        encs = triple_enclosure_grid(A, B, C, n, ms, tower, epsilon=eps)
    rows = [{"m": m, "lo": enc.lo, "hi": enc.hi, "slack": enc.slack} for m, enc in zip(ms, encs)]
    if mc:
        for row, est in zip(rows, mc_correlation_grid(A, B, ms, mc, [args.seed + m for m in ms],
                                                      tower)):
            row["mc_estimate"], row["mc_stderr"] = est
    write_reports(digest, (_out(args, "corr.csv"), ["m", "lo/", "hi/", "slack/"]
                           + (["mc_estimate", "mc_stderr"] if mc else []), rows))
    print(f"{len(rows)} rows -> {_out(args, 'corr.csv')}")


def cmd_decay(cfg, digest, args):
    check_keys(cfg, {"psi", "A", "m_grid", "epsilon"}, args)
    tower, gen_ledger, gen_psi = _tower(cfg, args)
    warning = ""
    if "psi" in cfg:
        psi = parse_psi(cfg["psi"])
        if gen_psi is None:
            warning = "construction has no generator psi; decay bound is unverified"
        elif psi != gen_psi:
            warning = "psi differs from the construction generator's psi"
    elif gen_psi is not None:
        psi = gen_psi
    else:
        raise ConfigError("decay config needs 'psi' (none in construction)", "psi")
    A = parse_level_set(cfg.get("A", {"stage": 2, "ranges": [[0, 1]]}), "A", tower)
    ms = cfg.get("m_grid")
    if not ms:
        raise ConfigError("decay config needs a nonempty 'm_grid'", "m_grid")
    parse_int_grid(ms, "m_grid", minimum=1)
    eps = parse_epsilon(cfg, args)
    rows, c_max, ledger = decay_report(tower, psi, A, ms, epsilon=eps)
    write_reports(digest, (_out(args, "decay.csv"),
                           ["m", "lo/", "hi/", "envelope", "c_of_m", "slack/", "warning"],
                           [{**r, "warning": warning} for r in rows]),
                  (_out(args, "decay_ledger.csv"), ["j", "h_j", "h_next", "sqrt_ineq_ok"], ledger))
    print(f"C_max={c_max:.6f} over {len(rows)} m-values"
          + (f"; warning: {warning}" if warning else ""))


def cmd_poisson(cfg, digest, args):
    mode = cfg.get("mode", "mixing")
    if mode not in ("mixing", "triple"):
        raise ConfigError(f"unknown poisson mode {mode!r}", "mode")
    grid_key = "n_grid" if mode == "mixing" else "mn_grid"
    check_keys(cfg, {"mode", "events", grid_key, "mc_samples", "epsilon"}, args)
    tower, _, _ = _tower(cfg, args)
    eps = parse_epsilon(cfg, args)
    mc = parse_int(cfg.get("mc_samples", 0), "mc_samples", 0)
    seed = _require_seed(args, "poisson with mc_samples") if mc else 0
    events = cfg.get("events", [])
    if not isinstance(events, list):
        raise ConfigError(f"events must be a list of events, got {events!r}", "events")
    events = [parse_event(e, f"events[{i}]", tower) for i, e in enumerate(events)]
    if mode == "mixing":
        if len(events) != 2:
            raise ConfigError("mixing mode needs exactly 2 events", "events")
        grid = parse_int_grid(cfg.get("n_grid", []), "n_grid")
        rows = mixing_report(*events, grid, tower, epsilon=eps, mc_samples=mc, seed=seed)
        first, last = ["n"], []
    else:
        if len(events) != 3:
            raise ConfigError("triple mode needs exactly 3 events", "events")
        grid = [tuple(p) for p in parse_int_grid(cfg.get("mn_grid", []), "mn_grid", 2)]
        rows = triple_mixing_report(*events, grid, tower, epsilon=eps, mc_samples=mc,
                                    seed=seed)
        first, last = ["m", "n"], ["exact_zero_dev"]
    write_reports(digest, (_out(args, "poisson.csv"),
                           [*first, "joint_lo", "joint_hi", "product", "dev_lo", "dev_hi", *last]
                           + (["mc", "mc_stderr"] if mc else []), rows))
    print(f"{len(rows)} rows -> {_out(args, 'poisson.csv')}")


def cmd_homoclinic(cfg, digest, args):
    mode = cfg.get("mode", "sweep")
    mode_keys = {"sweep": {"j_range", "samples_per_stage", "epsilon"},
                 "wandering": {"zmax"}, "retention": set()}
    if not (isinstance(mode, str) and mode in mode_keys):
        raise ConfigError(f"unknown homoclinic mode {mode!r}", "mode")
    check_keys(cfg, {"mode", *mode_keys[mode]}, args)
    tower, _, _ = _tower(cfg, args)
    out = _out(args, "homoclinic.csv")
    if mode == "sweep":
        jr = cfg.get("j_range")
        if not (isinstance(jr, list) and len(jr) == 2):
            raise ConfigError("sweep needs 'j_range': [j_lo, j_hi]", "j_range")
        parse_int_grid(jr, "j_range")
        if not 1 <= jr[0] <= jr[1]:
            raise ConfigError(f"j_range {jr!r} needs 1 <= j_lo <= j_hi", "j_range")
        samples = parse_int(cfg.get("samples_per_stage", 100), "samples_per_stage", 0)
        seed = _require_seed(args, "homoclinic sweep") if samples > 2 else (args.seed or 0)
        rows, stage_max = homoclinic_sweep(
            tower, range(jr[0], jr[1] + 1), samples, seed=seed,
            epsilon=parse_epsilon(cfg, args),
        )
        write_reports(digest, (out, ["j", "k", "n", "defect_lo/", "defect_hi/", "slack/"], rows))
        print("max defect hi per stage: "
              + ", ".join(f"j={j}: {float(v):.4f}" for j, v in sorted(stage_max.items())))
    elif mode == "wandering":
        dm = DissipativeMap(tower)
        res = wandering_check(dm, parse_int(cfg.get("zmax", 50), "zmax", 0))
        write_reports(digest, (out, ["zmax", "passed", "pieces", "covered_fraction/"], [res]))
        print(f"wandering |z|<={res['zmax']}: passed={res['passed']} "
              f"covered={float(res['covered_fraction']):.4f}")
    else:
        dm = DissipativeMap(tower)
        rows = retention_audit(dm)
        write_reports(digest, (out, ["stage", "blocks", "parts", "retention/", "bound/", "ok"],
                               rows))
        print(f"retention audit: {sum(r['blocks'] for r in rows)} blocks, "
              f"all ok={all(r['ok'] for r in rows)}")


def cmd_flow(cfg, digest, args):
    check_keys(cfg, {"phi", "rect", "t", "samples", "n_grid"}, args)
    tower, _, _ = _tower(cfg, args)
    seed = _require_seed(args, "flow")
    phi = cfg.get("phi", "reciprocal")
    if not (isinstance(phi, str) and phi in PHI_CATALOG):
        raise ConfigError(f"unknown phi {phi!r}; catalog: {sorted(PHI_CATALOG)}", "phi")
    rect = cfg.get("rect", [0.0, 1.0, 0.0, 1.0])
    if not (isinstance(rect, list) and len(rect) == 4):
        raise ConfigError(f"rect must be a list [a, b, c, d], got {rect!r}", "rect")
    a, b, c, d = (parse_real(v, "rect") for v in rect)
    if not (a < b and 0 <= c < d):
        raise ConfigError(f"rect {rect!r} needs a < b and 0 <= c < d", "rect")
    params = FlowParams(phi, float(parse_real(cfg.get("t", 1.0), "t")), (a, b, c, d))
    samples = parse_int(cfg.get("samples", 10_000), "samples", 1)
    rows = []
    for i, n in enumerate(parse_int_grid(cfg.get("n_grid", [0]), "n_grid")):
        est, err = flow_defect(tower, params, n, samples, seed + i)
        rows.append({"n": n, "t": params.t, "estimate": est, "stderr": err,
                     "samples": samples, "seed": seed + i})
    write_reports(digest, (_out(args, "flow.csv"),
                           ["n", "t", "estimate", "stderr", "samples", "seed"], rows))
    for r in rows:
        print(f"n={r['n']}: defect={r['estimate']:.4f} +- {r['stderr']:.4f}")


COMMANDS = {
    "build": cmd_build,
    "check-sidon": cmd_check_sidon,
    "corr": cmd_corr,
    "decay": cmd_decay,
    "poisson": cmd_poisson,
    "homoclinic": cmd_homoclinic,
    "flow": cmd_flow,
}


@functools.cache  # built on the first call, once per process
def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sidonlab",
        description="Experiment harnesses for infinite-measure rank-one "
                    "Sidon constructions",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default="out")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--depth", type=int)
        sp.add_argument("--epsilon-num", type=int)
        sp.add_argument("--epsilon-den", type=int)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg, digest = load_config(args.config)
    except (ConfigError, OSError) as e:
        _fail(2, "cli", str(e), {"config": args.config})
    try:
        COMMANDS[args.command](cfg, digest, args)
    except (ConfigError, SpecValidationError, ShiftBudgetError) as e:
        _fail(2, "cli", str(e), {"field": getattr(e, "field", "")})
    except GeneratorBudgetError as e:
        _fail(2, "sidon", str(e), e.context)
    except NeedsMoreStages as e:
        _fail(3, "core-construction", str(e), {"required_depth": e.required_depth})
    except NeedsMoreBlocks as e:
        _fail(3, "homoclinic", str(e), {})
    except OSError as e:  # the reports cannot be written under --out
        _fail(2, "cli", str(e), {"out": args.out})
    except (ValueError, KeyError, RuntimeError, MemoryError, OverflowError) as e:
        _fail(3, args.command, f"{type(e).__name__}: {e}", {})
    return 0


if __name__ == "__main__":
    sys.exit(main())
