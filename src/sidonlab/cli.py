"""Batch command-line front end: one subcommand per harness.

Exit codes: 0 success, 2 config/validation error, 3 runtime error inside a
harness.  Errors are reported as one JSON object on stderr:
{"code": ..., "module": ..., "message": ..., "context": {...}}.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .config import (
    ConfigError,
    frac_cols,
    frac_vals,
    load_config,
    parse_construction,
    parse_epsilon,
    parse_event,
    parse_int,
    parse_int_grid,
    parse_level_set,
    parse_psi,
    write_csv,
)
from .construction import (
    ConstructionSpec,
    NeedsMoreStages,
    SpecValidationError,
    Tower,
    measure_growth,
)
from .correlation import decay_report, pair_enclosure, triple_enclosure, mc_correlation
from .homoclinic import (
    DissipativeMap,
    FlowParams,
    NeedsMoreBlocks,
    flow_defect,
    homoclinic_sweep,
    retention_audit,
    s_schedule,
    wandering_check,
)
from .poisson import mixing_report, triple_mixing_report
from .sidon import GeneratorBudgetError, sidon_property_check


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
    tower, ledger, _ = _tower(cfg, args)
    rows = []
    for j in range(1, tower.depth + 1):
        st = tower.stage(j)
        r_j = tower.spec.stages[j - 1].r if j <= len(tower.spec.stages) else ""
        rows.append(
            [
                j,
                st.h,
                r_j,
                st.base_measure.numerator,
                st.base_measure.denominator,
                st.tower_measure.numerator,
                st.tower_measure.denominator,
            ]
        )
    write_csv(
        _out(args, "stages.csv"),
        ["j", "h_j", "r_j", "mu_Ej_num", "mu_Ej_den", "mu_Xj_num", "mu_Xj_den"],
        rows,
        digest,
    )
    if ledger is not None:
        write_csv(
            _out(args, "generator_ledger.csv"),
            ["j", "h_j", "r_j", "N_j", "q", "span", "h_next", "sqrt_ineq_ok"],
            [
                [r["j"], r["h_j"], r["r_j"], r["N_j"], r["q"], r["span"],
                 r["h_next"], r["sqrt_ineq_ok"]]
                for r in ledger
            ],
            digest,
        )
    _, partials = measure_growth(tower.spec, tower.depth)
    total = tower.stage(tower.depth).tower_measure
    print(f"built {tower.depth} stages; h_max={tower.stage(tower.depth).h}; "
          f"mu(X)={total} ({float(total):.4f}); "
          f"divergence partial sum={float(partials[-1]) if partials else 0:.4f}")


def cmd_check_sidon(cfg, digest, args):
    tower, _, _ = _tower(cfg, args)
    j = cfg.get("stage")
    if not isinstance(j, int):
        raise ConfigError("check-sidon config needs an integer 'stage'", "stage")
    report = sidon_property_check(
        tower, j,
        depth=parse_int(cfg.get("escape_depth", 1), "escape_depth", 0),
        m_stride=parse_int(cfg.get("m_stride", 1), "m_stride", 1),
    )
    rows = []
    for r in report.rows:
        rows.append(
            [
                r.m,
                len(r.pairs),
                len({p[1] for p in r.pairs}),
                r.strict_ok,
                r.relaxed_ok,
                r.slack.numerator,
                r.slack.denominator,
            ]
        )
    write_csv(
        _out(args, "check_sidon.csv"),
        ["m", "pairs", "columns", "verdictStrict", "verdictRelaxed",
         "slack_num", "slack_den"],
        rows,
        digest,
    )
    print(f"stage {j}: strict={report.strict_all} relaxed={report.relaxed_all} "
          f"bound={report.bound} rows={len(report.rows)}")


def cmd_corr(cfg, digest, args):
    tower, _, _ = _tower(cfg, args)
    A = parse_level_set(cfg["A"], "A", tower) if "A" in cfg else None
    B = parse_level_set(cfg["B"], "B", tower) if "B" in cfg else None
    if A is None or B is None:
        raise ConfigError("corr config needs sets 'A' and 'B'", "A")
    C = parse_level_set(cfg["C"], "C", tower) if "C" in cfg else None
    eps = parse_epsilon(cfg, args)
    if "m_grid" in cfg:
        ms = parse_int_grid(cfg["m_grid"], "m_grid")
    elif "m" in cfg:
        ms = [parse_int(cfg["m"], "m")]
    else:
        raise ConfigError("corr config needs 'm' or 'm_grid'", "m")
    n = parse_int(cfg.get("n", 0), "n")
    mc = parse_int(cfg.get("mc_samples", 0), "mc_samples", 0)
    if mc:
        _require_seed(args, "corr with mc_samples")
    cache: dict = {}
    rows = []
    for m in ms:
        if C is None:
            enc = pair_enclosure(A, B, m, tower, epsilon=eps, cache=cache)
        else:
            enc = triple_enclosure(A, B, C, m, n, tower,
                                   epsilon=eps, cache=cache)
        row = [m, *frac_vals(enc.lo), *frac_vals(enc.hi), *frac_vals(enc.slack)]
        if mc:
            est, err = mc_correlation(A, B, m, mc, args.seed + m, tower)
            row += [est, err]
        rows.append(row)
    header = ["m", *frac_cols("lo"), *frac_cols("hi"), *frac_cols("slack")]
    if mc:
        header += ["mc_estimate", "mc_stderr"]
    write_csv(_out(args, "corr.csv"), header, rows, digest)
    print(f"{len(rows)} rows -> {_out(args, 'corr.csv')}")


def cmd_decay(cfg, digest, args):
    tower, gen_ledger, gen_psi = _tower(cfg, args)
    warning = ""
    if "psi" in cfg:
        psi = parse_psi(cfg["psi"])
        if gen_psi is not None and psi != gen_psi:
            warning = "psi differs from the construction generator's psi"
    elif gen_psi is not None:
        psi = gen_psi
    else:
        raise ConfigError("decay config needs 'psi' (none in construction)", "psi")
    if gen_psi is None and "psi" in cfg:
        warning = "construction has no generator psi; decay bound is unverified"
    A = parse_level_set(cfg.get("A", {"stage": 2, "ranges": [[0, 1]]}), "A", tower)
    ms = cfg.get("m_grid")
    if not ms:
        raise ConfigError("decay config needs a nonempty 'm_grid'", "m_grid")
    parse_int_grid(ms, "m_grid")
    eps = parse_epsilon(cfg, args)
    rows, c_max, ledger = decay_report(tower, psi, A, ms, epsilon=eps)
    write_csv(
        _out(args, "decay.csv"),
        ["m", *frac_cols("lo"), *frac_cols("hi"), "envelope", "c_of_m",
         *frac_cols("slack"), "warning"],
        [
            [r["m"], *frac_vals(r["lo"]), *frac_vals(r["hi"]), r["envelope"],
             r["c_of_m"], *frac_vals(r["slack"]), warning]
            for r in rows
        ],
        digest,
    )
    write_csv(
        _out(args, "decay_ledger.csv"),
        ["j", "h_j", "h_next", "sqrt_ineq_ok"],
        [[r["j"], r["h_j"], r["h_next"], r["sqrt_ineq_ok"]] for r in ledger],
        digest,
    )
    print(f"C_max={c_max:.6f} over {len(rows)} m-values"
          + (f"; warning: {warning}" if warning else ""))


def cmd_poisson(cfg, digest, args):
    tower, _, _ = _tower(cfg, args)
    mode = cfg.get("mode", "mixing")
    eps = parse_epsilon(cfg, args)
    mc = parse_int(cfg.get("mc_samples", 0), "mc_samples", 0)
    seed = _require_seed(args, "poisson with mc_samples") if mc else 0
    events = [parse_event(e, f"events[{i}]", tower) for i, e in enumerate(cfg.get("events", []))]
    if mode == "mixing":
        if len(events) != 2:
            raise ConfigError("mixing mode needs exactly 2 events", "events")
        grid = parse_int_grid(cfg.get("n_grid", []), "n_grid")
        rows = mixing_report(events[0], events[1], grid, tower,
                             epsilon=eps, mc_samples=mc, seed=seed)
        header = ["n", "joint_lo", "joint_hi", "product", "dev_lo", "dev_hi"]
        body = [[r["n"], r["joint_lo"], r["joint_hi"], r["product"],
                 r["dev_lo"], r["dev_hi"]] for r in rows]
    elif mode == "triple":
        if len(events) != 3:
            raise ConfigError("triple mode needs exactly 3 events", "events")
        grid = [tuple(p) for p in parse_int_grid(cfg.get("mn_grid", []), "mn_grid", 2)]
        rows = triple_mixing_report(events[0], events[1], events[2], grid, tower,
                                    epsilon=eps, mc_samples=mc, seed=seed)
        header = ["m", "n", "joint_lo", "joint_hi", "product", "dev_lo",
                  "dev_hi", "exact_zero_dev"]
        body = [[r["m"], r["n"], r["joint_lo"], r["joint_hi"], r["product"],
                 r["dev_lo"], r["dev_hi"], r["exact_zero_dev"]] for r in rows]
    else:
        raise ConfigError(f"unknown poisson mode {mode!r}", "mode")
    if mc:
        header += ["mc", "mc_stderr"]
        for row, r in zip(body, rows):
            row += [r["mc"], r["mc_stderr"]]
    write_csv(_out(args, "poisson.csv"), header, body, digest)
    print(f"{len(body)} rows -> {_out(args, 'poisson.csv')}")


def cmd_homoclinic(cfg, digest, args):
    tower, _, _ = _tower(cfg, args)
    mode = cfg.get("mode", "sweep")
    if mode == "sweep":
        jr = cfg.get("j_range")
        if not (isinstance(jr, list) and len(jr) == 2):
            raise ConfigError("sweep needs 'j_range': [j_lo, j_hi]", "j_range")
        parse_int_grid(jr, "j_range")
        samples = parse_int(cfg.get("samples_per_stage", 100), "samples_per_stage", 0)
        seed = _require_seed(args, "homoclinic sweep") if samples > 2 else (args.seed or 0)
        rows, stage_max = homoclinic_sweep(
            tower, range(jr[0], jr[1] + 1), samples, seed=seed,
            epsilon=parse_epsilon(cfg, args),
        )
        write_csv(
            _out(args, "homoclinic.csv"),
            ["j", "k", "n", *frac_cols("defect_lo"), *frac_cols("defect_hi"),
             *frac_cols("slack")],
            [
                [r["j"], r["k"], r["n"], *frac_vals(r["defect_lo"]),
                 *frac_vals(r["defect_hi"]), *frac_vals(r["slack"])]
                for r in rows
            ],
            digest,
        )
        print("max defect hi per stage: "
              + ", ".join(f"j={j}: {float(v):.4f}" for j, v in sorted(stage_max.items())))
    elif mode == "wandering":
        dm = DissipativeMap(tower)
        res = wandering_check(dm, cfg.get("zmax", 50))
        write_csv(
            _out(args, "homoclinic.csv"),
            ["zmax", "passed", "pieces", *frac_cols("covered_fraction")],
            [[res["zmax"], res["passed"], res["pieces"],
              *frac_vals(res["covered_fraction"])]],
            digest,
        )
        print(f"wandering |z|<={res['zmax']}: passed={res['passed']} "
              f"covered={float(res['covered_fraction']):.4f}")
    elif mode == "retention":
        dm = DissipativeMap(tower)
        rows = retention_audit(dm)
        write_csv(
            _out(args, "homoclinic.csv"),
            ["stage", "blocks", "parts", *frac_cols("retention"),
             *frac_cols("bound"), "ok"],
            [
                [r["stage"], r["blocks"], r["parts"], *frac_vals(r["retention"]),
                 *frac_vals(r["bound"]), r["ok"]]
                for r in rows
            ],
            digest,
        )
        print(f"retention audit: {sum(r['blocks'] for r in rows)} blocks, "
              f"all ok={all(r['ok'] for r in rows)}")
    else:
        raise ConfigError(f"unknown homoclinic mode {mode!r}", "mode")


def cmd_flow(cfg, digest, args):
    tower, _, _ = _tower(cfg, args)
    seed = _require_seed(args, "flow")
    params = FlowParams(
        cfg.get("phi", "reciprocal"),
        float(cfg.get("t", 1.0)),
        tuple(cfg.get("rect", [0.0, 1.0, 0.0, 1.0])),
    )
    samples = parse_int(cfg.get("samples", 10_000), "samples", 1)
    rows = []
    for i, n in enumerate(parse_int_grid(cfg.get("n_grid", [0]), "n_grid")):
        est, err = flow_defect(tower, params, n, samples, seed + i)
        rows.append([n, params.t, est, err, samples, seed + i])
    write_csv(
        _out(args, "flow.csv"),
        ["n", "t", "estimate", "stderr", "samples", "seed"],
        rows,
        digest,
    )
    for n, t, est, err, *_ in rows:
        print(f"n={n}: defect={est:.4f} +- {err:.4f}")


COMMANDS = {
    "build": cmd_build,
    "check-sidon": cmd_check_sidon,
    "corr": cmd_corr,
    "decay": cmd_decay,
    "poisson": cmd_poisson,
    "homoclinic": cmd_homoclinic,
    "flow": cmd_flow,
}


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
    except (ConfigError, SpecValidationError) as e:
        _fail(2, "cli", str(e), {"field": getattr(e, "field", "")})
    except GeneratorBudgetError as e:
        _fail(2, "sidon", str(e), {"q": e.q, "stage": e.stage})
    except NeedsMoreStages as e:
        _fail(3, "core-construction", str(e), {"required_depth": e.required_depth})
    except NeedsMoreBlocks as e:
        _fail(3, "homoclinic", str(e), {})
    except (ValueError, KeyError, RuntimeError) as e:
        _fail(3, args.command, f"{type(e).__name__}: {e}", {})
    return 0


if __name__ == "__main__":
    sys.exit(main())
