"""Seeded job lists for the two benchmark workloads.

``exact-sweep`` runs the exact set-level jobs: correlation sweeps and
one-column checks on the demo tower, then the Sidon generators.
``orbit-mc`` runs the pointwise and Monte Carlo jobs on the same tower.
Each is the other's control: a faster set operation or generator should
leave ``orbit-mc`` unchanged, and a faster pointwise layer should leave
``exact-sweep`` unchanged.

Every workload is a list of CLI jobs.  A job is a subcommand, a config
dict and an optional CLI ``--seed``; the program only ever sees the JSON
config written from it.  The seed moves level sets, grid offsets and Monte
Carlo seeds, but never the sizes that set a job's cost, so runs with
different seeds stay comparable.
"""

from __future__ import annotations

import random

# The demo tower of the test suite and the demos (Singer q = 3, 4, 5, 7, 8),
# frozen as explicit stages so that only the generator jobs spend time in
# the Sidon generators.  run.py checks once per run, outside timing, that
# singer_set + optimal_stage_params still reproduce these stages.
DEMO_QS = (3, 4, 5, 7, 8)
DEMO_CONSTRUCTION = {
    "h1": 1,
    "stages": [
        {"r": 3, "s": [1, 0, 3]},
        {"r": 4, "s": [7, 28, 0, 14]},
        {"r": 5, "s": [231, 462, 77, 0, 308]},
        {"r": 7, "s": [8778, 20482, 5852, 0, 2926, 10241, 1463]},
        {"r": 8, "s": [59983, 119966, 179949, 299915, 419881, 599830, 0, 899745]},
    ],
}
# Stage heights h_1..h_6 of the demo tower.  Shifts at or beyond h_6 exit 3
# (NeedsMoreStages), so no job asks for them.
H = (1, 7, 77, 1463, 59983, 3059133)

PSI_QUARTER = {"kind": "power", "alpha": [1, 4]}

NAMES = ("exact-sweep", "orbit-mc")


def _levels(rng: random.Random, stage: int, count: int) -> dict:
    """One level from each of `count` equal slices of the stage.  How the
    levels bunch decides how far a shifted set must be lifted, and so the
    job's cost; one per slice keeps that cost about the same for every seed."""
    step = H[stage - 1] / count
    levels = [rng.randrange(int(i * step), int((i + 1) * step)) for i in range(count)]
    return {"stage": stage, "ranges": [[l, l + 1] for l in levels]}


def _grid(rng: random.Random, lo: int, hi: int, stride: int) -> list[int]:
    """Every stride-th shift of [lo, hi) from a seeded start offset."""
    return list(range(lo + rng.randrange(stride), hi, stride))


def _strata(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """One shift from each of `count` equal slices of [lo, hi).  Where a shift
    falls decides the stage a job resolves at, and so its cost; one per
    slice keeps that mix the same for every seed."""
    step = (hi - lo) / count
    return [rng.randrange(lo + int(i * step), lo + int((i + 1) * step))
            for i in range(count)]


def corr_jobs(rng: random.Random, tiny: bool) -> list[tuple]:
    k = 8 if tiny else 1
    demo = {"construction": DEMO_CONSTRUCTION}
    one = {"stage": 2, "ranges": [[0, 1]]}
    A, B, C = (_levels(rng, 3, 20) for _ in range(3))
    return [
        # criterion 03's computation, sampled over the stage-4 interval
        ("corr", {**demo, "A": one, "B": one,
                  "m_grid": _grid(rng, H[3], H[4] + 1, 120 * k)}),
        # stage-5 shifts stop on epsilon and leave escape slack
        ("corr", {**demo, "A": A, "B": B,
                  "m_grid": _grid(rng, H[3], H[4], 750 * k)
                  + _grid(rng, H[4], H[5], 60_000 * k)}),
        ("corr", {**demo, "A": A, "B": B, "C": C, "n": rng.randrange(H[2], H[3]),
                  "m_grid": _grid(rng, H[3], H[4], 1800 * k)}),
        ("check-sidon", {**demo, "stage": 3, "escape_depth": 2, "m_stride": 7 * k}),
        ("check-sidon", {**demo, "stage": 4, "m_stride": 776 * k}),
    ]


def orbit_mc(rng: random.Random, tiny: bool) -> list[tuple]:
    k = 8 if tiny else 1
    demo = {"construction": DEMO_CONSTRUCTION}
    one = {"stage": 2, "ranges": [[0, 1]]}
    x2 = {"stage": 2, "ranges": [[0, H[1]]]}
    seed = lambda: rng.randrange(1, 10**6)
    flow_grid = [0] + [rng.randrange(H[j - 1], H[j]) for j in (2, 3, 4)]
    # Fixed event sets: how far a set's top level sits below h_4 decides
    # whether a shift resolves at stage 4 or 5, a sevenfold cost step.
    ev = lambda *levels: {"set": {"stage": 2, "ranges": [[l, l + 1] for l in levels]},
                          "count": rng.randrange(2)}
    return [
        *(("flow", {**demo, "phi": phi, "t": 1.0, "samples": 2000 // k,
                    "n_grid": flow_grid}, seed())
          for phi in ("reciprocal", "exp")),
        ("homoclinic", {**demo, "mode": "sweep", "j_range": [2, 4],
                        "samples_per_stage": 100 // k}, seed()),
        ("homoclinic", {**demo, "mode": "wandering", "zmax": 100 // k}),
        ("homoclinic", {**demo, "mode": "retention"}),
        ("poisson", {**demo, "mode": "mixing",
                     "events": [ev(0, 2, 4), ev(1, 3, 5)],
                     "n_grid": _strata(rng, 0, H[3], 8),
                     "mc_samples": 400 // k}, seed()),
        ("poisson", {**demo, "mode": "triple",
                     "events": [{"set": x2, "count": rng.randrange(2)}, ev(0, 3), ev(1, 5)],
                     # m = n below h_j / 2, so that m + n stays below h_j
                     "mn_grid": [[rng.randrange(H[j - 1], H[j] // 2)] * 2
                                 for j in (2, 3, 4)],
                     "mc_samples": 200 // k}, seed()),
        ("corr", {**demo, "A": one, "B": {"stage": 2, "ranges": [[2, 3], [5, 6]]},
                  "m_grid": _strata(rng, 1, H[3], 6),
                  "mc_samples": 800 // k}, seed()),
    ]


def generator_jobs(rng: random.Random, tiny: bool) -> list[tuple]:
    def generated(h1, num, sets="singer"):
        return {"construction": {"h1": h1, "generator": {
            "type": "optimal-sidon", "psi": PSI_QUARTER, "numStages": num,
            "sets": sets}}}

    # With psi = (m+2)^(1/4) and 2 stages, build_from_psi asks for q = h1:
    # q = 25 = 5^2 searches GF(5^6) like the 15-20 s q = 49 = 7^2 does.
    # The decay job's q = 23 covers a prime field.
    return [
        ("build", generated(9 if tiny else 25, 2)),
        ("build", generated(17 if tiny else 101, 2, "greedy")),
        # stages q = 2, 3, 23; heights 1, 3, 21, 9933
        # Below 432 no level of A escapes stage 4, so those shifts are exact;
        # fixed counts on either side keep exact_frac the same for every seed.
        ("decay", {**generated(1, 4), "A": {"stage": 2, "ranges": [[0, 1]]},
                   "m_grid": sorted(rng.sample(range(1, 432), 20)
                                    + rng.sample(range(432, 9933), 20))}),
    ]


JOB_LISTS = {
    "exact-sweep": lambda rng, tiny: corr_jobs(rng, tiny) + generator_jobs(rng, tiny),
    "orbit-mc": orbit_mc,
}


def jobs(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The workload's jobs for this seed: {"cmd", "config", "seed"} dicts."""
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for job in JOB_LISTS[workload](rng, tiny):
        cmd, cfg, *cli_seed = job
        out.append({"cmd": cmd, "config": cfg,
                    "seed": cli_seed[0] if cli_seed else None})
    return out
