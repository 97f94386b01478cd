"""Certified pair/triple correlation measures under the tower map.

The computations return enclosures: escapes into not-yet-built spacer mass
are tracked as interval slack instead of being guessed.  Escape recursion
is breadth-first by stage and stops on a mass threshold.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from .construction import GRID, LevelSet, Tower
from .enclosure import MeasureEnclosure


def default_epsilon(tower: Tower, A: LevelSet) -> Fraction:
    """An order below the one-column bound mu(A)/r_j at r_j <= 100."""
    mu = tower.set_measure(A)
    return mu / 1000 if mu > 0 else Fraction(1, 1000)


# -- array-backed escape engine -------------------------------------------
#
# A level set at stage J is a pair of arrays (starts, ends) of half-open
# ranges.  Lifting one stage is one outer sum with the column offsets: the
# column copies are disjoint and ordered, so sorted disjoint input stays
# sorted and disjoint, and nothing needs merging because only counts are
# read.  Ranges are int64 while every value stays below 2 * h_depth < 2^63,
# and exact Python ints (dtype=object, same code) beyond.


def _dtype(tower: Tower):
    return np.int64 if 2 * tower.stage(tower.depth).h < 2**63 else object


def _lifted(tower: Tower, X: LevelSet, J: int, cache: dict, dtype):
    """(starts, ends) of X lifted to stage J >= X.stage, cached per stage."""
    key = ("ranges", X, J, dtype)
    got = cache.get(key)
    if got is None:
        if J == X.stage:
            r = np.array(X.ranges, dtype=dtype).reshape(-1, 2)
            got = (r[:, 0].copy(), r[:, 1].copy())
        else:
            s, e = _lifted(tower, X, J - 1, cache, dtype)
            offs = np.array(tower.stage(J - 1).offsets, dtype=dtype)
            got = (np.add.outer(offs, s).ravel(), np.add.outer(offs, e).ravel())
        cache[key] = got
    return got


def _prefix(tower: Tower, X: LevelSet, J: int, cache: dict, dtype):
    """Prefix-count tables of X at stage J: its starts, and its ends and
    cumulative lengths each with a leading 0."""
    key = ("prefix", X, J, dtype)
    got = cache.get(key)
    if got is None:
        s, e = _lifted(tower, X, J, cache, dtype)
        zero = np.zeros(1, dtype=dtype)
        got = cache[key] = (s, np.concatenate((zero, e)),
                            np.concatenate((zero, np.cumsum(e - s))))
    return got


def _count_below(prefix, x):
    """|X intersect [0, x)| for each x >= 0."""
    starts, ends, cum = prefix
    k = np.searchsorted(starts, x, side="right")
    return cum[k] - np.maximum(ends[k] - x, 0)


def _count_in(prefix, lo, hi) -> int:
    """Sum over k of |X intersect [lo_k, hi_k)|, for 0 <= lo <= hi."""
    return int(_count_below(prefix, hi).sum() - _count_below(prefix, lo).sum())


def _intersection(s1, e1, s2, e2):
    """Ranges of the intersection of two unions of disjoint ranges, by an
    endpoint sweep: covered twice means inside both.  Events tied at one
    point may come in any order; they only add empty ranges."""
    pos = np.concatenate((s1, e1, s2, e2))
    ones1, ones2 = np.ones(len(s1), np.int8), np.ones(len(s2), np.int8)
    step = np.concatenate((ones1, -ones1, ones2, -ones2))
    order = np.argsort(pos)
    pos = pos[order]
    both = np.cumsum(step[order])[:-1] == 2
    return pos[:-1][both], pos[1:][both]


def _escape_enclosure(tower, J, t, esc, hits, epsilon) -> MeasureEnclosure:
    """Resolve the source ranges ``esc`` (at stage J) below h_J - t, count
    their hits, lift the escaped top to J + 1 and repeat until the escaped
    mass is zero, at most ``epsilon`` or the tower's top is reached.
    ``hits(J, s, e)`` counts the hits of the resolved ranges [s, e)."""
    s, e = esc
    lo = Fraction(0)
    while True:
        st = tower.stage(J)
        cut = st.h - t
        rs, re = np.minimum(s, cut), np.minimum(e, cut)
        keep = re > rs
        if keep.any():
            lo += hits(J, rs[keep], re[keep]) * st.base_measure
        s = np.maximum(s, cut)
        keep = e > s
        s, e = s[keep], e[keep]
        esc_mass = int((e - s).sum()) * st.base_measure
        if esc_mass == 0 or esc_mass <= epsilon or J == tower.depth:
            return MeasureEnclosure(lo, lo + esc_mass)
        offs = np.array(st.offsets, dtype=s.dtype)
        s, e = np.add.outer(offs, s).ravel(), np.add.outer(offs, e).ravel()
        J += 1


def pair_enclosure(
    A: LevelSet,
    B: LevelSet,
    m: int,
    tower: Tower,
    epsilon: Fraction | None = None,
    cache: dict | None = None,
) -> MeasureEnclosure:
    """Enclosure of mu(A intersect T^m B)."""
    if m < 0:
        raise ValueError("shift m must be >= 0")
    if epsilon is None:
        epsilon = default_epsilon(tower, A)
    cache = {} if cache is None else cache
    dtype = _dtype(tower)
    J = tower.resolving_stage(max(A.stage, B.stage), m)

    def hits(J, s, e):
        return _count_in(_prefix(tower, A, J, cache, dtype), s + m, e + m)

    return _escape_enclosure(tower, J, m, _lifted(tower, B, J, cache, dtype),
                             hits, epsilon)


def triple_enclosure(
    A: LevelSet,
    B: LevelSet,
    C: LevelSet,
    m: int,
    n: int,
    tower: Tower,
    epsilon: Fraction | None = None,
    cache: dict | None = None,
) -> MeasureEnclosure:
    """Enclosure of mu(A intersect T^m B intersect T^{m+n} C)."""
    if m < 0 or n < 0:
        raise ValueError("shifts must be >= 0")
    if epsilon is None:
        epsilon = default_epsilon(tower, A)
    cache = {} if cache is None else cache
    dtype = _dtype(tower)
    t = m + n
    J = tower.resolving_stage(max(A.stage, B.stage, C.stage), t)

    def hits(J, s, e):
        bs, be = _lifted(tower, B, J, cache, dtype)
        s1, e1 = _intersection(s + n, e + n, bs, be)
        return _count_in(_prefix(tower, A, J, cache, dtype), s1 + m, e1 + m)

    return _escape_enclosure(tower, J, t, _lifted(tower, C, J, cache, dtype),
                             hits, epsilon)


def mc_correlation(
    A: LevelSet, B: LevelSet, m: int, samples: int, seed: int, tower: Tower
):
    """Monte-Carlo oracle for mu(A intersect T^m B): sample uniformly in B,
    iterate m steps forward, test membership in A.  Deterministic per seed."""
    rng = random.Random(seed)
    mu_b = tower.set_measure(B)
    lifts: dict = {}
    hits = 0
    for _ in range(samples):
        level, N = tower.draw(B, rng)
        J, level, N = tower.advance(B.stage, level, N, GRID, m)
        hits += tower.in_set(J, level, N, GRID, A, lifts)
    f = hits / samples
    est = float(mu_b) * f
    stderr = float(mu_b) * math.sqrt(f * (1.0 - f) / samples)
    return est, stderr


def sidon_bound_report(
    tower: Tower,
    A: LevelSet,
    B: LevelSet,
    j_range,
    m_samples_per_stage: int,
    epsilon: Fraction | None = None,
    exhaustive_limit: int = 100_000,
) -> list[dict]:
    """Check mu(A intersect T^m B) <= mu(A)/r_j over stage intervals
    m in [h_j, h_{j+1}].  Exhaustive when the interval endpoint is small,
    sampled otherwise; sampled grids keep both endpoints.

    At resonant m near stage boundaries the exact measure can pick up one
    extra wrap-around sliver through stage j+2; the corrected bound adds
    one column of the next stage, mu(A)/r_j + mu(A)/r_{j+1}, and rows
    carry both verdicts."""
    mu_a = tower.set_measure(A)
    cache: dict = {}
    rows = []
    for j in j_range:
        h_j = tower.stage(j).h
        h_next = tower.stage(j + 1).h
        r_j = tower.spec.stages[j - 1].r
        bound = mu_a / r_j
        if j < len(tower.spec.stages):
            corrected = bound + mu_a / tower.spec.stages[j].r
        else:
            corrected = 2 * bound
        if h_next <= exhaustive_limit:
            ms = range(h_j, h_next + 1)
        else:
            stride = max(1, (h_next - h_j) // max(1, m_samples_per_stage - 1))
            ms = sorted(set(range(h_j, h_next + 1, stride)) | {h_j, h_next})
        for m in ms:
            enc = pair_enclosure(A, B, m, tower, epsilon=epsilon, cache=cache)
            rows.append(
                {
                    "m": m,
                    "j": j,
                    "lo": enc.lo,
                    "hi": enc.hi,
                    "bound": bound,
                    "corrected_bound": corrected,
                    "passed": enc.lo <= bound,
                    "passed_corrected": enc.lo <= corrected,
                    "slack_exceeds": enc.hi > corrected,
                    "slack": enc.slack,
                    "equality": enc.lo == bound,
                    "excess": max(Fraction(0), enc.lo - bound),
                }
            )
    return rows


def decay_report(
    tower: Tower,
    psi,
    A: LevelSet,
    m_grid,
    epsilon: Fraction | None = None,
) -> tuple[list[dict], float, list[dict]]:
    """Per-m enclosures of mu(A intersect T^m A), the envelope psi(m)/sqrt(m)
    and the implied constant C(m) = hi * sqrt(m)/psi(m).  Also emits the
    per-stage proof-chain check sqrt(h_j) <= psi(h_{j+1})."""
    cache: dict = {}
    rows = []
    c_max = 0.0
    for m in m_grid:
        enc = pair_enclosure(A, A, m, tower, epsilon=epsilon, cache=cache)
        env = psi.value(m) / math.sqrt(m)
        c_m = float(enc.hi) * math.sqrt(m) / psi.value(m)
        c_max = max(c_max, c_m)
        rows.append(
            {
                "m": m,
                "lo": enc.lo,
                "hi": enc.hi,
                "envelope": env,
                "c_of_m": c_m,
                "slack": enc.slack,
            }
        )
    ledger = []
    for j in range(1, tower.depth):
        h_j = tower.stage(j).h
        h_next = tower.stage(j + 1).h
        ledger.append(
            {
                "j": j,
                "h_j": h_j,
                "h_next": h_next,
                "sqrt_ineq_ok": psi.dominates_sqrt(h_j, h_next),
            }
        )
    return rows, c_max, ledger


def support_decay_report(
    tower: Tower,
    supp_s: LevelSet,
    A: LevelSet,
    n_grid,
    epsilon: Fraction | None = None,
) -> list[dict]:
    """Rows of mu(A intersect T^{-n} supp S); by measure preservation this is
    mu(supp S intersect T^n A)."""
    cache: dict = {}
    rows = []
    for n in n_grid:
        enc = pair_enclosure(supp_s, A, n, tower, epsilon=epsilon, cache=cache)
        rows.append({"n": n, "lo": enc.lo, "hi": enc.hi, "slack": enc.slack})
    return rows
