"""Certified correlation measures of two or more sets under the tower map.

The computations return enclosures: escapes into not-yet-built spacer mass
are tracked as interval slack instead of being guessed.  Escape recursion
is breadth-first by stage and stops on a mass threshold.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .construction import GRID, LevelSet, Tower, _draw_points, _pick_levels
from .enclosure import ZERO, MeasureEnclosure


def default_epsilon(tower: Tower, A: LevelSet) -> Fraction:
    """An order below the one-column bound mu(A)/r_j at r_j <= 100."""
    mu = tower.set_measure(A)
    return mu / 1000 if mu > 0 else Fraction(1, 1000)


# -- array-backed escape engine -------------------------------------------
#
# Counts are read at the sets' own stage (Tower.count_below, _descend), so no
# count lifts a set past the highest stage of the sets that it compares.


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


# -- shift grids: the per-shift loop's checks and stopping rule -----------


def _checked_shifts(tower, ms, n=0):
    """``ms`` as a list, after raising the per-shift loop's first error: a
    negative m, or an m + n no built stage is taller than."""
    ms = list(ms)
    top = tower.stage(tower.depth).h
    for m in ms:
        if m < 0:
            raise ValueError("shift m must be >= 0")
        if m + n >= top:
            tower.resolving_stage(tower.depth, m + n)
    return ms


def _stopping_stages(tower, X, js, shifts, epsilon):
    """For each sorted shift t, the stage J where the escape loop over X
    stops and its escape count |X_J intersect [h_J - t, h_J)| there: from
    the first J >= js with h_J > t, where the count is 0, at most
    epsilon / w_J (exact in integers), or J is the top stage."""
    heights = np.array([tower.stage(j).h for j in range(js, tower.depth + 1)],
                       dtype=tower.dtype)
    stop = js + np.searchsorted(heights, shifts, side="right")
    esc = np.zeros(len(shifts), dtype=tower.dtype)
    for J in range(int(stop.min()), tower.depth + 1):
        at = np.flatnonzero(stop == J)
        if not len(at):
            continue
        st = tower.stage(J)
        size = X.count() * tower.units[X.stage] // tower.units[J]  # |X_J|
        esc[at] = size - tower.count_below(X, J, st.h - shifts[at])
        most = max(min(math.floor(epsilon / st.base_measure), st.h), -1)
        go_on = (esc[at] > 0) & (esc[at] > most) & (J < tower.depth)
        stop[at[go_on]] = J + 1
    return stop, esc


def _enclosures(tower, stop, hits, esc, where):
    """[w_J hits, w_J (hits + esc)] per shift, in the order ``where`` picks;
    many shifts share one (stage, hits, escape count)."""
    made: dict = {}
    encs = []
    for key in zip(stop.tolist(), hits.tolist(), esc.tolist()):
        if key not in made:
            J, x, e = key
            w = tower.stage(J).base_measure
            lo = x * w
            made[key] = MeasureEnclosure(lo, (x + e) * w if e else lo)
        encs.append(made[key])
    return [encs[i] for i in where.tolist()]


# -- shift grids: one descent for pairs, triples and every order ----------
#
# With t_i = m + g_i, stopped at stage J, the per-shift escape loop (resolve
# below h_J - t_s, lift the escaped top, repeat) has lo = w_J Y_J(t) and
# hi - lo = w_J |B_s,J intersect [h_J - t_s, h_J)|, where
# Y_J(d) = |A_J intersect (B_1,J + d_1) intersect ... intersect (B_s,J + d_s)|:
# a hit resolved at an earlier stage lifts to hits at J, and only B_s, with
# the largest shift, can still be in the top levels.  Lifting every set one
# stage gives Y_{J+1}(d) = the sum over one column o_a of A and one o_{b_i} of
# each B_i of Y_J(d_i + o_{b_i} - o_a).  So _descend takes each row t down to
# the sets' stage K, where Y_K(d) counts A_K under the intersection of the
# B_i,K + e_i, shifted by d_1, with e_i = d_i - d_1: one chain per tuple e.
# For s = 1 one table of X = Y serves every shift: counted at the sets'
# stage, lifted densely while small, read at the stages above.  A dense table
# and its indices lie below 2 h_K <= DENSE_MAX + 1: int64 on any tower.

# The largest table of X (entries, 8 MiB of int64) that is kept dense.
DENSE_MAX = 1 << 20
# Shifts times ranges, or points read, that one vectorised step handles.
CHUNK = 1 << 16


def _range_counts(tower, A, s, e, K, d):
    """The sum over the ranges [s, e) of |A_K intersect [s + d, e + d)|, for
    each d of the array d, |d| < h_K; CHUNK shifts times ranges per step."""
    h = tower.stage(K).h
    out = np.zeros(len(d), dtype=tower.dtype)
    step = max(1, CHUNK // max(1, len(s)))
    for i in range(0, len(d) if len(s) else 0, step):
        dd = d[i:i + step, None]
        lo, hi = np.clip(s + dd, 0, h), np.clip(e + dd, 0, h)
        out[i:i + step] = (tower.count_below(A, K, hi) - tower.count_below(A, K, lo)).sum(axis=1)
    return out


def _dense_table(tower, A, B, K):
    """X_K(d) for every -h_K < d < h_K: for each range [s, e) of B, the
    levels of A in [s + d, e + d) are a difference of two slices of A's
    prefix counts, padded by h_K on both sides.  It loops over the set with
    fewer ranges, since X for (B, A) is X for (A, B) reversed."""
    s, e = tower.range_arrays(B, K)
    a_s, a_e = (x.astype(np.int64, copy=False) for x in tower.range_arrays(A, K))
    if len(a_s) < len(s):
        return _dense_table(tower, B, A, K)[::-1]
    h = tower.stage(K).h
    steps = np.zeros(3 * h + 1, dtype=np.int64)
    np.add.at(steps, a_s + h + 1, 1)
    np.add.at(steps, a_e + h + 1, -1)
    prefix = np.cumsum(np.cumsum(steps))  # prefix[i] = |A intersect [0, i - h)|
    out = np.zeros(2 * h - 1, dtype=np.int64)
    for lo, hi in zip(s.tolist(), e.tolist()):
        out += prefix[hi + 1:hi + 2 * h]
        out -= prefix[lo + 1:lo + 2 * h]
    return out


def _lift_table(tower, X, K):
    """The dense table of X_{K+1} from that of X_K: r_K^2 slice-adds."""
    h, h_next = tower.stage(K).h, tower.stage(K + 1).h
    out = np.zeros(2 * h_next - 1, dtype=np.int64)
    offs = tower.stage(K).offsets
    for o_i in offs:
        for o_t in offs:
            start = h_next - h + o_t - o_i
            out[start:start + len(X)] += X
    return out


def _descend(tower, d, J, K):
    """Yields (rows, points, weights) for rows d of s shifts, one per shifted
    set: a count at stage J of d[row] is the sum over the yields of weight
    times that count at stage K at the row's points.  Per stage down, column
    o_a of the unshifted set and shift, it keeps the at most two columns o_b
    with |d + o_b - o_a| < h_k, takes every combination across the shifts and
    merges equal (row, point) pairs, adding weights; CHUNK choices at once."""
    todo = [(J, np.arange(len(d)), d, np.ones(len(d), dtype=tower.dtype))]
    while todo:
        k, rows, d, w = todo.pop()
        if k == K:
            yield rows, d, w
            continue
        st = tower.stage(k - 1)
        h, offs, s = st.h, np.array(st.offsets, dtype=tower.dtype), d.shape[1]
        step = max(1, CHUNK // (len(offs) << s))
        if len(d) > step:  # the rest waits on the stack as views
            todo.append((k, rows[step:], d[step:], w[step:]))
            rows, d, w = rows[:step], d[:step], w[:step]
        u = d.T[:, None] - offs[:, None]  # [shift, a, row]
        b = np.searchsorted(offs, -h - u, side="right") + np.arange(2).reshape(2, 1, 1, 1)
        v = u + offs[np.minimum(b, len(offs) - 1)]  # [choice, shift, a, row]
        ok = (b < len(offs)) & (v < h)
        # shift j's choice on axis j: [choice 0, ..., choice s - 1, a, row]
        spread = [(slice(None), j) + (None,) * (s - 1 - j) for j in range(s)]
        shape = (2,) * s + u.shape[1:]
        keep = np.logical_and.reduce([np.broadcast_to(ok[i], shape) for i in spread])
        rows, w = (np.broadcast_to(x, shape)[keep] for x in (rows, w))
        d = np.stack([np.broadcast_to(v[i], shape)[keep] for i in spread], axis=1)
        order = np.lexsort((*d.T[::-1], rows))
        rows, d, w = rows[order], d[order], w[order]
        if len(d):
            new = (rows[1:] != rows[:-1]) | (d[1:] != d[:-1]).any(axis=1)
            first = np.flatnonzero(np.r_[True, new])
            todo.append((k - 1, rows[first], d[first], np.add.reduceat(w, first)))


def _shift_grid(sets, gaps, ms, tower: Tower, epsilon) -> list[MeasureEnclosure]:
    """Enclosures of mu(A intersect T^{m+g_1} B_1 ... intersect T^{m+g_s} B_s)
    for sets (A, B_1, ..., B_s), gaps 0 = g_1 <= ... <= g_s and every m of
    ``ms``, in order, by one descent (see above)."""
    if any(g < 0 for g in gaps):
        raise ValueError("shift n must be >= 0")
    for X in sets:
        tower.validate_set(X)
    ms = _checked_shifts(tower, ms, gaps[-1])
    if not ms:
        return []
    if epsilon is None:
        epsilon = default_epsilon(tower, sets[0])
    A, *Bs = sets
    K = max(X.stage for X in sets)
    shifts, where = np.unique(np.array(ms, dtype=tower.dtype), return_inverse=True)
    stop, esc = _stopping_stages(tower, Bs[-1], K, shifts + gaps[-1], epsilon)
    size = lambda k: 2 * tower.stage(k).h - 1
    table = _dense_table(tower, A, Bs[0], K) if len(Bs) == 1 and size(K) <= DENSE_MAX else None
    hits = np.zeros(len(shifts), dtype=tower.dtype)
    for J in np.unique(stop).tolist():
        while table is not None and K < J and size(K + 1) <= DENSE_MAX:
            table = _lift_table(tower, table, K)
            K += 1
        at = np.flatnonzero(stop == J)
        for rows, d, w in _descend(tower, shifts[at, None] + np.array(gaps, dtype=tower.dtype),
                                   J, K):
            if table is not None:
                vals = table[(d[:, 0] + tower.stage(K).h - 1).astype(np.int64, copy=False)]
                np.add.at(hits, at[rows], w * vals)
                continue
            e = d[:, 1:] - d[:, :1]
            order = np.lexsort((d[:, 0], *e.T[::-1]))
            rows, d, w, e = rows[order], d[order, 0], w[order], e[order]
            cuts = np.flatnonzero(np.r_[True, (e[1:] != e[:-1]).any(axis=1), True]).tolist()
            for i, j in zip(cuts, cuts[1:]):  # one D = B_1 cap (B_2 + e_2) cap ... per e
                D = tower.range_arrays(Bs[0], K)
                for B, x in zip(Bs[1:], e[i]):
                    s, t = tower.range_arrays(B, K)
                    D = _intersection(s + x, t + x, *D)
                np.add.at(hits, at[rows[i:j]], w[i:j] * _range_counts(tower, A, *D, K, d[i:j]))
    return _enclosures(tower, stop, hits, esc, where)


def pair_enclosure_grid(A: LevelSet, B: LevelSet, ms, tower: Tower,
                        epsilon: Fraction | None = None) -> list[MeasureEnclosure]:
    """Enclosures of mu(A intersect T^m B) for every m of ``ms``, in order."""
    return _shift_grid((A, B), (0,), ms, tower, epsilon)


def pair_enclosure(
    A: LevelSet,
    B: LevelSet,
    m: int,
    tower: Tower,
    epsilon: Fraction | None = None,
) -> MeasureEnclosure:
    """Enclosure of mu(A intersect T^m B): the one-shift call of
    ``pair_enclosure_grid``."""
    return pair_enclosure_grid(A, B, [m], tower, epsilon)[0]


def triple_enclosure_grid(A: LevelSet, B: LevelSet, C: LevelSet, n: int, ms, tower: Tower,
                          epsilon: Fraction | None = None) -> list[MeasureEnclosure]:
    """Enclosures of mu(A intersect T^m B intersect T^{m+n} C) for every m
    of ``ms``, in order."""
    return _shift_grid((A, B, C), (0, n), ms, tower, epsilon)


def triple_enclosure(
    A: LevelSet,
    B: LevelSet,
    C: LevelSet,
    m: int,
    n: int,
    tower: Tower,
    epsilon: Fraction | None = None,
) -> MeasureEnclosure:
    """Enclosure of mu(A intersect T^m B intersect T^{m+n} C): the
    one-shift call of ``triple_enclosure_grid``."""
    return triple_enclosure_grid(A, B, C, n, [m], tower, epsilon)[0]


def mc_correlation_grid(A: LevelSet, B: LevelSet, ms, samples: int, seeds, tower: Tower):
    """Monte-Carlo oracle for mu(A intersect T^m B) for every m of ``ms``, in
    order, the row of m drawing from random.Random(seed) for its seed of
    ``seeds``: sample uniformly in B, iterate m steps forward, test
    membership in A.  Returns (estimate, stderr) per row, and raises the
    first error that one mc_correlation call per row would.

    Each row's points are sample_uniform's, drawn first.  The points of
    consecutive rows are then walked together, CHUNK or fewer at a time, by
    one Tower.advance with one shift per point, and tested with
    Tower.in_set on A's own ranges: A is never lifted."""
    ms, seeds = list(ms), list(seeds)
    if len(ms) != len(seeds):
        raise ValueError("mc_correlation_grid needs one seed per shift m")
    if not ms:
        return []
    if samples < 1:
        raise ValueError("samples must be >= 1")
    mu_b = float(tower.set_measure(B))
    tower.validate_set(A)
    if B.is_empty():
        raise ValueError("cannot sample from an empty level set")
    total, cells, top = B.count(), GRID * tower.units[B.stage], tower.stage(tower.depth).h
    starts, _, cum = tower._own_prefix(B)
    # N < cells, which can pass 2^63 on an int64 tower
    n_type = np.int64 if cells <= 2**63 else object

    def batches():
        """(rows, points per row, picks, cells) of the draws, CHUNK points
        or fewer per batch."""
        rows, counts, picks, cell = [], [], [], []
        for i, (m, seed) in enumerate(zip(ms, seeds)):
            if abs(m) >= top:  # no point resolves, and m need not fit the dtype
                yield rows, counts, picks, cell
                p, c, _ = next(_draw_points(seed, 1, total, cells, 1))
                tower.advance(B.stage, _pick_levels(starts, cum, np.array(p, dtype=tower.dtype)),
                              np.array(c, dtype=n_type), GRID, m)  # raises at the first point
            for p, c, _ in _draw_points(seed, samples, total, cells, CHUNK):
                if len(picks) + len(p) > CHUNK:
                    yield rows, counts, picks, cell
                    rows, counts, picks, cell = [], [], [], []
                rows.append(i)
                counts.append(len(p))
                picks += p
                cell += c
        yield rows, counts, picks, cell

    hits = np.zeros(len(ms), dtype=np.int64)
    for rows, counts, picks, cell in batches():
        if not picks:
            continue
        start = _pick_levels(starts, cum, np.array(picks, dtype=tower.dtype))
        shift = np.repeat(np.array([ms[i] for i in rows], dtype=tower.dtype), counts)
        J, level, N = tower.advance(B.stage, start, np.array(cell, dtype=n_type), GRID, shift)
        hits += np.bincount(np.repeat(rows, counts)[tower.in_set(J, level, N, GRID, A)],
                            minlength=len(ms))
    fs = [x / samples for x in hits.tolist()]
    return [(mu_b * f, mu_b * math.sqrt(f * (1.0 - f) / samples)) for f in fs]


def mc_correlation(
    A: LevelSet, B: LevelSet, m: int, samples: int, seed: int, tower: Tower
):
    """Monte-Carlo oracle for mu(A intersect T^m B), deterministic per seed:
    the one-m call of ``mc_correlation_grid``."""
    return mc_correlation_grid(A, B, [m], samples, [seed], tower)[0]


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
        for m, enc in zip(ms, pair_enclosure_grid(A, B, ms, tower, epsilon=epsilon)):
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
                    "excess": max(ZERO, enc.lo - bound),
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
    per-stage proof-chain check sqrt(h_j) <= psi(h_{j+1}).  Shifts are >= 1."""
    m_grid = list(m_grid)
    if any(m < 1 for m in m_grid):
        raise ValueError("decay shifts m must be >= 1")
    rows = []
    c_max = 0.0
    for m, enc in zip(m_grid, pair_enclosure_grid(A, A, m_grid, tower, epsilon=epsilon)):
        env = psi.value(m) / math.sqrt(m)
        c_m = float(enc.hi) * math.sqrt(m) / psi.value(m)
        c_max = max(c_max, c_m)
        rows.append({"m": m, "lo": enc.lo, "hi": enc.hi, "envelope": env, "c_of_m": c_m,
                     "slack": enc.slack})
    h = [st.h for st in tower.stages]
    ledger = [{"j": j, "h_j": h[j - 1], "h_next": h[j],
               "sqrt_ineq_ok": psi.dominates_sqrt(h[j - 1], h[j])} for j in range(1, tower.depth)]
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
    n_grid = list(n_grid)
    rows = []
    for n, enc in zip(n_grid, pair_enclosure_grid(supp_s, A, n_grid, tower,
                                                  epsilon=epsilon)):
        rows.append({"n": n, "lo": enc.lo, "hi": enc.hi, "slack": enc.slack})
    return rows
