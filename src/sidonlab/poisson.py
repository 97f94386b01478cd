"""Poisson-suspension cylinder probabilities and mixing reports.

Suspension correlations are computed analytically from intersection
measures of the underlying sets (with interval slack propagated), rather
than by simulating the suspension directly; Monte-Carlo configuration
sampling is kept as an independent oracle.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from .construction import (GRID, LevelSet, NeedsMoreStages, Tower, _draw_points, _inside,
                           _pick_levels)
from . import correlation
from .enclosure import MeasureEnclosure


@dataclass(frozen=True)
class CountEvent:
    """{configurations with exactly `count` points in `set`}, optionally
    pushed by the shift: the event is about T^shift(set)."""

    set: LevelSet
    count: int
    shift: int = 0

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("count must be >= 0")


@dataclass(frozen=True)
class ExactProb:
    """coeff * exp(-rate) with exact rational coeff and rate."""

    coeff: Fraction
    rate: Fraction

    def value(self) -> float:
        try:
            return float(self.coeff) * math.exp(-float(self.rate))
        except OverflowError:  # coeff or rate past the float range: add logs
            if not self.coeff:
                return 0.0
            num, den = self.coeff.as_integer_ratio()
            return math.exp(max(Fraction(math.log(num) - math.log(den)) - self.rate, -1000))


@dataclass(frozen=True)
class ProbEnclosure:
    lo: float
    hi: float
    clamped: bool = False  # negative atom mass was clamped during propagation


def poisson_pmf(mean: float, k: int) -> float:
    if mean == 0.0:
        return 1.0 if k == 0 else 0.0
    return math.exp(-mean + k * math.log(mean) - math.lgamma(k + 1))


def cylinder_prob(events: list[CountEvent], tower: Tower) -> ExactProb:
    """Product formula for pairwise disjoint sets (shifts must be 0)."""
    if any(e.shift != 0 for e in events):
        raise ValueError("cylinder_prob takes unshifted events; use joint_prob")
    top = max(e.set.stage for e in events)
    lifted = [tower.lift(e.set, top) for e in events]
    for i in range(len(lifted)):
        for k in range(i + 1, len(lifted)):
            if not lifted[i].intersect(lifted[k]).is_empty():
                raise ValueError(
                    f"events {i} and {k} overlap; use joint_prob for non-disjoint sets"
                )
    coeff = Fraction(1)
    rate = Fraction(0)
    for e in events:
        mu = tower.set_measure(e.set)
        rate += mu
        coeff *= mu**e.count / math.factorial(e.count)
    return ExactProb(coeff, rate)


def marginal_prob(event: CountEvent, tower: Tower) -> ExactProb:
    """P(count in T^shift A = n) = P(count in A = n) by measure preservation."""
    return ExactProb(
        tower.set_measure(event.set) ** event.count / math.factorial(event.count),
        tower.set_measure(event.set),
    )


def normalization_check(mu: Fraction) -> tuple[float, int]:
    """Sum the count marginals until the explicit Poisson tail bound drops
    below 1e-12; returns (partial sum, last count included)."""
    m = float(mu)
    total = 0.0
    a = 0
    while True:
        total += poisson_pmf(m, a)
        # tail bound: P(N > a) <= pmf(a) * m/(a+1) / (1 - m/(a+2)) once a+2 > m
        if a + 2 > m:
            ratio = m / (a + 1)
            tail = poisson_pmf(m, a) * ratio / max(1e-300, 1.0 - m / (a + 2))
            if tail < 1e-12:
                return total, a
        a += 1
        if a > 10_000:
            return total, a


# ---------------------------------------------------------------------------
# joint probabilities via disjoint-atom decomposition


def _atom_law(mus, overlaps, counts) -> float:
    """P(each event i has counts[i] points) for k events whose sets measure
    ``mus`` and whose intersection over each subset S of two or more events
    measures overlaps[S].  The 2^k - 1 Venn atoms hold independent Poisson
    counts; an atom's mass is, by Moebius inversion, its subset's measure
    less and plus those of the subset's supersets, in (size, lex) order.
    The shared atoms' counts are summed over largest subset first, and each
    singleton atom takes what is left of its event's count."""
    k = len(mus)
    subsets = [S for n in range(1, k + 1) for S in combinations(range(k), n)]
    measure = {**{(i,): mu for i, mu in enumerate(mus)}, **overlaps}
    mass = {}
    for S in subsets:
        v = measure[S]
        for T in subsets:
            if len(T) > len(S) and set(S).issubset(T):
                v = v - measure[T] if (len(T) - len(S)) % 2 else v + measure[T]
        mass[S] = v
    if any(v < 0 for v in mass.values()):
        raise ValueError("negative atom mass")
    shared = sorted(subsets[k:], key=len, reverse=True)
    total = 0.0

    def walk(at, left, p):  # p: the product of the shared atoms' factors so far
        nonlocal total
        if at == len(shared):
            for i in range(k):
                p *= poisson_pmf(mass[i,], left[i])
            total += p
            return
        S = shared[at]
        for c in range(min(left[i] for i in S) + 1):
            walk(at + 1, [x - c if i in S else x for i, x in enumerate(left)],
                 p * poisson_pmf(mass[S], c))

    walk(0, counts, 1.0)
    return total


def _interval_grid(enc: MeasureEnclosure) -> list[float]:
    if enc.is_exact():
        return [float(enc.lo)]
    lo, hi = float(enc.lo), float(enc.hi)
    return [lo + (hi - lo) * i / 2 for i in range(3)]


def overlap_enclosures(rows, tower: Tower, epsilon=None):
    """For each row of events: the events sorted by shift, and the
    intersection enclosure of the shifted sets of each subset S of two or
    more of them, keyed by S in (size, lex) order and reduced to nonnegative
    relative shifts.  All rows share one shift grid per (sets, gaps)."""
    rows = [sorted(events, key=lambda e: e.shift) for events in rows]
    shifts = {}  # (sets, gaps) of a grid -> the shifts asked of it, in row order
    asked = []
    for evs in rows:
        keys = {}
        for S in (S for n in range(2, len(evs) + 1) for S in combinations(range(len(evs)), n)):
            # mu(T^a A cap T^b B cap ...) = mu(A cap T^{b-a} B cap ...), a <= b <= ...
            at = [evs[i].shift for i in S]
            tower.resolving_stage(1, at[-1] - at[0])  # the first shift error, in row order
            keys[S] = (tuple(evs[i].set for i in S), tuple(x - at[1] for x in at[1:]))
            shifts.setdefault(keys[S], []).append(at[1] - at[0])
        asked.append(keys)
    encs = {key: iter(correlation._shift_grid(*key, ms, tower, epsilon))
            for key, ms in shifts.items()}
    return [(evs, {S: next(encs[key]) for S, key in keys.items()})
            for evs, keys in zip(rows, asked)]


def joint_prob(
    events: list[CountEvent],
    tower: Tower,
    epsilon: Fraction | None = None,
) -> ProbEnclosure:
    """Probability of the joint count event for up to three shifted sets.

    The shifted sets are decomposed into disjoint atoms using intersection
    enclosures; independent Poisson counts are convolved over the atoms,
    and enclosure slack is propagated by evaluating the probability over a
    grid of admissible overlap values."""
    if not 1 <= len(events) <= 3:
        raise ValueError("joint_prob supports 1..3 events")
    if len(events) == 1:
        v = marginal_prob(events[0], tower).value()
        return ProbEnclosure(v, v)
    return _joint_law(*_law_grid(tower, *overlap_enclosures([events], tower, epsilon)[0]))


# The most convolution terms that one row's joint law may take over its grid
# points: the product over the shared atoms of (their least count + 1) and
# of the points per overlap.
LAW_TERMS_MAX = 1 << 22


def _law_grid(tower: Tower, evs, overlaps):
    """The measures, counts and overlap grid points of the joint law of 2
    or more events sorted by shift, from their overlap enclosures; a row
    past LAW_TERMS_MAX terms is refused."""
    mus = [float(tower.set_measure(e.set)) for e in evs]
    counts = tuple(e.count for e in evs)
    grids = {S: _interval_grid(enc) for S, enc in overlaps.items()}
    terms = math.prod(len(g) * (min(counts[i] for i in S) + 1) for S, g in grids.items())
    if terms > LAW_TERMS_MAX:
        raise ValueError(f"the joint law of event counts {list(counts)} takes up to {terms} "
                         f"terms, more than {LAW_TERMS_MAX}")
    return mus, counts, grids


def _joint_law(mus, counts, grids) -> ProbEnclosure:
    """``joint_prob`` from ``_law_grid``: the atom law at every grid point,
    each overlap clamped to those of its subsets one smaller, in (size, lex)
    order; a point whose atoms stay negative is skipped."""
    clamped = False
    values = []
    for point in product(*grids.values()):
        c = {(i,): mu for i, mu in enumerate(mus)}
        for S, x in zip(grids, point):
            c[S] = min(x, *(c[T] for T in combinations(S, len(S) - 1)))
        try:
            values.append(_atom_law(mus, {S: c[S] for S in grids}, counts))
        except ValueError:
            clamped = True
            continue
        clamped |= any(c[S] != x for S, x in zip(grids, point))
    if not values:
        return ProbEnclosure(0.0, 1.0, clamped=True)
    return ProbEnclosure(min(values), max(values), clamped=clamped)


# ---------------------------------------------------------------------------
# sampling


# The largest count that inversion returns, however far in the tail u is.
POISSON_MAX = 10_000_000


def _poisson_inverse(mean: float):
    """Inversion sampling of Poisson(mean) counts: u maps to the first k with
    u <= pmf(0) + ... + pmf(k), summed in that order.  One table of the
    sums serves every u; it grows only as far as some u needs, and never
    past POISSON_MAX.  Past the mode, once a term no longer changes the sum,
    the sum is final, and a u above it gets the last k that did.

    Returns count(u).  A loop may read the table inline instead, as count
    does: count.cum is the table, and count.grow(u), for a u above its top,
    extends it and returns u's count."""
    if not (math.isfinite(mean) and mean >= 0):
        raise ValueError(f"Poisson mean must be finite and >= 0, got {mean}")
    cum = [poisson_pmf(mean, 0)]

    def grow(u: float) -> int:
        while u > cum[-1] and len(cum) <= POISSON_MAX:
            k = len(cum)
            acc = cum[-1] + poisson_pmf(mean, k)
            if acc == cum[-1] and k > mean:
                break
            cum.append(acc)
        return min(bisect.bisect_left(cum, u), len(cum) - 1)

    def count(u: float) -> int:
        return bisect.bisect_left(cum, u) if u <= cum[-1] else grow(u)

    count.cum, count.grow = cum, grow
    return count


def sample_poisson_count(mean: float, rng: random.Random) -> int:
    """Inversion sampling of a Poisson count; deterministic per rng state."""
    return _poisson_inverse(mean)(rng.random())


def sample_configuration(region: LevelSet, tower: Tower, rng: random.Random):
    """A Poisson configuration restricted to a finite-measure region:
    Poisson count, then i.i.d. uniform points."""
    if region.is_empty():
        return []
    n = sample_poisson_count(float(tower.set_measure(region)), rng)
    return [tower.sample_uniform(region, rng) for _ in range(n)]


def _shift_stage(A: LevelSet, n: int, tower: Tower) -> int:
    """The first stage J >= A.stage where no level of A plus n (n >= 0)
    escapes the top, so that T^n A is A at J shifted by n."""
    tower.validate_set(A)
    if A.is_empty():
        return A.stage
    # A's top at stage J + 1 is its top at J plus the last column offset
    J, top = A.stage, A.ranges[-1][1]
    while top + n > tower.stage(J).h:
        if J == tower.depth:
            raise NeedsMoreStages(
                f"cannot represent shift {n} of a stage-{A.stage} set at depth {tower.depth}",
                required_depth=tower.depth + 1,
            )
        top += tower.stage(J).offsets[-1]
        J += 1
    return J


def shifted_level_set(A: LevelSet, n: int, tower: Tower) -> LevelSet:
    """Exact representation of T^n A (n >= 0) as a level set, at the first
    stage deep enough that no level escapes the top."""
    if n < 0:
        raise ValueError("only forward shifts are represented exactly")
    return tower.lift(A, _shift_stage(A, n, tower)).shift(n)


def _union(ranges):
    """Sorted disjoint range arrays of the union of several such pairs."""
    starts = np.concatenate([s for s, _ in ranges])
    ends = np.concatenate([e for _, e in ranges])
    if not len(starts):
        return starts, ends
    order = np.argsort(starts, kind="stable")
    starts, reach = starts[order], np.maximum.accumulate(ends[order])
    new = np.r_[True, starts[1:] > reach[:-1]]
    return starts[new], reach[np.r_[new[1:], True]]


def mc_joint(events: list[CountEvent], samples: int, seed: int, tower: Tower):
    """Monte-Carlo oracle for joint_prob: sample Poisson configurations on
    the union of the shifted sets and count matching events.

    The draws are sample_configuration's, of which only the levels are
    read: per sample a Poisson count, then that many sample_uniform points of
    the union, whose offset cells are drawn and dropped.  They are drawn
    first; the levels, and each event's count per sample, are then found on
    arrays."""
    if not events:
        raise ValueError("mc_joint needs at least one event")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    base = min(e.shift for e in events)
    top = max(_shift_stage(e.set, e.shift - base, tower) for e in events)
    # an empty set stays unshifted: its shift need not fit the dtype
    shifted = [tuple(x + (e.shift - base) if len(x) else x
                     for x in tower.range_arrays(e.set, top)) for e in events]
    starts, ends = _union(shifted)
    cum = np.concatenate((np.zeros(1, dtype=tower.dtype), np.cumsum(ends - starts)))
    total = int(cum[-1])
    if not total:  # no draws: every count is 0
        hits = samples if all(e.count == 0 for e in events) else 0
    else:
        mu = float(total * tower.stage(top).base_measure)
        hits = 0
        for picks, _, sizes in _draw_points(seed, samples, total, GRID * tower.units[top],
                                            correlation.CHUNK, _poisson_inverse(mu)):
            level = _pick_levels(starts, cum, np.array(picks, dtype=tower.dtype))
            owner = np.repeat(np.arange(len(sizes)), sizes)
            match = np.ones(len(sizes), dtype=bool)
            for e, (s, t) in zip(events, shifted):
                got = np.bincount(owner[_inside(s, t, level)], minlength=len(sizes))
                match &= got == e.count
            hits += int(np.count_nonzero(match))
    f = hits / samples
    return f, math.sqrt(max(f * (1 - f), 1.0 / samples) / samples)


# ---------------------------------------------------------------------------
# mixing reports


def _deviation_interval(joint: ProbEnclosure, prod: float) -> tuple[float, float]:
    if joint.lo <= prod <= joint.hi:
        lo = 0.0
    else:
        lo = min(abs(joint.lo - prod), abs(joint.hi - prod))
    hi = max(abs(joint.lo - prod), abs(joint.hi - prod))
    return lo, hi


def _report_rows(marginals, rows, tower: Tower, epsilon, mc_samples: int):
    """One report row per (keys, events, seed) of ``rows``: the keys, then
    the joint law of the events against the product of the ``marginals``,
    and with ``mc_samples`` the mc_joint estimate at that seed."""
    prod = math.prod(marginal_prob(e, tower).value() for e in marginals)
    rows = list(rows)
    laws = [_law_grid(tower, *overlap)  # every row is checked before any law is evaluated
            for overlap in overlap_enclosures([evs for _, evs, _ in rows], tower, epsilon)]
    out = []
    for (keys, evs, seed), law in zip(rows, laws):
        joint = _joint_law(*law)
        dev_lo, dev_hi = _deviation_interval(joint, prod)
        row = {**keys, "joint_lo": joint.lo, "joint_hi": joint.hi, "product": prod,
               "dev_lo": dev_lo, "dev_hi": dev_hi}
        if len(evs) == 3:
            row["exact_zero_dev"] = joint.lo == joint.hi == prod
        if mc_samples:
            row["mc"], row["mc_stderr"] = mc_joint(evs, mc_samples, seed, tower)
        out.append(row)
    return out


def mixing_report(
    V: CountEvent,
    W: CountEvent,
    n_grid,
    tower: Tower,
    epsilon: Fraction | None = None,
    mc_samples: int = 0,
    seed: int = 0,
) -> list[dict]:
    """Rows of the suspension correlation P(V and T_*^{-n} W) against the
    product of marginals, per shift n."""
    rows = (({"n": n}, [CountEvent(V.set, V.count, n), CountEvent(W.set, W.count, 0)],
             seed + n) for n in n_grid)
    return _report_rows([V, W], rows, tower, epsilon, mc_samples)


def triple_mixing_report(
    U: CountEvent,
    V: CountEvent,
    W: CountEvent,
    mn_grid,
    tower: Tower,
    epsilon: Fraction | None = None,
    mc_samples: int = 0,
    seed: int = 0,
) -> list[dict]:
    """Rows over an (m, n) grid of P(U and T_*^m V and T_*^{m+n} W) against
    the triple product of marginals."""
    rows = (({"m": m, "n": n}, [CountEvent(U.set, U.count, 0), CountEvent(V.set, V.count, m),
                                CountEvent(W.set, W.count, m + n)], seed + 13 * m + n)
            for m, n in mn_grid)
    return _report_rows([U, V, W], rows, tower, epsilon, mc_samples)
