import bisect
import math
import random
from itertools import combinations, product
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from sidonlab import (
    CountEvent,
    LevelSet,
    Tower,
    cylinder_prob,
    joint_prob,
    marginal_prob,
    mc_joint,
    mixing_report,
    normalization_check,
    pair_enclosure,
    triple_enclosure,
    triple_mixing_report,
)
from sidonlab import construction, correlation
from sidonlab.enclosure import MeasureEnclosure
from sidonlab import poisson
from sidonlab.construction import GRID
from sidonlab.poisson import (ProbEnclosure, _atom_law, _poisson_inverse, _shift_stage,
                              overlap_enclosures, poisson_pmf)
from tests.conftest import (deep_spec, few_levels, huge_spec, inverse_count, outcome,
                            reference_draw)


def reference_poisson_count(mean, rng):
    """The per-call inversion loop that the inversion table replaced."""
    u = rng.random()
    k = 0
    acc = poisson_pmf(mean, 0)
    while u > acc and k < 10_000_000:
        k += 1
        acc += poisson_pmf(mean, k)
    return k


def reference_inverse(mean):
    """The count closure that _poisson_inverse's inline table read replaced,
    which grew the table inside every call, and its table."""
    cum = [poisson_pmf(mean, 0)]

    def count(u):
        while u > cum[-1] and len(cum) <= poisson.POISSON_MAX:
            k = len(cum)
            acc = cum[-1] + poisson_pmf(mean, k)
            if acc == cum[-1] and k > mean:
                break
            cum.append(acc)
        return min(bisect.bisect_left(cum, u), len(cum) - 1)

    return count, cum


def reference_triple_joint(mu, pairs, t: float, counts: tuple[int, int, int]) -> float:
    """The hand-written 7-atom law of three events that _atom_law replaced;
    two events were three with an empty third set, of exact zero overlaps."""
    mu_a, mu_b, mu_c = mu
    cab, cac, cbc = pairs
    na, nb, nc = counts
    atoms = {
        "t": t,
        "ab": cab - t,
        "ac": cac - t,
        "bc": cbc - t,
        "a": mu_a - cab - cac + t,
        "b": mu_b - cab - cbc + t,
        "c": mu_c - cac - cbc + t,
    }
    if any(v < 0 for v in atoms.values()):
        raise ValueError("negative atom mass")
    total = 0.0
    for kt in range(0, min(na, nb, nc) + 1):
        for kab in range(0, min(na - kt, nb - kt) + 1):
            for kac in range(0, min(na - kt - kab, nc - kt) + 1):
                for kbc in range(0, min(nb - kt - kab, nc - kt - kac) + 1):
                    ka = na - kt - kab - kac
                    kb = nb - kt - kab - kbc
                    kc = nc - kt - kac - kbc
                    total += (
                        poisson_pmf(atoms["t"], kt)
                        * poisson_pmf(atoms["ab"], kab)
                        * poisson_pmf(atoms["ac"], kac)
                        * poisson_pmf(atoms["bc"], kbc)
                        * poisson_pmf(atoms["a"], ka)
                        * poisson_pmf(atoms["b"], kb)
                        * poisson_pmf(atoms["c"], kc)
                    )
    return total


def reference_joint_law(mus, counts, grids):
    """The padded clamp-and-grid loop that _joint_law replaced: two events
    were three with an empty third set, of exact zero overlaps."""
    pad = 3 - len(mus)
    mus, counts = [*mus] + [0.0] * pad, (*counts,) + (0,) * pad
    clamped = False
    values = []
    for cab, cac, cbc, t in product(*(grids.get(S, [0.0])
                                      for S in ((0, 1), (0, 2), (1, 2), (0, 1, 2)))):
        c = (min(cab, mus[0], mus[1]), min(cac, mus[0], mus[2]), min(cbc, mus[1], mus[2]))
        t2 = min(t, *c)
        try:
            values.append(reference_triple_joint(tuple(mus), c, t2, counts))
        except ValueError:
            clamped = True
            continue
        clamped |= (*c, t2) != (cab, cac, cbc, t)
    if not values:
        return ProbEnclosure(0.0, 1.0, clamped=True)
    return ProbEnclosure(min(values), max(values), clamped=clamped)


def random_atom_system(rng, k):
    """The measures, overlaps and counts of k events, the measures summed
    from random atom masses; in about a third of the systems one of them is
    redrawn, so that some atoms come out negative."""
    subsets = [S for n in range(1, k + 1) for S in combinations(range(k), n)]
    atoms = {S: rng.choice([0.0, rng.uniform(0, 2), rng.expovariate(5)]) for S in subsets}
    measure = {S: sum(atoms[T] for T in subsets if set(S) <= set(T)) for S in subsets}
    if rng.random() < 0.3:
        measure[rng.choice(subsets)] = rng.uniform(0, 3)
    return ([measure[i,] for i in range(k)], {S: measure[S] for S in subsets[k:]},
            tuple(rng.randint(0, 5) for _ in range(k)))


def mc_joint_reference(events, samples, seed, tower):
    """The per-point loop that mc_joint replaced: the LevelSet union of the
    shifted sets, then per sample a Poisson count and per point a draw and
    LevelSet.contains for each event."""
    base = min(e.shift for e in events)
    # T^n A at the first stage where no level escapes the top, by _shift_stage's rule
    shifted = [tower.lift(e.set, _shift_stage(e.set, e.shift - base, tower)).shift(e.shift - base)
               for e in events]
    top = max(s.stage for s in shifted)
    shifted = [tower.lift(s, top) for s in shifted]
    region = shifted[0]
    for s in shifted[1:]:
        region = region.union(s)
    mu = float(tower.set_measure(region))
    empty = region.is_empty()
    rng = random.Random(seed)
    hits = 0
    for _ in range(samples):
        counts = [0] * len(events)
        for _ in range(0 if empty else reference_poisson_count(mu, rng)):
            level = reference_draw(tower, region, rng)[0]
            for i, s in enumerate(shifted):
                if s.contains(level):
                    counts[i] += 1
        if all(c == e.count for c, e in zip(counts, events)):
            hits += 1
    f = hits / samples
    return f, math.sqrt(max(f * (1 - f), 1.0 / samples) / samples)


def random_events(rng, tower, lift):
    """One to three events of a few levels at mixed stages, counts 0..3,
    shifts of either sign up to h_{stage + lift}, sometimes a repeated set
    and sometimes a shift past the top.  With lift None all shifts but
    those are 0: the sets are then never lifted, which keeps the deep
    tower's lifts small."""
    events = []
    for _ in range(rng.randint(1, 3)):
        if events and rng.random() < 0.2:
            e = rng.choice(events)
            events.append(CountEvent(e.set, rng.choice([e.count, rng.randint(0, 3)]), e.shift))
            continue
        stage = rng.randint(1, min(3, tower.depth))
        reach = 0 if lift is None else tower.stage(min(stage + lift, tower.depth)).h
        shift = (tower.stage(tower.depth).h + rng.randint(0, 3) if rng.random() < 0.05
                 else rng.randint(-reach, reach))
        events.append(CountEvent(few_levels(rng, tower, stage, 4), rng.randint(0, 3), shift))
    return events


class TestCylinder:
    def test_count_zero(self, running_tower):
        # region of measure 3/2: P(count = 0) = e^{-3/2}
        a = LevelSet.from_ranges(2, [(0, 3)])
        p = cylinder_prob([CountEvent(a, 0)], running_tower)
        assert p.coeff == 1 and p.rate == Fraction(3, 2)
        assert p.value() == pytest.approx(math.exp(-1.5))
        assert p.value() == pytest.approx(0.2231301601, abs=1e-9)

    def test_count_two(self, running_tower):
        a = LevelSet.from_ranges(2, [(0, 3)])
        p = cylinder_prob([CountEvent(a, 2)], running_tower)
        assert p.coeff == Fraction(3, 2) ** 2 / 2
        assert p.value() == pytest.approx((1.5**2 / 2) * math.exp(-1.5))
        assert p.value() == pytest.approx(0.2510214301, abs=1e-9)

    def test_product_for_disjoint(self, running_tower):
        a = LevelSet.from_ranges(2, [(0, 1)])
        b = LevelSet.from_ranges(2, [(1, 3)])
        p = cylinder_prob([CountEvent(a, 1), CountEvent(b, 0)], running_tower)
        pa = marginal_prob(CountEvent(a, 1), running_tower)
        pb = marginal_prob(CountEvent(b, 0), running_tower)
        assert p.value() == pytest.approx(pa.value() * pb.value())

    def test_non_disjoint_rejected(self, running_tower):
        a = LevelSet.from_ranges(2, [(0, 2)])
        b = LevelSet.from_ranges(2, [(1, 3)])
        with pytest.raises(ValueError, match="joint_prob"):
            cylinder_prob([CountEvent(a, 1), CountEvent(b, 0)], running_tower)

    def test_shifted_rejected(self, running_tower):
        a = LevelSet.from_ranges(2, [(0, 1)])
        with pytest.raises(ValueError):
            cylinder_prob([CountEvent(a, 1, shift=2)], running_tower)


class TestNormalization:
    @pytest.mark.parametrize("mu", [Fraction(3, 2), Fraction(5), Fraction(1, 12)])
    def test_sums_to_one(self, mu):
        total, last = normalization_check(mu)
        assert total >= 1 - 1e-11
        assert total <= 1 + 1e-11
        assert last < 200


class TestJoint:
    def test_zero_overlap_is_product(self, demo_tower):
        # far-apart stage-2 levels lifted to stage 3 stay disjoint under a
        # shift that maps one exactly onto tower columns with no overlap
        a = LevelSet.from_ranges(2, [(0, 1)])
        b = LevelSet.from_ranges(2, [(3, 4)])
        evs = [CountEvent(a, 1, 0), CountEvent(b, 0, 0)]
        enc = joint_prob(evs, demo_tower)
        prod = marginal_prob(evs[0], demo_tower).value() * marginal_prob(
            evs[1], demo_tower
        ).value()
        assert enc.lo == pytest.approx(prod)
        assert enc.hi == pytest.approx(prod)

    def test_full_overlap(self, demo_tower):
        a = LevelSet.from_ranges(2, [(0, 2)])
        enc = joint_prob([CountEvent(a, 1, 0), CountEvent(a, 1, 0)], demo_tower)
        # same set, same count: P(N = 1) exactly
        v = marginal_prob(CountEvent(a, 1), demo_tower).value()
        assert enc.lo == pytest.approx(v)
        assert enc.hi == pytest.approx(v)

    def test_single_event_is_marginal(self, demo_tower):
        a = LevelSet.from_ranges(2, [(2, 5)])
        enc = joint_prob([CountEvent(a, 3, 7)], demo_tower)
        v = marginal_prob(CountEvent(a, 3), demo_tower).value()
        assert enc.lo == enc.hi == pytest.approx(v)

    def test_event_count_limits(self, demo_tower):
        a = LevelSet.from_ranges(2, [(0, 1)])
        with pytest.raises(ValueError):
            joint_prob([], demo_tower)
        with pytest.raises(ValueError):
            joint_prob([CountEvent(a, 0)] * 4, demo_tower)

    def test_randomized_vs_mc(self, demo_tower):
        rng = random.Random(41)
        for i in range(10):
            stage = rng.randint(1, 2)
            h = demo_tower.stage(stage).h
            mk = lambda: LevelSet.from_levels(
                stage, rng.sample(range(h), rng.randint(1, max(1, h // 2)))
            )
            n_events = rng.randint(2, 3)
            evs = [
                CountEvent(mk(), rng.randint(0, 2), rng.randint(0, 40))
                for _ in range(n_events)
            ]
            enc = joint_prob(evs, demo_tower)
            est, err = mc_joint(evs, 1500, 9000 + i, demo_tower)
            err = max(err, 1e-9)
            assert enc.lo - 4 * err <= est <= enc.hi + 4 * err


class TestAtomLaw:
    """_atom_law against the 7-atom law it replaced: the same floats (==),
    and the same error where an atom is negative."""

    def test_three_events(self):
        rng = random.Random(61)
        negative = 0
        for _ in range(1500):
            mus, ov, counts = random_atom_system(rng, 3)
            got = outcome(_atom_law, mus, ov, counts)
            assert got == outcome(reference_triple_joint, tuple(mus),
                                  (ov[0, 1], ov[0, 2], ov[1, 2]), ov[0, 1, 2], counts)
            negative += not isinstance(got, float)
        assert 100 < negative < 1400

    def test_two_events_are_the_padded_three(self):
        rng = random.Random(62)
        negative = 0
        for _ in range(1500):
            mus, ov, counts = random_atom_system(rng, 2)
            got = outcome(_atom_law, mus, ov, counts)
            assert got == outcome(reference_triple_joint, (*mus, 0.0), (ov[0, 1], 0.0, 0.0),
                                  0.0, (*counts, 0))
            negative += not isinstance(got, float)
        assert 100 < negative < 1400

    # Grid points of 1 or 3 values around each overlap, some past the
    # measures of its subsets, so that clamping and skipped points show.
    @pytest.mark.parametrize("k", [2, 3])
    def test_joint_law_over_grids(self, k):
        rng = random.Random(63 + k)
        clamped = 0
        for _ in range(200):
            mus, ov, _ = random_atom_system(rng, k)
            counts = tuple(rng.randint(0, 3) for _ in range(k))
            grids = {S: ([x] if rng.random() < 0.4 else
                         [x * (1 - w) + x * w * i for i in range(3)])
                     for S, x in ov.items() for w in [rng.uniform(0, 0.6)]}
            got = poisson._joint_law(mus, counts, grids)
            assert got == reference_joint_law(mus, counts, grids)
            clamped += got.clamped
        assert 20 < clamped < 180

    # The term bound of a row is the product over the shared atoms of (the
    # least count of their events + 1), times the grid points: here
    # 3 x 3 x 3 x 4 = 108 at one point per overlap (no shift, so all are
    # exact).  One set cannot hold 2, 3 and 4 points at once.
    def test_term_bound(self, demo_tower, monkeypatch):
        a = LevelSet.from_ranges(2, [(0, 3)])
        evs = [CountEvent(a, 2), CountEvent(a, 3), CountEvent(a, 4)]
        monkeypatch.setattr(poisson, "LAW_TERMS_MAX", 108)
        assert joint_prob(evs, demo_tower) == ProbEnclosure(0.0, 0.0)
        monkeypatch.setattr(poisson, "LAW_TERMS_MAX", 107)
        with pytest.raises(ValueError, match=r"counts \[2, 3, 4\] takes up to 108 terms"):
            joint_prob(evs, demo_tower)
        # an inexact overlap is 3 grid points: 3 x (4 + 1) = 15 terms
        pair = [CountEvent(a, 4), CountEvent(a, 6)]
        loose = {(0, 1): MeasureEnclosure(Fraction(1, 10), Fraction(1, 5))}
        monkeypatch.setattr(poisson, "LAW_TERMS_MAX", 15)
        assert len(poisson._law_grid(demo_tower, pair, loose)[2][0, 1]) == 3
        monkeypatch.setattr(poisson, "LAW_TERMS_MAX", 14)
        with pytest.raises(ValueError, match=r"counts \[4, 6\] takes up to 15 terms"):
            poisson._law_grid(demo_tower, pair, loose)

    def test_large_counts_refused_fast(self, demo_tower):
        # about 4e10 convolution terms; refused before any law is evaluated
        a = LevelSet.from_ranges(2, [(0, 3)])
        b = LevelSet.from_ranges(2, [(2, 6)])
        with pytest.raises(ValueError, match=r"counts \[1000, 1000, 1000\]"):
            triple_mixing_report(CountEvent(a, 1000), CountEvent(b, 1000), CountEvent(a, 1000),
                                 [(0, 0), (3, 4)], demo_tower)


class TestMonteCarloOracle:
    # The array classification against the per-point loop: the same floats,
    # or the same error, on 1-3 events with mixed stages, empty sets, count
    # 0 and repeated events; on object-dtype towers; and on a tower whose
    # offset cells pass 2^63 while its levels stay int64.
    @pytest.mark.parametrize("kind", ["demo", "running", "huge", "deep"])
    def test_vs_reference_loop(self, demo_tower, running_tower, kind):
        rng = random.Random(kind)
        towers = {"demo": lambda: demo_tower, "running": lambda: running_tower,
                  "huge": lambda: Tower(huge_spec(rng), depth=3),
                  "deep": lambda: Tower(deep_spec(rng), depth=57)}
        tower = towers[kind]()
        raised = 0
        for i in range(60):
            if kind in ("huge", "deep") and i % 10 == 0:
                tower = towers[kind]()
            events = random_events(rng, tower, {"demo": 2, "running": 2, "huge": 0}.get(kind))
            args = (events, rng.randint(1, 40), rng.randrange(10**6), tower)
            want = outcome(mc_joint_reference, *args)
            assert outcome(mc_joint, *args) == want
            raised += isinstance(want[0], type)
        assert 1 <= raised <= 30

    # Samples are drawn and classified about CHUNK points at a time.
    @pytest.mark.parametrize("chunk", [1, 7])
    def test_small_chunks(self, demo_tower, monkeypatch, chunk):
        rng = random.Random(chunk)
        cases = [(random_events(rng, demo_tower, 2), rng.randint(1, 40), rng.randrange(10**6))
                 for _ in range(20)]
        want = [outcome(mc_joint_reference, *case, demo_tower) for case in cases]
        monkeypatch.setattr(correlation, "CHUNK", chunk)
        assert [outcome(mc_joint, *case, demo_tower) for case in cases] == want

    def test_empty_region(self, demo_tower):
        empty = LevelSet.from_ranges(2, [])
        for count, want in ((0, 1.0), (1, 0.0)):
            evs = [CountEvent(empty, 0, 3), CountEvent(empty, count, 0)]
            assert mc_joint(evs, 10, 0, demo_tower) == mc_joint_reference(evs, 10, 0, demo_tower)
            assert mc_joint(evs, 10, 0, demo_tower)[0] == want

    # An empty set's shift may pass int64: it is never represented.
    def test_empty_set_far_shift(self, demo_tower):
        a = LevelSet.from_ranges(2, [(0, 2)])
        evs = [CountEvent(LevelSet.from_ranges(2, []), 0, 10**30), CountEvent(a, 1, 0)]
        assert mc_joint(evs, 50, 1, demo_tower) == mc_joint_reference(evs, 50, 1, demo_tower)

    @pytest.mark.parametrize("samples", [0, -5])
    def test_samples_below_one_rejected(self, demo_tower, samples):
        evs = [CountEvent(LevelSet.from_ranges(2, [(0, 1)]), 0)]
        with pytest.raises(ValueError, match="samples must be >= 1"):
            mc_joint(evs, samples, 0, demo_tower)

    def test_no_events_rejected(self, demo_tower):
        with pytest.raises(ValueError, match="at least one event"):
            mc_joint([], 10, 0, demo_tower)


def mc_joint_draws(tower, region, samples, seed):
    """mc_joint's draws of Poisson configurations on a region: the points
    per sample and their levels."""
    starts, ends = tower.range_arrays(region, region.stage)
    cum = np.concatenate(([0], np.cumsum(ends - starts)))
    inverse = _poisson_inverse(float(tower.set_measure(region)))
    sizes, levels = [], []
    for picks, _, chunk in construction._draw_points(
            seed, samples, int(cum[-1]), GRID * tower.units[region.stage], correlation.CHUNK,
            inverse):
        sizes += chunk
        levels += construction._pick_levels(starts, cum, np.array(picks)).tolist()
    return sizes, levels


class TestSampling:
    @pytest.mark.parametrize("mean", [-1.0, math.nan, math.inf])
    def test_bad_mean_rejected(self, mean):
        with pytest.raises(ValueError, match="Poisson mean"):
            _poisson_inverse(mean)

    # The float sums of the pmf stop short of 1 - 2^-53; such a u once ran
    # the inversion to 10^7.  Now it gets the last count whose term still
    # changed the sum.
    @pytest.mark.parametrize("mean", [0.1, 7.0])
    def test_tail_past_the_float_sum(self, mean):
        acc, last = poisson_pmf(mean, 0), 0
        for k in range(1, 1000):
            if acc + poisson_pmf(mean, k) != acc:
                acc, last = acc + poisson_pmf(mean, k), k
        assert acc < 1 - 2**-53
        _, grow = _poisson_inverse(mean)
        assert grow(1 - 2**-53) == last

    def test_counts_vs_reference_loop(self):
        for i, mean in enumerate((0.0, 1e-3, 0.1, 1.5, 7.0, 40.0, 800.0)):
            rng, ref = random.Random(i), random.Random(i)
            count = inverse_count(_poisson_inverse(mean))
            got = [count(rng.random()) for _ in range(300)]
            assert got == [reference_poisson_count(mean, ref) for _ in range(300)]

    def test_poisson_count_mean(self):
        rng = random.Random(17)
        mean = 2.5
        n = 4000
        count = inverse_count(_poisson_inverse(mean))
        counts = [count(rng.random()) for _ in range(n)]
        avg = sum(counts) / n
        assert abs(avg - mean) < 4 * math.sqrt(mean / n)

    def test_poisson_count_chisquare(self):
        rng = random.Random(23)
        mean = 1.5
        n = 5000
        count = inverse_count(_poisson_inverse(mean))
        counts = [count(rng.random()) for _ in range(n)]
        kmax = 7
        obs = [0] * (kmax + 2)
        for c in counts:
            obs[min(c, kmax + 1)] += 1
        exp = [n * poisson_pmf(mean, k) for k in range(kmax + 1)]
        exp.append(n - sum(exp))
        chi2 = sum((o - e) ** 2 / e for o, e in zip(obs, exp) if e > 0)
        p = stats.chi2.sf(chi2, df=kmax)
        assert p > 0.001

    def test_configuration_mean(self, running_tower):
        region = LevelSet.from_ranges(2, [(0, 3)])
        mu = 1.5
        n = 2000
        sizes, _ = mc_joint_draws(running_tower, region, n, 3)
        assert abs(sum(sizes) / n - mu) < 4 * math.sqrt(mu / n)

    def test_points_land_in_region(self, running_tower):
        region = LevelSet.from_ranges(3, [(1, 3), (7, 12)])
        sizes, levels = mc_joint_draws(running_tower, region, 50, 12)
        assert len(levels) == sum(sizes) > 0
        assert set(levels) <= set(region.levels())


class TestShiftedLevelSet:
    def test_exact_shift(self, running_tower):
        a = LevelSet.from_levels(2, [0])
        assert _shift_stage(a, 3, running_tower) == 3
        s = running_tower.lift(a, 3).shift(3)
        # lift of level 0 to stage 3 is {0,3,12}; shift by 3 -> {3,6,15}
        assert tuple(s.levels()) == (3, 6, 15)
        assert running_tower.set_measure(s) == Fraction(1, 2)


class TestMixing:
    def test_marginal_shift_invariance(self, demo_tower):
        a = LevelSet.from_ranges(2, [(0, 4)])
        p0 = marginal_prob(CountEvent(a, 2, 0), demo_tower)
        p9 = marginal_prob(CountEvent(a, 2, 9), demo_tower)
        assert p0 == p9

    def test_n0_identical_events(self, demo_tower):
        a = LevelSet.from_ranges(2, [(0, 7)])
        v = CountEvent(a, 0)
        rows = mixing_report(v, v, [0], demo_tower)
        r = rows[0]
        mu = float(demo_tower.set_measure(a))
        # P(N=0, N=0) = e^{-mu}; product of marginals is e^{-2 mu}
        assert r["joint_lo"] == pytest.approx(math.exp(-mu))
        assert r["dev_lo"] == pytest.approx(math.exp(-mu) - math.exp(-2 * mu))
        assert r["dev_lo"] == r["dev_hi"]

    def test_zero_deviation_when_disjoint(self, demo_tower):
        a = LevelSet.from_ranges(2, [(0, 1)])
        rows = mixing_report(CountEvent(a, 1), CountEvent(a, 0), [3], demo_tower)
        r = rows[0]
        if r["joint_lo"] == r["joint_hi"]:
            # exact overlap: deviation interval is a point
            assert r["dev_lo"] == pytest.approx(abs(r["joint_lo"] - r["product"]))

    def test_mc_column(self, demo_tower):
        a = LevelSet.from_ranges(2, [(0, 3)])
        rows = mixing_report(
            CountEvent(a, 0), CountEvent(a, 0), [0, 11], demo_tower,
            mc_samples=800, seed=5,
        )
        for r in rows:
            err = max(r["mc_stderr"], 1e-9)
            assert r["joint_lo"] - 4 * err <= r["mc"] <= r["joint_hi"] + 4 * err

    # The reports ask every row's overlaps at once: one pair grid per ordered
    # pair of sets (a negative n puts V's set first) and one triple grid per
    # (sets, n).  Each row must still get its own joint_prob.
    @staticmethod
    def events(demo_spec):
        rng = random.Random(9)
        return [CountEvent(LevelSet.from_levels(stage, rng.sample(range(h), k)), count)
                for stage, h, k, count in ((3, 77, 20, 1), (2, 7, 3, 0), (3, 77, 20, 2))]

    def test_overlaps_put_the_earlier_event_first(self, demo_spec):
        # mu(T^a A cap T^b B) = mu(A cap T^(b - a) B) for a <= b
        U, V, W = self.events(demo_spec)
        tower = Tower(demo_spec, depth=6)
        rows = [[CountEvent(V.set, 0, 40), CountEvent(W.set, 0, 0)],
                [CountEvent(V.set, 0, -40), CountEvent(W.set, 0, 0)],
                [CountEvent(U.set, 0, 0), CountEvent(V.set, 0, -30), CountEvent(W.set, 0, -10)]]
        got = overlap_enclosures(rows, tower)
        assert got[0][1] == {(0, 1): pair_enclosure(W.set, V.set, 40, tower)}
        assert got[1][1] == {(0, 1): pair_enclosure(V.set, W.set, 40, tower)}
        assert got[0][1] != got[1][1]
        evs, overlaps = got[2]
        assert [e.set for e in evs] == [V.set, W.set, U.set]
        assert overlaps == {(0, 1): pair_enclosure(V.set, W.set, 20, tower),
                            (0, 2): pair_enclosure(V.set, U.set, 30, tower),
                            (1, 2): pair_enclosure(W.set, U.set, 10, tower),
                            (0, 1, 2): triple_enclosure(V.set, W.set, U.set, 20, 10, tower)}

    def test_one_grid_per_sets_and_gaps(self, demo_spec, monkeypatch):
        U, V, W = self.events(demo_spec)
        tower, fresh = Tower(demo_spec, depth=6), Tower(demo_spec, depth=6)
        calls = []
        grid = correlation._shift_grid

        def counted(sets, gaps, *rest):
            calls.append((sets, gaps))
            return grid(sets, gaps, *rest)

        monkeypatch.setattr(correlation, "_shift_grid", counted)
        rows = [[CountEvent(V.set, 0, 40), CountEvent(W.set, 0, 0)],
                [CountEvent(V.set, 0, 7), CountEvent(W.set, 0, -3)],
                [CountEvent(U.set, 0, 0), CountEvent(V.set, 0, 10), CountEvent(W.set, 0, 30)],
                [CountEvent(U.set, 0, 5), CountEvent(V.set, 0, 20), CountEvent(W.set, 0, 40)],
                [CountEvent(U.set, 0, 0), CountEvent(V.set, 0, 10), CountEvent(W.set, 0, 31)]]
        got = overlap_enclosures(rows, tower)
        # (W, V) for the two pairs; (U, V), (U, W), (V, W) for the triples'
        # pairs; (U, V, W) at gaps (0, 20) and (0, 21)
        assert len(calls) == len(set(calls)) == 6
        assert set(calls) == {((W.set, V.set), (0,)), ((U.set, V.set), (0,)),
                              ((U.set, W.set), (0,)), ((V.set, W.set), (0,)),
                              ((U.set, V.set, W.set), (0, 20)),
                              ((U.set, V.set, W.set), (0, 21))}
        monkeypatch.setattr(correlation, "_shift_grid", grid)
        assert got == [overlap_enclosures([evs], fresh)[0] for evs in rows]

    @pytest.mark.parametrize("eps", [None, Fraction(0), Fraction(1, 3)])
    def test_grouped_mixing_rows_equal_joint_prob(self, demo_spec, eps):
        _, V, W = self.events(demo_spec)
        tower, fresh = Tower(demo_spec, depth=6), Tower(demo_spec, depth=6)
        n_grid = [0, 5, -5, 40, -40, 1500, -1500, 5, 60_000, -60_000]
        rows = mixing_report(V, W, n_grid, tower, epsilon=eps)
        assert [r["n"] for r in rows] == n_grid
        for n, r in zip(n_grid, rows):
            want = joint_prob([CountEvent(V.set, V.count, n), CountEvent(W.set, W.count, 0)],
                              fresh, epsilon=eps)
            assert (r["joint_lo"], r["joint_hi"]) == (want.lo, want.hi)

    @pytest.mark.parametrize("eps", [None, Fraction(0), Fraction(1, 3)])
    def test_grouped_triple_rows_equal_joint_prob(self, demo_spec, eps):
        U, V, W = self.events(demo_spec)
        tower, fresh = Tower(demo_spec, depth=6), Tower(demo_spec, depth=6)
        mn_grid = [(0, 0), (10, 20), (-10, 20), (10, -20), (-30, -10), (10, 20),
                   (700, -1400), (-700, 1400), (30_000, 30_000), (-10, 20)]
        rows = triple_mixing_report(U, V, W, mn_grid, tower, epsilon=eps)
        assert [(r["m"], r["n"]) for r in rows] == mn_grid
        for (m, n), r in zip(mn_grid, rows):
            want = joint_prob([CountEvent(U.set, U.count, 0), CountEvent(V.set, V.count, m),
                               CountEvent(W.set, W.count, m + n)], fresh, epsilon=eps)
            assert (r["joint_lo"], r["joint_hi"]) == (want.lo, want.hi)

    # An empty grid has no rows, and the event sets are still validated.
    @pytest.mark.parametrize("triple", [False, True])
    def test_empty_grid_validates_sets(self, demo_tower, triple):
        good = CountEvent(LevelSet.from_ranges(2, [(0, 2)]), 0)
        bad = CountEvent(LevelSet(2, ((0, 2), (2, 3))), 0)  # touching ranges
        if triple:
            assert triple_mixing_report(good, good, good, [], demo_tower) == []
            report = lambda: triple_mixing_report(good, good, bad, [], demo_tower)
        else:
            assert mixing_report(good, good, [], demo_tower) == []
            report = lambda: mixing_report(good, bad, [], demo_tower)
        with pytest.raises(ValueError, match="from_ranges"):
            report()

    def test_triple_rows(self, demo_tower):
        a = LevelSet.from_ranges(2, [(0, 2)])
        e = CountEvent(a, 0)
        rows = triple_mixing_report(e, e, e, [(0, 0), (30, 40)], demo_tower)
        assert [(r["m"], r["n"]) for r in rows] == [(0, 0), (30, 40)]
        r0 = rows[0]
        mu = float(demo_tower.set_measure(a))
        # full overlap at m=n=0: P(N=0) = e^{-mu}
        assert r0["joint_lo"] == pytest.approx(math.exp(-mu))
        for r in rows:
            assert r["dev_lo"] <= r["dev_hi"]
            if r["exact_zero_dev"]:
                assert r["dev_lo"] == r["dev_hi"] == 0.0


class ScriptedRandom(random.Random):
    """random() reads a script of u values; getrandbits is seed 0's stream."""

    def __init__(self, script):
        super().__init__(0)
        self.script = iter(script)

    def random(self):
        return next(self.script)


class TestInlineCount:
    """The count read inline from the table of _poisson_inverse (a
    bisection while u is at most its top, grow(u) otherwise) equals the
    closure that grew the table on every call.  At mean 800, pmf(0)
    underflows to 0.0, so the table starts with zeros."""

    MEANS = [0.0, 0.1, 7.0, 800.0, 1e5]

    @staticmethod
    def us(mean):
        """u = 0, every entry of the full table and its float neighbours,
        and the largest u, 1 - 2^-53."""
        count, cum = reference_inverse(mean)
        count(1 - 2**-53)
        us = {0.0, 1 - 2**-53}
        for c in cum:
            us |= {c, math.nextafter(c, 0), math.nextafter(c, 1)}
        return sorted(u for u in us if u < 1)

    @pytest.mark.parametrize("mean", MEANS)
    def test_counts_and_table(self, mean):
        us = self.us(mean)
        assert mean != 800.0 or poisson_pmf(mean, 0) == 0.0
        for order in (us, random.Random(mean).sample(us, len(us))):
            inverse, (ref, cum) = _poisson_inverse(mean), reference_inverse(mean)
            count = inverse_count(inverse)
            assert [count(u) for u in order] == [ref(u) for u in order]
            assert inverse[0] == cum

    # _draw_points reads the same table inline; each u draws its count of
    # points, so the large means take every 40th u
    @pytest.mark.parametrize("mean", MEANS[:4])
    def test_draw_points_sizes(self, monkeypatch, mean):
        us = self.us(mean)[::40 if mean > 100 else 1]
        rng = ScriptedRandom(us)
        monkeypatch.setattr(construction, "random", SimpleNamespace(Random=lambda seed: rng))
        sizes = [k for _, _, chunk in construction._draw_points(
            0, len(us), 1, 1, correlation.CHUNK, _poisson_inverse(mean)) for k in chunk]
        ref, _ = reference_inverse(mean)
        assert sizes == [ref(u) for u in us]
