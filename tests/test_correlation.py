import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from sidonlab import (
    ConstructionSpec,
    LevelSet,
    NeedsMoreStages,
    StageParams,
    Tower,
    mc_correlation,
    mc_correlation_grid,
    pair_enclosure,
    pair_enclosure_grid,
    sidon_bound_report,
    support_decay_report,
    triple_enclosure,
    triple_enclosure_grid,
)
from sidonlab import correlation
from sidonlab.construction import GRID
from sidonlab.correlation import CHUNK, DENSE_MAX, decay_report, default_epsilon
from sidonlab.enclosure import ZERO, MeasureEnclosure
from sidonlab.sidon import PsiSpec
from tests.conftest import (count_on_lifted, deep_spec, few_levels, huge_spec, outcome,
                            reference_advance, reference_ascend, reference_draw,
                            reference_in_set)


def reference_pair(A, B, m, tower, epsilon=None):
    """The LevelSet escape loop that pair_enclosure replaced: materialise
    every clipped, shifted and intersected set, read its count."""
    if epsilon is None:
        epsilon = default_epsilon(tower, A)
    J = tower.resolving_stage(max(A.stage, B.stage), m)
    esc = tower.lift(B, J)
    lo = Fraction(0)
    while True:
        st = tower.stage(J)
        resolved = esc.clip(0, st.h - m)
        if not resolved.is_empty():
            hits = resolved.shift(m).intersect(tower.lift(A, J))
            lo += hits.count() * st.base_measure
        escaped = esc.clip(st.h - m, st.h)
        esc_mass = escaped.count() * st.base_measure
        if esc_mass == 0 or esc_mass <= epsilon or J == tower.depth:
            return MeasureEnclosure(lo, lo + esc_mass)
        esc = tower.lift(escaped, J + 1)
        J += 1


def escape_pair(A, B, m, tower, epsilon=None):
    """The per-shift array escape loop that pair_enclosure ran before it
    became the grid's one-shift call: resolve B's range arrays below
    h_J - m, count A's levels under their image, lift the escaped top to
    J + 1 and repeat until the escaped mass is 0, at most epsilon or at the
    top stage."""
    if epsilon is None:
        epsilon = default_epsilon(tower, A)
    J = tower.resolving_stage(max(A.stage, B.stage), m)
    s, e = tower.range_arrays(B, J)
    lo = Fraction(0)
    while True:
        w = tower.stage(J).base_measure
        cut = tower.stage(J).h - m
        rs, re = np.minimum(s, cut), np.minimum(e, cut)
        keep = re > rs
        if keep.any():
            hits = (count_on_lifted(tower, A, J, re[keep] + m)
                    - count_on_lifted(tower, A, J, rs[keep] + m))
            lo += int(hits.sum()) * w
        s = np.maximum(s, cut)
        keep = e > s
        s, e = s[keep], e[keep]
        esc_mass = int((e - s).sum()) * w
        if esc_mass == 0 or esc_mass <= epsilon or J == tower.depth:
            return MeasureEnclosure(lo, lo + esc_mass)
        s, e = tower.lift_ranges(s, e, J)
        J += 1


def reference_triple(A, B, C, m, n, tower, epsilon=None):
    """The LevelSet escape loop that triple_enclosure replaced."""
    if epsilon is None:
        epsilon = default_epsilon(tower, A)
    t = m + n
    J = tower.resolving_stage(max(A.stage, B.stage, C.stage), t)
    esc = tower.lift(C, J)
    lo = Fraction(0)
    while True:
        st = tower.stage(J)
        resolved = esc.clip(0, st.h - t)
        if not resolved.is_empty():
            s1 = resolved.shift(n).intersect(tower.lift(B, J))
            s2 = s1.shift(m).intersect(tower.lift(A, J))
            lo += s2.count() * st.base_measure
        escaped = esc.clip(st.h - t, st.h)
        esc_mass = escaped.count() * st.base_measure
        if esc_mass == 0 or esc_mass <= epsilon or J == tower.depth:
            return MeasureEnclosure(lo, lo + esc_mass)
        esc = tower.lift(escaped, J + 1)
        J += 1


def reference_shifts(sets, ts, tower, epsilon=None):
    """reference_triple for any number of sets: the LevelSet escape loop
    for mu(A cap T^{t_1} B_1 cap ... cap T^{t_s} B_s), t_1 <= ... <= t_s."""
    A, *Bs = sets
    if epsilon is None:
        epsilon = default_epsilon(tower, A)
    J = tower.resolving_stage(max(X.stage for X in sets), ts[-1])
    esc = tower.lift(Bs[-1], J)
    lo = Fraction(0)
    while True:
        st = tower.stage(J)
        hits = esc.clip(0, st.h - ts[-1])
        # shift by t_s - t_{s-1} and meet B_{s-1}, ..., then by t_1 and meet A
        for X, d in zip([A, *Bs[:-1]][::-1], np.diff([0, *ts])[::-1].tolist()):
            if not hits.is_empty():
                hits = hits.shift(d).intersect(tower.lift(X, J))
        lo += hits.count() * st.base_measure
        escaped = esc.clip(st.h - ts[-1], st.h)
        esc_mass = escaped.count() * st.base_measure
        if esc_mass == 0 or esc_mass <= epsilon or J == tower.depth:
            return MeasureEnclosure(lo, lo + esc_mass)
        esc = tower.lift(escaped, J + 1)
        J += 1


def brute_force_pair(tower, A, B, m):
    """mu(A cap T^m B) by direct shifted intersection at a stage deep
    enough that nothing escapes; None if no such stage is built."""
    for J in range(max(A.stage, B.stage), tower.depth + 1):
        lb = tower.lift(B, J)
        if lb.ranges and lb.ranges[-1][1] + m <= tower.stage(J).h:
            hits = lb.shift(m).intersect(tower.lift(A, J))
            return hits.count() * tower.stage(J).base_measure
    return None


def random_spec(rng):
    h1 = rng.randint(1, 3)
    stages = []
    for _ in range(rng.randint(2, 3)):
        r = rng.randint(2, 4)
        stages.append(StageParams(r, tuple(rng.randint(0, 5) for _ in range(r))))
    return ConstructionSpec(h1, tuple(stages))


def random_level_set(rng, tower, stage):
    h = tower.stage(stage).h
    n = rng.randint(1, max(1, h // 2))
    return LevelSet.from_levels(stage, rng.sample(range(h), min(n, h)))


def random_ranges(rng, tower, stage, k):
    """Up to k random disjoint ranges of one stage, for heights too large
    to sample levels from."""
    h = tower.stage(stage).h
    cuts = sorted(rng.randrange(h + 1) for _ in range(2 * k))
    return LevelSet.from_ranges(stage, zip(cuts[::2], cuts[1::2]))


def assert_same(got, want):
    assert (got.lo, got.hi) == (want.lo, want.hi)


class TestEnclosureSoundness:
    def test_spec_example(self, running_tower):
        a = LevelSet.from_ranges(2, [(0, 3)])
        enc = pair_enclosure(a, a, 3, running_tower)
        assert enc.lo == enc.hi == Fraction(1, 2)

    def test_randomized_vs_brute_force(self):
        rng = random.Random(2024)
        exact_checked = escape_checked = 0
        while exact_checked < 50 or escape_checked < 10:
            spec = random_spec(rng)
            shallow = Tower(spec, depth=len(spec.stages))
            deep = Tower(spec, depth=len(spec.stages) + 1)
            stage = rng.randint(1, 2)
            A = random_level_set(rng, shallow, stage)
            B = random_level_set(rng, shallow, stage)
            m = rng.randint(0, deep.stage(deep.depth).h // 2)
            truth = brute_force_pair(deep, A, B, m)
            if truth is None:
                continue
            try:
                enc = pair_enclosure(A, B, m, shallow, epsilon=Fraction(0))
            except NeedsMoreStages:
                continue
            if enc.is_exact():
                assert enc.lo == truth
                exact_checked += 1
            else:
                assert enc.lo <= truth <= enc.hi
                escape_checked += 1

    def test_epsilon_monotonicity(self, demo_tower):
        a = LevelSet.from_ranges(2, [(0, 7)])
        m = 1400
        small = pair_enclosure(a, a, m, demo_tower, epsilon=Fraction(1, 10**6))
        large = pair_enclosure(a, a, m, demo_tower, epsilon=Fraction(1, 10))
        assert large.lo <= small.lo and small.hi <= large.hi

    def test_deepening_never_widens(self, demo_spec):
        a = LevelSet.from_ranges(2, [(0, 7)])
        shallow = Tower(demo_spec, depth=4)
        deep = Tower(demo_spec, depth=6)
        for m in (80, 500, 1400):
            e1 = pair_enclosure(a, a, m, shallow, epsilon=Fraction(0))
            e2 = pair_enclosure(a, a, m, deep, epsilon=Fraction(0))
            assert e1.lo <= e2.lo and e2.hi <= e1.hi

    def test_negative_m_rejected(self, demo_tower):
        a = LevelSet.from_ranges(2, [(0, 1)])
        with pytest.raises(ValueError):
            pair_enclosure(a, a, -1, demo_tower)


class TestAgainstReferenceLoop:
    """The array engine must give the old LevelSet loop's lo and hi exactly."""

    def test_random_specs(self):
        rng = random.Random(31)
        for _ in range(300):
            spec = random_spec(rng)
            tower = Tower(spec, depth=rng.randint(2, len(spec.stages) + 1))
            A = random_level_set(rng, tower, rng.randint(1, 2))
            B = random_level_set(rng, tower, rng.randint(1, 2))
            m = rng.randint(0, tower.stage(tower.depth).h - 1)
            eps = rng.choice((None, Fraction(0), Fraction(1, rng.randint(1, 50))))
            assert_same(pair_enclosure(A, B, m, tower, epsilon=eps),
                        reference_pair(A, B, m, tower, epsilon=eps))

    def test_demo_stage4_interval(self, demo_tower):
        one = LevelSet.from_ranges(2, [(0, 1)])
        rng = random.Random(4)
        A = random_level_set(rng, demo_tower, 3)
        B = random_level_set(rng, demo_tower, 3)
        fresh = Tower(demo_tower.spec, demo_tower.depth)  # the oracle's own memo
        for m in range(1463, 59983 + 1, 613):
            assert_same(pair_enclosure(one, one, m, demo_tower),
                        reference_pair(one, one, m, fresh))
            assert_same(pair_enclosure(A, B, m, demo_tower),
                        reference_pair(A, B, m, fresh))

    def test_stage5_escape_slack(self, demo_tower):
        rng = random.Random(5)
        A = LevelSet.from_levels(3, [rng.randrange(77) for _ in range(20)])
        B = LevelSet.from_levels(3, [rng.randrange(77) for _ in range(20)])
        fresh = Tower(demo_tower.spec, demo_tower.depth)
        slack = 0
        for m in range(59983, 3059133, 97_001):
            got = pair_enclosure(A, B, m, demo_tower)
            assert_same(got, reference_pair(A, B, m, fresh))
            slack += not got.is_exact()
        assert slack > 0

    def test_triple(self, demo_tower):
        rng = random.Random(6)
        fresh = Tower(demo_tower.spec, demo_tower.depth)
        for i in range(60):
            stage = rng.randint(2, 3)
            A, B, C = (random_level_set(rng, demo_tower, stage) for _ in range(3))
            m = rng.randint(0, 1463 if i % 2 else 59982)
            n = rng.randint(0, 77 if i % 3 else 1463)
            eps = rng.choice((None, Fraction(0)))
            assert_same(triple_enclosure(A, B, C, m, n, demo_tower, epsilon=eps),
                        reference_triple(A, B, C, m, n, fresh, epsilon=eps))

    def test_heights_beyond_int64(self):
        rng = random.Random(7)
        for _ in range(100):
            tower = Tower(huge_spec(rng), depth=3)
            assert tower.dtype is object
            A, B, C = (random_ranges(rng, tower, rng.randint(1, 2), 3) for _ in range(3))
            h = tower.stage(3).h
            m, n = rng.randrange(h // 2), rng.randrange(h // 2)
            eps = rng.choice((None, Fraction(0)))
            assert_same(pair_enclosure(A, B, m, tower, epsilon=eps),
                        reference_pair(A, B, m, tower, epsilon=eps))
            assert_same(triple_enclosure(A, B, C, m, n, tower, epsilon=eps),
                        reference_triple(A, B, C, m, n, tower, epsilon=eps))


class TestGridAgainstPerShift:
    """pair_enclosure_grid must give the per-shift escape loop's lo and hi,
    in grid order, and its first error."""

    @staticmethod
    def edge_grid(rng, tower, count):
        """Unsorted shifts with duplicates, 0, h_j - 1, h_j, h_j + 1 and
        o_t - o_i -+ h_j (a column copy just clear of another) of every
        stage, all below the top height."""
        top = tower.stage(tower.depth).h
        ms = [0, top - 1] + [rng.randrange(top) for _ in range(count)]
        for j in range(1, tower.depth + 1):
            h, offs = tower.stage(j).h, tower.stage(j).offsets
            ms += [m for m in (h - 1, h, h + 1) if m < top]
            ms += [m for o in offs for p in offs for m in (p - o - h, p - o + h)
                   if 0 <= m < top]
        ms += rng.sample(ms, len(ms) // 3)
        rng.shuffle(ms)
        return ms

    def assert_grid(self, A, B, ms, tower, eps):
        got = pair_enclosure_grid(A, B, ms, tower, epsilon=eps)
        assert len(got) == len(ms)
        fresh = Tower(tower.spec, tower.depth)  # per-shift answers from another memo
        for m, enc in zip(ms, got):
            assert_same(enc, escape_pair(A, B, m, fresh, epsilon=eps))

    # The table of X is dense and lifted while it has at most DENSE_MAX
    # entries; a smaller ceiling makes the small random towers stop lifting
    # part way (200) or count X at the points read from the start (0).
    @pytest.mark.parametrize("dense_max", [DENSE_MAX, 200, 0],
                             ids=["default", "lift-to-200", "scattered"])
    def test_random_specs_mixed_stages(self, monkeypatch, dense_max):
        monkeypatch.setattr(correlation, "DENSE_MAX", dense_max)
        rng = random.Random(41)
        for i in range(150):
            spec = random_spec(rng)
            tower = Tower(spec, depth=rng.randint(2, len(spec.stages) + 1))
            A = random_level_set(rng, tower, rng.randint(1, tower.depth))
            B = random_level_set(rng, tower, rng.randint(1, tower.depth))
            eps = (None, Fraction(0), Fraction(1, 3))[i % 3]
            self.assert_grid(A, B, self.edge_grid(rng, tower, 30), tower, eps)

    def test_demo_tower(self, demo_tower):
        rng = random.Random(42)
        for i, (sa, sb) in enumerate([(2, 2), (3, 2), (2, 4), (3, 3), (5, 1)]):
            A = random_level_set(rng, demo_tower, sa)
            B = random_level_set(rng, demo_tower, sb)
            eps = (None, Fraction(0), Fraction(1, 3))[i % 3]
            ms = self.edge_grid(rng, demo_tower, 150)
            ms += [rng.randrange(1463, 59983) for _ in range(150)]
            self.assert_grid(A, B, ms, demo_tower, eps)

    def test_sets_taller_than_the_dense_ceiling(self, demo_tower):
        # 2 h_6 - 1 > DENSE_MAX, so X is counted at just the points read
        assert 2 * demo_tower.stage(6).h - 1 > DENSE_MAX
        rng = random.Random(44)
        A = LevelSet.from_ranges(6, [(0, 5), (1000, 1100), (3_000_000, 3_059_133)])
        for B in (random_level_set(rng, demo_tower, 2), A):
            self.assert_grid(A, B, self.edge_grid(rng, demo_tower, 40), demo_tower, None)

    def test_copies_edge_to_edge(self, monkeypatch):
        # No spacers: at m = h_2 the image of stage-2 copy i ends where copy
        # i + 2 begins, so a column pair has d + o_i - o_t = -h_2 exactly.
        # A ceiling of 5 entries keeps X dense at stage 2 (2 h_2 - 1 = 5)
        # and reads it from stage 3.
        monkeypatch.setattr(correlation, "DENSE_MAX", 5)
        tower = Tower(ConstructionSpec(1, (StageParams(3, (0, 0, 0)),) * 2), depth=3)
        full = LevelSet.from_ranges(2, [(0, 3)])
        self.assert_grid(full, full, [3], tower, None)

    def huge_towers(self):
        """Check the grid on 30 object-dtype towers; returns how many of
        them count X in a dense table."""
        rng = random.Random(43)
        tables = 0
        for i in range(30):
            tower = Tower(huge_spec(rng), depth=3)
            assert tower.dtype is object
            A, B = (random_ranges(rng, tower, rng.randint(1, 2), 3) for _ in range(2))
            tables += 2 * tower.stage(max(A.stage, B.stage)).h - 1 <= correlation.DENSE_MAX
            eps = (None, Fraction(0), Fraction(1, 3))[i % 3]
            self.assert_grid(A, B, self.edge_grid(rng, tower, 5), tower, eps)
        return tables

    # The grid runs its own code on object-dtype towers: the dense table
    # wherever the sets' stage is short enough, and with a ceiling of 0 the
    # counts at the points read everywhere.
    def test_heights_beyond_int64(self):
        assert self.huge_towers() > 0

    def test_heights_beyond_int64_scattered(self, monkeypatch):
        monkeypatch.setattr(correlation, "DENSE_MAX", 0)
        assert self.huge_towers() == 0

    def test_empty_grid(self, demo_tower):
        a = LevelSet.from_ranges(2, [(0, 1)])
        assert pair_enclosure_grid(a, a, [], demo_tower) == []

    def test_shift_past_top_same_error(self, demo_tower):
        a = LevelSet.from_ranges(2, [(0, 1)])
        top = demo_tower.stage(demo_tower.depth).h
        ms = [5, top + 7, 80, top, top - 1]
        with pytest.raises(NeedsMoreStages) as per_shift:
            for m in ms:
                escape_pair(a, a, m, demo_tower)
        with pytest.raises(NeedsMoreStages) as grid:
            pair_enclosure_grid(a, a, ms, demo_tower)
        assert str(grid.value) == str(per_shift.value)
        assert grid.value.required_depth == per_shift.value.required_depth

    def test_negative_m_rejected(self, demo_tower):
        a = LevelSet.from_ranges(2, [(0, 1)])
        with pytest.raises(ValueError):
            pair_enclosure_grid(a, a, [3, -1, 5], demo_tower)

    def test_set_outside_its_stage_rejected(self, demo_tower):
        a = LevelSet.from_ranges(2, [(0, 1)])
        for bad in (LevelSet.from_ranges(2, [(5, 20)]), LevelSet.from_ranges(2, [(-1, 2)]),
                    LevelSet.from_ranges(7, [(0, 1)]), LevelSet.from_ranges(0, [(0, 1)]),
                    LevelSet(2, ((0, 1), (10, 12), (3, 4)))):
            with pytest.raises(ValueError):
                pair_enclosure_grid(a, bad, [3], demo_tower)
            with pytest.raises(ValueError):
                pair_enclosure_grid(bad, a, [3], demo_tower, epsilon=Fraction(0))
            with pytest.raises(ValueError):
                pair_enclosure(bad, a, 3, demo_tower, epsilon=Fraction(0))
            for sets in ((bad, a, a), (a, bad, a), (a, a, bad)):
                with pytest.raises(ValueError):
                    triple_enclosure(*sets, 3, 2, demo_tower, epsilon=Fraction(0))


class TestDeepTower:
    """deep_spec's 57-stage tower with A = B = {0} at stage 1: m = h_j - 1
    stops about ten stages above j, where B lifted there would hold about
    2^(j + 9) ranges.  The grid counts on B's own ranges and merges equal
    points of the descent, so its memory does not grow with the depth."""

    @pytest.fixture(scope="class")
    def tower(self):
        return Tower(deep_spec(random.Random(0)), depth=57)

    @pytest.mark.parametrize("j", [20, 40])
    def test_peak_memory(self, tower, j):
        A = LevelSet.from_levels(1, [0])
        tracemalloc.start()
        try:
            (enc,) = pair_enclosure_grid(A, A, [tower.stage(j).h - 1], tower)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20
        assert 0 < enc.lo < enc.hi

    def test_triple_peak_memory(self, tower):
        # The descent reads no set above stage 1, whatever the stopping stage.
        A = LevelSet.from_levels(1, [0])
        tracemalloc.start()
        try:
            (enc,) = triple_enclosure_grid(A, A, A, 0, [tower.stage(12).h - 1], tower)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert (enc.lo, enc.hi) == (Fraction(178749, 524288), Fraction(44815, 131072))

    def test_equals_lifted_path(self, tower):
        A = LevelSet.from_levels(1, [0])
        ms = [tower.stage(j).h - 1 for j in (6, 8, 10)]
        for m, enc in zip(ms, pair_enclosure_grid(A, A, ms, tower)):
            assert_same(enc, escape_pair(A, A, m, Tower(tower.spec, tower.depth)))

    # The descent makes at most CHUNK column pairs at once; smaller chunks
    # split the work across the stack and must give the same sums.
    @pytest.mark.parametrize("chunk", [1, 7, 100])
    def test_small_chunks(self, tower, monkeypatch, chunk):
        A = LevelSet.from_levels(1, [0])
        rng = random.Random(chunk)
        ms = [rng.randrange(tower.stage(j).h) for j in (12, 20, 30) for _ in range(4)]
        want = pair_enclosure_grid(A, A, ms, tower)
        monkeypatch.setattr(correlation, "CHUNK", chunk)
        assert pair_enclosure_grid(A, A, ms, tower) == want


class TestTripleGridAgainstPerShift:
    """triple_enclosure_grid must give the LevelSet reference loop's and
    per-shift triple_enclosure's lo and hi, in grid order, and the
    per-shift loop's first error."""

    @staticmethod
    def edge_grid(rng, tower, n, count):
        """The pair grid's edge shifts t, as m = t - n (t = m + n meets the
        edges) and as m = t, kept where m >= 0 and m + n is below the top."""
        top = tower.stage(tower.depth).h
        ts = TestGridAgainstPerShift.edge_grid(rng, tower, count)
        return [t - n for t in ts if t >= n] + [t for t in ts if t + n < top]

    def assert_grid(self, A, B, C, n, ms, tower, eps):
        got = triple_enclosure_grid(A, B, C, n, ms, tower, epsilon=eps)
        assert len(got) == len(ms)
        fresh = Tower(tower.spec, tower.depth)  # oracles from other memos
        per_shift = Tower(tower.spec, tower.depth)
        for m, enc in zip(ms, got):
            assert_same(enc, reference_triple(A, B, C, m, n, fresh, epsilon=eps))
            assert_same(enc, triple_enclosure(A, B, C, m, n, per_shift, epsilon=eps))

    # Shifts times D_J ranges are counted CHUNK at a time; smaller chunks
    # split the shifts of one stage down to one per step.
    @pytest.mark.parametrize("chunk", [CHUNK, 400, 1], ids=["default", "400", "1"])
    def test_random_specs_mixed_stages(self, monkeypatch, chunk):
        monkeypatch.setattr(correlation, "CHUNK", chunk)
        rng = random.Random(51)
        for i in range(60):
            spec = random_spec(rng)
            tower = Tower(spec, depth=rng.randint(2, len(spec.stages) + 1))
            A, B, C = (random_level_set(rng, tower, rng.randint(1, tower.depth))
                       for _ in range(3))
            n = rng.randrange(tower.stage(tower.depth).h)
            eps = (None, Fraction(0), Fraction(1, 3))[i % 3]
            self.assert_grid(A, B, C, n, self.edge_grid(rng, tower, n, 10), tower, eps)

    def test_copies_edge_to_edge(self):
        # No spacers: column copies touch, so D_J and the escaped tops meet
        # at copy boundaries for every t that is a multiple of h_2.
        tower = Tower(ConstructionSpec(1, (StageParams(3, (0, 0, 0)),) * 3), depth=4)
        full = LevelSet.from_ranges(2, [(0, 3)])
        part = LevelSet.from_ranges(3, [(1, 4), (6, 9)])
        for n in (0, 1, 3, 8):
            ms = list(range(27 - n))
            for eps in (None, Fraction(0), Fraction(1, 3)):
                self.assert_grid(full, part, full, n, ms, tower, eps)
                self.assert_grid(part, full, part, n, ms[::-1], tower, eps)

    def test_demo_tower(self, demo_tower):
        # as corr's triple job: sets of 20 levels, n in [h_3, h_4), a stride
        # over [h_4, h_5), plus random m with m + n below h_5
        rng = random.Random(52)
        for i in range(3):
            A, B, C = (LevelSet.from_levels(3, rng.sample(range(77), 20)) for _ in range(3))
            n = rng.randrange(77, 1463)
            ms = list(range(1463 + rng.randrange(3600), 59983, 3600))
            ms += [rng.randrange(59983 - n) for _ in range(10)]
            ms += rng.sample(ms, 5)
            rng.shuffle(ms)
            eps = (None, Fraction(0), Fraction(1, 3))[i]
            self.assert_grid(A, B, C, n, ms, demo_tower, eps)

    def test_heights_beyond_int64(self):
        rng = random.Random(53)
        for i in range(30):
            tower = Tower(huge_spec(rng), depth=3)
            assert tower.dtype is object
            A, B, C = (random_ranges(rng, tower, rng.randint(1, 2), 3) for _ in range(3))
            n = rng.randrange(tower.stage(3).h // 2)
            eps = (None, Fraction(0), Fraction(1, 3))[i % 3]
            self.assert_grid(A, B, C, n, self.edge_grid(rng, tower, n, 5), tower, eps)

    def test_empty_grid(self, demo_tower):
        a = LevelSet.from_ranges(2, [(0, 1)])
        assert triple_enclosure_grid(a, a, a, 5, [], demo_tower) == []

    def test_shift_past_top_same_error(self, demo_tower):
        a = LevelSet.from_ranges(2, [(0, 1)])
        n = 40
        top = demo_tower.stage(demo_tower.depth).h
        ms = [5, top - n + 7, 80, top - n, top - n - 1]
        with pytest.raises(NeedsMoreStages) as per_shift:
            for m in ms:
                triple_enclosure(a, a, a, m, n, demo_tower)
        with pytest.raises(NeedsMoreStages) as grid:
            triple_enclosure_grid(a, a, a, n, ms, demo_tower)
        assert str(grid.value) == str(per_shift.value)
        assert grid.value.required_depth == per_shift.value.required_depth

    def test_negative_shift_rejected(self, demo_tower):
        a = LevelSet.from_ranges(2, [(0, 1)])
        with pytest.raises(ValueError):
            triple_enclosure_grid(a, a, a, 2, [3, -1, 5], demo_tower)
        with pytest.raises(ValueError):
            triple_enclosure_grid(a, a, a, -1, [3], demo_tower)


class TestTripleDescent:
    """The triple grid descends (m, m + n) from each stopping stage to the
    sets' own stage; against the LevelSet reference loop with the descent
    cut into chunks of 1, 7 and CHUNK choices."""

    @pytest.fixture(scope="class")
    def deep(self):
        return Tower(deep_spec(random.Random(0)), depth=57)

    def test_deep_tower(self, deep, monkeypatch):
        # n close to h_j, so t = m + n crosses h_j and h_{j+1}, on sets of a
        # few levels at stages 1 to 3 of deep_spec's 57-stage tower
        rng = random.Random(54)
        for i, j in enumerate([4, 5, 6, 7, 8]):
            h = deep.stage(j).h
            A, B, C = (LevelSet.from_levels(s, rng.sample(range(deep.stage(s).h), 2))
                       for s in rng.sample([1, 2, 3], 3))
            n = h + rng.randint(-3, 3)
            ms = [0, 1, h - n - 1, h - 1, h, 2 * h - n, 2 * h] + rng.sample(range(2 * h), 3)
            ms = [m for m in ms if m >= 0]
            # the default epsilon stops ten stages up, where the reference is slow
            eps = None if j == 4 else (Fraction(1, 20), Fraction(1, 100))[i % 2]
            fresh = Tower(deep.spec, deep.depth)
            want = [reference_triple(A, B, C, m, n, fresh, epsilon=eps) for m in ms]
            for chunk in (1, 7, CHUNK):
                monkeypatch.setattr(correlation, "CHUNK", chunk)
                got = triple_enclosure_grid(A, B, C, n, ms, deep, epsilon=eps)
                assert [(e.lo, e.hi) for e in got] == [(e.lo, e.hi) for e in want]

    @pytest.mark.parametrize("chunk", [1, 7, CHUNK], ids=["1", "7", "default"])
    def test_heights_beyond_int64(self, monkeypatch, chunk):
        monkeypatch.setattr(correlation, "CHUNK", chunk)
        rng = random.Random(55)
        for i in range(10):
            tower = Tower(huge_spec(rng), depth=3)
            A, B, C = (random_ranges(rng, tower, rng.randint(1, 2), 3) for _ in range(3))
            n = rng.randrange(tower.stage(3).h // 2)
            ms = TestTripleGridAgainstPerShift.edge_grid(rng, tower, n, 5)
            eps = (None, Fraction(0), Fraction(1, 3))[i % 3]
            fresh = Tower(tower.spec, tower.depth)
            for m, enc in zip(ms, triple_enclosure_grid(A, B, C, n, ms, tower, epsilon=eps)):
                assert_same(enc, reference_triple(A, B, C, m, n, fresh, epsilon=eps))

    def test_reads_no_set_above_the_sets_stage(self, demo_spec):
        # shifts that resolve at stages 3 to 6; the memo keeps every stage read
        tower = Tower(demo_spec, depth=6)
        A, B, C = (LevelSet.from_ranges(s, [(0, 2), (5, 6)]) for s in (2, 3, 2))
        ms = [tower.stage(j).h + k for j in (3, 4, 5) for k in (-1, 0, 5)]
        pair_enclosure_grid(A, B, ms, tower)
        triple_enclosure_grid(A, B, C, 4, ms, tower)
        assert len({tower.resolving_stage(3, m) for m in ms}) > 1
        for X in (A, B, C):
            assert max(J for kind, J in tower._memo[X] if kind == "ranges") <= 3


def mc_correlation_reference(A, B, m, samples, seed, tower):
    """The per-point loop that mc_correlation replaced: a draw, T^m and a
    membership test per sample, by the scalar reference walks."""
    rng = random.Random(seed)
    mu_b = tower.set_measure(B)
    hits = 0
    for _ in range(samples):
        level, N = reference_draw(tower, B, rng)
        J, level, N = reference_advance(tower, B.stage, level, N, GRID, m)
        hits += reference_in_set(tower, J, level, N, GRID, A)
    f = hits / samples
    est = float(mu_b) * f
    stderr = float(mu_b) * math.sqrt(f * (1.0 - f) / samples)
    return est, stderr


def mc_correlation_by_descent(A, B, m, samples, seed, tower):
    """mc_correlation per point with no lift of A: a draw and T^m by the
    scalar reference walks, then the resolved level climbed to A.stage or
    traced down to it with Tower.descend, and read in A."""
    rng = random.Random(seed)
    mu_b = tower.set_measure(B)
    hits = 0
    for _ in range(samples):
        level, N = reference_draw(tower, B, rng)
        J, level, N = reference_advance(tower, B.stage, level, N, GRID, m)
        if J < A.stage:
            level, _ = reference_ascend(tower, J, level, N, GRID, A.stage)
        else:
            (born,), (level,), _ = tower.descend(J, [level], A.stage)
            if born != A.stage:  # born above A.stage
                continue
        hits += A.contains(int(level))
    f = hits / samples
    return float(mu_b) * f, float(mu_b) * math.sqrt(f * (1.0 - f) / samples)


def random_mc_shift(rng, tower, stage, large=True):
    """Small, negative, past-the-top and, if `large`, large shifts m for
    sets of a stage.  A large m resolves near the top stage, where the
    test set is lifted."""
    h, top = tower.stage(stage).h, tower.stage(tower.depth).h
    past = rng.choice([1, -1]) * (top + rng.randint(0, 3))
    return rng.choice([rng.randint(0, h)] * 3 + [-rng.randint(1, h)] * 2 + [past]
                      + [rng.randrange(-top, top)] * large)


class TestMonteCarlo:
    def test_mc_within_4_sigma(self, demo_tower):
        rng = random.Random(77)
        for i in range(20):
            stage = rng.randint(1, 2)
            A = random_level_set(rng, demo_tower, stage)
            B = random_level_set(rng, demo_tower, stage)
            m = rng.randint(0, 200)
            enc = pair_enclosure(A, B, m, demo_tower)
            est, err = mc_correlation(A, B, m, 2000, 1000 + i, demo_tower)
            err = max(err, 1e-9)
            assert float(enc.lo) - 4 * err <= est <= float(enc.hi) + 4 * err

    # The array walk against the per-point loop: the same floats, or the
    # same error, on mixed stages, negative and past-the-top m and empty
    # sets; on object-dtype towers; and on a tower whose offset cells N pass
    # 2^63 while its levels stay int64.
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
            top = min(3, tower.depth)
            A = rng.choice([few_levels, random_ranges])(rng, tower, rng.randint(1, top), 3)
            B = few_levels(rng, tower, rng.randint(1, top), 6)
            m = random_mc_shift(rng, tower, B.stage, large=kind != "deep")
            args = (A, B, m, rng.randint(1, 60), rng.randrange(10**6), tower)
            want = outcome(mc_correlation_reference, *args)
            assert outcome(mc_correlation, *args) == want
            raised += isinstance(want[0], type)
        assert 5 <= raised <= 55

    # Samples are drawn and classified CHUNK points at a time; the first
    # point past the top raises from whichever chunk holds it.
    @pytest.mark.parametrize("chunk", [1, 7])
    def test_small_chunks(self, demo_tower, monkeypatch, chunk):
        rng = random.Random(chunk)
        cases = []
        for _ in range(20):
            A, B = (few_levels(rng, demo_tower, rng.randint(1, 3), 3) for _ in range(2))
            cases.append((A, B, random_mc_shift(rng, demo_tower, B.stage), rng.randint(1, 60),
                          rng.randrange(10**6), demo_tower))
        want = [outcome(mc_correlation_reference, *case) for case in cases]
        monkeypatch.setattr(correlation, "CHUNK", chunk)
        assert [outcome(mc_correlation, *case) for case in cases] == want

    def test_offset_cells_past_int64(self):
        tower = Tower(deep_spec(random.Random(3)), depth=57)
        assert tower.dtype is np.int64 and GRID * tower.units[1] > 2**63
        A = LevelSet.from_levels(3, range(0, tower.stage(3).h, 2))
        B = tower.full_tower(1)
        args = (A, B, 5, 200, 11, tower)
        assert mc_correlation(*args) == mc_correlation_reference(*args)

    # m = h_j - 1 resolves at stage J = j or j + 1 of the 57-stage tower.  A
    # is read on its own ranges; a lift to J would hold |A| * 2^(J - A.stage)
    # ranges, up to 2^40 here.
    @pytest.mark.parametrize("j", [20, 40])
    def test_deep_shift_vs_descent(self, j):
        rng = random.Random(j)
        tower = Tower(deep_spec(rng), depth=57)
        m = tower.stage(j).h - 1
        hits = 0
        for i in range(6):
            A = random_ranges(rng, tower, rng.randint(1, 3), 3)
            B = few_levels(rng, tower, rng.randint(1, 3), 6)
            if B.is_empty():
                continue
            args = (A, B, m, 300, rng.randrange(10**6), tower)
            want = mc_correlation_by_descent(*args)
            assert mc_correlation(*args) == want
            hits += want[0] > 0
        assert hits >= 2

    @pytest.mark.parametrize("samples", [0, -5])
    def test_samples_below_one_rejected(self, demo_tower, samples):
        a = LevelSet.from_ranges(2, [(0, 1)])
        with pytest.raises(ValueError, match="samples must be >= 1"):
            mc_correlation(a, a, 3, samples, 0, demo_tower)


def mc_rows(A, B, ms, samples, seeds, tower):
    """One mc_correlation call per row: the rows' results, or the error of
    the first row that raises."""
    out = []
    for m, seed in zip(ms, seeds):
        got = outcome(mc_correlation, A, B, m, samples, seed, tower)
        if isinstance(got[0], type):
            return got
        out.append(got)
    return out


@pytest.fixture
def advance_sizes(monkeypatch):
    """The number of points of each Tower.advance call."""
    sizes, advance = [], Tower.advance

    def spy(self, stage, level, *args):
        sizes.append(len(level))
        return advance(self, stage, level, *args)

    monkeypatch.setattr(Tower, "advance", spy)
    return sizes


class TestMonteCarloGrid:
    """mc_correlation_grid walks the points of all rows together; it must
    give each row's floats, or the first row's error, as one mc_correlation
    call per row does, with no more than CHUNK points at once."""

    @pytest.mark.parametrize("chunk", [CHUNK, 7])
    @pytest.mark.parametrize("kind", ["demo", "running", "huge", "deep"])
    def test_grid_equals_rows(self, demo_tower, running_tower, monkeypatch, advance_sizes,
                              kind, chunk):
        rng = random.Random(f"{kind}{chunk}")
        monkeypatch.setattr(correlation, "CHUNK", chunk)
        towers = {"demo": lambda: demo_tower, "running": lambda: running_tower,
                  "huge": lambda: Tower(huge_spec(rng), depth=3),
                  "deep": lambda: Tower(deep_spec(rng), depth=57)}
        raised = 0
        for _ in range(25):
            tower = towers[kind]()
            top = min(3, tower.depth)
            A = rng.choice([few_levels, random_ranges])(rng, tower, rng.randint(1, top), 3)
            B = few_levels(rng, tower, rng.randint(1, top), 6)
            rows = rng.randint(1, 5)
            ms = [random_mc_shift(rng, tower, B.stage, large=kind != "deep")
                  if rng.random() < 0.2 else rng.randint(0, tower.stage(B.stage).h)
                  for _ in range(rows)]
            args = (A, B, ms, rng.randint(1, 40), [rng.randrange(10**6) for _ in ms], tower)
            want = mc_rows(*args)
            advance_sizes.clear()
            assert outcome(mc_correlation_grid, *args) == want
            assert max(advance_sizes, default=0) <= chunk
            raised += isinstance(want[0], type)
        assert 3 <= raised <= 22

    # Rows that escape the tower after good rows: the first of them raises,
    # at its first escaping point, and an m at or past h_depth is never put
    # in an int64 array (2^70 would not fit).
    @pytest.mark.parametrize("ms", [[5, 70, "edge", 2**70], [5, 2**70, "edge"],
                                    [70, "edge", 5], [70, "top", 5], [5, -(2**70), 70]])
    def test_first_failing_row_raises(self, demo_tower, ms):
        B = LevelSet.from_ranges(2, [(0, 7)])
        top = demo_tower.stage(demo_tower.depth).h
        ms = [{"edge": top - 4, "top": top}.get(m, m) for m in ms]
        args = (LevelSet.from_ranges(3, [(0, 40)]), B, ms, 50, [3, 1, 4, 1][:len(ms)], demo_tower)
        want = mc_rows(*args)
        assert want[0] is NeedsMoreStages
        assert outcome(mc_correlation_grid, *args) == want

    def test_rows_past_chunk(self, demo_tower, advance_sizes):
        A, B = LevelSet.from_ranges(3, [(0, 40)]), LevelSet.from_ranges(2, [(0, 3), (5, 6)])
        ms, samples = [0, 50, 1400], CHUNK // 2 + 1
        args = (A, B, ms, samples, [7, 8, 9], demo_tower)
        want = mc_rows(*args)
        advance_sizes.clear()
        assert mc_correlation_grid(*args) == want
        assert sum(advance_sizes) == 3 * samples and max(advance_sizes) <= CHUNK

    def test_errors_before_any_draw(self, demo_tower):
        a, empty = LevelSet.from_ranges(2, [(0, 1)]), LevelSet(2, ())
        for args in [(a, a, [3, 4], 0, [0, 1]), (a, empty, [3], 5, [0]),
                     (a, a, [2**70], -1, [0])]:
            want = mc_rows(*args, demo_tower)
            assert want[0] is ValueError
            assert outcome(mc_correlation_grid, *args, demo_tower) == want
        assert mc_correlation_grid(a, a, [], 0, [], demo_tower) == []
        with pytest.raises(ValueError, match="one seed per shift"):
            mc_correlation_grid(a, a, [1, 2], 5, [0], demo_tower)


class TestTriple:
    def test_le_pairwise(self, demo_tower):
        rng = random.Random(5)
        for _ in range(10):
            A = random_level_set(rng, demo_tower, 2)
            B = random_level_set(rng, demo_tower, 2)
            C = random_level_set(rng, demo_tower, 2)
            m, n = rng.randint(0, 80), rng.randint(0, 80)
            t = triple_enclosure(A, B, C, m, n, demo_tower, epsilon=Fraction(0))
            pab = pair_enclosure(A, B, m, demo_tower, epsilon=Fraction(0))
            pbc = pair_enclosure(B, C, n, demo_tower, epsilon=Fraction(0))
            pac = pair_enclosure(A, C, m + n, demo_tower, epsilon=Fraction(0))
            assert t.hi <= min(pab.hi, pbc.hi, pac.hi)

    def test_m0_n0_is_triple_intersection(self, demo_tower):
        A = LevelSet.from_ranges(2, [(0, 4)])
        B = LevelSet.from_ranges(2, [(2, 6)])
        C = LevelSet.from_ranges(2, [(3, 7)])
        t = triple_enclosure(A, B, C, 0, 0, demo_tower)
        common = A.intersect(B).intersect(C)
        assert t.lo == t.hi == demo_tower.set_measure(common)


class TestMeasurePreservation:
    def test_pair_symmetry(self, demo_tower):
        # mu(A cap T^m B) = mu(B cap T^-m A) = mu(T^m B cap A): swap roles
        rng = random.Random(9)
        for _ in range(10):
            A = random_level_set(rng, demo_tower, 2)
            B = random_level_set(rng, demo_tower, 2)
            m = rng.randint(0, 70)
            ab = pair_enclosure(A, B, m, demo_tower, epsilon=Fraction(0))
            # reflected through T^-m: mu(B' cap T^m A') with the shifted set
            ba = pair_enclosure(B.shift(0), A, m, demo_tower, epsilon=Fraction(0))
            if ab.is_exact() and ba.is_exact() and A == B:
                assert ab.lo == ba.lo


class TestReports:
    def test_sidon_bound_corrected(self, demo_tower):
        a = LevelSet.from_ranges(2, [(0, 1)])
        rows = sidon_bound_report(demo_tower, a, a, [2, 3], 40,
                                  exhaustive_limit=100)
        assert rows
        assert all(r["passed_corrected"] for r in rows)
        # the plain bound is attained with equality at resonant m
        assert any(r["equality"] for r in rows)
        for r in rows:
            if not r["passed"]:
                assert r["excess"] > 0
                assert r["lo"] <= r["corrected_bound"]

    def test_rows_share_value_objects(self, demo_tower):
        # one enclosure per (stage, hits, escape), its slack computed once, and
        # one zero: the report writer formats each value object once
        a = LevelSet.from_ranges(2, [(0, 1)])
        encs = pair_enclosure_grid(a, a, range(7, 78), demo_tower)
        assert len({id(enc) for enc in encs}) < len(encs) / 2
        assert all(enc.slack is enc.slack for enc in encs)
        assert all(enc.slack is ZERO for enc in encs if enc.is_exact())
        assert all(enc.slack == enc.hi - enc.lo for enc in encs)
        rows = sidon_bound_report(demo_tower, a, a, [2, 3], 40, exhaustive_limit=100)
        assert all(r["excess"] is ZERO for r in rows if r["passed"])

    def test_decay_c_max_finite(self, demo_tower):
        psi = PsiSpec("power", alpha=Fraction(1, 4))
        a = LevelSet.from_ranges(2, [(0, 1)])
        rows, c_max, ledger = decay_report(demo_tower, psi, a, [1, 7, 50, 77, 500])
        assert c_max == max(r["c_of_m"] for r in rows)
        assert all(float(r["hi"]) <= c_max * r["envelope"] + 1e-12 for r in rows)

    def test_decay_rejects_m0(self, demo_tower):
        psi = PsiSpec("power", alpha=Fraction(1, 4))
        a = LevelSet.from_ranges(2, [(0, 1)])
        with pytest.raises(ValueError):
            decay_report(demo_tower, psi, a, [0, 5])

    def test_support_decay(self, demo_tower):
        a = LevelSet.from_ranges(2, [(0, 4)])
        supp = LevelSet.from_ranges(2, [(3, 7)])
        rows = support_decay_report(demo_tower, supp, a, [0, 4, 100])
        r0 = rows[0]
        assert r0["lo"] == demo_tower.set_measure(a.intersect(supp))
        assert all(r["lo"] <= r["hi"] for r in rows)


class TestShiftGridOrders:
    """The one shift grid past triples: four sets (three shifts m + g_i)
    against the LevelSet reference loop, with the descent cut into chunks
    of 1, 7 and CHUNK choices."""

    @pytest.mark.parametrize("chunk", [1, 7, CHUNK], ids=["1", "7", "default"])
    def test_random_specs_four_sets(self, monkeypatch, chunk):
        monkeypatch.setattr(correlation, "CHUNK", chunk)
        rng = random.Random(57)
        for i in range(30):
            spec = random_spec(rng)
            tower = Tower(spec, depth=rng.randint(2, len(spec.stages) + 1))
            sets = []
            for _ in range(4):  # dense sets, so that four of them meet
                s = rng.randint(1, tower.depth)
                levels = [x for x in range(tower.stage(s).h) if rng.random() < 0.8]
                sets.append(LevelSet.from_levels(s, levels or [0]))
            top = tower.stage(tower.depth).h
            gaps = (0, *sorted(rng.randrange(top // 4 + 1) for _ in range(2)))
            ms = [rng.randrange(top - gaps[-1]) for _ in range(8)]
            eps = (None, Fraction(0), Fraction(1, 3))[i % 3]
            fresh = Tower(spec, tower.depth)
            got = correlation._shift_grid(sets, gaps, ms, tower, eps)
            for m, enc in zip(ms, got, strict=True):
                assert_same(enc, reference_shifts(sets, [m + g for g in gaps], fresh, eps))

    def test_deep_tower(self, monkeypatch):
        # gaps close to h_j, so m + g_i cross h_j and h_{j+1}, on sets of a
        # few levels at stages 1 to 3 of deep_spec's 57-stage tower
        deep = Tower(deep_spec(random.Random(0)), depth=57)
        rng = random.Random(58)
        for i, j in enumerate([4, 5, 6]):
            h = deep.stage(j).h
            sets = [LevelSet.from_levels(s, rng.sample(range(deep.stage(s).h), 2))
                    for s in (1, 2, 3, rng.randint(1, 3))]
            gaps = (0, h // 2 + rng.randint(-3, 3), h + rng.randint(-3, 3))
            ms = [0, 1, h - gaps[2] - 1, h - 1, h, 2 * h] + rng.sample(range(2 * h), 3)
            ms = [m for m in ms if m >= 0]
            eps = (Fraction(1, 20), Fraction(1, 100))[i % 2]
            fresh = Tower(deep.spec, deep.depth)
            want = [reference_shifts(sets, [m + g for g in gaps], fresh, eps) for m in ms]
            for chunk in (1, 7, CHUNK):
                monkeypatch.setattr(correlation, "CHUNK", chunk)
                got = correlation._shift_grid(sets, gaps, ms, deep, eps)
                assert [(e.lo, e.hi) for e in got] == [(e.lo, e.hi) for e in want]

    def test_pairs_and_triples_are_its_calls(self, demo_tower):
        rng = random.Random(59)
        A, B, C = (LevelSet.from_levels(3, rng.sample(range(77), 20)) for _ in range(3))
        ms = [0, 5, 76, 77, 1500, 20_000]
        assert pair_enclosure_grid(A, B, ms, demo_tower) == correlation._shift_grid(
            (A, B), (0,), ms, demo_tower, None)
        assert triple_enclosure_grid(A, B, C, 9, ms, demo_tower) == correlation._shift_grid(
            (A, B, C), (0, 9), ms, demo_tower, None)
