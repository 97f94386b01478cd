import bisect
import gc
import random
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sidonlab import (
    ConstructionSpec,
    DissipativeMap,
    LevelSet,
    NeedsMoreBlocks,
    NeedsMoreStages,
    PointState,
    SpecValidationError,
    StageParams,
    Tower,
    build_stages,
    measure_growth,
)
from sidonlab import construction, correlation
from sidonlab.construction import GRID
from sidonlab.poisson import _poisson_inverse
from conftest import (RUNNING_SPEC, count_on_lifted, deep_spec, few_levels, huge_spec,
                      reference_advance, reference_in_set)


def reference_sample_uniform(tower, A, rng):
    """The linear range walk that sample_uniform replaced: recount A, then
    walk its ranges one by one; the offset grid recomputed per call."""
    if A.is_empty():
        raise ValueError("cannot sample from an empty level set")
    total = sum(b - a for a, b in A.ranges)
    pick = rng.randrange(total)
    level = None
    for a, b in A.ranges:
        if pick < b - a:
            level = a + pick
            break
        pick -= b - a
    base = tower.stage(A.stage).base_measure
    resolution = tower.stage(tower.depth).base_measure / 1024
    offset = rng.randrange(int(base / resolution)) * resolution
    return PointState(A.stage, level, offset)


def reference_point_to_stage(tower, p, J):
    """The Fraction walk that the integer ascent replaced: one division and
    one subtraction per stage."""
    stage, level, offset = p.stage, p.level, p.offset
    while stage < J:
        st = tower.stage(stage)
        nxt = tower.stage(stage + 1)
        col = int(offset / nxt.base_measure)
        level = st.offsets[col] + level
        offset = offset - col * nxt.base_measure
        stage += 1
    return PointState(stage, level, offset)


def reference_normalize_point(tower, p):
    """The Fraction walk down to the minimal-stage representation."""
    stage, level, offset = p.stage, p.level, p.offset
    while stage > 1:
        prev = tower.stage(stage - 1)
        offs = prev.offsets
        i = bisect.bisect_right(offs, level) - 1
        if i < 0 or not offs[i] <= level < offs[i] + prev.h:
            break
        level = level - offs[i]
        offset = offset + i * tower.stage(stage).base_measure
        stage -= 1
    return PointState(stage, level, offset)


def reference_iterate(tower, p, n):
    """Tower.iterate over the Fraction walks above."""
    if n == 0:
        return reference_normalize_point(tower, p)
    q = p
    for J in range(p.stage, tower.depth + 1):
        q = reference_point_to_stage(tower, q, J)
        lvl = q.level + n
        if 0 <= lvl < tower.stage(J).h:
            return reference_normalize_point(tower, PointState(J, lvl, q.offset))
    raise NeedsMoreStages(
        f"iterating by {n} from stage {p.stage} level {p.level} exceeds "
        f"built depth {tower.depth}",
        required_depth=tower.depth + 1,
    )


def outcome(fn, *args):
    """fn's result, or the type, message and required depth of the
    NeedsMoreStages it raises."""
    try:
        return fn(*args)
    except NeedsMoreStages as e:
        return ("NeedsMoreStages", str(e), e.required_depth)


class TestStageTable:
    def test_heights_and_measures(self, running_tower):
        hs = [running_tower.stage(j).h for j in (1, 2, 3)]
        assert hs == [1, 3, 30]
        bases = [running_tower.stage(j).base_measure for j in (1, 2, 3)]
        assert bases == [Fraction(1), Fraction(1, 2), Fraction(1, 6)]
        towers = [running_tower.stage(j).tower_measure for j in (1, 2, 3)]
        assert towers == [Fraction(1), Fraction(3, 2), Fraction(5)]

    def test_offsets(self, running_tower):
        assert running_tower.stage(1).offsets == (0, 1)
        assert running_tower.stage(2).offsets == (0, 3, 12)
        assert running_tower.stage(3).offsets == ()

    def test_height_recursion_random(self):
        rng = random.Random(5)
        for _ in range(20):
            h1 = rng.randint(1, 4)
            stages = tuple(
                StageParams(r, tuple(rng.randint(0, 6) for _ in range(r)))
                for r in (rng.randint(2, 5) for _ in range(3))
            )
            spec = ConstructionSpec(h1, stages)
            built = build_stages(spec, 4)
            h = h1
            for j, p in enumerate(stages):
                assert built[j].h == h
                h = h * p.r + sum(p.s)
            assert built[3].h == h

    def test_measure_growth(self):
        measures, partials = measure_growth(RUNNING_SPEC, 3)
        assert measures == [Fraction(1), Fraction(3, 2), Fraction(5)]
        # terms are 1/(1*2)=1/2 and (0+6+15)/(3*3)=7/3
        assert partials == [Fraction(1, 2), Fraction(17, 6)]

    def test_validation(self):
        with pytest.raises(SpecValidationError):
            ConstructionSpec(0, (StageParams(2, (0, 0)),)).validate()
        with pytest.raises(SpecValidationError):
            ConstructionSpec(1, (StageParams(1, (0,)),)).validate()
        with pytest.raises(SpecValidationError):
            ConstructionSpec(1, (StageParams(2, (0,)),)).validate()
        with pytest.raises(SpecValidationError):
            ConstructionSpec(1, (StageParams(2, (0, -1)),)).validate()
        with pytest.raises(SpecValidationError):
            build_stages(RUNNING_SPEC, 4)

    def test_roundtrip_dict(self):
        d = RUNNING_SPEC.to_dict()
        assert ConstructionSpec.from_dict(d) == RUNNING_SPEC


class TestLevelSet:
    def test_normalization(self):
        a = LevelSet.from_ranges(2, [(5, 7), (0, 3), (2, 5)])
        assert a.ranges == ((0, 7),)
        assert a.count() == 7

    def test_set_algebra(self):
        a = LevelSet.from_ranges(1, [(0, 5), (10, 15)])
        b = LevelSet.from_ranges(1, [(3, 12)])
        assert a.intersect(b).ranges == ((3, 5), (10, 12))
        assert a.union(b).ranges == ((0, 15),)
        assert a.difference(b).ranges == ((0, 3), (12, 15))
        assert a.contains(4) and not a.contains(5)

    def test_shift_clip(self):
        a = LevelSet.from_ranges(1, [(0, 4)])
        assert a.shift(3).ranges == ((3, 7),)
        assert a.shift(3).clip(0, 5).ranges == ((3, 5),)


def reference_lift(tower, A, J):
    """The Python lift that Tower.lift replaced: at each stage every range
    is copied once per column offset, then sorted and merged."""
    ranges = A.ranges
    for j in range(A.stage, J):
        offs = tower.stage(j).offsets
        ranges = LevelSet.from_ranges(
            j + 1, ((o + a, o + b) for (a, b) in ranges for o in offs)).ranges
    return LevelSet(J, ranges)


def random_spec(rng):
    """Two to four stages of two to four columns; about half the spacers
    are zero, so column copies touch and must merge."""
    stages = []
    for _ in range(rng.randint(2, 4)):
        r = rng.randint(2, 4)
        stages.append(StageParams(r, tuple(rng.choice((0, 0, 1, 3)) for _ in range(r))))
    return ConstructionSpec(rng.randint(1, 5), tuple(stages))


def random_set(rng, tower, stage):
    """Up to three ranges of the stage, often none."""
    h = tower.stage(stage).h
    cuts = sorted({rng.randrange(h + 1) for _ in range(2 * rng.randint(0, 3))})
    return LevelSet.from_ranges(stage, zip(cuts[0::2], cuts[1::2]))


def assert_lifts_as_reference(rng, tower):
    for stage in range(1, tower.depth + 1):
        A = random_set(rng, tower, stage)
        for J in range(stage, tower.depth + 1):
            assert tower.lift(A, J) == reference_lift(tower, A, J)


class TestLiftAgainstReference:
    def test_random_specs(self):
        rng = random.Random(11)
        for _ in range(200):
            spec = random_spec(rng)
            assert_lifts_as_reference(rng, Tower(spec, len(spec.stages) + 1))

    def test_touching_copies_merge(self):
        # h = 2, 6, 13: stage 1 has no spacers, stage 2 none after column 0
        tower = Tower(ConstructionSpec(2, (StageParams(3, (0, 0, 0)),
                                           StageParams(2, (0, 1)))), 3)
        assert tower.lift(LevelSet.from_ranges(1, [(0, 2)]), 3).ranges == ((0, 12),)
        assert tower.lift(LevelSet.from_levels(2, [0, 5]), 3).ranges == (
            (0, 1), (5, 7), (11, 12))

    def test_empty_set(self, demo_tower):
        for stage in range(1, demo_tower.depth + 1):
            empty = LevelSet.from_ranges(stage, [])
            assert demo_tower.lift(empty, demo_tower.depth) == LevelSet(demo_tower.depth, ())

    def test_beyond_int64(self):
        rng = random.Random(12)
        for _ in range(50):
            spec = random_spec(rng)
            spec = ConstructionSpec(spec.h1, spec.stages + (StageParams(2, (0, 2**63)),))
            tower = Tower(spec, len(spec.stages) + 1)
            assert tower.dtype is object
            assert_lifts_as_reference(rng, tower)


class TestLift:
    def test_single_level(self, running_tower):
        base = LevelSet.from_levels(2, [0])
        assert running_tower.lift(base, 3).ranges == ((0, 1), (3, 4), (12, 13))

    def test_full_tower(self, running_tower):
        x2 = LevelSet.from_ranges(2, [(0, 3)])
        assert running_tower.lift(x2, 3).ranges == ((0, 6), (12, 15))

    def test_measure_preserved(self, running_tower):
        x2 = LevelSet.from_ranges(2, [(0, 3)])
        assert running_tower.set_measure(x2) == Fraction(3, 2)
        lifted = running_tower.lift(x2, 3)
        assert running_tower.set_measure(lifted) == Fraction(3, 2)

    def test_needs_more_stages(self, running_tower):
        A = LevelSet.from_levels(2, [0])
        with pytest.raises(NeedsMoreStages):
            running_tower.lift(A, 4)
        with pytest.raises(NeedsMoreStages):  # not an empty stage-4 set
            running_tower.range_arrays(A, 4)
        with pytest.raises(NeedsMoreStages):
            running_tower.count_below(A, 4, [0])
        with pytest.raises(ValueError):
            running_tower.count_below(A, 1, [0])
        with pytest.raises(ValueError):
            running_tower.lift(A, 1)
        with pytest.raises(ValueError):  # not an endless recursion
            running_tower.range_arrays(A, 1)

    @pytest.mark.parametrize("bad", [
        LevelSet.from_ranges(2, [(5, 20)]),   # past h_2 = 7
        LevelSet.from_ranges(2, [(-3, 1)]),
        LevelSet.from_ranges(2, [(0, 8)]),
        LevelSet.from_ranges(0, [(0, 1)]),
        LevelSet.from_ranges(7, [(0, 1)]),    # past depth 6
        LevelSet(2, ((0, 1), (10, 12), (3, 4))),  # unsorted, past h_2
        LevelSet(2, ((0, 3), (2, 4))),        # overlapping
        LevelSet(2, ((1, 1),)),               # an empty range
        LevelSet(2, [(0, 1)]),                # a list, not a tuple
    ], ids=["past-top", "negative", "one-past", "stage-0", "stage-past-depth",
            "unsorted", "overlapping", "empty-range", "list-ranges"])
    def test_set_outside_its_stage_rejected(self, demo_tower, bad):
        with pytest.raises(ValueError):
            demo_tower.set_measure(bad)
        with pytest.raises(ValueError):
            demo_tower.lift(bad, 6)
        with pytest.raises(ValueError):
            demo_tower.membership(PointState(3, 0, Fraction(0)), bad)
        with pytest.raises(ValueError):
            demo_tower.sample_uniform(bad, random.Random(0))

    def test_set_filling_its_stage_accepted(self, demo_tower):
        full = LevelSet.from_ranges(2, [(0, 7)])
        assert demo_tower.set_measure(full) == 7 * demo_tower.stage(2).base_measure
        assert demo_tower.lift(full, 3).count() == 4 * 7
        touching = LevelSet(2, ((0, 2), (2, 3)))  # from_ranges would merge them
        with pytest.raises(ValueError, match="LevelSet.from_ranges"):
            demo_tower.set_measure(touching)


class TestCountBelow:
    """count_below walks the column offsets down to the set's own ranges;
    it must count what the set lifted to K holds below each x."""

    @given(kind=st.sampled_from(["running", "demo", "random", "huge", "deep"]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    def test_equals_count_on_lifted_ranges(self, running_tower, demo_tower, kind, seed):
        rng = random.Random(seed)
        if kind in ("running", "demo"):
            tower = running_tower if kind == "running" else demo_tower
        else:
            spec = {"random": random_spec, "huge": huge_spec, "deep": deep_spec}[kind](rng)
            tower = Tower(spec, len(spec.stages) + 1)
        stage = rng.randint(1, min(3, tower.depth))
        # deep towers double per stage: keep the lifted reference small
        K = rng.randint(stage, min(tower.depth, stage + 8))
        A = rng.choice([random_set, lambda rng, tower, j: few_levels(rng, tower, j, 6)])(
            rng, tower, stage)
        h = tower.stage(K).h
        x = np.array([0, h] + [rng.randrange(h + 1) for _ in range(18)], dtype=tower.dtype)
        want = count_on_lifted(tower, A, K, x)
        assert tower.count_below(A, K, x).tolist() == want.tolist()
        assert tower.count_below(A, K, x.reshape(4, 5)).tolist() == want.reshape(4, 5).tolist()
        assert want[1] == A.count() * tower.units[stage] // tower.units[K]


class TestSetMemo:
    """The tower keeps one memo per set: equal sets share it, and it goes
    when the set does."""

    def test_equal_sets_share_one_entry(self, demo_spec):
        tower = Tower(demo_spec, depth=6)
        A = LevelSet.from_ranges(3, [(0, 5), (9, 12)])
        B = LevelSet.from_levels(3, [0, 1, 2, 3, 4, 9, 10, 11])
        assert A == B and A is not B
        starts, _ = tower.range_arrays(A, 5)
        assert tower.range_arrays(B, 5)[0] is starts
        with pytest.raises(ValueError):  # shared, so read-only
            starts[0] = 1
        assert tower.count_below(B, 6, [900]) == tower.count_below(A, 6, [900])
        p = PointState(6, 0, Fraction(0))
        assert tower.membership(p, A) == tower.membership(p, B)
        assert len(tower._memo) == 1
        # counts keep only the set's own-stage prefix; nothing merged is kept
        assert {key for key in tower._memo[A] if key[0] != "ranges"} == {("prefix", 3)}

    def test_dropped_sets_release_their_lifts(self, demo_spec):
        tower = Tower(demo_spec, depth=6)
        keep = LevelSet.from_ranges(2, [(0, 1)])
        p = PointState(6, 0, Fraction(0))
        tower.membership(p, keep)
        for i in range(50):
            A = LevelSet.from_ranges(3, [(i, i + 1)])
            tower.range_arrays(A, 6)
            tower.count_below(A, 5, [7])
            tower.membership(p, A)
        assert len(tower._memo) == 2
        del A
        gc.collect()
        assert list(tower._memo.keys()) == [keep]


class TestPointDynamics:
    def test_forward_step_representation(self, running_tower):
        # the image of (stage 2, level 0, 1/10) is stage-2 level 1; its
        # minimal-stage representation is stage 1 level 0 at offset 3/5
        p = PointState(2, 0, Fraction(1, 10))
        q = running_tower.step(p)
        assert q == PointState(1, 0, Fraction(3, 5))
        assert running_tower.point_to_stage(q, 2) == PointState(2, 1, Fraction(1, 10))

    def test_top_crossing(self, running_tower):
        p = PointState(2, 2, Fraction(1, 10))  # top level, column 1 of stage 3
        q = running_tower.step(p)
        assert running_tower.point_to_stage(q, 3) == PointState(3, 3, Fraction(1, 10))

    def test_roundtrip(self, running_tower):
        rng = random.Random(11)
        x2 = LevelSet.from_ranges(2, [(0, 3)])
        for _ in range(50):
            p = running_tower.sample_uniform(x2, rng)
            q = running_tower.step(running_tower.step(p), -1)
            assert q == running_tower.normalize_point(p)

    def test_iterate_matches_steps(self, demo_tower):
        rng = random.Random(3)
        a = LevelSet.from_ranges(2, [(0, 7)])
        for _ in range(20):
            p = demo_tower.sample_uniform(a, rng)
            n = rng.randint(1, 25)
            q = p
            for _ in range(n):
                q = demo_tower.step(q)
            assert demo_tower.iterate(p, n) == q
            assert demo_tower.iterate(q, -n) == demo_tower.normalize_point(p)

    def test_iterate_needs_more_stages(self, running_tower):
        with pytest.raises(NeedsMoreStages):
            running_tower.iterate(PointState(1, 0, Fraction(0)), 100)


class TestSampling:
    def test_membership(self, running_tower):
        rng = random.Random(7)
        a = LevelSet.from_ranges(2, [(1, 3)])
        b = LevelSet.from_ranges(2, [(0, 1)])
        for _ in range(100):
            p = running_tower.sample_uniform(a, rng)
            assert running_tower.membership(p, a)
            assert not running_tower.membership(p, b)

    def test_levels_roughly_uniform(self, running_tower):
        rng = random.Random(1)
        a = LevelSet.from_ranges(3, [(0, 30)])
        counts = [0] * 30
        n = 3000
        for _ in range(n):
            p = running_tower.sample_uniform(a, rng)
            counts[running_tower.point_to_stage(p, 3).level] += 1
        # 4 sigma around n/30
        for c in counts:
            assert abs(c - n / 30) < 4 * (n / 30) ** 0.5 + 10

    def test_empty_raises(self, running_tower):
        with pytest.raises(ValueError):
            running_tower.sample_uniform(LevelSet.from_ranges(2, []), random.Random(0))


class TestSamplingAgainstReference:
    """sample_uniform and cached membership must match the old loops draw
    for draw."""

    def _sets(self, tower):
        rng = random.Random(12)
        sparse = LevelSet.from_levels(3, rng.sample(range(77), 20))
        return [
            LevelSet.from_ranges(4, [(0, 1463)]),  # one range
            tower.lift(sparse, 5),  # 20 * 5 * 7 ranges
            tower.lift(LevelSet.from_ranges(2, [(0, 2), (5, 7)]), 6),
            tower.lift(sparse, 4).union(LevelSet.from_levels(4, range(3, 1463, 11))),
        ]

    def test_same_points_per_seed(self, demo_tower):
        for i, A in enumerate(self._sets(demo_tower)):
            assert A.count() == sum(b - a for a, b in A.ranges)
            got, want = random.Random(i), random.Random(i)
            for _ in range(300):
                p = demo_tower.sample_uniform(A, got)
                assert p == reference_sample_uniform(demo_tower, A, want)
                assert A.contains(p.level)
            assert got.getstate() == want.getstate()

    def test_membership_cache_agrees(self, demo_tower):
        rng = random.Random(3)
        sets = self._sets(demo_tower) + [
            LevelSet.from_levels(j, rng.sample(range(demo_tower.stage(j).h), 5))
            for j in (2, 3, 5, 6)
        ]
        sources = [demo_tower.full_tower(j) for j in (1, 3, 4, 6)]
        want: dict = {}  # (set, stage) -> reference lift
        hits = 0
        for _ in range(150):
            p = demo_tower.sample_uniform(rng.choice(sources), rng)
            for A in sets:
                q = reference_point_to_stage(demo_tower, p, max(p.stage, A.stage))
                if (A, q.stage) not in want:
                    want[A, q.stage] = reference_lift(demo_tower, A, q.stage)
                got = demo_tower.membership(p, A)  # the tower's memo keeps A's lifts
                assert got == want[A, q.stage].contains(q.level)
                hits += got
        assert 0 < hits < 150 * len(sets)


class TestDrawPoints:
    """_draw_points writes randrange(n) out as random.Random's own rule,
    getrandbits(n.bit_length()) redrawn while >= n.  It must give the
    integers that randrange gives and leave the same stream state: if a
    Python release changes how randrange draws, these tests fail."""

    NS = [1, 2, 3, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**40, 2**63, 2**64, 2**64 + 3,
          2**100 - 1]

    @staticmethod
    def _draws(monkeypatch, seed, *args):
        """All chunks of _draw_points(seed, *args), and the state its
        random.Random(seed) is left in."""
        own = random.Random(seed)
        monkeypatch.setattr(construction, "random", SimpleNamespace(Random={seed: own}.__getitem__))
        return list(construction._draw_points(seed, *args)), own.getstate()

    @staticmethod
    def _reference(seed, samples, total, cells, most, count=None):
        """The same chunks from per-point randrange calls; with ``count``,
        the cells are drawn and dropped."""
        rng = random.Random(seed)
        chunks, picks, cell, sizes = [], [], [], []
        for i in range(samples):
            k = 1 if count is None else count(rng.random())
            sizes.append(k)
            for _ in range(k):
                picks.append(rng.randrange(total))
                cell.append(rng.randrange(cells))
            if len(picks) >= most or i == samples - 1:
                chunks.append((picks, cell, None) if count is None else (picks, None, sizes))
                picks, cell, sizes = [], [], []
        return chunks, rng.getstate()

    @pytest.mark.parametrize("n", NS)
    def test_randrange_rule(self, monkeypatch, n):
        for seed in range(50):
            got = self._draws(monkeypatch, seed, 3, n, n, 2)
            assert got == self._reference(seed, 3, n, n, 2), \
                f"randrange({n}) no longer draws getrandbits({n.bit_length()}) until < n"

    @pytest.mark.parametrize("most", [1, 7, correlation.CHUNK])
    @pytest.mark.parametrize("total, cells", [(59983, GRID * 42), (5, 2**66 + 5)])
    def test_streams(self, monkeypatch, most, total, cells):
        # the plain stream of mc_correlation and the Poisson-count streams of
        # mc_joint, whose counts are read inline from the table
        for count in (None, *map(_poisson_inverse, (0.1, 3.0, 40.0))):
            for seed in range(10):
                args = (seed, 150, total, cells, most, count)
                assert self._draws(monkeypatch, *args) == self._reference(*args)


class TestIntegerPointsAgainstReference:
    """The integer ascent, descent and iteration must give the points of the
    Fraction walks they replaced, at every stage of the demo tower."""

    def _points(self, tower, rng):
        dmap = DissipativeMap(tower)
        for j in range(1, tower.depth + 1):
            A = tower.full_tower(j)
            base = tower.stage(j).base_measure
            for _ in range(40):
                yield tower.sample_uniform(A, rng)  # default grid
                level = rng.randrange(tower.stage(j).h)
                den = rng.choice([3, 7, 1024 * 3, 10**9 + 7, rng.randrange(1, 5000)])
                yield PointState(j, level, base * Fraction(rng.randrange(den), den))
                try:  # sub-block offsets, denominator c
                    yield dmap.apply(tower.sample_uniform(A, rng), rng.random() < 0.5)
                except NeedsMoreBlocks:
                    pass

    def test_point_to_stage_and_normalize(self, demo_tower):
        rng = random.Random(21)
        for p in self._points(demo_tower, rng):
            assert demo_tower.normalize_point(p) == reference_normalize_point(demo_tower, p)
            for J in range(p.stage, demo_tower.depth + 2):
                assert outcome(demo_tower.point_to_stage, p, J) == outcome(
                    reference_point_to_stage, demo_tower, p, J)

    def test_iterate(self, demo_tower):
        rng = random.Random(22)
        h = [demo_tower.stage(j).h for j in range(1, demo_tower.depth + 1)]
        for p in self._points(demo_tower, rng):
            ns = [0, 1, -1, h[-1], -h[-1]]  # the last two leave the top and the bottom
            ns += [rng.randrange(-hj, hj) for hj in h if hj > 1]
            for n in ns:
                got = outcome(demo_tower.iterate, p, n)
                assert got == outcome(reference_iterate, demo_tower, p, n)
        with pytest.raises(NeedsMoreStages):
            demo_tower.iterate(PointState(1, 0, Fraction(0)), h[-1])

    def test_membership(self, demo_tower):
        rng = random.Random(23)
        sets = [LevelSet.from_levels(j, rng.sample(range(demo_tower.stage(j).h), 3))
                for j in (2, 3, 4, 5)]
        fresh = Tower(demo_tower.spec, demo_tower.depth)  # lifts from another memo
        lifts: dict = {}
        for p in self._points(demo_tower, rng):
            for A in sets:
                q = reference_point_to_stage(demo_tower, p, max(p.stage, A.stage))
                if (A, q.stage) not in lifts:
                    lifts[A, q.stage] = fresh.lift(A, q.stage)
                want = lifts[A, q.stage].contains(q.level)
                assert demo_tower.membership(p, A) == want


class TestPointEngine:
    """Tower.advance and Tower.in_set walk arrays of points; each point must
    land where the scalar reference walks put it, or raise their error."""

    def _tower(self, running_tower, demo_tower, kind, rng):
        if kind in ("running", "demo"):
            return running_tower if kind == "running" else demo_tower
        spec = huge_spec(rng) if kind == "huge" else deep_spec(rng)
        return Tower(spec, len(spec.stages) + 1)

    def _points(self, rng, tower, stages, d):
        """Arrays (stage, level, N) of up to 20 points at the given stages, N
        an object array when an offset cell can pass 2^63."""
        J = [rng.choice(stages) for _ in range(rng.randint(1, 20))]
        level = [rng.randrange(tower.stage(j).h) for j in J]
        N = [rng.randrange(d * tower.units[j]) for j in J]
        big = d * tower.units[min(J)] > 2**63
        return np.array(J), level, np.array(N, dtype=object if big else np.int64)

    @given(kind=st.sampled_from(["running", "demo", "huge", "deep"]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    def test_advance_equals_reference(self, running_tower, demo_tower, kind, seed):
        rng = random.Random(seed)
        tower = self._tower(running_tower, demo_tower, kind, rng)
        d = rng.choice([GRID, 3, 10**9 + 7])
        stage = rng.randint(1, tower.depth)
        _, level, N = self._points(rng, tower, [stage], d)
        h = tower.stage(rng.randint(stage, tower.depth)).h
        top = tower.stage(tower.depth).h
        n = rng.choice([rng.randrange(-h, h), rng.randrange(-h, h),
                        rng.randint(0, tower.stage(stage).h),
                        rng.choice([1, -1]) * (top + rng.randint(-1, 3))])
        want = outcome(lambda: [reference_advance(tower, stage, l, x, d, n)
                                for l, x in zip(level, N.tolist())])
        got = outcome(lambda: list(zip(*(x.tolist() for x in
                                         tower.advance(stage, level, N, d, n)))))
        assert got == want

    # One call with a shift per point equals one call per distinct shift, or
    # raises the error of the first point that leaves the tower, which that
    # point's shift's call raises too.
    @given(kind=st.sampled_from(["running", "demo", "huge", "deep"]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    def test_shift_per_point(self, running_tower, demo_tower, kind, seed):
        rng = random.Random(seed)
        tower = self._tower(running_tower, demo_tower, kind, rng)
        d = rng.choice([GRID, 3, 10**9 + 7])
        stage = rng.randint(1, tower.depth)
        _, level, N = self._points(rng, tower, [stage], d)
        level = np.array(level, dtype=tower.dtype)
        h = tower.stage(rng.randint(stage, tower.depth)).h
        top = tower.stage(tower.depth).h
        shifts = [rng.randrange(-h, h), rng.randrange(-h, h), rng.randint(0, tower.stage(stage).h)]
        if rng.random() < 0.3:
            shifts.append(rng.choice([1, -1]) * (top + rng.randint(-1, 3)))
        n = [rng.choice(shifts) for _ in level]
        got = outcome(lambda: [x.tolist() for x in tower.advance(
            stage, level, N, d, np.array(n, dtype=tower.dtype))])
        want, errors = [[None] * len(n) for _ in range(3)], {}
        for v in set(n):
            at = [i for i, x in enumerate(n) if x == v]
            res = outcome(lambda: tower.advance(stage, level[at], N[at], d, v))
            if isinstance(res[0], str):
                errors[v] = res
                continue
            for out, x in zip(want, res):
                for i, y in zip(at, x.tolist()):
                    out[i] = y
        leaves = [i for i, v in enumerate(n)
                  if isinstance(outcome(tower.advance, stage, level[[i]], N[[i]], d, v)[0], str)]
        assert got == (errors[n[leaves[0]]] if leaves else want)

    @given(kind=st.sampled_from(["running", "demo", "huge", "deep"]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    def test_in_set_equals_reference(self, running_tower, demo_tower, kind, seed):
        rng = random.Random(seed)
        tower = self._tower(running_tower, demo_tower, kind, rng)
        d = rng.choice([GRID, 3, 10**9 + 7])
        A_stage = rng.randint(1, tower.depth)
        A = rng.choice([random_set, lambda rng, tower, j: few_levels(rng, tower, j, 6)])(
            rng, tower, A_stage)
        # deep towers double per stage: keep the lifted reference small
        stages = range(max(1, A_stage - 3), min(tower.depth, A_stage + 8) + 1)
        J, level, N = self._points(rng, tower, stages, d)
        want = [reference_in_set(tower, j, l, x, d, A)
                for j, l, x in zip(J.tolist(), level, N.tolist())]
        assert tower.in_set(J, level, N, d, A).tolist() == want

    # A = {0} at stage 1 of the 57-stage deep tower: a membership test at a
    # deep stage reads A's own ranges, not A lifted there (2^(J-1) ranges).
    @pytest.mark.parametrize("J", [30, 40, 56])
    def test_deep_membership_lifts_nothing(self, J):
        tower = Tower(deep_spec(random.Random(0)), depth=57)
        A = LevelSet.from_ranges(1, [(0, 1)])
        rng = random.Random(J)
        levels = [0, tower.stage(J).h - 1] + [rng.randrange(tower.stage(J).h) for _ in range(30)]
        tracemalloc.start()
        try:
            got = [tower.membership(PointState(J, l, Fraction(rng.randrange(7), 7 << J)), A)
                   for l in levels]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        x = np.array(levels, dtype=tower.dtype)
        want = tower.count_below(A, J, x + 1) - tower.count_below(A, J, x)
        assert got == (want == 1).tolist()
