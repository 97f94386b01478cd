"""Exact tower arithmetic for rank-one cutting-and-stacking constructions.

Heights are arbitrary-precision integers and all measures are exact
rationals, so stage bookkeeping never loses precision no matter how fast
the towers grow.  Points use a canonical interval model: inside a level,
column i of the next stage occupies the i-th equal sub-interval of the
offset coordinate, which makes the transformation pointwise deterministic.
"""

from __future__ import annotations

import bisect
import random
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain
from operator import lt
from typing import Iterable, Sequence

import numpy as np


class SpecValidationError(ValueError):
    """Construction parameters are malformed; the message names the stage."""


class NeedsMoreStages(RuntimeError):
    """An operation ran past the deepest built stage."""

    def __init__(self, message: str, required_depth: int | None = None):
        super().__init__(message)
        self.required_depth = required_depth


@dataclass(frozen=True)
class StageParams:
    """Column count r >= 2 and the vector of spacer counts, one per column."""

    r: int
    s: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "s", tuple(int(x) for x in self.s))

    def total_spacers(self) -> int:
        return sum(self.s)


@dataclass(frozen=True)
class ConstructionSpec:
    """Full parameter set (h1 plus per-stage params) defining the map."""

    h1: int
    stages: tuple[StageParams, ...]

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))

    def validate(self) -> None:
        if self.h1 < 1:
            raise SpecValidationError(f"h1 must be >= 1, got {self.h1}")
        if not self.stages:
            raise SpecValidationError("stage list is empty")
        for j, p in enumerate(self.stages, start=1):
            if p.r < 2:
                raise SpecValidationError(f"stage {j}: column count r={p.r} < 2")
            if len(p.s) != p.r:
                raise SpecValidationError(
                    f"stage {j}: spacer vector has length {len(p.s)}, expected r={p.r}"
                )
            if any(x < 0 for x in p.s):
                raise SpecValidationError(f"stage {j}: negative spacer count in {p.s}")

    @classmethod
    def from_dict(cls, d: dict) -> "ConstructionSpec":
        try:
            stages = tuple(StageParams(int(st["r"]), tuple(st["s"])) for st in d["stages"])
            spec = cls(int(d["h1"]), stages)
        except (KeyError, TypeError) as exc:
            raise SpecValidationError(f"bad construction dict: {exc}") from exc
        spec.validate()
        return spec

    def to_dict(self) -> dict:
        return {
            "h1": self.h1,
            "stages": [{"r": p.r, "s": list(p.s)} for p in self.stages],
        }


@dataclass(frozen=True)
class TowerStage:
    """Derived data for one stage: height, base measure and column offsets.

    ``offsets[i]`` is the level of column i's bottom inside stage j+1; the
    tuple is empty for the deepest stage when no further params exist.
    """

    j: int
    h: int
    base_measure: Fraction
    offsets: tuple[int, ...]
    tower_measure: Fraction


def build_stages(spec: ConstructionSpec, depth: int) -> list[TowerStage]:
    """Build stages 1..depth.  Requires depth <= len(spec.stages) + 1."""
    spec.validate()
    if depth < 1 or depth > len(spec.stages) + 1:
        raise SpecValidationError(
            f"depth {depth} out of range 1..{len(spec.stages) + 1}"
        )
    out: list[TowerStage] = []
    h = spec.h1
    base = Fraction(1)
    for j in range(1, depth + 1):
        if j <= len(spec.stages):
            p = spec.stages[j - 1]
            offs = [0]
            for i in range(p.r - 1):
                offs.append(offs[-1] + h + p.s[i])
            offsets = tuple(offs)
        else:
            p = None
            offsets = ()
        out.append(TowerStage(j, h, base, offsets, h * base))
        if p is not None:
            h = h * p.r + p.total_spacers()
            base = base / p.r
    return out


def measure_growth(
    spec: ConstructionSpec, depth: int
) -> tuple[list[Fraction], list[Fraction]]:
    """Tower measures mu(X_1..X_depth) and the partial sums of the
    infinite-measure series sum_j (s_j(1)+...+s_j(r_j)) / (h_j r_j)."""
    stages = build_stages(spec, depth)
    measures = [st.tower_measure for st in stages]
    partials: list[Fraction] = []
    acc = Fraction(0)
    for j in range(1, depth):
        p = spec.stages[j - 1]
        acc += Fraction(p.total_spacers(), stages[j - 1].h * p.r)
        partials.append(acc)
    return measures, partials


def _normalize_ranges(ranges: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    rs = sorted((a, b) for a, b in ranges if b > a)
    out: list[list[int]] = []
    for a, b in rs:
        if out and a <= out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return tuple((a, b) for a, b in out)


@dataclass(frozen=True)
class LevelSet:
    """A finite union of level indices of one stage, kept as sorted
    disjoint half-open ranges."""

    stage: int
    ranges: tuple[tuple[int, int], ...]

    @classmethod
    def from_ranges(cls, stage: int, ranges: Iterable[tuple[int, int]]) -> "LevelSet":
        return cls(stage, _normalize_ranges(ranges))

    @classmethod
    def from_arrays(cls, stage: int, starts, ends) -> "LevelSet":
        """The set of the sorted disjoint ranges [starts[i], ends[i]) of two
        arrays, with ranges that touch merged."""
        gap = starts[1:] != ends[:-1]
        if not gap.all():
            starts, ends = starts[np.r_[True, gap]], ends[np.r_[gap, True]]
        return cls(stage, tuple(zip(starts.tolist(), ends.tolist())))

    @classmethod
    def from_levels(cls, stage: int, levels: Iterable[int]) -> "LevelSet":
        return cls.from_ranges(stage, ((l, l + 1) for l in levels))

    @cached_property
    def _prefix_lengths(self) -> list[int]:
        """Level counts of the ranges before each range, and in total last."""
        return list(accumulate((b - a for a, b in self.ranges), initial=0))

    @property
    def is_normalized(self) -> bool:
        """Whether the ranges are nonempty, sorted and apart (no two touch),
        as ``from_ranges`` makes them; the plain constructor does not check."""
        flat = list(chain.from_iterable(self.ranges))
        return all(map(lt, flat[:-1], flat[1:]))

    def count(self) -> int:
        return self._prefix_lengths[-1]

    def is_empty(self) -> bool:
        return not self.ranges

    def levels(self):
        for a, b in self.ranges:
            yield from range(a, b)

    def contains(self, level: int) -> bool:
        i = bisect.bisect_right(self.ranges, (level, float("inf"))) - 1
        return i >= 0 and self.ranges[i][0] <= level < self.ranges[i][1]

    def shift(self, n: int) -> "LevelSet":
        return LevelSet(self.stage, tuple((a + n, b + n) for a, b in self.ranges))

    def clip(self, lo: int, hi: int) -> "LevelSet":
        out = []
        for a, b in self.ranges:
            a2, b2 = max(a, lo), min(b, hi)
            if b2 > a2:
                out.append((a2, b2))
        return LevelSet(self.stage, tuple(out))

    def intersect(self, other: "LevelSet") -> "LevelSet":
        if self.stage != other.stage:
            raise ValueError("level sets at different stages")
        out = []
        i = k = 0
        ra, rb = self.ranges, other.ranges
        while i < len(ra) and k < len(rb):
            a = max(ra[i][0], rb[k][0])
            b = min(ra[i][1], rb[k][1])
            if b > a:
                out.append((a, b))
            if ra[i][1] < rb[k][1]:
                i += 1
            else:
                k += 1
        return LevelSet(self.stage, tuple(out))

    def union(self, other: "LevelSet") -> "LevelSet":
        if self.stage != other.stage:
            raise ValueError("level sets at different stages")
        return LevelSet.from_ranges(self.stage, self.ranges + other.ranges)

    def difference(self, other: "LevelSet") -> "LevelSet":
        if self.stage != other.stage:
            raise ValueError("level sets at different stages")
        out = []
        cut = list(other.ranges)
        for a, b in self.ranges:
            cur = a
            for c, d in cut:
                if d <= cur or c >= b:
                    continue
                if c > cur:
                    out.append((cur, min(c, b)))
                cur = max(cur, d)
                if cur >= b:
                    break
            if cur < b:
                out.append((cur, b))
        return LevelSet(self.stage, tuple(out))


@dataclass(frozen=True)
class PointState:
    """Exact coordinates of a point: stage, level and a rational offset in
    [0, mu(E_stage)) measuring the position within the level."""

    stage: int
    level: int
    offset: Fraction


# Cells of sample_uniform's offset grid in one mu(E_depth).
GRID = 1024


# -- Monte-Carlo points on arrays -------------------------------------------
#
# The oracles first make exactly the random calls that per-point
# sample_uniform calls would make, keeping the raw integers, and then
# classify the points of a chunk of samples at once on range arrays.  Chunks
# keep memory bounded however many points a run draws.  randrange(n) is
# written out as random.Random's own rule, getrandbits(n.bit_length())
# redrawn while >= n: the same integers and stream state, without its two
# Python frames per call.


def _draw_points(seed, samples: int, total: int, cells: int, most: int, count=None):
    """The raw draws of ``samples`` samples of sample_uniform points from
    random.Random(seed): a sample is one point, or count(random()) points,
    and a point is a pick randrange(total) of a level, then a cell
    randrange(cells) of its offset.  Yields them in chunks of whole samples,
    each ending once it holds ``most`` points or more: the lists of picks
    and cells, or with ``count`` the list of picks, None and the list of
    points per sample.  ``count`` is a _poisson_inverse count, whose table
    is read inline; its caller, mc_joint, reads no cell, so the cells are
    drawn and dropped."""
    rng = random.Random(seed)
    bits, tk, ck = rng.getrandbits, total.bit_length(), cells.bit_length()
    if count is None:
        for lo in range(0, samples, most):
            picks, cell = [], []
            for _ in range(min(most, samples - lo)):
                r = bits(tk)
                while r >= total:
                    r = bits(tk)
                picks.append(r)
                r = bits(ck)
                while r >= cells:
                    r = bits(ck)
                cell.append(r)
            yield picks, cell, None
        return
    rand, cum, grow, left = rng.random, count.cum, count.grow, bisect.bisect_left
    picks, sizes = [], []
    for _ in range(samples):
        u = rand()
        k = left(cum, u) if u <= cum[-1] else grow(u)
        sizes.append(k)
        for _ in range(k):
            r = bits(tk)
            while r >= total:
                r = bits(tk)
            picks.append(r)
            while bits(ck) >= cells:
                pass
        if len(picks) >= most:
            yield picks, None, sizes
            picks, sizes = [], []
    if sizes:
        yield picks, None, sizes


def _pick_levels(starts, cum, picks):
    """The level each pick names: pick p is the p-th level of the sorted
    disjoint ranges with these starts and cumulative lengths (leading 0)."""
    i = np.searchsorted(cum, picks, side="right") - 1
    return starts[i] + (picks - cum[i])


def _inside(starts, ends, x):
    """Whether each level of x lies in the sorted disjoint ranges
    [starts, ends)."""
    if not len(starts):
        return np.zeros(len(x), dtype=bool)
    i = np.searchsorted(starts, x, side="right") - 1
    return (i >= 0) & (x < ends[i])


class Tower:
    """A construction built to a fixed depth, immutable after build.

    Pointwise work runs on integers: a point is (stage, level, N) with its
    offset N/d in units of mu(E_depth), for a denominator d the caller
    keeps.  ``PointState`` and its ``Fraction`` offset are the API edge.

    Set work runs on range arrays: a level set at stage J is a pair of
    arrays (starts, ends) of sorted disjoint half-open ranges, of the
    tower's ``dtype``.  That is int64 while every value stays below
    2 * h_depth < 2^63, and exact Python ints (object, same code) beyond.

    A set is counted on its own ranges (``count_below``), never lifted for
    counting.  The tower owns everything derived from a set: one memo per
    set (equal sets share it) keeps its range arrays per stage and its
    own-stage prefix counts, and lives no longer than the set."""

    def __init__(self, spec: ConstructionSpec, depth: int):
        self.spec = spec
        self.stages = build_stages(spec, depth)
        self.depth = depth
        # per stage j (index j; index 0 unused): h_j, the column offsets, and
        # in ``units`` the width of E_j in units of mu(E_depth),
        # r_j * ... * r_{depth-1}; every mu(E_j) is 1/(r_1 * ... * r_{j-1})
        self._h = [0] + [st.h for st in self.stages]
        R = self.stages[-1].base_measure.denominator
        self.units = [0] + [R // st.base_measure.denominator for st in self.stages]
        self.dtype = np.int64 if 2 * self._h[-1] < 2**63 else object
        self._offset_arrays = [np.array(o, dtype=self.dtype)
                               for o in [()] + [st.offsets for st in self.stages]]
        self._memo: weakref.WeakKeyDictionary[LevelSet, dict] = weakref.WeakKeyDictionary()

    def stage(self, j: int) -> TowerStage:
        if not 1 <= j <= self.depth:
            raise NeedsMoreStages(
                f"stage {j} not built (depth {self.depth})", required_depth=j
            )
        return self.stages[j - 1]

    def resolving_stage(self, jmin: int, shift: int) -> int:
        """The first stage J >= jmin taller than ``shift``."""
        for J in range(jmin, self.depth + 1):
            if self._h[J] > shift:
                return J
        raise NeedsMoreStages(
            f"no built stage has height > {shift} (depth {self.depth})",
            required_depth=self.depth + 1,
        )

    # -- level-set lifting ------------------------------------------------

    def validate_set(self, A: LevelSet) -> dict:
        """Raise ValueError unless A is a set of this tower: its stage in
        1..depth and its ranges sorted, apart and inside [0, h_stage).
        Returns A's memo, a dict keyed by (kind, stage); A is checked the
        first time the memo sees it."""
        try:
            memo = self._memo.get(A)
        except TypeError:  # unhashable, as with a list of ranges
            raise ValueError("level set ranges must be a tuple of (start, end) "
                             "tuples; build the set with LevelSet.from_ranges") from None
        if memo is not None:
            return memo
        if not 1 <= A.stage <= self.depth:
            raise ValueError(f"level set stage {A.stage} outside 1..{self.depth}")
        if not A.is_normalized:
            raise ValueError(
                "level set ranges are not sorted, apart and nonempty; "
                "build the set with LevelSet.from_ranges"
            )
        if A.ranges and (A.ranges[0][0] < 0 or A.ranges[-1][1] > self._h[A.stage]):
            raise ValueError(
                f"level set ranges {A.ranges[0]}..{A.ranges[-1]} leave "
                f"[0, {self._h[A.stage]}) of stage {A.stage}"
            )
        memo = self._memo[A] = {}
        return memo

    def lift_ranges(self, starts, ends, j: int):
        """Range arrays of stage j lifted to stage j + 1: copy i of [s, e) is
        [o_i + s, o_i + e), copies in column order.  The copies are disjoint
        and ordered, so sorted disjoint input stays sorted and disjoint;
        copies that touch (a zero spacer) are not merged."""
        return tuple(np.add.outer(self._offset_arrays[j], x).ravel() for x in (starts, ends))

    def range_arrays(self, A: LevelSet, J: int):
        """(starts, ends) of A lifted to stage J >= A.stage."""
        memo = self.validate_set(A)
        got = memo.get(("ranges", J))
        if got is None:
            if J < A.stage:
                raise ValueError("cannot lift to a shallower stage")
            self.stage(J)  # NeedsMoreStages past the top
            if J == A.stage:
                r = np.array(A.ranges, dtype=self.dtype).reshape(-1, 2)
                got = r[:, 0].copy(), r[:, 1].copy()
            else:
                got = self.lift_ranges(*self.range_arrays(A, J - 1), J - 1)
            for x in got:  # shared by every caller while A lives
                x.flags.writeable = False
            memo["ranges", J] = got
        return got

    def _own_prefix(self, A: LevelSet):
        """A's own starts, and its ends and cumulative lengths each after a 0."""
        memo = self.validate_set(A)
        if ("prefix", A.stage) not in memo:
            s, e = self.range_arrays(A, A.stage)
            memo["prefix", A.stage] = s, np.r_[0, e], np.r_[0, np.cumsum(e - s)]
        return memo["prefix", A.stage]

    def count_below(self, A: LevelSet, K: int, x):
        """|A_K intersect [0, x)| for each x of the array x, 0 <= x <= h_K, on
        A's own ranges: walking k = K - 1 down to A.stage, each stage-k copy
        wholly below x holds |A_k| levels, x moves into the copy it meets,
        and spacers hold none of A."""
        starts, ends, cum = self._own_prefix(A)
        if K < A.stage:
            raise ValueError("cannot count at a shallower stage")
        self.stage(K)  # NeedsMoreStages past the top
        x = np.asarray(x, dtype=self.dtype)
        out, size = 0, int(cum[-1]) * self.units[A.stage]
        for k in range(K - 1, A.stage - 1, -1):  # |A_k| = size / units[k]
            i = np.searchsorted(self._offset_arrays[k], x, side="right") - 1
            out = out + i.astype(self.dtype) * (size // self.units[k])
            x = np.minimum(x - self._offset_arrays[k][i], self._h[k])
        i = np.searchsorted(starts, x, side="right")
        return out + cum[i] - np.maximum(ends[i] - x, 0)

    def lift(self, A: LevelSet, J: int) -> LevelSet:
        """Re-express A at stage J >= A.stage.  One level l of stage j maps
        to {o_i + l} over the stage-j columns; measure is preserved."""
        return LevelSet.from_arrays(J, *self.range_arrays(A, J))

    def full_tower(self, j: int) -> LevelSet:
        return LevelSet(j, ((0, self.stage(j).h),))

    def set_measure(self, A: LevelSet) -> Fraction:
        self.validate_set(A)
        return A.count() * self.stage(A.stage).base_measure

    # -- integer points ---------------------------------------------------

    def descend(self, J: int, levels, stop: int = 1):
        """Trace stage-J levels down the column copies to stage ``stop``, or
        each to the stage where it is born as a spacer level if that is
        deeper.  Returns arrays (stage, level, u): a level lands in that
        level of that stage and occupies [u, u + units_J) of its offset
        coordinate, in units of mu(E_depth)."""
        level = np.array(levels, dtype=self.dtype)
        stage = np.full(len(level), J)
        u = np.zeros(len(level), dtype=self.dtype)
        live = np.arange(len(level))
        for k in range(J - 1, stop - 1, -1):
            offs = self._offset_arrays[k]
            x = level[live]
            i = np.searchsorted(offs, x, side="right") - 1
            inside = (i >= 0) & (x < offs[i] + self._h[k])  # else born at k + 1
            live, i = live[inside], i[inside]
            level[live] -= offs[i]
            u[live] += i.astype(self.dtype) * self.units[k + 1]
            stage[live] = k
        return stage, level, u

    def climb(self, J: int, level, N, d: int):
        """Arrays (level, N) of the points (J, level, N/d) at stage J + 1:
        column i of a level is the i-th sub-interval of its offset."""
        cells = d * self.units[J + 1]
        return level + self._offset_arrays[J][(N // cells).astype(np.int64)], N % cells

    def advance(self, stage: int, level, N, d: int, n: int):
        """T^n of the points (stage, level, N/d) of the arrays level and N (N
        may be an object array), as arrays (J, level, N): each point climbs
        to the first stage J >= stage where its level plus n stays inside
        the tower.  n is one shift, or an array of one shift per point.  The
        first point that leaves the top raises."""
        J = np.full(len(level), stage)
        start, level, N = level, np.array(level, dtype=self.dtype), np.array(N)
        live = np.arange(len(level))
        each = np.ndim(n) > 0
        n = np.asarray(n) if each else n
        # |n| >= h_depth resolves no point, and need not fit the dtype
        for k in range(stage, self.depth + 1 if each or abs(n) < self._h[-1] else stage):
            if k > stage:
                level[live], N[live] = self.climb(k - 1, level[live], N[live], d)
            x = level[live] + (n[live] if each else n)
            ok = (x >= 0) & (x < self._h[k])
            level[live[ok]], J[live[ok]] = x[ok], k
            live = live[~ok]
            if not len(live):
                break
        if len(live):
            i = live[0]
            raise NeedsMoreStages(f"iterating by {n[i] if each else n} from stage {stage} level "
                                  f"{start[i]} exceeds built depth {self.depth}", self.depth + 1)
        return J, level, N

    def in_set(self, J, level, N, d: int, A: LevelSet):
        """Whether each point (J, level, N/d) of the arrays lies in A, tested
        on A's own ranges: a point below A.stage is climbed to it, and one
        above is traced down to it.  A level born as a spacer at a stage
        k > A.stage stops at or above h_{k-1} >= h_{A.stage}, outside them."""
        own = self.range_arrays(A, A.stage)  # validates A
        J, level, N = np.array(J), np.array(level, dtype=self.dtype), np.array(N)
        for k in range(int(J.min(initial=A.stage)), A.stage):
            up = np.flatnonzero(J == k)
            level[up], N[up] = self.climb(k, level[up], N[up], d)
            J[up] = k + 1
        inside = np.zeros(len(level), dtype=bool)
        for k in np.unique(J).tolist():
            at = J == k
            inside[at] = _inside(*own, self.descend(k, level[at], A.stage)[1])
        return inside

    def _point_arrays(self, p: PointState):
        """The one-point arrays (level, N) of p and the denominator d, with
        N/d = p.offset / mu(E_depth); mu(E_1) = 1."""
        return (np.array([p.level], dtype=self.dtype),
                np.array([p.offset.numerator * self.units[1]], dtype=object),
                p.offset.denominator)

    # -- pointwise dynamics ----------------------------------------------

    def point_to_stage(self, p: PointState, J: int) -> PointState:
        """Re-express p at a deeper stage J."""
        if p.stage >= J:
            return p
        self.stage(min(J, self.depth + 1))  # NeedsMoreStages past the top
        level, N, d = self._point_arrays(p)
        for k in range(p.stage, J):
            level, N = self.climb(k, level, N, d)
        return PointState(J, int(level[0]), Fraction(N[0], d * self.units[1]))

    def normalize_point(self, p: PointState) -> PointState:
        """Descend to the minimal-stage representation."""
        b, level, u = (int(x[0]) for x in self.descend(p.stage, [p.level]))
        return PointState(b, level, p.offset + Fraction(u, self.units[1]))

    def step(self, p: PointState, direction: int = 1) -> PointState:
        """Apply the transformation (direction=+1) or its inverse (-1)."""
        if direction not in (1, -1):
            raise ValueError("direction must be +1 or -1")
        return self.iterate(p, direction)

    def iterate(self, p: PointState, n: int) -> PointState:
        """Exact n-fold composition of the step map, via level arithmetic."""
        level, N, d = self._point_arrays(p)
        (J,), level, (N,) = self.advance(p.stage, level, N, d, n)
        b, level, u = (int(x[0]) for x in self.descend(int(J), level))
        return PointState(b, level, Fraction(N + u * d, d * self.units[1]))

    def membership(self, p: PointState, A: LevelSet) -> bool:
        """Whether p lies in A."""
        level, N, d = self._point_arrays(p)
        return bool(self.in_set([p.stage], level, N, d, A)[0])

    # -- sampling ---------------------------------------------------------

    def sample_uniform(self, A: LevelSet, rng) -> PointState:
        """Uniform point of A w.r.t. the tower measure, one sample of the Monte-Carlo
        oracles' draw.  Offsets land on the grid mu(E_depth)/GRID, which subdivides
        every column path of every built stage: deep frequencies are unbiased."""
        starts, _, cum = self._own_prefix(A)  # validates A
        if A.is_empty():
            raise ValueError("cannot sample from an empty level set")
        pick, cell = rng.randrange(A.count()), rng.randrange(GRID * self.units[A.stage])
        level = _pick_levels(starts, cum, np.array([pick], dtype=self.dtype))
        return PointState(A.stage, int(level[0]), Fraction(cell, GRID * self.units[1]))
