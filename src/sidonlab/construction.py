"""Exact tower arithmetic for rank-one cutting-and-stacking constructions.

Heights are arbitrary-precision integers and all measures are exact
rationals, so stage bookkeeping never loses precision no matter how fast
the towers grow.  Points use a canonical interval model: inside a level,
column i of the next stage occupies the i-th equal sub-interval of the
offset coordinate, which makes the transformation pointwise deterministic.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Sequence


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
    def from_levels(cls, stage: int, levels: Iterable[int]) -> "LevelSet":
        return cls.from_ranges(stage, ((l, l + 1) for l in levels))

    @cached_property
    def _prefix_lengths(self) -> list[int]:
        """Level counts of the ranges before each range, and in total last."""
        return list(accumulate((b - a for a, b in self.ranges), initial=0))

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


class Tower:
    """A construction built to a fixed depth.  Immutable after build; use
    ``deepen`` to get a new tower with more stages."""

    def __init__(self, spec: ConstructionSpec, depth: int):
        self.spec = spec
        self.stages = build_stages(spec, depth)
        self.depth = depth
        # sample_uniform's default offset grid per stage: (cells, resolution)
        fine = self.stages[-1].base_measure / 1024
        self._offset_grid = [(int(st.base_measure / fine), fine) for st in self.stages]

    def stage(self, j: int) -> TowerStage:
        if not 1 <= j <= self.depth:
            raise NeedsMoreStages(
                f"stage {j} not built (depth {self.depth})", required_depth=j
            )
        return self.stages[j - 1]

    def deepen(self, depth: int) -> "Tower":
        if depth <= self.depth:
            return self
        return Tower(self.spec, depth)

    def max_depth(self) -> int:
        return len(self.spec.stages) + 1

    # -- level-set lifting ------------------------------------------------

    def lift(self, A: LevelSet, J: int) -> LevelSet:
        """Re-express A at stage J >= A.stage.  One level l of stage j maps
        to {o_i + l} over the stage-j columns; measure is preserved."""
        if J < A.stage:
            raise ValueError("cannot lift to a shallower stage")
        self.stage(J)
        ranges = A.ranges
        for j in range(A.stage, J):
            offs = self.stage(j).offsets
            ranges = _normalize_ranges(
                (o + a, o + b) for (a, b) in ranges for o in offs
            )
        return LevelSet(J, ranges)

    def full_tower(self, j: int) -> LevelSet:
        return LevelSet(j, ((0, self.stage(j).h),))

    def set_measure(self, A: LevelSet) -> Fraction:
        return A.count() * self.stage(A.stage).base_measure

    # -- pointwise dynamics ----------------------------------------------

    def point_to_stage(self, p: PointState, J: int) -> PointState:
        """Re-express p at a deeper stage J."""
        stage, level, offset = p.stage, p.level, p.offset
        while stage < J:
            st = self.stage(stage)
            nxt = self.stage(stage + 1)
            col = int(offset / nxt.base_measure)
            level = st.offsets[col] + level
            offset = offset - col * nxt.base_measure
            stage += 1
        return PointState(stage, level, offset)

    def normalize_point(self, p: PointState) -> PointState:
        """Descend to the minimal-stage representation."""
        stage, level, offset = p.stage, p.level, p.offset
        while stage > 1:
            prev = self.stage(stage - 1)
            offs = prev.offsets
            i = bisect.bisect_right(offs, level) - 1
            if i < 0 or not offs[i] <= level < offs[i] + prev.h:
                break  # spacer level: born at this stage
            level = level - offs[i]
            offset = offset + i * self.stage(stage).base_measure
            stage -= 1
        return PointState(stage, level, offset)

    def step(self, p: PointState, direction: int = 1) -> PointState:
        """Apply the transformation (direction=+1) or its inverse (-1)."""
        if direction not in (1, -1):
            raise ValueError("direction must be +1 or -1")
        stage, level, offset = p.stage, p.level, p.offset
        q = PointState(stage, level, offset)
        if direction == 1:
            while q.level == self.stage(q.stage).h - 1:
                if q.stage + 1 > self.depth:
                    raise NeedsMoreStages(
                        f"forward step from the top of stage {q.stage} needs "
                        f"stage {q.stage + 1}",
                        required_depth=q.stage + 1,
                    )
                q = self.point_to_stage(q, q.stage + 1)
            q = PointState(q.stage, q.level + 1, q.offset)
        else:
            while q.level == 0:
                if q.stage + 1 > self.depth:
                    raise NeedsMoreStages(
                        f"backward step from the bottom of stage {q.stage} needs "
                        f"stage {q.stage + 1}",
                        required_depth=q.stage + 1,
                    )
                q = self.point_to_stage(q, q.stage + 1)
            q = PointState(q.stage, q.level - 1, q.offset)
        return self.normalize_point(q)

    def iterate(self, p: PointState, n: int) -> PointState:
        """Exact n-fold composition of the step map, via level arithmetic."""
        if n == 0:
            return self.normalize_point(p)
        q = p
        for J in range(p.stage, self.depth + 1):
            q = self.point_to_stage(q, J)
            h = self.stage(J).h
            lvl = q.level + n
            if 0 <= lvl < h:
                return self.normalize_point(PointState(J, lvl, q.offset))
        raise NeedsMoreStages(
            f"iterating by {n} from stage {p.stage} level {p.level} exceeds "
            f"built depth {self.depth}",
            required_depth=self.depth + 1,
        )

    def membership(self, p: PointState, A: LevelSet, cache: dict | None = None) -> bool:
        """Whether p lies in A.  A caller testing many points against the
        same sets passes its own ``cache`` dict, which keeps the lifts of A."""
        if p.stage < A.stage:
            return A.contains(self.point_to_stage(p, A.stage).level)
        if cache is None:
            return self.lift(A, p.stage).contains(p.level)
        key = ("lift", A, p.stage)
        lifted = cache.get(key)
        if lifted is None:
            lifted = cache[key] = self.lift(A, p.stage)
        return lifted.contains(p.level)

    # -- sampling ---------------------------------------------------------

    def sample_uniform(self, A: LevelSet, rng, resolution: Fraction | None = None) -> PointState:
        """Uniform point of A w.r.t. the tower measure.  Offsets land on a
        rational grid; the default grid mu(E_depth)/2^10 subdivides every
        column path of every built stage, so deep membership frequencies
        are unbiased."""
        if A.is_empty():
            raise ValueError("cannot sample from an empty level set")
        prefix = A._prefix_lengths
        pick = rng.randrange(prefix[-1])
        i = bisect.bisect_right(prefix, pick) - 1
        level = A.ranges[i][0] + pick - prefix[i]
        base = self.stage(A.stage).base_measure
        if resolution is None:
            cells, resolution = self._offset_grid[A.stage - 1]
        else:
            cells = int(base / resolution)
            if cells < 1:
                cells, resolution = 1, base
        offset = rng.randrange(cells) * resolution
        return PointState(A.stage, level, offset)

