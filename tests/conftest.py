import bisect
import itertools
import json
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from sidonlab import (ConstructionSpec, LevelSet, NeedsMoreBlocks, NeedsMoreStages, PointState,
                      StageParams, Tower, s_schedule, singer_set)
from sidonlab.construction import GRID
from sidonlab.homoclinic import stage_new_ranges
from sidonlab.sidon import optimal_stage_params


RUNNING_SPEC = ConstructionSpec(
    1, (StageParams(2, (0, 1)), StageParams(3, (0, 6, 15)))
)


def demo_singer_spec() -> ConstructionSpec:
    """Five-stage Singer-based optimal construction, q = 3, 4, 5, 7, 8.

    Small enough that six tower stages (h up to ~3e6) build instantly, deep
    enough that correlation queries over the first four stage intervals
    resolve with no or tiny escape slack.
    """
    h = 1
    stages = []
    for q in (3, 4, 5, 7, 8):
        s = singer_set(q)
        stages.append(optimal_stage_params(h, s))
        h = h * (s.elements[-1] - s.elements[0])
    return ConstructionSpec(1, tuple(stages))


def huge_spec(rng):
    """Spacer counts up to 2^64; the last one is at least 2^63, so the
    deepest height exceeds 2^63."""
    stages = []
    for _ in range(2):
        r = rng.randint(2, 3)
        stages.append(StageParams(r, tuple(rng.choice((0, rng.randint(1, 9), rng.randrange(2**64)))
                                           for _ in range(r))))
    last = stages[-1]
    stages[-1] = StageParams(last.r, last.s[:-1] + (2**63 + rng.randrange(2**63),))
    return ConstructionSpec(rng.randint(1, 3), tuple(stages))


def deep_spec(rng):
    """56 two-column stages: h_57 lies in (2^53, 2^62), so the tower is
    int64, while its stage-1 offset grid GRID * r_1 * ... * r_56 = 2^66
    passes 2^63."""
    return ConstructionSpec(rng.randint(1, 3), tuple(
        StageParams(2, (rng.randint(0, 2), rng.randint(0, 2))) for _ in range(56)))


def few_levels(rng, tower, stage, most):
    """A level set of up to `most` random levels of a stage, empty one time
    in eight: small enough in measure for Poisson counts of a few points,
    on towers of any height."""
    h = tower.stage(stage).h
    k = 0 if rng.random() < 0.125 else rng.randint(1, most)
    return LevelSet.from_levels(stage, {rng.randrange(h) for _ in range(k)})


def count_on_lifted(tower, A, J, x):
    """|A_J intersect [0, x)| for each x >= 0 of the array x, read on A's
    range arrays lifted to J: the ranges starting at or below x, less the
    part of the last one at or above x."""
    s, e = tower.range_arrays(A, J)
    k = np.searchsorted(s, x, side="right")
    cum = np.concatenate(([0], np.cumsum(e - s)))
    return cum[k] - np.maximum(np.concatenate(([0], e))[k] - x, 0)


# The scalar one-point walks that the array point engine of Tower replaced,
# kept as its references: the Monte-Carlo references run them per sample.


def reference_draw(tower, A, rng):
    """A uniform level of A and an offset cell N of its level, in cells of
    mu(E_depth)/GRID."""
    prefix = A._prefix_lengths
    if not prefix[-1]:
        raise ValueError("cannot sample from an empty level set")
    pick = rng.randrange(prefix[-1])
    i = bisect.bisect_right(prefix, pick) - 1
    return A.ranges[i][0] + pick - prefix[i], rng.randrange(GRID * tower.units[A.stage])


def reference_ascend(tower, stage, level, N, d, J):
    """(level, N) of the point (stage, level, N/d) at a deeper stage J:
    column i of a level is the i-th sub-interval of its offset."""
    if J > tower.depth:
        tower.stage(tower.depth + 1)  # NeedsMoreStages
    while stage < J:
        stage += 1
        col, N = divmod(N, d * tower.units[stage])
        level += tower.stage(stage - 1).offsets[col]
    return level, N


def reference_advance(tower, stage, level, N, d, n):
    """T^n of the point (stage, level, N/d), as (J, level, N) at the first
    stage J >= stage where the level plus n stays inside the tower."""
    lvl = level
    for J in range(stage, tower.depth + 1):
        if J > stage:
            lvl, N = reference_ascend(tower, J - 1, lvl, N, d, J)
        if 0 <= lvl + n < tower.stage(J).h:
            return J, lvl + n, N
    raise NeedsMoreStages(
        f"iterating by {n} from stage {stage} level {level} exceeds "
        f"built depth {tower.depth}",
        required_depth=tower.depth + 1,
    )


def reference_in_set(tower, J, level, N, d, A):
    """Whether the point (J, level, N/d) lies in A: climbed to A.stage, or
    read in A lifted to J."""
    tower.validate_set(A)
    if J < A.stage:
        return A.contains(reference_ascend(tower, J, level, N, d, A.stage)[0])
    return tower.lift(A, J).contains(level)


def inverse_count(inverse):
    """u -> its Poisson count, from the (table, grow) pair of
    _poisson_inverse, read as _draw_points reads it: bisect_left while u is
    at most the table's top, else grow(u)."""
    cum, grow = inverse
    return lambda u: bisect.bisect_left(cum, u) if u <= cum[-1] else grow(u)


# The Fraction layout and pointwise action of the dissipative map, which
# DissipativeMap keeps only as ints over L, rebuilt from s_schedule and
# stage_new_ranges alone: the references of its set action, and the
# Monte-Carlo oracles that move points by S.


class ReferenceMap:
    """Per stage b: its new-block level ranges, sub-block count c and width
    w, first block K, and where its even blocks start (pos) and minus where
    its odd blocks end (neg) on the coordinate axis.  Block o of a stage is
    its o-th new level, and even or odd by its global index K + o.  P
    translates by delta, the width w of stage 1."""

    def __init__(self, tower, depth=None):
        self.tower = tower
        parts, _ = s_schedule(tower, depth)
        self.depth = len(parts)
        self.stages = {}
        K, pos, neg = 0, Fraction(0), Fraction(0)
        for b, c in parts.items():
            ranges = stage_new_ranges(tower, b)
            cum = list(itertools.accumulate((e - a for a, e in ranges), initial=0))
            n = cum.pop()
            w = tower.stage(b).base_measure / c
            n_even = (n + 1 - K % 2) // 2  # blocks i < n with K + i even
            self.stages[b] = SimpleNamespace(b=b, ranges=ranges, cum=cum, n=n, c=c, w=w, K=K,
                                             pos=pos, neg=neg, n_even=n_even, n_odd=n - n_even)
            K, pos, neg = K + n, pos + n_even * w, neg + (n - n_even) * w
        self.delta = self.stages[1].w
        self.M_pos, self.M_neg = pos, neg
        sis = list(self.stages.values())
        self.bands = ([(-(si.neg + si.n_odd * si.w), -si.neg, si.b)  # (lo, hi, stage)
                       for si in reversed(sis) if si.n_odd]
                      + [(si.pos, si.pos + si.n_even * si.w, si.b) for si in sis if si.n_even])

    def start(self, si, o):
        """Where block o of stage si starts its first sub-block on the axis."""
        if (si.K + o) % 2 == 0:
            return si.pos + o // 2 * si.w
        return -(si.neg + (o // 2 + 1) * si.w)

    def locate(self, x):
        """(stage, block, offset in its first sub-block) of the coordinate x."""
        b = next((b for lo, hi, b in self.bands if lo <= x < hi), None)
        if b is None:
            raise NeedsMoreBlocks(f"coordinate {x} outside the enumerated range "
                                  f"[{-self.M_neg}, {self.M_pos})")
        si = self.stages[b]
        if x >= 0:
            j, off = divmod(x - si.pos, si.w)
            return si, si.K % 2 + 2 * int(j), off
        j, off = divmod(x + si.neg, si.w)
        return si, 1 - si.K % 2 + 2 * (-int(j) - 1), off

    def apply(self, p, inverse=False):
        """S, or its inverse, of the point p: the rotation of p's sub-block
        within its block, or P from the last sub-block into the first one
        of the block delta further on the axis, and back."""
        p = self.tower.normalize_point(p)
        if p.stage > self.depth:
            raise NeedsMoreBlocks(f"point born at stage {p.stage} beyond depth {self.depth}")
        si = self.stages[p.stage]
        i, uo = divmod(p.offset, si.w)
        i = int(i) + (-1 if inverse else 1)
        if 0 <= i < si.c:
            return PointState(p.stage, p.level, i * si.w + uo)
        r = bisect.bisect_right([a for a, _ in si.ranges], p.level) - 1
        o = si.cum[r] + p.level - si.ranges[r][0]
        x = self.start(si, o) + uo + (-self.delta if inverse else self.delta)
        si2, o2, off = self.locate(x)
        r = bisect.bisect_right(si2.cum, o2) - 1
        level = si2.ranges[r][0] + o2 - si2.cum[r]
        return PointState(si2.b, level, (si2.c - 1) * si2.w + off if inverse else off)


def outcome(fn, *args):
    """fn(*args), or the type, message and required depth of its error."""
    try:
        return fn(*args)
    except (ValueError, NeedsMoreStages) as exc:
        return type(exc), str(exc), getattr(exc, "required_depth", None)


@pytest.fixture(scope="session")
def running_tower() -> Tower:
    return Tower(RUNNING_SPEC, depth=3)


@pytest.fixture(scope="session")
def demo_spec() -> ConstructionSpec:
    return demo_singer_spec()


@pytest.fixture(scope="session")
def demo_tower(demo_spec) -> Tower:
    return Tower(demo_spec, depth=6)


@pytest.fixture(scope="session")
def demo_config(demo_spec, tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "demo.json"
    path.write_text(json.dumps({"construction": demo_spec.to_dict()}))
    return path


def frac(a, b=1) -> Fraction:
    return Fraction(a, b)
