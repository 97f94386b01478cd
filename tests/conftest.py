import bisect
import json
from fractions import Fraction

import numpy as np
import pytest

from sidonlab import ConstructionSpec, LevelSet, NeedsMoreStages, StageParams, Tower, singer_set
from sidonlab.construction import GRID
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
