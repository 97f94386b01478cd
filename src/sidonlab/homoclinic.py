"""Dissipative companion map S = P * cyclic sub-block rotation, homoclinicity
defect enclosures, and the skew-product flow conjugation defect.

The space splits into "new blocks": the stage-1 levels first, then each
stage's spacer levels in ascending level order.  Each block D_k is cut into
s_k equal sub-blocks; the rotation sends sub-block i to i+1 (mod s_k), and
whenever a point lands in the first sub-block B_k^1 the dissipative part P
translates it by delta along a signed concatenation coordinate over the
union of the B_k^1 (even k on the positive axis, odd k on the negative).

Every sub-block width mu(E_b)/c_b is a multiple of 1/L, L the lcm of their
denominators, and so are delta, the stage bases and the bands: a map keeps
them, and its set action its pieces, as Python ints in units of 1/L.  The
Lemma 6.1 defect adds its classes as ints in units of mu(E_depth)/C.  The
API edge stays Fraction: delta, M_pos, M_neg, w, pos_base, neg_base,
b1_start, locate, apply and the reports' values.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import correlation
from .construction import LevelSet, NeedsMoreStages, PointState, Tower
from .correlation import _checked_shifts, _stopping_stages, default_epsilon
from .enclosure import ZERO, MeasureEnclosure


class NeedsMoreBlocks(RuntimeError):
    """The orbit left the enumerated portion of the block space."""


# ---------------------------------------------------------------------------
# new-block enumeration and the sub-block count schedule


@dataclass(frozen=True)
class NewBlock:
    k: int
    birth_stage: int
    level: int
    measure: Fraction
    parts: int


def stage_new_ranges(tower: Tower, b: int) -> tuple[tuple[int, int], ...]:
    """Level ranges born at stage b: all of stage 1, else the complement of
    the column-copy levels."""
    st = tower.stage(b)
    if b == 1:
        return ((0, st.h),)
    prev = tower.stage(b - 1)
    ranges = []
    cursor = 0
    for o in prev.offsets:
        if o > cursor:
            ranges.append((cursor, o))
        cursor = o + prev.h
    if cursor < st.h:
        ranges.append((cursor, st.h))
    return tuple(ranges)


def _checked_depth(tower: Tower, depth: int | None) -> int:
    """The depth to enumerate, the tower's for None; past it, NeedsMoreStages."""
    if depth is not None and depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    return tower.depth if depth is None else depth


def s_schedule(tower: Tower, depth: int | None = None):
    """Per-stage sub-block count c_j = max(2, ceil(new mass at stage j)),
    assigned to every block born at stage j.  Returns (parts dict, ledger
    rows with the divergence partial sums of sum mu(D_k)/s_k)."""
    depth = _checked_depth(tower, depth)
    parts: dict[int, int] = {}
    rows = []
    partial = Fraction(0)
    for b in range(1, depth + 1):
        ranges = stage_new_ranges(tower, b)
        n_b = sum(e - a for a, e in ranges)
        mass = n_b * tower.stage(b).base_measure
        c = max(2, math.ceil(mass))
        parts[b] = c
        partial += mass / c
        rows.append({"stage": b, "new_levels": n_b, "new_mass": mass, "c": c,
                     "contribution": mass / c, "partial_sum": partial})
    return parts, rows


def enumerate_new_blocks(tower: Tower, depth: int | None = None):
    """Blocks in construction order; total mass equals mu(X_depth)."""
    depth = _checked_depth(tower, depth)
    parts, _ = s_schedule(tower, depth)
    blocks = []
    for b in range(1, depth + 1):
        mu = tower.stage(b).base_measure
        for a, e in stage_new_ranges(tower, b):
            for lvl in range(a, e):
                blocks.append(NewBlock(len(blocks), b, lvl, mu, parts[b]))
    return blocks


# ---------------------------------------------------------------------------
# the dissipative map


@dataclass
class _StageIndex:
    b: int
    ranges: tuple[tuple[int, int], ...]
    starts: list[int]
    cum: list[int]  # cumulative level counts per range
    n: int
    c: int
    K: int  # first global block index of this stage
    first_even: int
    first_odd: int
    n_even: int
    n_odd: int
    w: Fraction  # sub-block width
    pos_base: Fraction  # where the stage's even blocks start, and
    neg_base: Fraction  # minus where its odd blocks end
    W: int  # w, pos_base and neg_base in units of 1/L
    pos: int
    neg: int

    def rank(self, level: int) -> int:
        i = bisect.bisect_right(self.starts, level) - 1
        a, e = self.ranges[i]
        if not a <= level < e:
            raise ValueError(f"level {level} is not a new-block level of stage {self.b}")
        return self.cum[i] + (level - a)

    def select(self, ordinal: int) -> int:
        i = bisect.bisect_right(self.cum, ordinal) - 1
        return self.ranges[i][0] + (ordinal - self.cum[i])


class DissipativeMap:
    """S = P * S~ on the enumerated blocks of the tower."""

    def __init__(self, tower: Tower, depth: int | None = None):
        self.tower = tower
        self.depth = _checked_depth(tower, depth)
        self.parts, _ = s_schedule(tower, self.depth)
        widths = [tower.stage(b).base_measure / c for b, c in self.parts.items()]
        self.L = L = math.lcm(*(w.denominator for w in widths))
        self.stages: dict[int, _StageIndex] = {}
        K = pos = neg = 0
        for b, w in enumerate(widths, 1):
            ranges = stage_new_ranges(tower, b)
            cum = list(itertools.accumulate((e - a for a, e in ranges), initial=0))
            n_b = cum.pop()
            W = w.numerator * (L // w.denominator)
            first_even, first_odd = K + K % 2, K + 1 - K % 2
            n_even = (n_b + 1 - K % 2) // 2
            n_odd = n_b - n_even
            self.stages[b] = _StageIndex(
                b, ranges, [a for a, _ in ranges], cum, n_b, self.parts[b], K, first_even,
                first_odd, n_even, n_odd, w, Fraction(pos, L), Fraction(neg, L), W, pos, neg,
            )
            K, pos, neg = K + n_b, pos + n_even * W, neg + n_odd * W
        self.total_blocks = K
        self.M_pos, self.M_neg = Fraction(pos, L), Fraction(neg, L)
        self.delta = self.stages[1].w
        # contiguous coordinate bands over [-M_neg, M_pos), in units of 1/L
        sis = list(self.stages.values())
        self.bands = [(-(si.neg + si.n_odd * si.W), -si.neg, si.b)  # (lo, hi, stage)
                      for si in reversed(sis) if si.n_odd]
        self.bands += [(si.pos, si.pos + si.n_even * si.W, si.b) for si in sis if si.n_even]
        self._band_los = [lo for lo, _, _ in self.bands]

    # -- block/coordinate bookkeeping -----------------------------------

    def block_of(self, stage: int, level: int) -> int:
        si = self.stages[stage]
        return si.K + si.rank(level)

    def block_stage(self, k: int) -> _StageIndex:
        for b in range(1, self.depth + 1):
            si = self.stages[b]
            if si.K <= k < si.K + si.n:
                return si
        raise NeedsMoreBlocks(f"block {k} beyond enumerated depth {self.depth}")

    def block_level(self, k: int) -> tuple[int, int]:
        si = self.block_stage(k)
        return si.b, si.select(k - si.K)

    def _start(self, k: int) -> int:
        """b1_start(k) in units of 1/L."""
        si = self.block_stage(k)
        if k % 2 == 0:
            return si.pos + (k - si.first_even) // 2 * si.W
        return -(si.neg + ((k - si.first_odd) // 2 + 1) * si.W)

    def b1_start(self, k: int) -> Fraction:
        return Fraction(self._start(k), self.L)

    def _band_at(self, x):
        """The band (lo, hi, stage) holding the coordinate x/L; x is an int,
        or a Fraction for locate."""
        i = bisect.bisect_right(self._band_los, x) - 1
        if i < 0 or x >= self.bands[i][1]:
            raise NeedsMoreBlocks(f"coordinate {Fraction(x, self.L)} outside the enumerated "
                                  f"range [{-self.M_neg}, {self.M_pos})")
        return self.bands[i]

    def locate(self, x: Fraction) -> tuple[int, Fraction]:
        """Coordinate -> (block, offset within its first sub-block)."""
        x = x * self.L
        si = self.stages[self._band_at(x)[2]]
        if x >= 0:
            q, r = divmod(x - si.pos, si.W)
            return si.first_even + 2 * int(q), Fraction(r, self.L)
        q, r = divmod(-x - si.neg, si.W)
        if r == 0:
            return si.first_odd + 2 * (int(q) - 1), Fraction(0)
        return si.first_odd + 2 * int(q), Fraction(si.W - r, self.L)

    # -- pointwise action -------------------------------------------------

    def apply(self, p: PointState, inverse: bool = False) -> PointState:
        p = self.tower.normalize_point(p)
        if p.stage > self.depth:
            raise NeedsMoreBlocks(f"point born at stage {p.stage} beyond enumerated depth "
                                  f"{self.depth}")
        si = self.stages[p.stage]
        k = si.K + si.rank(p.level)
        i, uo = divmod(p.offset, si.w)
        i = int(i) + (-1 if inverse else 1)
        if 0 <= i < si.c:  # the rotation
            return PointState(p.stage, p.level, i * si.w + uo)
        # P: from the last sub-block into the first one of the block delta
        # further on, and back
        k2, off2 = self.locate(self.b1_start(k) + uo + (-self.delta if inverse else self.delta))
        si2 = self.block_stage(k2)
        return PointState(si2.b, si2.select(k2 - si2.K),
                          (si2.c - 1) * si2.w + off2 if inverse else off2)

    # -- set action on (band, footprint interval, phase) pieces -----------

    def _split_interval(self, lo: int, hi: int):
        out = []
        while lo < hi:
            _, bhi, b = self._band_at(lo)
            out.append((b, lo, min(hi, bhi)))
            lo = min(hi, bhi)
        return out

    def step_pieces(self, pieces, inverse: bool = False):
        """One application of S to pieces (stage, lo, hi, phase) of ints; a
        piece is the set of points with first-sub-block coordinate in
        [lo/L, hi/L) sitting in sub-block `phase` of their block."""
        d = self.stages[1].W
        out = []
        for b, lo, hi, phase in pieces:
            if not inverse:
                if phase < self.stages[b].c - 1:
                    out.append((b, lo, hi, phase + 1))
                else:
                    out += [(b2, l2, h2, 0) for b2, l2, h2 in self._split_interval(lo + d, hi + d)]
            elif phase > 0:
                out.append((b, lo, hi, phase - 1))
            else:
                out += [(b2, l2, h2, self.stages[b2].c - 1)
                        for b2, l2, h2 in self._split_interval(lo - d, hi - d)]
        return out


def wandering_check(dmap: DissipativeMap, zmax: int) -> dict:
    """Exact disjointness of S^z Y for |z| <= zmax, with Y the first
    sub-block of block 0 (coordinate interval [0, delta))."""
    layers = {0: [(1, 0, dmap.stages[1].W, 0)]}
    fwd = back = layers[0]
    for z in range(1, zmax + 1):
        layers[z] = fwd = dmap.step_pieces(fwd)
        layers[-z] = back = dmap.step_pieces(back, inverse=True)
    tagged = sorted(((phase, lo, hi, z) for z, pieces in layers.items()
                     for _, lo, hi, phase in pieces), key=lambda t: t[:2])
    clash = None
    for a, bb in zip(tagged, tagged[1:]):
        if a[0] == bb[0] and bb[1] < a[2]:
            clash = tuple((ph, Fraction(lo, dmap.L), Fraction(hi, dmap.L), z)
                          for ph, lo, hi, z in (a, bb))
            break
    covered = Fraction(sum(hi - lo for pieces in layers.values() for _, lo, hi, _ in pieces),
                       dmap.L)
    total = sum(si.n * dmap.tower.stage(b).base_measure for b, si in dmap.stages.items())
    return {
        "passed": clash is None,
        "clash": clash,
        "pieces": sum(len(p) for p in layers.values()),
        "covered_mass": covered,
        "covered_fraction": covered / total,
        "zmax": zmax,
    }


PIECE_SAMPLES_PER_STAGE = 3  # blocks per stage that retention_audit pushes through S


def retention_audit(dmap: DissipativeMap):
    """mu(S D_k intersect D_k)/mu(D_k) >= 1 - 1/s_k for every enumerated
    block.  The retention is the same closed form for all blocks of a stage
    ((c-1)w + the part of the translated first sub-block that re-enters);
    a sample of blocks per stage is re-verified with the piece machinery."""
    rows = []
    delta = dmap.stages[1].W
    for b in range(1, dmap.depth + 1):
        si = dmap.stages[b]
        if si.n == 0:
            continue
        retained = (si.c - 1) * si.W + max(0, si.W - delta)  # in units of 1/L
        retention = Fraction(retained, dmap.L) / dmap.tower.stage(b).base_measure
        bound = 1 - Fraction(1, si.c)
        row = {"stage": b, "blocks": si.n, "parts": si.c, "retention": retention,
               "bound": bound, "ok": retention >= bound, "piece_verified": 0}
        # independent audit: push a whole block through S piece by piece; the
        # sub-blocks 0 .. c-2 only advance, so sub-block 0 stands for all c - 1
        for k in range(si.K, min(si.K + PIECE_SAMPLES_PER_STAGE, si.K + si.n)):
            lo = dmap._start(k)
            hi = lo + si.W
            try:
                img = dmap.step_pieces([(b, lo, hi, 0), (b, lo, hi, si.c - 1)])
            except NeedsMoreBlocks:
                continue
            back_in = sum(max(0, min(h2, hi) - max(l2, lo))
                          for b2, l2, h2, ph in img if b2 == b and ph == 0)
            stay = (si.c - 1) * sum(h2 - l2 for b2, l2, h2, ph in img if ph > 0 and l2 == lo)
            if stay + back_in != retained:
                row["ok"] = False
            row["piece_verified"] += 1
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Lemma-style homoclinicity defect
#
# The escape loop over E_j with shift t = k + n (keep E_j's levels below
# h_J - t, lift the escaped top, repeat) stops at the stage J and escape
# count that correlation._stopping_stages gives for t, as for the pair
# grid.  A piece kept at an earlier stage lifts to copies kept at J, so the
# image is (E_j at J, below h_J - t) + t, and each copy of E_j at J is one
# level.  The image depends on t alone, and one array descent classifies
# the levels of every image of a stopping stage at once.
#
# A full new block born at stage b counts min(1, 2/c_b) mu(E_b), and every
# other class whole levels of some stage, so all four classes are integers
# in units of mu(E_depth)/C, with C the lcm of the c_b above 2.


def _defect_classes(tower: Tower, j: int, pairs, epsilon: Fraction | None):
    """``lemma61_defect_grid`` in integers: (where, classes, unit, den).
    Pair i has the shift classes[where[i]] = (t, J, kept levels, residual,
    copy slack, partial slack, full blocks, full-block defect), the four
    classes in units of unit; mu(E_j) is den units."""
    h_j = tower.stage(j).h
    ts = []
    for k, n in pairs:  # the first bad pair raises
        if not 0 <= k <= h_j:
            raise ValueError(f"k={k} outside [0, {h_j}]")
        h_next = tower.stage(j + 1).h
        if not h_j <= n <= h_next:
            raise ValueError(f"n={n} outside [{h_j}, {h_next}]")
        ts += _checked_shifts(tower, [k + n])
    parts, _ = s_schedule(tower)
    C = math.lcm(*(c for c in parts.values() if c > 2))
    unit, den = tower.stage(tower.depth).base_measure / C, C * tower.units[j]
    if not ts:
        return [], [], unit, den
    E = LevelSet(j, ((0, 1),))
    if epsilon is None:
        epsilon = default_epsilon(tower, E)
    shifts, where = np.unique(np.array(ts, dtype=tower.dtype), return_inverse=True)
    stop, esc = _stopping_stages(tower, E, j, shifts, epsilon)
    # per shift: its image's levels, those in copies of X_j and in partial
    # new blocks, and its full new blocks per birth stage
    kept, copies, partial = (np.zeros(len(shifts), dtype=np.int64) for _ in range(3))
    full = np.zeros((len(shifts), tower.depth + 1), dtype=np.int64)
    for J in np.unique(stop).tolist():
        at = np.flatnonzero(stop == J)
        levels = tower.range_arrays(E, J)[0]
        kept[at] = np.searchsorted(levels, tower.stage(J).h - shifts[at])
        per_block = np.array(tower.units) // tower.units[J]  # stage-J levels
        step = max(1, correlation.CHUNK // len(levels))
        for i in range(0, len(at), step):
            c = kept[at[i:i + step]]
            row = np.repeat(at[i:i + step], c)
            img = levels[np.arange(len(row)) - np.repeat(np.cumsum(c) - c, c)] + shifts[row]
            # A level that descends to stage j lies in a copy of X_j.  The
            # others group by (shift, birth stage, birth level); the images
            # are disjoint, so a group fills its new block exactly when it
            # has as many levels as the block has at stage J.
            b, l0, _ = tower.descend(J, img, j)
            np.add.at(copies, row[b == j], 1)
            new = b > j
            order = np.lexsort((l0[new], b[new], row[new]))
            row, b, l0 = (x[new][order] for x in (row, b, l0))
            first = np.ones(len(row), dtype=bool)
            first[1:] = (row[1:] != row[:-1]) | (b[1:] != b[:-1]) | (l0[1:] != l0[:-1])
            size = np.diff(np.r_[np.flatnonzero(first), len(row)])
            row, b = row[first], b[first]
            whole = size == per_block[b]
            np.add.at(full, (row[whole], b[whole]), 1)
            np.add.at(partial, row[~whole], size[~whole])
    block_defect = [0] + [tower.units[b] * C * min(2, c) // c for b, c in parts.items()]
    classes = []
    for t, J, e, kk, cp, pa, fu in zip(shifts.tolist(), stop.tolist(), esc.tolist(),
                                        kept.tolist(), copies.tolist(), partial.tolist(),
                                        full.tolist()):
        w = tower.units[J] * C  # a stage-J level
        classes.append((t, J, kk, e * w, cp * w, pa * w, sum(fu),
                        sum(x * d for x, d in zip(fu, block_defect) if x)))
    return where.tolist(), classes, unit, den


def lemma61_defect_grid(tower: Tower, j: int, pairs, epsilon: Fraction | None = None):
    """(enclosure, info) of ``lemma61_defect`` for every (k, n) of
    ``pairs``, in order, from one escape grid over E_j (see above).  In
    place of ``info["pieces"]``, ``info["stage"]`` is the stopping stage J
    and ``info["image"]`` the array of the image's stage-J levels."""
    where, classes, unit, den = _defect_classes(tower, j, pairs, epsilon)
    E = LevelSet(j, ((0, 1),))
    made = []
    for t, J, kk, res, cp, pa, nfull, fd in classes:
        info = {
            "stage": J,
            "image": tower.range_arrays(E, J)[0][:kk] + t,
            "residual": res * unit,
            "full_blocks": nfull,
            "full_defect": fd * unit,
            "copy_slack": cp * unit,
            "partial_slack": pa * unit,
        }
        hi = Fraction(min(fd + cp + pa + res, den), den)
        made.append((MeasureEnclosure(ZERO, hi), info))
    return [made[i] for i in where]


def lemma61_defect(tower: Tower, j: int, k: int, n: int, epsilon: Fraction | None = None):
    """Enclosure of the conditional defect 1 - mu(S T^{n+k} E_j | T^{n+k} E_j),
    and an info dict: the one-pair call of ``lemma61_defect_grid``.

    The image level set is resolved with escape enclosures, then each level
    is classified by birth block: levels tiling a full new block born after
    stage j contribute at most 2/s(D) of the block (one sub-block leaves
    under P, one enters); levels inside copies of X_j, partial-block slices
    and escaped residual count wholly as slack.  ``info["pieces"]`` holds
    the resolved image as at most one (stage, LevelSet)."""
    enc, info = lemma61_defect_grid(tower, j, [(k, n)], epsilon)[0]
    J, image = info.pop("stage"), info.pop("image")
    info["pieces"] = [(J, LevelSet.from_arrays(J, image, image + 1))] if len(image) else []
    return enc, info


def _sweep_pairs(rng, h_j: int, h_next: int, count: int) -> list[tuple[int, int]]:
    """``count`` pairs (randint(0, h_j), randint(h_j, h_next)) from rng, with
    randint written out as random.Random's own rule, as in
    construction._draw_points: getrandbits of the width's bit length,
    redrawn while not below the width."""
    bits, a, b = rng.getrandbits, h_j + 1, h_next - h_j + 1
    ka, kb = a.bit_length(), b.bit_length()
    pairs = []
    for _ in range(count):
        k = bits(ka)
        while k >= a:
            k = bits(ka)
        n = bits(kb)
        while n >= b:
            n = bits(kb)
        pairs.append((k, h_j + n))
    return pairs


def homoclinic_sweep(
    tower: Tower,
    j_range,
    samples_per_stage: int,
    seed: int = 0,
    epsilon: Fraction | None = None,
):
    """Defect enclosures over sampled (k, n) per stage, stage boundary
    n = h_j always included, one grid per stage.  Returns (rows, per-stage
    max hi)."""
    rng = random.Random(seed)
    rows = []
    stage_max: dict[int, Fraction] = {}
    for j in j_range:
        h_j = tower.stage(j).h
        h_next = tower.stage(j + 1).h
        pairs = [(0, h_j), (0, h_next)] + _sweep_pairs(rng, h_j, h_next, samples_per_stage - 2)
        # lemma61_defect_grid's enclosure tops and slacks, from its integers
        where, classes, unit, den = _defect_classes(tower, j, pairs, epsilon)
        his = [min(fd + cp + pa + res, den) for _, _, _, res, cp, pa, _, fd in classes]
        gaps = [res + cp + pa for _, _, _, res, cp, pa, _, _ in classes]
        # one Fraction per distinct top and slack, shared by the rows that read it
        tops = {hi: Fraction(hi, den) for hi in set(his)}
        slacks = {g: g * unit for g in set(gaps)}
        for (kk, nn), i in zip(pairs, where):
            rows.append({"j": j, "k": kk, "n": nn, "defect_lo": ZERO,
                         "defect_hi": tops[his[i]], "slack": slacks[gaps[i]]})
        stage_max[j] = max(stage_max.get(j, ZERO), tops[max(his)])
    return rows, stage_max


# ---------------------------------------------------------------------------
# skew-product flow conjugation defect


# phi on a float64 array.  1.0 / (1.0 + y) is IEEE add and divide, as in
# Python; np.exp differs from math.exp in the last bit on some inputs, so
# exp stays math.exp per element.
PHI_CATALOG = {
    "reciprocal": lambda y: 1.0 / (1.0 + y),
    "exp": lambda y: np.fromiter(map(math.exp, (-y).tolist()), float, len(y)),
}


@dataclass(frozen=True)
class FlowParams:
    phi: str
    t: float
    rect: tuple[float, float, float, float] = (0.0, 1.0, 0.0, 1.0)

    def phi_fn(self):
        try:
            fn = PHI_CATALOG[self.phi]
        except KeyError:
            raise ValueError(
                f"unknown phi {self.phi!r}; catalog: {sorted(PHI_CATALOG)}"
            ) from None
        vals = fn(np.array([0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0])).tolist()
        if any(v <= 0 for v in vals) or any(
            v2 > v1 + 1e-12 for v1, v2 in zip(vals, vals[1:])
        ):
            raise ValueError(f"phi {self.phi!r} must be positive and nonincreasing")
        return fn


def _flow_draws(rng, count: int, pairs):
    """The next ``count`` samples (randrange(2^40), random()) of rng, read
    from its 32-bit output words.  ``pairs`` holds the words the last call
    drew but did not decode; returns (offsets, xs, pairs left over).

    CPython builds each of these draws from two consecutive words, low word
    first, so a little-endian uint64 holds one draw's pair w0 | w1 << 32.
    An attempt getrandbits(41) is w0 | (w1 >> 23) << 32, kept iff w1's top
    bit is 0; random() is ((w0 >> 5) 2^26 + (w1 >> 6)) / 2^53, exact in
    float64.  The pair after a rejected attempt is an attempt, after a kept
    one its x, after an x an attempt.  From the last rejection on, attempts
    and x alternate, so an x with the top bit set lies an even distance
    after it: a pair is an attempt iff it lies an odd distance after the
    last earlier pair with the top bit set."""
    offs, xs = [], []
    while count:
        # a sample takes 3 pairs on average, variance 2: draw one sd more
        m = 3 * count + math.isqrt(2 * count) + 1
        new = np.frombuffer(rng.getrandbits(64 * m).to_bytes(8 * m, "little"), "<u8")
        pairs = np.concatenate((pairs, new))
        top = pairs >> 63 == 1
        k = np.arange(len(pairs))
        odd = (k - np.maximum.accumulate(np.where(top, k, -1))) & 1 == 1
        kept = np.flatnonzero((odd & ~top)[:-1])[:count]  # each with its x after it
        w, x = pairs[kept], pairs[kept + 1]
        offs.append((w & 0xFFFFFFFF | w >> 55 << 32).astype(np.int64))
        xs.append(((x & 0xFFFFFFFF) >> 5) * 67108864.0 + (x >> 38))
        count -= len(kept)
        pairs = pairs[kept[-1] + 2 if len(kept) else 0:]
    return np.concatenate(offs), np.concatenate(xs) * (1.0 / 9007199254740992.0), pairs


def flow_defect(
    tower: Tower,
    params: FlowParams,
    n: int,
    samples: int,
    seed: int,
) -> tuple[float, float]:
    """MC estimate of || chi_R - chi_R o (T^{-n} S^t T^n) ||_2 for the
    rectangle R, where the conjugated flow moves x by phi(coord(T^n y)) * t.
    Returns (estimate, stderr).  Per sample, randrange(2^40) gives y's
    offset index and random() gives x; correlation.CHUNK samples at a time
    are decoded from the generator's words by _flow_draws, then moved,
    passed to phi and tested on arrays."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    a, b, c, d = (Fraction(str(v)) for v in params.rect)
    if not (a < b and c < d):
        raise ValueError("rectangle must have positive area")
    if c < 0:
        raise ValueError("rectangle must lie in the tower: c >= 0")
    if params.t == 0:
        return 0.0, 0.0
    try:
        area = float((b - a) * (d - c))
    except OverflowError:
        raise ValueError("rectangle area exceeds the float range") from None
    phi = params.phi_fn()
    # embed and evaluate in the same concatenation coordinate: the deepest
    # built stage, so coord(R^0 y) = y exactly
    J = tower.depth
    if tower.stage(J).tower_measure < d:
        raise NeedsMoreStages(
            f"tower measure {tower.stage(J).tower_measure} < {d}",
            required_depth=J + 1,
        )
    base = tower.stage(J).base_measure
    h = tower.stage(J).h
    grid = 1 << 40
    # At stage J, T^n is the translation y -> y + n*mu(E_J) while the level
    # stays below h_J.  Over one common denominator D, a sample is
    # y = (Y0 + W*i)/D and its image Z/D, Z = Y + n*B, in the tower iff
    # 0 <= Z < h*B.  Z/D rounds correctly as int / int, and so on int64
    # while Z and D stay below 2^53, where int to float is exact.
    w = (d - c) / grid
    D = math.lcm(c.denominator, w.denominator, base.denominator)
    Y0 = c.numerator * (D // c.denominator)
    W = w.numerator * (D // w.denominator)
    B = base.numerator * (D // base.denominator)
    exact = np.int64 if max(D, abs(Y0) + W * grid + abs(n * B)) < 2**53 else object
    rng = random.Random(seed)
    pairs = np.zeros(0, np.uint64)
    out, fa, fb = 0, float(a), float(b)
    for lo in range(0, samples, correlation.CHUNK):
        i, u, pairs = _flow_draws(rng, min(correlation.CHUNK, samples - lo), pairs)
        Z = Y0 + n * B + W * i.astype(exact)
        esc = np.flatnonzero((Z < 0) | (Z >= h * B)) if n else ()
        if len(esc):
            Y = int(Z[esc[0]]) - n * B
            tower.advance(J, [Y // B], [Y % B], B, n)  # raises NeedsMoreStages
        f = phi(np.asarray(Z / D, dtype=float))
        with np.errstate(all="ignore"):  # inf and nan pass silently, as in Python
            x2 = fa + (fb - fa) * u + f * params.t
            out += len(u) - int(np.count_nonzero((fa <= x2) & (x2 <= fb)))
    p_hat = out / samples
    defect = math.sqrt(2.0 * area * p_hat)
    sigma_p = math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / samples) / samples)
    stderr = area * sigma_p / defect if defect > 0 else math.sqrt(2.0 * area * sigma_p)
    return defect, stderr
