import bisect
import math
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sidonlab import (
    ConstructionSpec,
    DissipativeMap,
    FlowParams,
    LevelSet,
    NeedsMoreBlocks,
    NeedsMoreStages,
    PointState,
    StageParams,
    Tower,
    enumerate_new_blocks,
    flow_defect,
    homoclinic_sweep,
    lemma61_defect,
    lemma61_defect_grid,
    retention_audit,
    s_schedule,
    wandering_check,
)
from sidonlab import correlation
from sidonlab.homoclinic import PHI_CATALOG, _flow_draws, _sweep_pairs, stage_new_ranges
from tests.conftest import ReferenceMap, deep_spec, huge_spec, outcome


def reference_flow_defect(tower, params, n, samples, seed):
    """The Fraction loop that flow_defect replaced: sample y at the deepest
    stage, iterate the point n steps, read its coordinate back there.  One
    randrange and one random() call per sample; phi on a one-element array."""
    a, b, c, d = (Fraction(str(v)) for v in params.rect)
    if params.t == 0:
        return 0.0, 0.0
    phi = params.phi_fn()
    J = tower.depth
    base = tower.stage(J).base_measure
    rng = random.Random(seed)
    grid = 1 << 40
    out = 0
    fa, fb = float(a), float(b)
    for _ in range(samples):
        y = c + (d - c) * Fraction(rng.randrange(grid), grid)
        lvl, off = divmod(y, base)
        p = PointState(J, int(lvl), off)
        q = tower.point_to_stage(tower.iterate(p, n) if n else p, J)
        y2 = float(q.level * base + q.offset)
        x2 = fa + (fb - fa) * rng.random() + float(phi(np.array([y2]))[0]) * params.t
        if not fa <= x2 <= fb:
            out += 1
    p_hat = out / samples
    area = float((b - a) * (d - c))
    defect = math.sqrt(2.0 * area * p_hat)
    sigma_p = math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / samples) / samples)
    stderr = area * sigma_p / defect if defect > 0 else math.sqrt(2.0 * area * sigma_p)
    return defect, stderr


def reference_step_pieces(ref, pieces, inverse=False):
    """The Fraction set action that step_pieces replaced, on pieces
    (stage, coord lo, coord hi, phase) with Fraction coordinates, over the
    bands of a ReferenceMap."""
    los = [lo for lo, _, _ in ref.bands]

    def split(lo, hi):
        out = []
        x = lo
        while x < hi:
            i = bisect.bisect_right(los, x) - 1
            if i < 0 or x >= ref.bands[i][1]:
                raise NeedsMoreBlocks(f"coordinate {x} outside the enumerated range "
                                      f"[{-ref.M_neg}, {ref.M_pos})")
            e = min(hi, ref.bands[i][1])
            out.append((ref.bands[i][2], x, e))
            x = e
        return out

    out = []
    for b, lo, hi, phase in pieces:
        c = ref.stages[b].c
        if not inverse:
            if phase < c - 1:
                out.append((b, lo, hi, phase + 1))
            else:
                for b2, l2, h2 in split(lo + ref.delta, hi + ref.delta):
                    out.append((b2, l2, h2, 0))
        else:
            if phase > 0:
                out.append((b, lo, hi, phase - 1))
            else:
                for b2, l2, h2 in split(lo - ref.delta, hi - ref.delta):
                    out.append((b2, l2, h2, ref.stages[b2].c - 1))
    return out


def reference_wandering_check(ref, zmax):
    """The Fraction wandering check that wandering_check replaced."""
    start = [(1, Fraction(0), ref.delta, 0)]
    layers = {0: start}
    fwd = start
    back = start
    for z in range(1, zmax + 1):
        fwd = reference_step_pieces(ref, fwd)
        layers[z] = fwd
        back = reference_step_pieces(ref, back, inverse=True)
        layers[-z] = back
    tagged = []
    for z, pieces in layers.items():
        for b, lo, hi, phase in pieces:
            tagged.append((phase, lo, hi, z))
    tagged.sort(key=lambda t: (t[0], t[1]))
    disjoint = True
    clash = None
    for a, bb in zip(tagged, tagged[1:]):
        if a[0] == bb[0] and bb[1] < a[2]:
            disjoint = False
            clash = (a, bb)
            break
    covered = sum(hi - lo for pieces in layers.values() for _, lo, hi, _ in pieces)
    total = sum(
        ref.stages[b].n * ref.tower.stage(b).base_measure
        for b in range(1, ref.depth + 1)
    )
    return {
        "passed": disjoint,
        "clash": clash,
        "pieces": sum(len(p) for p in layers.values()),
        "covered_mass": covered,
        "covered_fraction": covered / total,
        "zmax": zmax,
    }


def reference_retention_audit(ref, piece_samples_per_stage=3):
    """The Fraction retention audit that retention_audit replaced."""
    rows = []
    for b in range(1, ref.depth + 1):
        si = ref.stages[b]
        if si.n == 0:
            continue
        mu = ref.tower.stage(b).base_measure
        retained = (si.c - 1) * si.w + max(Fraction(0), si.w - ref.delta)
        row = {
            "stage": b,
            "blocks": si.n,
            "parts": si.c,
            "retention": retained / mu,
            "bound": 1 - Fraction(1, si.c),
            "ok": retained / mu >= 1 - Fraction(1, si.c),
            "piece_verified": 0,
        }
        for o in range(min(piece_samples_per_stage, si.n)):
            lo = ref.start(si, o)
            pieces = [(b, lo, lo + si.w, i) for i in range(si.c)]
            try:
                img = reference_step_pieces(ref, pieces)
            except NeedsMoreBlocks:
                continue
            back_in = sum(
                max(Fraction(0), min(h2, lo + si.w) - max(l2, lo))
                for b2, l2, h2, ph in img
                if b2 == b and ph == 0
            )
            stay = sum(h2 - l2 for b2, l2, h2, ph in img if ph > 0 and l2 == lo)
            if (stay + back_in) / mu != row["retention"]:
                row["ok"] = False
            row["piece_verified"] += 1
        rows.append(row)
    return rows


def small_spec(rng):
    """One to three stages of 2-4 columns with spacer counts up to 4."""
    return ConstructionSpec(rng.randint(1, 3), tuple(
        StageParams(r, tuple(rng.randint(0, 4) for _ in range(r)))
        for r in (rng.randint(2, 4) for _ in range(rng.randint(1, 3)))))


def result_or_error(fn, *args):
    """fn(*args), or the type and message of the NeedsMoreBlocks it raises."""
    try:
        return fn(*args)
    except NeedsMoreBlocks as exc:
        return type(exc), str(exc)


def reference_descend(tower, J, level):
    """The Fraction walk that Tower.descend replaced in lemma61_defect: birth
    stage, birth level and sub-offset of a stage-J level."""
    u = Fraction(0)
    b, lvl = J, level
    while b > 1:
        prev = tower.stage(b - 1)
        offs = prev.offsets
        i = bisect.bisect_right(offs, lvl) - 1
        if i < 0 or not offs[i] <= lvl < offs[i] + prev.h:
            break
        u += i * tower.stage(b).base_measure
        lvl -= offs[i]
        b -= 1
    return b, lvl, u


def reference_classify(tower, j, pieces, parts):
    """lemma61_defect's per-level Fraction classification of the resolved
    pieces: (full blocks, full defect, copy slack, partial slack)."""
    groups = {}
    copy_slack = Fraction(0)
    for J, ls in pieces:
        width = tower.stage(J).base_measure
        for lvl in ls.levels():
            b, l0, u = reference_descend(tower, J, lvl)
            if b <= j:
                copy_slack += width
            else:
                groups.setdefault((b, l0), []).append((u, u + width))
    full_blocks, full_defect, partial_slack = 0, Fraction(0), Fraction(0)
    for (b, l0), ivs in groups.items():
        mu_b = tower.stage(b).base_measure
        ivs.sort()
        covered, end = Fraction(0), None
        for lo, hi in ivs:
            lo = lo if end is None else max(lo, end)
            covered += max(Fraction(0), hi - lo)
            end = hi if end is None else max(end, hi)
        if covered == mu_b:
            full_blocks += 1
            full_defect += min(mu_b, 2 * mu_b / parts[b])
        else:
            partial_slack += covered
    return full_blocks, full_defect, copy_slack, partial_slack


def reference_pieces(tower, j, k, n, epsilon=None):
    """The LevelSet escape loop that lemma61_defect replaced: the resolved
    pieces (stage, T^{n+k} of the part of E_j resolved there), the escaped
    residual mass and the stage the loop stopped at."""
    t = n + k
    if epsilon is None:
        epsilon = tower.stage(j).base_measure / 1000
    J = tower.resolving_stage(j, t)
    esc = tower.lift(LevelSet.from_ranges(j, [(0, 1)]), J)
    resolved = []
    while True:
        st = tower.stage(J)
        inside = esc.clip(0, st.h - t)
        if not inside.is_empty():
            resolved.append((J, inside.shift(t)))
        out = esc.clip(st.h - t, st.h)
        residual = out.count() * st.base_measure
        if residual == 0 or residual <= epsilon or J == tower.depth:
            return resolved, residual, J
        esc = tower.lift(out, J + 1)
        J += 1


def merged_at(tower, pieces, J):
    """Reference pieces lifted to stage J and merged: the one (J, image)
    piece, or none, that lemma61_defect reports."""
    image = [r for _, ls in pieces for r in tower.lift(ls, J).ranges]
    return [(J, LevelSet.from_ranges(J, image))] if image else []


def sample_pairs(rng, tower, j, count):
    """The stage-interval corners and `count` random (k, n) of stage j."""
    h_j, h_next = tower.stage(j).h, tower.stage(j + 1).h
    return [(0, h_j), (0, h_next), (h_j, h_next)] + [
        (rng.randint(0, h_j), rng.randint(h_j, h_next)) for _ in range(count)]


def assert_grid_vs_reference(tower, j, pairs, epsilon=None):
    """lemma61_defect_grid, pair by pair, against reference_pieces and
    reference_classify."""
    parts, _ = s_schedule(tower)
    mu = tower.stage(j).base_measure
    got = lemma61_defect_grid(tower, j, pairs, epsilon)
    assert len(got) == len(pairs)
    for (k, n), (enc, info) in zip(pairs, got):
        pieces, residual, J = reference_pieces(tower, j, k, n, epsilon)
        classes = reference_classify(tower, j, pieces, parts)
        merged = merged_at(tower, pieces, J)
        assert info["stage"] == J
        assert info["image"].tolist() == [l for _, ls in merged for l in ls.levels()]
        assert lemma61_defect(tower, j, k, n, epsilon)[1]["pieces"] == merged
        assert info["residual"] == residual
        assert (info["full_blocks"], info["full_defect"], info["copy_slack"],
                info["partial_slack"]) == classes
        assert (enc.lo, enc.hi) == (0, min(Fraction(1), (sum(classes[1:]) + residual) / mu))


def plain(results):
    """Grid results with each image array as a list, so that they compare
    with ==."""
    return [(enc, {**info, "image": info["image"].tolist()}) for enc, info in results]


def mc_defect(tower, j, k, n, samples, seed):
    """Monte-Carlo oracle: frequency of points of T^{n+k} E_j whose S-image
    leaves the resolved part of the set."""
    ref = ReferenceMap(tower)
    enc, info = lemma61_defect(tower, j, k, n)
    E = LevelSet.from_ranges(j, [(0, 1)])
    rng = random.Random(seed)
    left = 0
    skipped = 0
    for _ in range(samples):
        p = tower.sample_uniform(E, rng)
        q = tower.iterate(p, n + k)
        try:
            q2 = ref.apply(q)
        except NeedsMoreBlocks:
            skipped += 1
            continue
        if not any(tower.membership(q2, ls) for _, ls in info["pieces"]):
            left += 1
    done = samples - skipped
    f = left / done if done else 0.0
    err = math.sqrt(max(f * (1 - f), 1.0 / max(done, 1)) / max(done, 1))
    return f, err, enc, skipped


@pytest.fixture(scope="module")
def dmap(demo_tower):
    return DissipativeMap(demo_tower)


@pytest.fixture(scope="module")
def running_dmap(running_tower):
    return DissipativeMap(running_tower)


class TestBlocks:
    def test_new_ranges(self, running_tower):
        assert stage_new_ranges(running_tower, 1) == ((0, 1),)
        # stage 2: copies cover [0,1) and [1,2); spacer level 2 is new
        assert stage_new_ranges(running_tower, 2) == ((2, 3),)
        # stage 3: copies at offsets 0, 3, 12 of height 3
        assert stage_new_ranges(running_tower, 3) == ((6, 12), (15, 30))

    def test_enumeration_counts_and_mass(self, running_tower):
        blocks = enumerate_new_blocks(running_tower)
        assert len(blocks) == 1 + 1 + 21
        total = sum(b.measure for b in blocks)
        assert total == running_tower.stage(3).tower_measure == Fraction(5)
        assert [b.k for b in blocks] == list(range(23))

    def test_schedule(self, running_tower):
        parts, rows = s_schedule(running_tower)
        assert parts[1] == 2 and parts[2] == 2
        # stage-3 new mass 21/6 = 7/2 -> c = 4, contribution 7/8
        assert rows[2]["new_mass"] == Fraction(7, 2)
        assert parts[3] == 4
        assert rows[2]["contribution"] == Fraction(7, 8)
        sums = [r["partial_sum"] for r in rows]
        assert all(a < b for a, b in zip(sums, sums[1:]))

    def test_block_stage_matches_enumeration(self, running_dmap, dmap):
        for m in (running_dmap, dmap):
            blocks = enumerate_new_blocks(m.tower)
            assert m.total_blocks == len(blocks)
            for blk in blocks:
                assert m.block_stage(blk.k).b == blk.birth_stage
            with pytest.raises(NeedsMoreBlocks):
                m.block_stage(len(blocks))


class TestDissipativeMap:
    def test_step_pieces_inverse_roundtrip(self, dmap):
        # S^-1 S and S S^-1 give back every piece, merged where it was split
        rng = random.Random(31)

        def merged(pieces):
            out = []
            for b, lo, hi, ph in sorted(pieces, key=lambda p: (p[3], p[1])):
                if out and out[-1][0] == b and out[-1][3] == ph and out[-1][2] == lo:
                    out[-1] = (out[-1][0], out[-1][1], hi, ph)
                else:
                    out.append((b, lo, hi, ph))
            return out

        checked = 0
        for _ in range(1000):
            si = dmap.block_stage(rng.randrange(dmap.total_blocks))
            start = dmap._start(si.K + rng.randrange(si.n))
            lo = rng.randrange(si.W)
            piece = [(si.b, start + lo, start + rng.randint(lo + 1, si.W),
                      rng.choice([0, si.c - 1, rng.randrange(si.c)]))]
            for inverse in (False, True):
                try:
                    image = dmap.step_pieces(piece, inverse)
                except NeedsMoreBlocks:
                    continue
                assert merged(dmap.step_pieces(image, not inverse)) == piece
                checked += 1
        assert checked > 1000

    def test_total_coordinate_mass(self, running_dmap):
        parts, _ = s_schedule(running_dmap.tower)
        expect = sum(
            blk.measure / parts[blk.birth_stage]
            for blk in enumerate_new_blocks(running_dmap.tower)
        )
        assert Fraction(sum(hi - lo for lo, hi, _ in running_dmap.bands),
                        running_dmap.L) == expect


class TestWandering:
    def test_zmax0_vacuous(self, dmap):
        rep = wandering_check(dmap, 0)
        assert rep["passed"] and rep["pieces"] == 1

    def test_disjoint_to_50(self, dmap):
        rep = wandering_check(dmap, 50)
        assert rep["passed"]
        assert rep["clash"] is None
        assert rep["covered_mass"] == 101 * ReferenceMap(dmap.tower).delta

    def test_covered_grows(self, dmap):
        r10 = wandering_check(dmap, 10)
        r30 = wandering_check(dmap, 30)
        assert r30["covered_mass"] > r10["covered_mass"]
        assert 0 < r30["covered_fraction"] < 1


class TestRetention:
    def test_all_stages_ok(self, dmap):
        rows = retention_audit(dmap)
        assert len(rows) == dmap.depth
        for r in rows:
            assert r["ok"]
            assert r["retention"] >= r["bound"]
            assert r["piece_verified"] >= 1

    def test_exact_retention_value(self, running_dmap):
        # stage 1: c=2, w=delta=1/2 -> retention (c-1)w / mu = 1/2 = bound
        rows = retention_audit(running_dmap)
        assert rows[0]["retention"] == Fraction(1, 2) == rows[0]["bound"]

    def test_huge_tower_closed_form(self):
        # c is about 1.7e18 at stage 3: the audit pushes sub-block 0 for the
        # c - 1 that only advance, and sub-block c - 1 through P
        spec = huge_spec(random.Random(0))
        dmap = DissipativeMap(Tower(spec, len(spec.stages) + 1))
        assert max(dmap.parts.values()) > 10**18
        ref = ReferenceMap(dmap.tower)
        want = []
        for b, si in ref.stages.items():
            mu = ref.tower.stage(b).base_measure
            retained = (si.c - 1) * si.w + max(Fraction(0), si.w - ref.delta)
            want.append({"stage": b, "blocks": si.n, "parts": si.c, "retention": retained / mu,
                         "bound": 1 - Fraction(1, si.c), "ok": True, "piece_verified": 3})
        assert retention_audit(dmap) == want


class TestDepthArgument:
    ENUMERATORS = [DissipativeMap, s_schedule, enumerate_new_blocks]

    @pytest.mark.parametrize("fn", ENUMERATORS)
    @pytest.mark.parametrize("depth", [0, -2])
    def test_below_one_raises(self, running_tower, fn, depth):
        with pytest.raises(ValueError, match=f"depth must be >= 1, got {depth}"):
            fn(running_tower, depth)

    @pytest.mark.parametrize("fn", ENUMERATORS)
    def test_past_the_tower_needs_more_stages(self, running_tower, fn):
        with pytest.raises(NeedsMoreStages) as exc:
            fn(running_tower, 4)
        assert exc.value.required_depth == 4

    def test_explicit_depth(self, demo_tower):
        dmap = DissipativeMap(demo_tower, 2)
        assert dmap.depth == 2 and list(dmap.stages) == [1, 2]
        assert len(s_schedule(demo_tower, 2)[1]) == 2
        assert {b.birth_stage for b in enumerate_new_blocks(demo_tower, 2)} == {1, 2}


class TestIntegerPiecesAgainstReference:
    """The set action, wandering check and retention audit on integer
    coordinates must give the Fraction versions' results and errors."""

    def test_pinned_error_message(self, dmap):
        with pytest.raises(NeedsMoreBlocks, match=re.escape(
                "coordinate -3397/1512 outside the enumerated range "
                "[-8695411/3870720, 21132521/7741440)")):
            wandering_check(dmap, 100000)

    @given(kind=st.sampled_from(["running", "demo", "small", "huge"]),
           seed=st.integers(0, 2**32 - 1), zmax=st.integers(0, 220))
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    def test_same_results(self, demo_tower, running_tower, kind, seed, zmax):
        rng = random.Random(seed)
        if kind in ("small", "huge"):
            spec = (small_spec if kind == "small" else huge_spec)(rng)
            tower = Tower(spec, len(spec.stages) + 1)
        else:
            tower = demo_tower if kind == "demo" else running_tower
        dmap, ref = DissipativeMap(tower), ReferenceMap(tower)
        L = dmap.L
        assert [(Fraction(lo, L), Fraction(hi, L), b) for lo, hi, b in dmap.bands] == ref.bands
        assert result_or_error(wandering_check, dmap, zmax) == result_or_error(
            reference_wandering_check, ref, zmax)
        # the reference audit pushes all c sub-blocks of a block: huge towers have c > 2^60
        if max(dmap.parts.values()) <= 1000:
            assert retention_audit(dmap) == reference_retention_audit(ref)
        # pieces in random blocks and phases, the last phase most often
        pieces = []
        for _ in range(rng.randint(1, 6)):
            si = dmap.block_stage(rng.randrange(dmap.total_blocks))
            lo = rng.randrange(si.W)
            start = dmap._start(si.K + rng.randrange(si.n))
            phase = rng.choice([0, si.c - 1, si.c - 1, rng.randrange(si.c)])
            pieces.append((si.b, start + lo, start + rng.randint(lo + 1, si.W), phase))
        as_fractions = lambda ps: [(b, Fraction(lo, L), Fraction(hi, L), ph)
                                   for b, lo, hi, ph in ps]
        for inverse in (False, True):
            got = result_or_error(dmap.step_pieces, pieces, inverse)
            if isinstance(got, list):
                got = as_fractions(got)
            assert got == result_or_error(reference_step_pieces, ref,
                                          as_fractions(pieces), inverse)


class TestDefect:
    def test_parameter_ranges(self, demo_tower):
        with pytest.raises(ValueError):
            lemma61_defect(demo_tower, 2, -1, 10)
        with pytest.raises(ValueError):
            lemma61_defect(demo_tower, 2, 8, 10)
        with pytest.raises(ValueError):
            lemma61_defect(demo_tower, 2, 0, 6)
        with pytest.raises(ValueError):
            lemma61_defect(demo_tower, 2, 0, 100)

    def test_accounting_identity(self, demo_tower):
        enc, info = lemma61_defect(demo_tower, 2, 0, 77)
        mu = demo_tower.stage(2).base_measure
        raw = (
            info["full_defect"]
            + info["copy_slack"]
            + info["partial_slack"]
            + info["residual"]
        ) / mu
        assert enc.lo == 0
        assert enc.hi == min(Fraction(1), raw)

    def test_descend_vs_reference(self, demo_tower):
        rng = random.Random(4)
        unit = demo_tower.stage(demo_tower.depth).base_measure
        for J in range(1, demo_tower.depth + 1):
            h = demo_tower.stage(J).h
            levels = list(range(h)) if h < 2000 else rng.sample(range(h), 2000)
            got = zip(*(x.tolist() for x in demo_tower.descend(J, levels)))
            assert [(b, l0, u * unit) for b, l0, u in got] == [
                reference_descend(demo_tower, J, level) for level in levels]

    @pytest.mark.parametrize("j", [2, 3, 4])
    def test_classification_vs_reference(self, demo_tower, j):
        parts, _ = s_schedule(demo_tower)
        for k, n in sample_pairs(random.Random(j), demo_tower, j, 12):
            _, info = lemma61_defect(demo_tower, j, k, n)
            got = (info["full_blocks"], info["full_defect"], info["copy_slack"],
                   info["partial_slack"])
            assert got == reference_classify(demo_tower, j, info["pieces"], parts)

    # The grid over these pairs at once, against the LevelSet escape loop:
    # its one piece is the loop's pieces lifted to the stopping stage and
    # merged, and residual, classification and enclosure are the loop's.
    @pytest.mark.parametrize("epsilon", [None, Fraction(0), Fraction(1, 3)])
    @pytest.mark.parametrize("j", [2, 3, 4, 1])
    def test_pieces_vs_reference(self, demo_tower, j, epsilon):
        pairs = sample_pairs(random.Random(j), demo_tower, j, 12)
        assert_grid_vs_reference(demo_tower, j, pairs, epsilon)

    def test_full_block_defect_bounded(self, demo_tower):
        parts, _ = s_schedule(demo_tower)
        _, info = lemma61_defect(demo_tower, 2, 3, 40)
        # each full block contributes at most 2/parts of its own measure
        max_per = max(
            2 * demo_tower.stage(b).base_measure / parts[b]
            for b in range(3, demo_tower.depth + 1)
        )
        assert info["full_defect"] <= info["full_blocks"] * max_per

    def test_mc_within_4_sigma(self, demo_tower):
        for i, (j, k, n) in enumerate([(2, 0, 77), (2, 3, 50), (3, 10, 200)]):
            f, err, enc, skipped = mc_defect(demo_tower, j, k, n, 400, 600 + i)
            err = max(err, 1e-9)
            assert f <= float(enc.hi) + 4 * err
            assert skipped < 400


class TestDefectGrid:
    # Levels and shifts past 2^63 on object-dtype towers; the group keys
    # are sorted as they are, never packed into one integer.
    def test_heights_beyond_int64(self):
        rng = random.Random(61)
        for i in range(20):
            tower = Tower(huge_spec(rng), depth=3)
            assert tower.dtype is object
            j = rng.randint(1, 2)
            top = tower.stage(3).h
            pairs = [(k, n) for k, n in sample_pairs(rng, tower, j, 6) if k + n < top]
            assert_grid_vs_reference(tower, j, pairs, (None, Fraction(0), Fraction(1, 3))[i % 3])

    def test_duplicate_and_unsorted_pairs(self, demo_tower):
        pairs = [(5, 77), (0, 7), (5, 77), (7, 70), (0, 7), (3, 40)]
        got = plain(lemma61_defect_grid(demo_tower, 2, pairs))
        assert got == [plain(lemma61_defect_grid(demo_tower, 2, [p]))[0] for p in pairs]
        assert_grid_vs_reference(demo_tower, 2, pairs)

    # Shifts times image levels are classified CHUNK at a time.
    @pytest.mark.parametrize("chunk", [400, 1])
    def test_small_chunks(self, demo_tower, monkeypatch, chunk):
        pairs = sample_pairs(random.Random(9), demo_tower, 2, 30)
        want = plain(lemma61_defect_grid(demo_tower, 2, pairs))
        monkeypatch.setattr(correlation, "CHUNK", chunk)
        assert plain(lemma61_defect_grid(demo_tower, 2, pairs)) == want

    def test_empty_grid(self, demo_tower):
        assert lemma61_defect_grid(demo_tower, 2, []) == []

    def test_first_bad_pair_raises(self, demo_tower):
        with pytest.raises(ValueError, match="k=8"):
            lemma61_defect_grid(demo_tower, 2, [(0, 7), (8, 10), (0, 6)])
        with pytest.raises(ValueError, match="n=6"):
            lemma61_defect_grid(demo_tower, 2, [(0, 7), (0, 6), (8, 10)])

    def test_shift_past_top_same_error(self, demo_tower):
        j = demo_tower.depth - 1
        h_j, top = demo_tower.stage(j).h, demo_tower.stage(j + 1).h
        with pytest.raises(NeedsMoreStages) as want:
            reference_pieces(demo_tower, j, h_j, top)
        for pairs in ([(h_j, top)], [(0, h_j), (h_j, top), (-1, top)]):
            with pytest.raises(NeedsMoreStages) as got:
                lemma61_defect_grid(demo_tower, j, pairs)
            assert str(got.value) == str(want.value)
            assert got.value.required_depth == want.value.required_depth


class TestSweep:
    def test_maxima_strictly_decrease(self, demo_tower):
        rows, stage_max = homoclinic_sweep(demo_tower, [2, 3, 4], 4, seed=2)
        assert stage_max[2] > stage_max[3] > stage_max[4]

    def test_boundaries_included(self, demo_tower):
        rows, _ = homoclinic_sweep(demo_tower, [2], 2)
        h2, h3 = demo_tower.stage(2).h, demo_tower.stage(3).h
        assert {(r["k"], r["n"]) for r in rows} >= {(0, h2), (0, h3)}

    @pytest.mark.parametrize("epsilon", [None, Fraction(0), Fraction(1, 3)])
    def test_rows_are_the_grids(self, demo_tower, epsilon):
        rows, stage_max = homoclinic_sweep(demo_tower, [2, 3, 4], 30, seed=4, epsilon=epsilon)
        for j in (2, 3, 4):
            mine = [r for r in rows if r["j"] == j]
            grid = lemma61_defect_grid(demo_tower, j, [(r["k"], r["n"]) for r in mine], epsilon)
            assert [(r["defect_lo"], r["defect_hi"], r["slack"]) for r in mine] == [
                (enc.lo, enc.hi, info["copy_slack"] + info["partial_slack"] + info["residual"])
                for enc, info in grid]
            assert stage_max[j] == max(enc.hi for enc, _ in grid)

    def test_equal_values_share_one_object(self, demo_tower):
        # the report writer formats each value object once
        rows, _ = homoclinic_sweep(demo_tower, [2, 3], 40, seed=1)
        assert len({id(r["defect_lo"]) for r in rows}) == 1
        for j in (2, 3):
            mine = [r for r in rows if r["j"] == j]
            for key in ("defect_hi", "slack"):
                assert len({id(r[key]) for r in mine}) == len({r[key] for r in mine}) < 40

    def test_min_two_pairs(self, demo_tower):
        rows, _ = homoclinic_sweep(demo_tower, [2], 0)
        assert len(rows) == 2

    # The sampled pairs write randint out as random.Random's own rule: the
    # same integers and stream state as randint, or a Python release changed
    # how randint draws.
    @pytest.mark.parametrize("h_j, h_next", [
        (1, 1), (1, 7), (7, 77), (59983, 3059133), (2**31, 2**32), (2**32 - 1, 2**32 + 1),
        (2**63 - 1, 2**64), (5, 2**100 - 1), (2**99, 2**100)])
    def test_pairs_are_randint(self, h_j, h_next):
        for seed in range(50):
            rng, ref = random.Random(seed), random.Random(seed)
            got = _sweep_pairs(rng, h_j, h_next, 7)
            assert got == [(ref.randint(0, h_j), ref.randint(h_j, h_next)) for _ in range(7)]
            assert rng.getstate() == ref.getstate()


class TestFlow:
    def test_t0_is_zero(self, demo_tower):
        for seed in (0, 99):
            d, e = flow_defect(demo_tower, FlowParams("reciprocal", 0.0), 5, 100, seed)
            assert d == 0.0 and e == 0.0

    def test_n0_closed_form(self, demo_tower):
        # phi(y) = 1/(1+y), t=1, unit square: escape probability ln 2,
        # defect sqrt(2 ln 2) ~ 1.1774
        d, e = flow_defect(demo_tower, FlowParams("reciprocal", 1.0), 0, 20000, 7)
        assert abs(d - 1.177410) < 4 * max(e, 1e-9)

    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_no_samples_raises(self, demo_tower, t):
        # checked before the t = 0 shortcut, as the Monte-Carlo oracles do
        for samples in (0, -1):
            with pytest.raises(ValueError, match="samples"):
                flow_defect(demo_tower, FlowParams("reciprocal", t), 5, samples, 0)

    def test_unknown_phi(self, demo_tower):
        with pytest.raises(ValueError, match="catalog"):
            flow_defect(demo_tower, FlowParams("nope", 1.0), 0, 10, 0)

    def test_bad_rect(self, demo_tower):
        with pytest.raises(ValueError):
            flow_defect(
                demo_tower, FlowParams("exp", 1.0, rect=(0.0, 0.0, 0.0, 1.0)), 0, 10, 0
            )

    @pytest.mark.parametrize("n", [0, 3])
    def test_rect_below_the_tower(self, demo_tower, n):
        # y in [c, d) is a coordinate of the tower, which starts at 0
        with pytest.raises(ValueError, match="c >= 0"):
            flow_defect(demo_tower, FlowParams("exp", 1.0, rect=(0.0, 1.0, -0.5, 1.0)),
                        n, 10, 0)

    def test_decreasing_in_n(self, demo_tower):
        params = FlowParams("reciprocal", 1.0)
        d0, e0 = flow_defect(demo_tower, params, 0, 8000, 11)
        h4 = demo_tower.stage(4).h
        d1, e1 = flow_defect(demo_tower, params, h4, 8000, 11)
        assert d1 <= d0 + 2 * (e0 + e1)


    # On the unit square with t = 1 a point escapes exactly when its x lies
    # above 1 - phi(y + s), s = n mu(E_depth): the escape probability is
    # p = int_0^1 phi(y + s) dy and the defect sqrt(2p).
    CLOSED_FORM = {"reciprocal": lambda s: math.log((2 + s) / (1 + s)),
                   "exp": lambda s: math.exp(-s) * (1 - math.exp(-1))}

    @pytest.mark.parametrize("phi", sorted(CLOSED_FORM))
    def test_closed_form_on_stage_heights(self, demo_tower, phi):
        # criterion 10's grid n = 0, h_2, h_3, h_4, and h_5
        w = demo_tower.stage(demo_tower.depth).base_measure
        for n in (0, *(demo_tower.stage(j).h for j in (2, 3, 4, 5))):
            d, e = flow_defect(demo_tower, FlowParams(phi, 1.0), n, 20_000, 3)
            assert abs(d - math.sqrt(2 * self.CLOSED_FORM[phi](float(n * w)))) <= 4 * e


class CountingRandom(random.Random):
    """random.Random counting its getrandbits calls."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


class TestFlowDraws:
    """_flow_draws decodes (randrange(2^40), random()) samples from the
    generator's 32-bit words.  It must give the per-call draws' numbers: if a
    Python release changes how getrandbits or random() assemble words,
    these tests fail."""

    @staticmethod
    def _reference(seed, count):
        rng = random.Random(seed)
        return [(rng.randrange(1 << 40), rng.random()) for _ in range(count)]

    # 5000 samples sometimes need a second draw of words within the call
    @pytest.mark.parametrize("count", [1, 2, 3, 7, 1000, 5000])
    def test_word_layout(self, count):
        redrawn = 0
        for seed in range(200):
            rng = CountingRandom(seed)
            i, u, _ = _flow_draws(rng, count, np.zeros(0, np.uint64))
            assert list(zip(i.tolist(), u.tolist())) == self._reference(seed, count), \
                f"getrandbits or random() no longer read words as assumed (seed {seed})"
            redrawn += rng.calls > 1
        if count == 5000:
            assert redrawn

    def test_left_over_words_continue_the_stream(self):
        for seed in range(20):
            rng, pairs, got = random.Random(seed), np.zeros(0, np.uint64), []
            for count in (7, 1, 300, 2, 5000):
                i, u, pairs = _flow_draws(rng, count, pairs)
                got += zip(i.tolist(), u.tolist())
            assert got == self._reference(seed, len(got))


class TestFlowAgainstReference:
    """The integer translation must give the old Fraction loop's numbers."""

    @pytest.mark.parametrize("rect", [(0.0, 1.0, 0.0, 1.0), (-0.5, 2.25, 0.1, 7.3)])
    @pytest.mark.parametrize("phi", ["reciprocal", "exp"])
    def test_same_estimate(self, demo_tower, phi, rect):
        params = FlowParams(phi, 0.75, rect)
        for i, n in enumerate([0] + [demo_tower.stage(j).h for j in (2, 3, 4)]):
            got = flow_defect(demo_tower, params, n, 500, 40 + i)
            assert got == reference_flow_defect(demo_tower, params, n, 500, 40 + i)

    def test_same_coordinates(self, demo_tower, monkeypatch):
        # phi sees the image coordinate y2 of every sample: record them all
        seen = []
        monkeypatch.setitem(PHI_CATALOG, "record",
                            lambda y: seen.extend(y.tolist()) or np.ones(len(y)))
        params = FlowParams("record", 1.0, (0.0, 1.0, 0.3, 23.9))
        for n in (0, 1, 59983, -1234):
            seen.clear()
            flow_defect(demo_tower, params, n, 300, n)
            got = list(seen)
            seen.clear()
            reference_flow_defect(demo_tower, params, n, 300, n)
            assert got == seen and len(got) == 7 + 300  # 7 from phi_fn's check

    @pytest.mark.parametrize("n", [3059133 - 3361, -3360])
    def test_band_edges(self, demo_tower, n):
        # the y-band [1, 1.0001) lies in level 3360 of stage 6 (mu(E_6) = 1/3360),
        # so T^n lands in the top level (h_6 - 1) and in level 0
        params = FlowParams("exp", 1.0, (0.0, 1.0, 1.0, 1.0001))
        got = flow_defect(demo_tower, params, n, 200, 8)
        assert got == reference_flow_defect(demo_tower, params, n, 200, 8)

    @pytest.mark.parametrize("n, band", [
        (3059133 - 3000, (0.0, 6000 / 3360)),  # levels [0, 6000) of stage 6
        (3059133, (0.0, 6000 / 3360)),
        (-3000, (0.0, 6000 / 3360)),
        (-3059133, (0.0, 6000 / 3360)),
        (3059133 - 3360, (1.0, 1.0001)),  # level 3360 onto h_6
        (-3361, (1.0, 1.0001)),  # level 3360 onto -1
    ])
    def test_leaving_the_tower_raises(self, demo_tower, n, band):
        params = FlowParams("reciprocal", 1.0, (0.0, 1.0, *band))
        with pytest.raises(NeedsMoreStages) as got:
            flow_defect(demo_tower, params, n, 500, 5)
        with pytest.raises(NeedsMoreStages) as want:
            reference_flow_defect(demo_tower, params, n, 500, 5)
        assert str(got.value) == str(want.value)
        assert got.value.required_depth == want.value.required_depth

    @pytest.mark.parametrize("chunk", [1, 7, None])
    def test_chunks(self, demo_tower, monkeypatch, chunk):
        if chunk:
            monkeypatch.setattr(correlation, "CHUNK", chunk)
        h4, h6 = demo_tower.stage(4).h, demo_tower.stage(6).h
        for i, (phi, n, band) in enumerate([
            ("reciprocal", 0, (0.0, 1.0)),
            ("exp", h4, (0.2, 3.9)),
            ("exp", -h4, (1.0, 2.5)),
            ("reciprocal", h6 - 3000, (0.0, 6000 / 3360)),  # levels >= 3000 leave
        ]):
            params = FlowParams(phi, 0.5, (0.0, 1.0, *band))
            assert (outcome(flow_defect, demo_tower, params, n, 50, i)
                    == outcome(reference_flow_defect, demo_tower, params, n, 50, i))

    def test_chunked_memory(self, demo_tower, monkeypatch):
        # one unchunked pass of 20,000 samples peaks at about 2.3 MiB
        monkeypatch.setattr(correlation, "CHUNK", 1024)
        params = FlowParams("exp", 1.0, (0.0, 1.0, 0.1, 2.9))
        n = demo_tower.stage(4).h
        want = flow_defect(demo_tower, params, n, 20_000, 4)  # warm the caches
        tracemalloc.start()
        try:
            got = flow_defect(demo_tower, params, n, 20_000, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want and peak < 1 << 20

    @pytest.mark.parametrize("spec, depth, rect", [
        (huge_spec, 3, (0.0, 1.0, 0.0, 1.0)),
        (huge_spec, 3, (0.0, 1.0, 0.1, 1000.0)),
        (deep_spec, 20, (0.0, 1.0, 0.0, 1.0)),
    ])
    def test_exactness_split(self, monkeypatch, spec, depth, rect):
        # The image numerators pass 2^53 at n = 2^40, and on huge_spec with
        # the wide rectangle at every n, whose denominator D is no power of
        # two; below that flow_defect works on int64.  n = -3 leaves
        # huge_spec's tower, and 2^40 deep_spec's.  phi records the image
        # coordinates: a last-bit error there seldom moves the estimate.
        seen = []
        for seed in range(6):
            tower = Tower(spec(random.Random(seed)), depth=depth)
            for phi in ("reciprocal", "exp"):
                monkeypatch.setitem(PHI_CATALOG, "seen",
                                    lambda y, f=PHI_CATALOG[phi]: seen.extend(y.tolist()) or f(y))
                params = FlowParams("seen", 1.0, rect)
                for n in (0, 1, 5, 1000, 2**40, -3):
                    def run(fn):
                        seen.clear()
                        got = outcome(fn, tower, params, n, 100, seed)
                        # a chunk that leaves the tower raises before calling phi
                        return got, seen[:] if isinstance(got[0], float) else None

                    assert run(flow_defect) == run(reference_flow_defect)

    @pytest.mark.parametrize("n", [3059133 - 3360, -3360, -3361])
    def test_level_edge_samples(self, demo_tower, monkeypatch, n):
        # getrandbits always 0: every y is 1 = the start of level 3360 of
        # stage 6, which T^n moves onto h_6 (out), onto 0 (in) and onto -1 (out).
        # flow_defect reads x from the same words, so random() is 0.0 too.
        class ZeroBits(random.Random):
            def getrandbits(self, k):
                return 0

            def random(self):
                return 0.0

        monkeypatch.setattr(random, "Random", ZeroBits)
        params = FlowParams("exp", 1.0, (0.0, 1.0, 1.0, 1.0001))
        assert (outcome(flow_defect, demo_tower, params, n, 20, 0)
                == outcome(reference_flow_defect, demo_tower, params, n, 20, 0))
