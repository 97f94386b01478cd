import bisect
from fractions import Fraction
from itertools import product

import pytest

from sidonlab import (
    ConstructionSpec,
    PsiSpec,
    SidonSet,
    Tower,
    build_from_psi,
    build_stages,
    is_sidon,
    mian_chowla,
    optimal_stage_params,
    sidon_property_check,
    singer_set,
)
from sidonlab.construction import LevelSet
from sidonlab.sidon import (
    SidonCheckReport,
    SidonCheckRow,
    _descend_level,
    _find_primitive_poly,
    _is_irreducible,
    _x_is_primitive,
    next_prime_power,
    prime_power_decompose,
)


def greedy_oracle(n):
    """Independent brute-force greedy B2 sequence."""
    elems = []
    c = 0
    while len(elems) < n:
        c += 1
        cand = elems + [c]
        diffs = [b - a for i, a in enumerate(cand) for b in cand[i + 1:]]
        if len(set(diffs)) == len(diffs):
            elems = cand
    return tuple(elems)


def reference_mian_chowla(n):
    """The set-based greedy loop that mian_chowla replaced."""
    elems: list[int] = []
    diffs: set[int] = set()
    c = 1
    while len(elems) < n:
        new = [c - a for a in elems]
        if len(set(new)) == len(new) and not any(d in diffs for d in new):
            elems.append(c)
            diffs.update(new)
        c += 1
    return tuple(elems)


def reference_find_primitive_poly(p, d):
    """Unfiltered lexicographic sweep over every nonzero constant term."""
    for tail in product(range(p), repeat=d):
        f = list(tail) + [1]
        if f[0] == 0:
            continue
        if _is_irreducible(f, p) and _x_is_primitive(f, p):
            return f
    raise RuntimeError("none found")


def reference_property_check(tower, j, depth=1, m_stride=1):
    """sidon_property_check with one descent and one Fraction add per hit
    level, as it was before the per-range attribution."""
    st_j, st_j1 = tower.stage(j), tower.stage(j + 1)
    tower.stage(min(tower.depth, j + 1 + depth))
    h_j, h_j1 = st_j.h, st_j1.h
    offs = st_j.offsets
    r = len(offs)
    base1 = st_j1.base_measure
    bound = h_j * base1
    xj_lifts = {}

    def xj_at(J):
        if J not in xj_lifts:
            xj_lifts[J] = tower.lift(tower.full_tower(j), J)
        return xj_lifts[J]

    report = SidonCheckReport(j=j, depth=depth, m_stride=m_stride, bound=bound)
    for m in range(h_j + 1, h_j1 + 1, m_stride):
        pairs = []
        total = Fraction(0)
        esc_by_src = []
        for i in range(r):
            lo_lvl, hi_lvl = offs[i], offs[i] + h_j
            cut = h_j1 - m
            res_hi = min(hi_lvl, cut)
            if res_hi > lo_lvl:
                a, b = lo_lvl + m, res_hi + m
                i2 = bisect.bisect_right(offs, b - 1) - 1
                for t in range(max(0, i2 - 1), min(r, i2 + 2)):
                    ov = min(b, offs[t] + h_j) - max(a, offs[t])
                    if ov > 0:
                        pairs.append((i, t, ov * base1))
                        total += ov * base1
            if hi_lvl > max(lo_lvl, cut):
                esc_by_src.append(
                    (i, LevelSet.from_ranges(j + 1, [(max(lo_lvl, cut), hi_lvl)]))
                )
        resolved_extra = []
        slack = Fraction(0)
        for src, esc in esc_by_src:
            J = j + 1
            cur = esc
            for _ in range(depth):
                if J + 1 > tower.depth:
                    break
                cur = tower.lift(cur, J + 1)
                J += 1
                stJ = tower.stage(J)
                hits = cur.clip(0, stJ.h - m).shift(m).intersect(xj_at(J))
                for lvl in hits.levels():
                    l1 = _descend_level(tower, J, lvl, j + 1)
                    tgt = bisect.bisect_right(offs, l1) - 1
                    resolved_extra.append((src, tgt, stJ.base_measure))
                    total += stJ.base_measure
                cur = cur.clip(stJ.h - m, stJ.h)
                if cur.is_empty():
                    break
            if not cur.is_empty():
                slack += cur.count() * tower.stage(cur.stage).base_measure
        nonempty = {(a, b) for a, b, _ in pairs} | {(a, b) for a, b, _ in resolved_extra}
        report.rows.append(
            SidonCheckRow(
                m=m,
                pairs=pairs,
                resolved_extra=resolved_extra,
                slack=slack,
                total_mass=total,
                strict_ok=len(nonempty) <= 1,
                relaxed_ok=total + slack <= bound,
            )
        )
    return report


class TestB2:
    def test_is_sidon_positive(self):
        ok, wit = is_sidon((1, 2, 4, 8))
        assert ok and wit is None

    def test_is_sidon_witness(self):
        ok, wit = is_sidon((1, 2, 3))
        assert not ok
        a, b, c, d = wit
        assert b - a == d - c and (a, b) != (c, d)

    def test_sidon_set_validates(self):
        with pytest.raises(ValueError):
            SidonSet((1, 2, 3), 3)

    def test_mian_chowla(self):
        assert mian_chowla(8).elements == (1, 2, 4, 8, 13, 21, 31, 45)

    @pytest.mark.parametrize("n", [1, 4, 10])
    def test_mian_chowla_vs_oracle(self, n):
        assert mian_chowla(n).elements == greedy_oracle(n)

    @pytest.mark.parametrize("n", [1, 4, 10, 50, 102])
    def test_mian_chowla_vs_reference_loop(self, n):
        s = mian_chowla(n)
        assert s.elements == reference_mian_chowla(n)
        assert s.span == s.elements[-1]


class TestSinger:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 31, 49, 101])
    def test_difference_coverage(self, q):
        s = singer_set(q)
        n = q * q + q + 1
        assert len(s.elements) == q + 1
        assert s.span == n
        diffs = set()
        for a in s.elements:
            for b in s.elements:
                if a != b:
                    diffs.add((a - b) % n)
        # perfect difference set: every nonzero residue exactly once
        assert diffs == set(range(1, n))
        assert is_sidon(s.elements)[0]

    @pytest.mark.parametrize("q", [q for q in range(2, 33) if prime_power_decompose(q)])
    def test_primitive_poly_vs_unfiltered_sweep(self, q):
        p, k = prime_power_decompose(q)
        assert _find_primitive_poly(p, 3 * k) == reference_find_primitive_poly(p, 3 * k)

    def test_primitive_poly_q49(self):
        # the unfiltered sweep takes about 10 s here; its first hit, pinned
        assert _find_primitive_poly(7, 6) == [3, 0, 0, 0, 1, 1, 1]

    def test_minimal_span_translate(self):
        # rotation puts the largest cyclic gap at the wrap-around
        s = singer_set(2)
        assert s.elements[0] == 1
        assert s.elements[-1] - s.elements[0] == 3

    def test_not_prime_power(self):
        with pytest.raises(ValueError):
            singer_set(6)

    def test_prime_power_helpers(self):
        assert prime_power_decompose(27) == (3, 3)
        assert prime_power_decompose(12) is None
        assert next_prime_power(6) == 7
        assert next_prime_power(24) == 25


class TestOptimalStages:
    def test_spec_example(self):
        s = SidonSet((1, 2, 4), 7)
        p = optimal_stage_params(1, s)
        assert p.r == 2 and p.s == (0, 1)
        # h_next = h * (S(r) - S(0))
        assert 1 * p.r + sum(p.s) == 3

    def test_spacer_formula(self):
        s = SidonSet((1, 3, 4, 8), 13)
        p = optimal_stage_params(5, s)
        assert p.s == (5 * 1, 0, 5 * 3)
        assert 5 * p.r + sum(p.s) == 5 * (8 - 1)


class TestPsi:
    def test_power_thresholds(self):
        psi = PsiSpec("power", alpha=Fraction(1, 4))
        # psi(h) >= sqrt(1) already at h=1; sqrt(3) needs (h+2)^(1/2) >= 3
        assert psi.threshold_for(1) == 1
        assert psi.threshold_for(3) == 7
        assert psi.dominates_sqrt(3, 21)
        assert not psi.dominates_sqrt(100, 3)

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            PsiSpec("power", alpha=Fraction(1, 2))

    def test_threshold_is_minimal(self):
        psi = PsiSpec("power", alpha=Fraction(1, 4))
        for hj in (1, 3, 21, 100):
            t = psi.threshold_for(hj)
            assert psi.ge_sqrt(t, hj)
            assert t == 1 or not psi.ge_sqrt(t - 1, hj)


class TestBuildFromPsi:
    def test_ledger_inequality(self):
        psi = PsiSpec("power", alpha=Fraction(1, 4))
        spec, ledger = build_from_psi(psi, 1, 4, "singer")
        assert [r["q"] for r in ledger] == [2, 3, 23]
        assert all(r["sqrt_ineq_ok"] for r in ledger)
        hs = [st.h for st in build_stages(spec, 4)]
        assert hs == [1, 3, 21, 9933]

    def test_prime_power_rounding(self):
        psi = PsiSpec("power", alpha=Fraction(1, 4))
        _, ledger = build_from_psi(psi, 1, 4, "singer")
        # stage 3 needs r=21, not a prime power: rounded up to q=23
        assert ledger[2]["r_j"] == 23

    def test_greedy_generator(self):
        psi = PsiSpec("power", alpha=Fraction(1, 4))
        spec, ledger = build_from_psi(psi, 1, 3, "greedy")
        build_stages(spec, 3)
        assert all(r["sqrt_ineq_ok"] for r in ledger)


class TestPropertyCheck:
    def test_verdicts_present(self, demo_tower):
        rep = sidon_property_check(demo_tower, 2)
        assert rep.bound == 7 * Fraction(1, 12)
        assert len(rep.rows) == 70
        # strict reading fails at triangle-overlap m; every row still
        # carries both verdicts and exact masses
        assert any(not r.strict_ok for r in rep.rows)
        assert all(r.total_mass + r.slack >= 0 for r in rep.rows)

    def test_relaxed_violations_are_wrap_slivers(self, demo_tower):
        rep = sidon_property_check(demo_tower, 2)
        r3 = demo_tower.spec.stages[2].r
        wrap_allowance = demo_tower.stage(2).tower_measure / r3
        for r in rep.rows:
            if not r.relaxed_ok:
                assert r.total_mass + r.slack <= rep.bound + wrap_allowance

    def test_stride(self, demo_tower):
        rep = sidon_property_check(demo_tower, 2, m_stride=7)
        assert len(rep.rows) == 10

    @pytest.mark.parametrize("j, depth, stride", [(3, 2, 7), (4, 1, 97), (2, 3, 1)])
    def test_vs_reference_loop(self, demo_tower, j, depth, stride):
        new = sidon_property_check(demo_tower, j, depth=depth, m_stride=stride)
        ref = reference_property_check(demo_tower, j, depth=depth, m_stride=stride)
        assert new == ref
        # the cases attribute escape returns to columns
        assert any(row.resolved_extra for row in new.rows)
