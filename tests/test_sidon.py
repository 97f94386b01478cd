import bisect
import dataclasses
import hashlib
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sidonlab import (
    ConstructionSpec,
    PsiSpec,
    SidonSet,
    StageParams,
    Tower,
    build_from_psi,
    build_stages,
    is_sidon,
    mian_chowla,
    optimal_stage_params,
    sidon_property_check,
    singer_set,
)
from sidonlab import correlation
from sidonlab.construction import LevelSet
from sidonlab.sidon import (
    SidonCheckReport,
    SidonCheckRow,
    _ceil_root,
    _find_primitive_poly,
    _generates_units,
    _mat_pow_mod,
    _poly_powmod,
    _prime_factors,
    _x_is_primitive,
    next_prime_power,
    prime_power_decompose,
)


def sieve_primes(n):
    """The primes below n, by the sieve of Eratosthenes."""
    is_prime = [False, False] + [True] * (n - 2)
    for i in range(2, math.isqrt(n - 1) + 1):
        if is_prime[i]:
            is_prime[i * i::i] = [False] * len(range(i * i, n, i))
    return [i for i in range(n) if is_prime[i]]


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


def reference_is_sidon(elements):
    """The pair loop that is_sidon replaced: the first pair, row by row,
    whose difference is 0 or already seen."""
    s = sorted(elements)
    seen = {}
    for i in range(len(s)):
        for k in range(i + 1, len(s)):
            d = s[k] - s[i]
            if d == 0:
                return False, (s[i], s[i], s[k], s[k])
            if d in seen:
                a, b = seen[d]
                return False, (a, b, s[i], s[k])
            seen[d] = (s[i], s[k])
    return True, None


def companion_matrix(f, p):
    """Multiplication by x modulo the monic f, on coefficient columns."""
    d = len(f) - 1
    M = np.zeros((d, d), dtype=np.int64)
    M[1:, :-1] = np.eye(d - 1, dtype=np.int64)
    M[:, -1] = [-c % p for c in f[:-1]]
    return M


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


def is_irreducible(f, p):
    """Rabin's test: x^(p^d) = x mod f, and x^(p^(d/l)) != x for each
    prime l dividing d."""
    d = len(f) - 1
    x = [0, 1] + [0] * (d - 2) if d > 1 else [0]
    acc = list(x)
    for _ in range(d):
        acc = _poly_powmod(acc, p, f, p)
    if acc != x:
        return False
    for l in _prime_factors(d):
        acc = list(x)
        for _ in range(d // l):
            acc = _poly_powmod(acc, p, f, p)
        if acc == x:
            return False
    return True


def reference_x_is_primitive(f, p):
    """For an irreducible f: x^((p^d - 1)/l) != 1 for each prime l dividing
    p^d - 1."""
    d = len(f) - 1
    order = p**d - 1
    x, one = [0, 1] + [0] * (d - 2), [1] + [0] * (d - 1)
    return all(_poly_powmod(x, order // l, f, p) != one for l in _prime_factors(order))


def reference_find_primitive_poly(p, d):
    """Unfiltered lexicographic sweep over every nonzero constant term, with
    Rabin's irreducibility test."""
    for tail in product(range(p), repeat=d):
        f = list(tail) + [1]
        if f[0] == 0:
            continue
        if is_irreducible(f, p) and reference_x_is_primitive(f, p):
            return f
    raise RuntimeError("none found")


def reference_descend_level(tower, J, level, target_stage):
    """The stagewise walk that Tower.descend replaced in the property check:
    trace a stage-J level down to target_stage; None if it is born later."""
    while J > target_stage:
        prev = tower.stage(J - 1)
        offs = prev.offsets
        i = bisect.bisect_right(offs, level) - 1
        if i < 0 or not offs[i] <= level < offs[i] + prev.h:
            return None
        level -= offs[i]
        J -= 1
    return level


def reference_property_check(tower, j, depth=1, m_stride=1):
    """sidon_property_check as a LevelSet loop.  Per stage J from j+1, each
    source column's levels below h_J - m, shifted by m, are intersected
    with each target column lifted to J; the rest is lifted one stage, at
    most ``depth`` times, and what is left at the last stage is slack.
    Escape returns are listed per (stage, source, target), so one pair can
    appear more than once."""
    st_j, st_j1 = tower.stage(j), tower.stage(j + 1)
    top = min(tower.depth, j + 1 + depth)
    h_j, offs = st_j.h, st_j.offsets
    cols = [LevelSet.from_ranges(j + 1, [(o, o + h_j)]) for o in offs]
    lifts = {}

    def lifted(t, J):  # target column t at stage J; t = None for all of X_j
        if (t, J) not in lifts:
            lifts[t, J] = tower.lift(tower.full_tower(j) if t is None else cols[t], J)
        return lifts[t, J]

    report = SidonCheckReport(j=j, depth=depth, m_stride=m_stride,
                              bound=h_j * st_j1.base_measure)
    for m in range(h_j + 1, st_j1.h + 1, m_stride):
        pairs, resolved_extra = [], []
        total = slack = Fraction(0)
        for i, cur in enumerate(cols):
            for J in range(j + 1, top + 1):
                if J > j + 1:
                    cur = tower.lift(cur, J)
                stJ = tower.stage(J)
                hits = cur.clip(0, stJ.h - m).shift(m).intersect(lifted(None, J))
                for t in range(len(cols)) if hits.count() else ():
                    n = hits.intersect(lifted(t, J)).count()
                    if n:
                        (pairs if J == j + 1 else resolved_extra).append(
                            (i, t, n * stJ.base_measure))
                        total += n * stJ.base_measure
                cur = cur.clip(stJ.h - m, stJ.h)
                if cur.is_empty():
                    break
            slack += cur.count() * tower.stage(cur.stage).base_measure
        nonempty = {(a, b) for a, b, _ in pairs + resolved_extra}
        report.rows.append(
            SidonCheckRow(
                m=m,
                pairs=pairs,
                resolved_extra=resolved_extra,
                slack=slack,
                total_mass=total,
                strict_ok=len(nonempty) <= 1,
                relaxed_ok=total + slack <= report.bound,
            )
        )
    return report


def per_pair(report):
    """The report with each row's escape returns summed per (source,
    target), in pair order, as ``sidon_property_check`` lists them."""
    rows = []
    for row in report.rows:
        mass = {}
        for src, tgt, w in row.resolved_extra:
            mass[src, tgt] = mass.get((src, tgt), 0) + w
        rows.append(dataclasses.replace(
            row, resolved_extra=[(*pair, w) for pair, w in sorted(mass.items())]))
    return dataclasses.replace(report, rows=rows)


class TestB2:
    def test_is_sidon_positive(self):
        ok, wit = is_sidon((1, 2, 4, 8))
        assert ok and wit is None

    def test_is_sidon_witness(self):
        ok, wit = is_sidon((1, 2, 3))
        assert not ok
        a, b, c, d = wit
        assert b - a == d - c and (a, b) != (c, d)

    # a small range makes repeated elements and differences common
    @given(st.lists(st.integers(-5, 40), max_size=10))
    @settings(max_examples=400, deadline=None)
    def test_is_sidon_vs_reference_loop(self, elements):
        assert is_sidon(elements) == reference_is_sidon(elements)

    def test_is_sidon_memory(self):
        # a Sidon set needs one int32 array of its n(n-1)/2 differences:
        # 2 MiB for the 1025 elements here, and no per-pair index arrays
        elements = singer_set(1024).elements
        tracemalloc.start()
        try:
            assert is_sidon(elements) == (True, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_is_sidon_on_generated_sets(self):
        for e in (mian_chowla(102).elements, singer_set(23).elements):
            assert is_sidon(e) == reference_is_sidon(e) == (True, None)
            bad = e + (e[-1] + e[1] - e[0],)
            assert is_sidon(bad) == reference_is_sidon(bad)

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

    def test_mian_chowla_pinned(self):
        # SHA-256 of the first 300 terms, computed with the windowed candidate
        # search that the forbidden-sum table replaced; reference_mian_chowla
        # takes about 5 s at this n
        digest = hashlib.sha256(repr(mian_chowla(300).elements).encode()).hexdigest()
        assert digest == "853eb2790d4c5571364fa363144e9a6589a49263e23244bea82b954c82aa45f5"


COVERAGE_QS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 31, 49, 101, 128, 211]


class TestSinger:
    @pytest.mark.parametrize("q", COVERAGE_QS)
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

    @pytest.mark.parametrize("q", COVERAGE_QS)
    def test_walk_period(self, q):
        # singer_set walks only x^i, i < N: y = x^N is a nonzero element of
        # GF(q) (y^q = y), so whether x^i lies in a GF(q)-subspace depends on
        # i mod N alone.  Over F_p, y is a scalar matrix exactly when q = p.
        p, k = prime_power_decompose(q)
        M = companion_matrix(_find_primitive_poly(p, 3 * k), p)
        y = _mat_pow_mod(M, q * q + q + 1, p)
        assert y.any() and (_mat_pow_mod(y, q, p) == y).all()
        if k == 1:
            assert (y == y[0, 0] * np.eye(3, dtype=np.int64)).all()

    @pytest.mark.parametrize("q", [q for q in range(2, 33) if prime_power_decompose(q)])
    def test_primitive_poly_vs_unfiltered_sweep(self, q):
        p, k = prime_power_decompose(q)
        assert _find_primitive_poly(p, 3 * k) == reference_find_primitive_poly(p, 3 * k)

    # x of order p^d - 1 implies f irreducible: the one order check gives
    # Rabin's verdict on every monic f with f_0 != 0
    @pytest.mark.parametrize("p, d", [(2, 2), (2, 5), (2, 8), (3, 3), (3, 5), (5, 4),
                                      (7, 3), (13, 3)])
    def test_primitive_verdict_vs_irreducibility_test(self, p, d):
        for tail in product(range(p), repeat=d - 1):
            for f0 in range(1, p):
                f = [f0, *tail, 1]
                want = is_irreducible(f, p) and reference_x_is_primitive(f, p)
                assert _x_is_primitive(f, p) == want, f

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


class TestNumberTheory:
    def test_prime_factors_vs_sieve(self):
        n_max = 10**4
        factors = [[] for _ in range(n_max)]
        for p in sieve_primes(n_max):
            for m in range(p, n_max, p):
                factors[m].append(p)
        for n in range(1, n_max):
            assert list(_prime_factors(n)) == factors[n], n

    def test_prime_power_helpers_vs_table(self):
        powers = {}
        for p in sieve_primes(5000):
            q, k = p, 1
            while q < 5000:
                powers[q] = (p, k)
                q, k = q * p, k + 1
        for q in range(5000):
            assert prime_power_decompose(q) == powers.get(q), q
        ordered = sorted(powers)
        for n in range(3000):
            assert next_prime_power(n) == ordered[bisect.bisect_left(ordered, max(2, n))], n

    def test_generates_units_vs_order(self):
        for p in sieve_primes(500):
            for g in range(1, p):
                x, order = g, 1
                while x != 1:
                    x, order = x * g % p, order + 1
                assert _generates_units(g, p) == (order == p - 1), (g, p)
                # the norm filter passes -g for odd degrees
                assert _generates_units(g - p, p) == (order == p - 1), (g, p)

    def test_singer_sets_pinned(self):
        # SHA-256 over (q, elements) for every prime power q <= 139, computed
        # with the earlier sympy-based primality and order helpers
        h = hashlib.sha256()
        for q in range(2, 140):
            if prime_power_decompose(q):
                h.update(repr((q, singer_set(q).elements)).encode())
        assert h.hexdigest() == (
            "ffc7828710ace07e5e96f6024880bde6a4c57787d86f28d4cbe0fd8bb93149bc")


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

    def test_ceil_root(self):
        # smallest t >= 0 with t^k >= n: brute force for small n, the
        # defining inequalities for n far beyond float precision
        for k in range(1, 7):
            t = 0
            for n in range(2000):
                while t**k < n:
                    t += 1
                assert _ceil_root(n, k) == t, (n, k)
        for k in (1, 2, 3, 8):
            for n in (10**48, 10**48 + 1, (10**24 + 7) ** k, (10**24 + 7) ** k + 1, 10**400):
                t = _ceil_root(n, k)
                assert t**k >= n > (t - 1) ** k, (n, k)

    def test_threshold_is_minimal(self):
        psi = PsiSpec("power", alpha=Fraction(1, 4))
        for hj in (1, 3, 21, 100):
            t = psi.threshold_for(hj)
            assert psi.ge_sqrt(t, hj)
            assert t == 1 or not psi.ge_sqrt(t - 1, hj)


    # log and table psi find the threshold by doubling and bisection
    @pytest.mark.parametrize("psi", [PsiSpec("log"), PsiSpec(
        "table", table=tuple((m + 2) ** 0.25 for m in range(1, 2049)))], ids=["log", "table"])
    def test_bisection_threshold_is_minimal(self, psi):
        for hj in (1, 2, 3, 7, 21, 30):
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

    @pytest.mark.parametrize("kw, message", [({"m_stride": 0}, "m_stride must be >= 1"),
                                             ({"depth": -1}, "depth must be >= 0")])
    def test_bad_arguments(self, demo_tower, kw, message):
        with pytest.raises(ValueError, match=message):
            sidon_property_check(demo_tower, 2, **kw)

    # h_2 = 3 and h_3 = 2^64 + 6: 2^64 + 3 shifts at stride 1, refused by
    # their count (a stride of 2^62 leaves 5), before len() of the shift
    # range could overflow
    def test_too_many_shifts(self):
        tower = Tower(ConstructionSpec(1, (StageParams(2, (0, 1)),
                                           StageParams(2, (0, 2**64)))), depth=3)
        with pytest.raises(ValueError, match=f"stage 2 has {2**64 + 3} shifts to check"):
            sidon_property_check(tower, 2, depth=0)
        rep = sidon_property_check(tower, 2, depth=0, m_stride=2**62)
        assert [r.m for r in rep.rows] == [4 + k * 2**62 for k in range(5)]

    def test_descend_vs_reference(self, demo_tower):
        rng = random.Random(8)
        for J in range(1, demo_tower.depth + 1):
            h = demo_tower.stage(J).h
            levels = list(range(h)) if h < 2000 else rng.sample(range(h), 2000)
            for target in range(1, J + 1):
                stage, l1, _ = demo_tower.descend(J, levels, target)
                got = [l if b == target else None for b, l in zip(stage.tolist(), l1.tolist())]
                assert got == [reference_descend_level(demo_tower, J, level, target)
                               for level in levels]

    @pytest.mark.parametrize("j, depth, stride", [(3, 2, 7), (4, 1, 97), (2, 3, 1)])
    def test_vs_reference_loop(self, demo_tower, j, depth, stride):
        new = sidon_property_check(demo_tower, j, depth=depth, m_stride=stride)
        ref = reference_property_check(demo_tower, j, depth=depth, m_stride=stride)
        assert new == per_pair(ref)
        # the cases attribute escape returns to columns
        assert any(row.resolved_extra for row in new.rows)

    def test_escape_returns_per_pair(self, demo_tower):
        # 542,765 escape-return levels of stage 6 at (4, 1, 97), on 741
        # (shift, pair)s; at m = 59955 each column returns onto itself
        rep = sidon_property_check(demo_tower, 4, m_stride=97)
        extra = [e for row in rep.rows for e in row.resolved_extra]
        w6 = demo_tower.stage(6).base_measure
        assert len(extra) == 741 and sum(e[2] for e in extra) == 542_765 * w6
        (row,) = (row for row in rep.rows if row.m == 59955)
        assert row.pairs == [] and row.resolved_extra == sorted(
            [(i, i, 1435 * w6) for i in range(7)] + [(4, 3, 28 * w6)])

    def test_random_specs_vs_reference(self):
        # spacers of 0 put copies of X_j edge to edge, so the reference's
        # lifted X_j merges ranges that the range arrays keep apart
        rng = random.Random(5)
        for _ in range(40):
            h1 = rng.randint(1, 3)
            stages = []
            for _ in range(rng.randint(2, 3)):
                r = rng.randint(2, 4)
                stages.append(StageParams(r, tuple(rng.randint(0, 5) for _ in range(r))))
            tower = Tower(ConstructionSpec(h1, tuple(stages)), len(stages) + 1)
            for j in range(1, tower.depth):
                depth, stride = rng.choice([0, 1, 2, 5]), rng.choice([1, 1, 2, 3])
                new = sidon_property_check(tower, j, depth=depth, m_stride=stride)
                assert new == per_pair(reference_property_check(tower, j, depth=depth,
                                                                m_stride=stride))

    def test_object_dtype_vs_reference(self):
        # the last spacer passes 2^63, so the ranges are exact Python ints
        spec = ConstructionSpec(3, (StageParams(3, (0, 5, 1)),
                                    StageParams(2, (7, 2**63 + 12345))))
        tower = Tower(spec, depth=3)
        assert tower.dtype is object
        new = sidon_property_check(tower, 1)
        assert new == per_pair(reference_property_check(tower, 1))
        assert any(row.resolved_extra for row in new.rows)
        new = sidon_property_check(tower, 2, m_stride=2**60 + 1)
        assert new == per_pair(reference_property_check(tower, 2, m_stride=2**60 + 1))
        assert len(new.rows) > 1

    @pytest.mark.parametrize("chunk", [1, 400])  # rows per chunk: 1 and 40
    def test_chunked_grid(self, demo_tower, monkeypatch, chunk):
        whole = sidon_property_check(demo_tower, 3, depth=2, m_stride=7)
        monkeypatch.setattr(correlation, "CHUNK", chunk)
        assert sidon_property_check(demo_tower, 3, depth=2, m_stride=7) == whole
        assert whole == per_pair(reference_property_check(demo_tower, 3, depth=2, m_stride=7))

    def test_chunked_wide_stage(self, monkeypatch):
        # X_2 in r = 102 columns (Singer q = 101): at CHUNK = 64 a chunk is
        # one shift, and a step of the column counts one point
        spec = ConstructionSpec(1, (StageParams(2, (0, 1)),
                                    optimal_stage_params(3, singer_set(101)),
                                    StageParams(2, (1, 2))))
        tower = Tower(spec, depth=4)
        stride = tower.stage(3).h // 12
        whole = sidon_property_check(tower, 2, m_stride=stride)
        assert any(row.resolved_extra for row in whole.rows)
        monkeypatch.setattr(correlation, "CHUNK", 64)
        assert sidon_property_check(tower, 2, m_stride=stride) == whole
        assert whole == per_pair(reference_property_check(tower, 2, m_stride=stride))

    # one row; escapes lifted to the top stage; every escape left as slack
    @pytest.mark.parametrize("j, depth, stride", [(2, 1, 2**63), (3, 10**30, 7), (1, 0, 1)])
    def test_edge_configs_vs_reference(self, demo_tower, j, depth, stride):
        new = sidon_property_check(demo_tower, j, depth=depth, m_stride=stride)
        assert new == per_pair(reference_property_check(demo_tower, j, depth=depth,
                                                        m_stride=stride))
