"""Sidon (B2) set generators and Sidon-construction derivation/checking.

Two generators: the greedy Mian-Chowla sequence for small exact examples,
and Singer perfect difference sets (density ~ sqrt(N)) as the default for
optimal constructions.  The Singer sets come from the classical projective
plane construction over GF(q^3); powers of a primitive element are walked
with a vectorized companion-matrix loop so prime powers up to a few
hundred stay cheap.  The primitive-polynomial search skips every constant
term f_0 whose norm (-1)^d f_0 does not generate F_p^*: the norm of a
primitive x does (Lidl-Niederreiter, Finite Fields, Thm 3.18).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import sympy

from .construction import (
    ConstructionSpec,
    LevelSet,
    StageParams,
    Tower,
)

# ---------------------------------------------------------------------------
# B2 predicates and generators


@dataclass(frozen=True)
class SidonSet:
    """Strictly increasing positive integers with all pairwise differences
    distinct; span records the ambient interval [1, N]."""

    elements: tuple[int, ...]
    span: int

    def __post_init__(self):
        ok, wit = is_sidon(self.elements)
        if not ok:
            raise ValueError(f"not a Sidon set, witness {wit}")

    def __len__(self):
        return len(self.elements)


def is_sidon(elements) -> tuple[bool, tuple | None]:
    """Exhaustive O(n^2) difference check.  On failure returns a witness
    (a, b, c, d) of element values with b - a == d - c."""
    s = sorted(elements)
    seen: dict[int, tuple[int, int]] = {}
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


# Candidates tested at once by mian_chowla.  The window is capped so its
# temporaries (_MC_WINDOW x n differences) stay small.
_MC_WINDOW = 512


def mian_chowla(n: int) -> SidonSet:
    """First n terms of the greedy B2 sequence starting at 1."""
    if n < 1:
        raise ValueError("need n >= 1")
    elems = np.zeros(n, dtype=np.int64)
    elems[0] = 1
    used = np.zeros(1024, dtype=bool)  # used[d]: d is a difference of two elements
    for k in range(1, n):
        # the differences c - a of one candidate c are distinct, so c is
        # admissible iff none of them is used; take the first admissible c
        c = int(elems[k - 1]) + 1
        while True:
            if c + _MC_WINDOW > used.size:
                used = np.concatenate([used, np.zeros(used.size + c + _MC_WINDOW, bool)])
            cand = np.arange(c, c + _MC_WINDOW)
            ok = np.flatnonzero(~used[cand[:, None] - elems[None, :k]].any(axis=1))
            if ok.size:
                c += int(ok[0])
                break
            c += _MC_WINDOW
        used[c - elems[:k]] = True
        elems[k] = c
    return SidonSet(tuple(int(e) for e in elems), int(elems[-1]))


# ---------------------------------------------------------------------------
# GF(p^d) helpers (dense polynomial arithmetic mod p, small fields only)


def prime_power_decompose(q: int) -> tuple[int, int] | None:
    """Return (p, k) with q = p^k, or None if q is not a prime power."""
    if q < 2:
        return None
    for p in sympy.primerange(2, math.isqrt(q) + 2):
        if q % p == 0:
            k = 0
            while q % p == 0:
                q //= p
                k += 1
            return (p, k) if q == 1 else None
    return (q, 1)  # q itself prime


def next_prime_power(n: int) -> int:
    q = max(2, n)
    while prime_power_decompose(q) is None:
        q += 1
    return q


def _poly_mulmod(a, b, f, p):
    # a, b lists little-endian, f monic of degree d
    d = len(f) - 1
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for k, bk in enumerate(b):
                res[i + k] = (res[i + k] + ai * bk) % p
    for i in range(len(res) - 1, d - 1, -1):
        c = res[i]
        if c:
            res[i] = 0
            for k in range(d + 1):
                res[i - d + k] = (res[i - d + k] - c * f[k]) % p
    res = res[:d]
    res += [0] * (d - len(res))
    return res


def _poly_powmod(a, e, f, p):
    d = len(f) - 1
    out = [1] + [0] * (d - 1)
    base = list(a)
    while e:
        if e & 1:
            out = _poly_mulmod(out, base, f, p)
        base = _poly_mulmod(base, base, f, p)
        e >>= 1
    return out


def _is_irreducible(f, p):
    d = len(f) - 1
    x = [0, 1] + [0] * (d - 2) if d > 1 else [0]
    # x^(p^d) == x mod f, and x^(p^(d/l)) != x for prime divisors l of d
    acc = list(x)
    for _ in range(d):
        acc = _poly_powmod(acc, p, f, p)
    if acc != x:
        return False
    for l in sympy.primefactors(d):
        acc = list(x)
        for _ in range(d // l):
            acc = _poly_powmod(acc, p, f, p)
        if acc == x:
            return False
    return True


def _x_is_primitive(f, p):
    d = len(f) - 1
    order = p**d - 1
    x = [0, 1] + [0] * (d - 2)
    for l in sympy.primefactors(order):
        if _poly_powmod(x, order // l, f, p) == [1] + [0] * (d - 1):
            return False
    return True


def _find_primitive_poly(p: int, d: int):
    """Monic irreducible f of degree d over F_p whose root x is primitive:
    the first in a lexicographic sweep over (f_0, ..., f_{d-1})."""
    from itertools import product

    # x primitive => its norm (-1)^d f_0 generates F_p^*; skip other f_0
    sign = -1 if d % 2 else 1
    for f0 in range(1, p):
        if sympy.n_order(sign * f0 % p, p) != p - 1:
            continue
        for rest in product(range(p), repeat=d - 1):
            f = [f0, *rest, 1]
            if _is_irreducible(f, p) and _x_is_primitive(f, p):
                return f
    raise RuntimeError(f"no primitive polynomial of degree {d} found over F_{p}")


def _rref_mod_p(mat: np.ndarray, p: int):
    """Row-reduce mod p; returns (rref, pivot column list)."""
    m = mat.astype(np.int64) % p
    rows, cols = m.shape
    piv = []
    r = 0
    for c in range(cols):
        sel = None
        for rr in range(r, rows):
            if m[rr, c] % p:
                sel = rr
                break
        if sel is None:
            continue
        m[[r, sel]] = m[[sel, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r] = (m[r] * inv) % p
        for rr in range(rows):
            if rr != r and m[rr, c]:
                m[rr] = (m[rr] - m[rr, c] * m[r]) % p
        piv.append(c)
        r += 1
        if r == rows:
            break
    return m[:r], piv


def _nullspace_mod_p(mat: np.ndarray, p: int) -> np.ndarray:
    """Columns span the kernel of mat over F_p."""
    rref, piv = _rref_mod_p(mat, p)
    cols = mat.shape[1]
    free = [c for c in range(cols) if c not in piv]
    basis = []
    for fc in free:
        v = np.zeros(cols, dtype=np.int64)
        v[fc] = 1
        for r, pc in enumerate(piv):
            v[pc] = (-rref[r, fc]) % p
        basis.append(v % p)
    return np.array(basis, dtype=np.int64).T if basis else np.zeros((cols, 0), np.int64)


def _mat_pow_mod(M: np.ndarray, e: int, p: int) -> np.ndarray:
    out = np.eye(M.shape[0], dtype=np.int64)
    base = M % p
    while e:
        if e & 1:
            out = (out @ base) % p
        base = (base @ base) % p
        e >>= 1
    return out


def singer_set(q: int) -> SidonSet:
    """Perfect difference set of size q+1 in Z_{q^2+q+1}, normalized into
    [1, q^2+q+1].  Every nonzero residue occurs exactly once as a difference
    of ordered pairs, hence the integer set is Sidon."""
    pk = prime_power_decompose(q)
    if pk is None:
        raise ValueError(f"q={q} is not a prime power")
    p, k = pk
    d = 3 * k
    N = q * q + q + 1
    f = _find_primitive_poly(p, d)
    # companion matrix of multiplication by x in GF(p^d)
    M = np.zeros((d, d), dtype=np.int64)
    for i in range(d - 1):
        M[i + 1, i] = 1
    for i in range(d):
        M[i, d - 1] = (-f[i]) % p

    # F_p-basis of the subfield GF(q) = fixed points of Frobenius^k
    frob = np.zeros((d, d), dtype=np.int64)
    for jcol in range(d):
        e = [0] * d
        e[jcol] = 1
        fp = _poly_powmod(e, p**k, f, p)
        frob[:, jcol] = fp
    subf = _nullspace_mod_p((frob - np.eye(d, dtype=np.int64)) % p, p)
    assert subf.shape[1] == k, "subfield dimension mismatch"
    # W = GF(q)-span of {1, x}: F_p-span of {b, x b}
    wcols = np.concatenate([subf, (M @ subf) % p], axis=1)
    ann = _nullspace_mod_p(wcols.T % p, p)  # annihilator of W
    C = ann.T % p
    assert C.shape[0] == d - 2 * k

    total = p**d - 1
    block = 4096
    v = np.zeros(d, dtype=np.int64)
    v[0] = 1
    residues: set[int] = set()
    # seed block of consecutive powers of x
    first = np.zeros((d, min(block, total)), dtype=np.int64)
    cur = v.copy()
    for i in range(first.shape[1]):
        first[:, i] = cur
        cur = (M @ cur) % p
    Mb = first  # current block of column vectors
    Mstep = _mat_pow_mod(M, block, p)
    base = 0
    while base < total:
        width = min(block, total - base)
        blk = Mb[:, :width]
        zero = (C @ blk % p == 0).all(axis=0)
        for idx in np.nonzero(zero)[0]:
            residues.add((base + int(idx)) % N)
        base += width
        if base < total:
            Mb = (Mstep @ Mb) % p
    if len(residues) != q + 1:
        raise RuntimeError(
            f"Singer construction failed for q={q}: got {len(residues)} residues"
        )
    # rotate so the largest cyclic gap wraps around: minimal-span translate
    rs = sorted(residues)
    gaps = [(rs[(i + 1) % len(rs)] - rs[i]) % N for i in range(len(rs))]
    start = rs[(gaps.index(max(gaps)) + 1) % len(rs)]
    elems = tuple(sorted((r - start) % N + 1 for r in residues))
    return SidonSet(elems, N)


# ---------------------------------------------------------------------------
# psi envelopes


@dataclass(frozen=True)
class PsiSpec:
    """Slowly growing envelope psi with psi(m) -> infinity nondecreasing and
    psi(m)/sqrt(m) nonincreasing.  kinds: power (psi(m) = (m+2)^alpha with
    0 < alpha < 1/2, exact rational comparisons), log, or an explicit table."""

    kind: str
    alpha: Fraction | None = None
    table: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind == "power":
            a = Fraction(self.alpha)
            if not Fraction(0) < a < Fraction(1, 2):
                raise ValueError("power psi needs alpha in (0, 1/2)")
            object.__setattr__(self, "alpha", a)
        elif self.kind == "log":
            pass
        elif self.kind == "table":
            self.validate_table()
        else:
            raise ValueError(f"unknown psi kind {self.kind!r}")

    def validate_table(self):
        t = self.table
        if len(t) < 2:
            raise ValueError("table psi needs at least two values")
        for i in range(1, len(t)):
            if t[i] < t[i - 1]:
                raise ValueError(f"table psi not nondecreasing at m={i + 1}")
            if t[i] / math.sqrt(i + 1) > t[i - 1] / math.sqrt(i) + 1e-12:
                raise ValueError(f"table psi/sqrt increases at m={i + 1}")

    def value(self, m: int) -> float:
        if self.kind == "power":
            return (m + 2) ** float(self.alpha)
        if self.kind == "log":
            return math.log(m + 2)
        if m < 1 or m > len(self.table):
            raise ValueError(f"table psi not defined at m={m}")
        return self.table[m - 1]

    def ge_sqrt(self, h: int, hj: int) -> bool:
        """Exact test of psi(h) >= sqrt(h_j) where possible."""
        if self.kind == "power":
            a, b = self.alpha.numerator, self.alpha.denominator
            return (h + 2) ** (2 * a) >= hj**b
        return self.value(h) ** 2 >= hj

    def dominates_sqrt(self, hj: int, h_next: int) -> bool:
        """The proof-chain inequality sqrt(h_j) <= psi(h_{j+1})."""
        return self.ge_sqrt(h_next, hj)

    def threshold_for(self, hj: int) -> int:
        """Smallest h >= 1 with psi(h) >= sqrt(h_j)."""
        if self.kind == "power":
            a, b = self.alpha.numerator, self.alpha.denominator
            target = hj**b  # need (h+2)^(2a) >= target
            t = _ceil_root(target, 2 * a)
            return max(1, t - 2)
        h = 1
        while not self.ge_sqrt(h, hj):
            h *= 2
        lo, hi = max(1, h // 2), h
        while lo < hi:
            mid = (lo + hi) // 2
            if self.ge_sqrt(mid, hj):
                hi = mid
            else:
                lo = mid + 1
        return lo

    @classmethod
    def from_dict(cls, d: dict) -> "PsiSpec":
        kind = d["kind"]
        if kind == "power":
            a = d["alpha"]
            if isinstance(a, (list, tuple)):
                alpha = Fraction(*a)
            else:
                alpha = Fraction(str(a)).limit_denominator(10**6)
            return cls("power", alpha=alpha)
        if kind == "log":
            return cls("log")
        return cls("table", table=tuple(d["table"]))


def _ceil_root(n: int, k: int) -> int:
    """Smallest t >= 0 with t^k >= n (n >= 0, k >= 1)."""
    if n <= 0:
        return 0
    t = round(n ** (1.0 / k))
    while t**k >= n:
        t -= 1
    while t**k < n:
        t += 1
    return t


def _ceil_sqrt(n: int) -> int:
    if n <= 0:
        return 0
    r = math.isqrt(n)
    return r if r * r == n else r + 1


# ---------------------------------------------------------------------------
# construction derivation


def optimal_stage_params(h: int, S: SidonSet) -> StageParams:
    """Stage params with the minimal spacer recipe s(i) = h*(S(i)-S(i-1)-1);
    the next height is then h*(S(r)-S(0))."""
    e = S.elements
    if len(e) < 3:
        raise ValueError("need |S| >= 3 so that r >= 2")
    r = len(e) - 1
    s = tuple(h * (e[i] - e[i - 1] - 1) for i in range(1, len(e)))
    params = StageParams(r, s)
    assert h * r + sum(s) == h * (e[-1] - e[0])
    return params


# Longest walk of powers of x in GF(q^3) that build_from_psi starts.  It
# admits q <= 215 (q = 101 walks ~10^6 powers; singer_set(211) takes ~0.3 s).
SINGER_WALK_BUDGET = 10**7


class GeneratorBudgetError(ValueError):
    """A Singer set whose walk of q^3 - 1 powers exceeds SINGER_WALK_BUDGET."""

    def __init__(self, q: int, stage: int):
        self.q, self.stage = q, stage
        super().__init__(
            f"stage {stage} needs a Singer set for q={q}: {q**3 - 1} powers of x in "
            f"GF(q^3), over the budget of {SINGER_WALK_BUDGET}"
        )


def build_from_psi(
    psi: PsiSpec,
    h1: int,
    num_stages: int,
    generator: str = "singer",
) -> tuple[ConstructionSpec, list[dict]]:
    """Derive an optimal Sidon construction whose correlation decay is
    governed by psi(m)/sqrt(m).  num_stages counts tower stages, so
    num_stages - 1 parameter sets are produced.  Returns the spec and a
    per-stage ledger for the decay harness.  Raises GeneratorBudgetError
    before any Singer walk longer than SINGER_WALK_BUDGET powers; q grows
    with the stage, so the walks before a refusal are all within it."""
    if generator not in ("singer", "greedy"):
        raise ValueError(f"unknown generator {generator!r}")
    if num_stages < 2:
        raise ValueError("need at least two stages")
    h = h1
    params: list[StageParams] = []
    ledger: list[dict] = []
    for j in range(1, num_stages):
        h_star = psi.threshold_for(h)
        r = max(2, _ceil_sqrt(h_star - 1))
        q = None
        if generator == "singer":
            q = next_prime_power(r)
            if q**3 - 1 > SINGER_WALK_BUDGET:
                raise GeneratorBudgetError(q, j)
            r = q
            S = singer_set(q)
        else:
            S = mian_chowla(r + 1)
        p = optimal_stage_params(h, S)
        h_next = h * p.r + p.total_spacers()
        ledger.append(
            {
                "j": j,
                "h_j": h,
                "r_j": p.r,
                "N_j": p.r * p.r,
                "q": q,
                "span": S.span,
                "h_next": h_next,
                "sqrt_ineq_ok": psi.dominates_sqrt(h, h_next),
            }
        )
        params.append(p)
        h = h_next
    spec = ConstructionSpec(h1, tuple(params))
    spec.validate()
    return spec, ledger


# ---------------------------------------------------------------------------
# one-column property checker


@dataclass
class SidonCheckRow:
    m: int
    pairs: list  # (source column, target column, mass) with mass > 0
    resolved_extra: list  # escape returns attributed to (source, target)
    slack: Fraction
    total_mass: Fraction
    strict_ok: bool
    relaxed_ok: bool


@dataclass
class SidonCheckReport:
    j: int
    depth: int
    m_stride: int
    bound: Fraction  # mu(X_j)/r_j, the one-column mass
    rows: list = field(default_factory=list)

    @property
    def strict_all(self) -> bool:
        return all(r.strict_ok for r in self.rows)

    @property
    def relaxed_all(self) -> bool:
        return all(r.relaxed_ok for r in self.rows)


def _descend_level(tower: Tower, J: int, level: int, target_stage: int):
    """Trace a stage-J level down to target_stage; None if it is born later."""
    import bisect as _bisect

    while J > target_stage:
        prev = tower.stage(J - 1)
        offs = prev.offsets
        i = _bisect.bisect_right(offs, level) - 1
        if i < 0 or not offs[i] <= level < offs[i] + prev.h:
            return None
        level -= offs[i]
        J -= 1
    return level


def sidon_property_check(
    tower: Tower, j: int, depth: int = 1, m_stride: int = 1
) -> SidonCheckReport:
    """For each checked m in (h_j, h_{j+1}]: which columns of the stage-j
    tower contain X_j intersect T^m X_j.  Strict reading: at most one
    nonempty (source, target) pair.  Relaxed reading: total intersection
    mass bounded by one column's worth, mu(X_j)/r_j."""
    if m_stride < 1:
        raise ValueError("m_stride must be >= 1")
    st_j = tower.stage(j)
    st_j1 = tower.stage(j + 1)
    tower.stage(min(tower.depth, j + 1 + depth))
    h_j, h_j1 = st_j.h, st_j1.h
    offs = st_j.offsets
    r = len(offs)
    base1 = st_j1.base_measure
    bound = h_j * base1
    xj_lifts: dict[int, LevelSet] = {}

    def xj_at(J):
        if J not in xj_lifts:
            xj_lifts[J] = tower.lift(tower.full_tower(j), J)
        return xj_lifts[J]

    report = SidonCheckReport(j=j, depth=depth, m_stride=m_stride, bound=bound)
    import bisect as _bisect

    for m in range(h_j + 1, h_j1 + 1, m_stride):
        pairs = []
        total = Fraction(0)
        esc_by_src: list[tuple[int, LevelSet]] = []
        for i in range(r):
            lo_lvl, hi_lvl = offs[i], offs[i] + h_j
            cut = h_j1 - m
            res_hi = min(hi_lvl, cut)
            if res_hi > lo_lvl:
                a, b = lo_lvl + m, res_hi + m
                i2 = _bisect.bisect_right(offs, b - 1) - 1
                # shifted interval [a,b) against each candidate copy
                for t in range(max(0, i2 - 1), min(r, i2 + 2)):
                    ov = min(b, offs[t] + h_j) - max(a, offs[t])
                    if ov > 0:
                        pairs.append((i, t, ov * base1))
                        total += ov * base1
            if hi_lvl > max(lo_lvl, cut):
                esc = LevelSet.from_ranges(j + 1, [(max(lo_lvl, cut), hi_lvl)])
                esc_by_src.append((i, esc))
        # escape returns, resolved a bounded number of stages up
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
                resolved = cur.clip(0, stJ.h - m)
                hits = resolved.shift(m).intersect(xj_at(J))
                bm = stJ.base_measure
                for a, b in hits.ranges:
                    # consecutive hit levels descend to consecutive stage-(j+1)
                    # levels until the column of X_j they land in ends
                    while a < b:
                        l1 = _descend_level(tower, J, a, j + 1)
                        assert l1 is not None
                        tgt = _bisect.bisect_right(offs, l1) - 1
                        run = min(b - a, offs[tgt] + h_j - l1)
                        resolved_extra.extend([(src, tgt, bm)] * run)
                        a += run
                total += hits.count() * bm
                cur = cur.clip(stJ.h - m, stJ.h)
                if cur.is_empty():
                    break
            if not cur.is_empty():
                slack += cur.count() * tower.stage(cur.stage).base_measure
        nonempty = {(a, b) for a, b, _ in pairs} | {(a, b) for a, b, _ in resolved_extra}
        strict_ok = len(nonempty) <= 1
        relaxed_ok = total + slack <= bound
        report.rows.append(
            SidonCheckRow(
                m=m,
                pairs=pairs,
                resolved_extra=resolved_extra,
                slack=slack,
                total_mass=total,
                strict_ok=strict_ok,
                relaxed_ok=relaxed_ok,
            )
        )
    return report
