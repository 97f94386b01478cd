"""Sidon (B2) set generators and Sidon-construction derivation/checking.

Two generators: the greedy Mian-Chowla sequence for small exact examples,
and Singer perfect difference sets (density ~ sqrt(N)) as the default for
optimal constructions.  The Singer sets come from the classical projective
plane construction over GF(q^3); the q^2 + q + 1 powers of a primitive
element that decide the set are walked in blocks of companion-matrix
products, so prime powers up to a few thousand stay cheap.  The
primitive-polynomial search skips every constant term f_0 whose norm
(-1)^d f_0 does not generate F_p^*: the norm of a primitive x does
(Lidl-Niederreiter, Finite Fields, Thm 3.18).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import correlation
from .construction import ConstructionSpec, StageParams, Tower

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
    """Exhaustive check on all O(n^2) pairwise differences.  On failure
    returns a witness (a, b, c, d) of element values with b - a == d - c:
    (c, d) is the first pair, row by row over the sorted elements, whose
    difference is 0 or repeats, and (a, b) is the first pair with that
    difference."""
    s = np.array(sorted(elements))
    if s.dtype.kind == "i" and not (s[1:] == s[:-1]).any():
        # distinct elements: the differences of pairs are the positive
        # entries of s - s[:, None], filled in row blocks into one array
        # (int32 while the span allows) and sorted in place
        n = len(s)
        diff = np.empty(n * (n - 1) // 2, np.int32 if s[-1] - s[0] < 2**31 else s.dtype)
        step, at = max(1, correlation.CHUNK // n), 0
        for r in range(0, n, step):
            d = s - s[r:r + step, None]
            d = d[d > 0]
            diff[at:at + len(d)] = d
            at += len(d)
        diff.sort()
        if not (diff[1:] == diff[:-1]).any():
            return True, None
    # the witness: stably sort the differences with their pair indices
    i, k = np.triu_indices(len(s), 1)
    diff = s[k] - s[i]
    order = np.argsort(diff, kind="stable")
    sd = diff[order]
    bad = order[np.concatenate([sd[:1] == 0, sd[1:] == sd[:-1]])]
    if not bad.size:
        return True, None
    t = bad.min()
    u = order[np.searchsorted(sd, diff[t])]
    return False, tuple(s[[i[u], k[u], i[t], k[t]]].tolist())


def mian_chowla(n: int) -> SidonSet:
    """First n terms of the greedy B2 sequence starting at 1."""
    if n < 1:
        raise ValueError("need n >= 1")
    elems = np.ones(n, dtype=np.int64)
    # The differences c - a of one candidate c are distinct, so c is
    # admissible iff no c - a is a used difference: iff c is not in
    # elems + differences, the sums that free[] marks False.  They are
    # below 2 * elems[-1], so free[] always holds an admissible c.  A new
    # term c adds the sums with a new difference; those with an old one
    # are among them, as c + (b - a) = b + (c - a).
    free = np.ones(4, dtype=bool)
    for k in range(1, n):
        c = elems[k - 1] + 1 + np.argmax(free[elems[k - 1] + 1:])
        elems[k] = c
        if free.size <= 2 * c:
            free = np.concatenate([free, np.ones(free.size + 2 * c, bool)])
        free[elems[:k + 1, None] + (c - elems[:k])] = False
    return SidonSet(tuple(elems.tolist()), int(elems[-1]))


# ---------------------------------------------------------------------------
# GF(p^d) helpers (dense polynomial arithmetic mod p, small fields only)


def _prime_factors(n: int):
    """Distinct prime factors of n >= 1, in increasing order, by trial
    division (2, then odd divisors).  Lazy, so a caller that needs only the
    smallest factor stops there."""
    if n % 2 == 0:
        yield 2
        while n % 2 == 0:
            n //= 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            yield d
            while n % d == 0:
                n //= d
        d += 2
    if n > 1:
        yield n


def prime_power_decompose(q: int) -> tuple[int, int] | None:
    """Return (p, k) with q = p^k, or None if q is not a prime power."""
    if q < 2:
        return None
    p = next(_prime_factors(q))
    k = 0
    while q % p == 0:
        q //= p
        k += 1
    return (p, k) if q == 1 else None


def next_prime_power(n: int) -> int:
    q = max(2, n)
    while prime_power_decompose(q) is None:
        q += 1
    return q


def _generates_units(g: int, p: int) -> bool:
    """A unit g mod the prime p generates F_p^*: g^((p-1)/l) != 1 for every
    prime l dividing p - 1."""
    return all(pow(g, (p - 1) // l, p) != 1 for l in _prime_factors(p - 1))


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


def _x_is_primitive(f, p):
    """x has order p^d - 1 modulo f: x^(p^d - 1) = 1, and x^((p^d - 1)/l) != 1
    for each prime l dividing p^d - 1.  Then the powers of x are p^d - 1
    distinct units, so every nonzero residue is a unit and f is irreducible."""
    d = len(f) - 1
    order = p**d - 1
    x, one = [0, 1] + [0] * (d - 2), [1] + [0] * (d - 1)
    if _poly_powmod(x, order, f, p) != one:
        return False
    return all(_poly_powmod(x, order // l, f, p) != one for l in _prime_factors(order))


def _find_primitive_poly(p: int, d: int):
    """Monic irreducible f of degree d over F_p whose root x is primitive:
    the first in a lexicographic sweep over (f_0, ..., f_{d-1})."""
    from itertools import product

    # x primitive => its norm (-1)^d f_0 generates F_p^*; skip other f_0
    sign = -1 if d % 2 else 1
    for f0 in range(1, p):
        if not _generates_units(sign * f0, p):
            continue
        for rest in product(range(p), repeat=d - 1):
            f = [f0, *rest, 1]
            if _x_is_primitive(f, p):
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

    # x^N lies in GF(q)*, and W is closed under GF(q)* scaling, so whether
    # x^i lies in W depends only on i mod N: test x^i, i < N, in blocks of
    # columns, x^(base + c) = M^base X[:, c], by walking C M^base.  The
    # products run in float64, which numpy hands to BLAS (int64 it does
    # not): their entries are below d * p^2 < 2^53, so exact.  X is built
    # by doubling: columns [n, 2n) are M^n X[:, :n].
    width = min(4096, N)
    X = np.zeros((d, width))
    X[0, 0] = 1
    Mn, n = M.astype(np.float64), 1
    while n < width:
        X[:, n:2 * n] = (Mn @ X[:, :min(n, width - n)]) % p
        Mn, n = (Mn @ Mn) % p, 2 * n
    step = _mat_pow_mod(M, width, p).astype(np.float64)
    CM = C.astype(np.float64)
    hits = []
    for base in range(0, N, width):
        hits.append(base + np.flatnonzero(((CM @ X) % p == 0).all(axis=0)))
        CM = (CM @ step) % p
    rs = np.concatenate(hits)
    rs = rs[rs < N]  # the last block may run past N
    if len(rs) != q + 1:
        raise RuntimeError(f"Singer construction failed for q={q}: got {len(rs)} residues")
    # rotate so the largest cyclic gap wraps around: minimal-span translate
    start = rs[(np.argmax(np.diff(rs, append=rs[0] + N)) + 1) % len(rs)]
    return SidonSet(tuple(np.sort((rs - start) % N + 1).tolist()), N)


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
        if not all(0 < x <= sys.float_info.max for x in t):
            raise ValueError("table psi values must be finite numbers > 0")
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
    # integer Newton from 2^ceil(bits/k) > n^(1/k) descends to floor(n^(1/k));
    # a float guess is off by about t * 1e-16, which is many unit steps for
    # the t ~ 1e12 of a large h1, and cannot be formed past 1e308
    t = 1 << -(-n.bit_length() // k)
    while True:
        u = ((k - 1) * t + n // t ** (k - 1)) // k
        if u >= t:
            break
        t = u
    return t if t**k == n else t + 1


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


# Longest walk of powers of x in GF(q^3), q^2 + q + 1 of them, that
# build_from_psi starts.  It admits q <= 3161: singer_set(211) takes ~3 ms
# and singer_set(3137) ~0.5 s (2 vCPUs, numpy 2.4).
SINGER_WALK_BUDGET = 10**7

# Most greedy terms that build_from_psi asks of mian_chowla, whose time
# grows about as n^3.4: mian_chowla(300) takes ~20 ms, mian_chowla(800) ~0.6 s.
MIAN_CHOWLA_BUDGET = 300


class GeneratorBudgetError(ValueError):
    """A Sidon set over its generator's budget: a Singer walk of more than
    SINGER_WALK_BUDGET powers, or more than MIAN_CHOWLA_BUDGET greedy terms.
    ``context`` names the stage and the size asked for (q, r or n)."""

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.context = context


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
    before any Singer walk longer than SINGER_WALK_BUDGET powers or any
    greedy set of more than MIAN_CHOWLA_BUDGET terms; q and n grow with the
    stage, so the sets built before a refusal are all within budget."""
    if generator not in ("singer", "greedy"):
        raise ValueError(f"unknown generator {generator!r}")
    if num_stages < 2:
        raise ValueError("need at least two stages")
    h = h1
    params: list[StageParams] = []
    ledger: list[dict] = []
    for j in range(1, num_stages):
        h_star = psi.threshold_for(h)
        r = max(2, _ceil_root(h_star - 1, 2))
        q = None
        if generator == "singer":
            # Past r = SINGER_WALK_BUDGET any q >= r is refused, and rounding r
            # up by trial division to sqrt(q) gets slow, so refuse from r;
            # below it rounding is cheap and the refusal names q.
            if r > SINGER_WALK_BUDGET:
                raise GeneratorBudgetError(
                    f"stage {j} needs a Singer set for q >= r={r}: at least r^2 + r + 1 "
                    f"powers of x in GF(q^3), over the budget of {SINGER_WALK_BUDGET}",
                    r=r, stage=j)
            q = next_prime_power(r)
            if q * q + q + 1 > SINGER_WALK_BUDGET:
                raise GeneratorBudgetError(
                    f"stage {j} needs a Singer set for q={q}: {q * q + q + 1} powers of x "
                    f"in GF(q^3), over the budget of {SINGER_WALK_BUDGET}", q=q, stage=j)
            r = q
            S = singer_set(q)
        else:
            if r + 1 > MIAN_CHOWLA_BUDGET:
                raise GeneratorBudgetError(
                    f"stage {j} needs a greedy Sidon set of n={r + 1} terms, over "
                    f"the budget of {MIAN_CHOWLA_BUDGET}", n=r + 1, stage=j)
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
    # escape returns, one (source, target, mass) per column pair, by pair
    resolved_extra: list
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


def _column_pair_hits(offs, h, points):
    """Keys (row * r + i) * r + t and values w * |(S_i + d) intersect S_t|
    for the (rows, d, w) of ``points`` and the h-long columns
    S_i = [o_i, o_i + h): h - |d + o_i - o_t| where positive, for at most
    two t per i, found by searchsorted.  Rows of one point each get sorted,
    distinct keys.  CHUNK (point, column) choices per step."""
    r = len(offs)
    keys, vals = [np.zeros(0, np.int64)], [np.zeros(0, offs.dtype)]
    step = max(1, correlation.CHUNK // (2 * r))
    for rows, d, w in points:
        for a in range(0, len(d), step):
            u = d[a:a + step, :1] + offs  # [point, i]
            t = np.searchsorted(offs, u - h, side="right")[..., None] + np.arange(2)
            n = h - abs(u[..., None] - offs[np.minimum(t, r - 1)])
            p, i, c = np.nonzero((t < r) & (n > 0))
            keys.append((rows[a + p] * r + i) * r + t[p, i, c])
            vals.append(w[a + p] * n[p, i, c])
    return np.concatenate(keys), np.concatenate(vals)


# The most shifts one property check reads: each is a report row, held in memory.
CHECK_SHIFTS_MAX = 1 << 32


class ShiftBudgetError(ValueError):
    """A property check of more than CHECK_SHIFTS_MAX shifts."""

    field = "m_stride"  # the option that checks fewer shifts


def sidon_property_check(
    tower: Tower, j: int, depth: int = 1, m_stride: int = 1
) -> SidonCheckReport:
    """For each checked m in (h_j, h_{j+1}]: which columns of the stage-j
    tower contain X_j intersect T^m X_j.  Strict reading: at most one
    nonempty (source, target) pair.  Relaxed reading: total intersection
    mass bounded by one column's worth, mu(X_j)/r_j.

    Escapes are resolved up to the stage top = min(depth of the tower,
    j+1+depth), by the pair grid's identity: for the columns S_i of X_j at
    stage j+1, the hits of the pair (i, t) up to top count
    |(S_i,top + m) intersect S_t,top|, which _descend reads at stage j+1,
    and what is still in the top m levels of X_j at top is slack.  The
    direct pairs are the same count at stage j+1; the rest of a pair's
    count is its escape returns.  X_j is counted at its own stage, never
    lifted."""
    if m_stride < 1:
        raise ValueError("m_stride must be >= 1")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    st_j, st_j1 = tower.stage(j), tower.stage(j + 1)
    count = (st_j1.h - st_j.h - 1) // m_stride + 1  # the shifts checked
    if count > CHECK_SHIFTS_MAX:
        raise ShiftBudgetError(f"stage {j} has {count} shifts to check at m_stride {m_stride}, "
                               f"more than {CHECK_SHIFTS_MAX}; raise m_stride")
    top = min(tower.depth, j + 1 + depth)
    h, offs, units = st_j.h, np.array(st_j.offsets, dtype=tower.dtype), tower.units
    r = len(offs)
    report = SidonCheckReport(j=j, depth=depth, m_stride=m_stride,
                              bound=h * st_j1.base_measure)
    xj, bound = tower.full_tower(j), h * units[j + 1]
    # masses are counted as integers in units of mu(E_depth); frac makes the
    # Fractions, which many rows share
    frac = functools.lru_cache(maxsize=None)(lambda x: Fraction(x, units[1]))

    def by_row(keys, vals):  # per row of ms, its (i, t, mass) in key order
        at = np.searchsorted(keys, np.arange(len(ms) + 1) * (r * r)).tolist()
        its = list(zip((keys // r % r).tolist(), (keys % r).tolist(), map(frac, vals.tolist())))
        return [its[a:b] for a, b in zip(at, at[1:])]

    shifts = range(h + 1, st_j1.h + 1, m_stride)
    step = max(1, correlation.CHUNK // (2 * r))
    for c in range(0, len(shifts), step):
        ms = shifts[c:c + step]
        grid = np.array(ms, dtype=tower.dtype)[:, None]
        dk, dn = _column_pair_hits(offs, h, correlation._descend(tower, grid, j + 1, j + 1))
        keys, n = _column_pair_hits(offs, h, correlation._descend(tower, grid, top, j + 1))
        order = np.argsort(keys)
        first = np.flatnonzero(np.diff(keys[order], prepend=-1))
        keys, n = keys[order][first], np.add.reduceat(n[order], first) * units[top]
        dn = dn * units[j + 1]
        back = n.copy()  # the escape returns
        back[np.searchsorted(keys, dk)] -= dn
        row, mass = keys // (r * r), np.zeros(len(ms), dtype=tower.dtype)
        np.add.at(mass, row, n)
        slack = (h * units[j] // units[top]  # |X_j| at top, less what is below h_top - m
                 - tower.count_below(xj, top, tower.stage(top).h - grid[:, 0])) * units[top]
        rows = zip(ms, by_row(dk, dn), by_row(keys[back != 0], back[back != 0]),
                   np.bincount(row, minlength=len(ms)).tolist(), mass.tolist(), slack.tolist())
        report.rows += [SidonCheckRow(m, p, x, frac(left), frac(total), seen <= 1,
                                      total + left <= bound)
                        for m, p, x, seen, total, left in rows]
    return report
