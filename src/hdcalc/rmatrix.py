"""Dynamical R-matrix of type A over the weight field, its skew inverse, and
the structure functions built from products of weight differences.

Each component, and each weight shift of one that a caller reads, is built
once per process and memoised: a RatFun is never changed after it is built,
so one cached value can be shared by every reader.  The "ice" sparsity
pattern (R^{ij}_{kl} = 0 unless (k,l) is (i,j) or (j,i)) is used throughout,
so identity checks run over O(n^2) nonzero components per index pair.

The DYBE, R^2 and skew-inverse identities are checked one way: for each
upper index tuple, both sides are sparse rows over the lower tuples, built
by visiting only the ice-rule support of each factor, and one loop
(`_sweep`) compares the keys found in either row.  Every other lower tuple
is an empty sum on both sides, 0 = 0, and is counted as a pass without
being visited.  `verify_ice` stays exhaustive, and is the independent check
of the support rule that the rows rely on.  A row entry is an uncancelled
(numerator Poly, denominator dict) pair, as its value is only compared:
R factors multiply numerators and add denominator powers, each Psi * R
product stays a canonical RatFun (Psi's numerators share factors with R's
denominators, which left in make the sums far larger), sums are lifted to
the lcm of the denominators by ratfield.lcm_lift, and one numerator
identity decides each compared tuple: lhs and rhs lifted to the lcm of
their denominators, a nonzero product of linear factors, have equal
numerators.  No pair leaves this module.

Every quotient here (components, phi, Q^+-, 1/chi) has a denominator known
as a product of shifted differences, so it is built from those factors with
RatFun.build; nothing divides, and ratfield.factor_linfactors is left to
user-typed division.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .ratfield import Poly, RatFun, eps_vec, lcm_lift


# ---------------------------------------------------------------------------
# structure functions


@lru_cache(maxsize=None)
def psi(n, i):
    """prod_{k > i} (h_i - h_k)."""
    p = Poly.const(n, 1)
    for k in range(i + 1, n + 1):
        p = p * Poly.diff(n, i, k)
    return RatFun.from_poly(p)


@lru_cache(maxsize=None)
def psi_prime(n, i):
    """prod_{k < i} (h_i - h_k)."""
    p = Poly.const(n, 1)
    for k in range(1, i):
        p = p * Poly.diff(n, i, k)
    return RatFun.from_poly(p)


@lru_cache(maxsize=None)
def chi(n, i):
    """prod_{k != i} (h_i - h_k); empty product is 1 (so chi = 1 at n = 1)."""
    return psi(n, i) * psi_prime(n, i)


@lru_cache(maxsize=None)
def phi(n, i):
    """psi_i / psi_i[-e_i] = prod_{k>i} (h_i - h_k)/(h_i - h_k - 1)."""
    return RatFun.build(psi(n, i).num, [(i, k, -1) for k in range(i + 1, n + 1)])


@lru_cache(maxsize=None)
def phi_inv(n, i):
    """prod_{k>i} (h_i - h_k - 1)/(h_i - h_k)."""
    return RatFun.build(psi(n, i).shift(eps_vec(n, i, -1)).num,
                        [(i, k, 0) for k in range(i + 1, n + 1)])


def chi_inv(n, i):
    """1 / chi_i = 1 / prod_{k != i} (h_i - h_k)."""
    return RatFun.build(Poly.const(n, 1), [(i, k, 0) for k in range(1, n + 1) if k != i])


@lru_cache(maxsize=None)
def q_plus(n, i):
    """chi_i[e_i] / chi_i."""
    return chi(n, i).shift(eps_vec(n, i)).num * chi_inv(n, i)


@lru_cache(maxsize=None)
def q_minus(n, i):
    """chi_i[-e_i] / chi_i."""
    return chi(n, i).shift(eps_vec(n, i, -1)).num * chi_inv(n, i)


# ---------------------------------------------------------------------------
# symmetric polynomials


@lru_cache(maxsize=None)
def elementary_symmetric(n, L, skip=0):
    """e_L in h_1..h_n, optionally omitting the variable h_skip."""
    idxs = [i for i in range(1, n + 1) if i != skip]
    if L < 0 or L > len(idxs):
        return Poly.zero(n)
    if L == 0:
        return Poly.const(n, 1)
    # recursion e_L(x_1..x_m) = e_L(x_1..x_{m-1}) + x_m e_{L-1}(x_1..x_{m-1})
    rows = [Poly.const(n, 1)] + [Poly.zero(n)] * L
    for i in idxs:
        hi = Poly.var(n, i)
        for k in range(min(L, len(rows) - 1), 0, -1):
            rows[k] = rows[k] + hi * rows[k - 1]
    return rows[L]


@lru_cache(maxsize=None)
def complete_symmetric(n, L):
    """H_L: sum of all monomials of total degree L."""
    if L < 0:
        return Poly.zero(n)
    if L == 0:
        return Poly.const(n, 1)
    rows = [Poly.const(n, 1)] + [Poly.zero(n)] * L
    for i in range(1, n + 1):
        hi = Poly.var(n, i)
        for k in range(1, L + 1):
            # H with variable h_i allowed any multiplicity: prefix sums
            rows[k] = rows[k] + hi * rows[k - 1]
    return rows[L]


def e_generating(n, skip=0):
    """prod_{m != skip} (1 + h_m t) as a list of Poly coefficients by t-power."""
    return [elementary_symmetric(n, L, skip=skip)
            for L in range(n + 1 - (1 if skip else 0))]


# ---------------------------------------------------------------------------
# R-matrix and skew inverse components


@lru_cache(maxsize=None)
def r_component(n, i, j, k, l):
    """R^{ij}_{kl}."""
    if (k, l) == (i, j):
        if i == j:
            return RatFun.one(n)
        return RatFun.inverse_diff(n, i, j)
    if (k, l) == (j, i):
        if i >= j:
            return RatFun.one(n)
        hij = Poly.diff(n, i, j)
        return RatFun.build(hij * hij - Poly.const(n, 1), [((i, j, 0), 2)])
    return RatFun.zero(n)


@lru_cache(maxsize=None)
def r_shifted(n, i, j, k, l, svec):
    """R^{ij}_{kl}[svec], for an integer shift tuple svec."""
    return r_component(n, i, j, k, l).shift(svec)


@lru_cache(maxsize=None)
def psi_component(n, i, j, k, l):
    """Psi^{ij}_{kl}, the skew inverse of R."""
    if (k, l) == (i, j):
        num = q_plus(n, i) * q_minus(n, j)
        if i == j:
            return num
        return num * RatFun.inverse_diff(n, i, j, 1)
    if (k, l) == (j, i):
        if i < j:
            return RatFun.one(n)
        return RatFun.build(Poly.diff(n, i, j, -1) ** 2, [(i, j, 0), (i, j, -2)])
    return RatFun.zero(n)


def _nonzero_lower(i, j):
    """Lower index pairs where R^{ij} (or Psi^{ij}) may be nonzero."""
    if i == j:
        return ((i, i),)
    return ((i, j), (j, i))


# ---------------------------------------------------------------------------
# reports


class CheckReport:
    """Result of a verifier: how many checks it made, and the labels of
    those that failed, in check order."""

    __slots__ = ("name", "total", "failures")

    def __init__(self, name, total, failures):
        self.name = name
        self.total = total
        self.failures = list(failures)

    @property
    def passed(self):
        return not self.failures

    def __bool__(self):
        # an object is true by default, so `assert report` would always pass
        raise TypeError(f"{self.name}: a CheckReport has no truth value;"
                        " read .passed")

    def summary(self):
        return f"{self.name}: {self.total - len(self.failures)}/{self.total} pass"

    def __repr__(self):
        return f"CheckReport<{self.summary()}>"


# ---------------------------------------------------------------------------
# verifiers


def _pair(f):
    """A RatFun as a row entry: its (numerator, denominator) pair."""
    return f.num, f.den


def _add_pairs(x, y):
    """The sum of two row entries over the lcm of their denominators."""
    p, q, den, _ = lcm_lift(*x, *y)
    return p + q, den


def _times_r(n, row, s, t, u=None):
    """A sparse row times R acting on slots s, t (0-based) of its tuples.

    row maps index tuples to uncancelled (numerator, denominator) pairs.
    Each entry row[x] is spread over the tuples y that equal x off slots
    s, t and have (y_s, y_t) on the ice-rule support of R^{x_s x_t}, times
    the factor R^{x_s x_t}_{y_s y_t}, shifted by -e_{x_u} when slot u is
    given: numerators multiply and denominator powers add."""
    out = {}
    one = {(0,) * n: 1}
    for x, (num, den) in row.items():
        svec = None if u is None else eps_vec(n, x[u], -1)
        for c, d in _nonzero_lower(x[s], x[t]):
            if svec is None:
                r = r_component(n, x[s], x[t], c, d)
            else:
                r = r_shifted(n, x[s], x[t], c, d, svec)
            y = list(x)
            y[s], y[t] = c, d
            y = tuple(y)
            if r.den:
                yden = dict(den)
                for fac, m in r.den.items():
                    yden[fac] = yden.get(fac, 0) + m
                term = num * r.num, yden
            else:
                # a factor 1 (R^{ii}_{ii}, R^{ij}_{ji} for i > j) is skipped
                term = (num if r.num.terms == one else num * r.num), den
            out[y] = _add_pairs(out[y], term) if y in out else term
    return out


def _sweep(name, n, arity, sides):
    """Report an identity over every index tuple upper + lower, each of
    `arity` indices in 1..n, with failures in `product` order.

    sides(n, *upper) gives both sides for every lower tuple at once, as
    sparse rows {lower: (numerator, denominator)}, uncancelled.  Only keys
    found in either row are compared, each by one numerator identity: both
    sides lifted to the lcm of their denominators have equal numerators.
    Every other tuple is 0 = 0, a pass that is counted but not visited."""
    failures = []
    zero = (Poly.zero(n), {})
    for upper in product(range(1, n + 1), repeat=arity):
        lhs, rhs = sides(n, *upper)
        for lower in sorted(lhs.keys() | rhs.keys()):
            p, q, _, _ = lcm_lift(*lhs.get(lower, zero), *rhs.get(lower, zero))
            if p != q:
                failures.append(upper + lower)
    return CheckReport(f"{name} n={n}", n ** (2 * arity), failures)


def _dybe_rows(n, i, j, k):
    """Both sides of the shifted DYBE for upper indices (i, j, k), as sparse
    rows {(m, p, r): value}.  Each is the unit row at (i, j, k) times three
    factors; the unit row times the first factor is that factor's row."""
    si = eps_vec(n, i, -1)
    lhs = {(a, b, k): _pair(r_component(n, i, j, a, b))
           for a, b in _nonzero_lower(i, j)}
    rhs = {(i, a, b): _pair(r_shifted(n, j, k, a, b, si))
           for a, b in _nonzero_lower(j, k)}
    return (_times_r(n, _times_r(n, lhs, 1, 2, 0), 0, 1),
            _times_r(n, _times_r(n, rhs, 0, 1), 1, 2, 0))


def verify_dybe(n):
    """Shifted dynamical Yang-Baxter equation, all n^6 free index tuples.

    sum_{a,b,u} R^{ij}_{ab} R^{bk}_{ur}[-e_a] R^{au}_{mp}
      = sum_{a,b,u} R^{jk}_{ab}[-e_i] R^{ia}_{mu} R^{ub}_{pr}[-e_m]

    The left side is R on slots 1,2, then R on slots 2,3 shifted by -e of
    slot 1's index, then R on slots 1,2; the right side is the mirrored
    chain.  A partial product such as R^{ij}_{ab} R^{bk}_{ur}[-e_a] is
    computed once for all the (m,p) it feeds.
    """
    return _sweep("dybe", n, 3, _dybe_rows)


def _r_squared_rows(n, i, j):
    """Both sides of R^2 = 1 for upper indices (i, j), as sparse rows
    {(k, l): value}: R's row at (i, j) times R, and the unit row."""
    row = {(a, b): _pair(r_component(n, i, j, a, b)) for a, b in _nonzero_lower(i, j)}
    return _times_r(n, row, 0, 1), {(i, j): (Poly.const(n, 1), {})}


def verify_r_squared(n):
    """sum_{a,b} R^{ij}_{ab} R^{ab}_{kl} = delta^i_k delta^j_l, all n^4
    tuples (i,j,k,l)."""
    return _sweep("r-squared", n, 2, _r_squared_rows)


def verify_ice(n):
    """Components vanish off the ice pattern; also weight preservation."""
    failures = []
    for i, j, k, l in product(range(1, n + 1), repeat=4):
        nonzero = (k, l) in _nonzero_lower(i, j)
        if r_component(n, i, j, k, l).is_zero() == nonzero:
            failures.append((i, j, k, l))
    return CheckReport(f"ice n={n}", n ** 4, failures)


def verify_shift_invariance(n):
    """R^{ij}_{kl}[e_i + e_j] = R^{ij}_{kl}."""
    failures = []
    for i, j, k, l in product(range(1, n + 1), repeat=4):
        v = r_component(n, i, j, k, l)
        s = [0] * n
        s[i - 1] += 1
        s[j - 1] += 1
        if v.shift(tuple(s)) != v:
            failures.append((i, j, k, l))
    return CheckReport(f"shift-invariance n={n}", n ** 4, failures)


def _skew_rows(n, i, j):
    """Both sides of the skew-inverse identity for upper indices (i, j), as
    sparse rows {(m, p): value}: the sums over k, l of
    Psi^{ik}_{jl} R^{ml}_{pk}[e_m], each factor visited only on its
    ice-rule support, and the unit row at (j, i).  Each product is
    canonical, as Psi's numerators share factors with R's denominators;
    the sums are not cancelled."""
    out = {}
    for k in range(1, n + 1):
        for a, l in _nonzero_lower(i, k):
            if a != j:
                continue
            v = psi_component(n, i, k, j, l)
            for m in range(1, n + 1):
                for p, b in _nonzero_lower(m, l):
                    if b != k:
                        continue
                    term = _pair(v * r_shifted(n, m, l, p, k, eps_vec(n, m)))
                    out[m, p] = _add_pairs(out[m, p], term) if (m, p) in out else term
    return out, {(j, i): (Poly.const(n, 1), {})}


def verify_skew_inverse(n):
    """sum_{k,l} Psi^{ik}_{jl} R^{ml}_{pk}[e_m] = delta^i_p delta^m_j, all
    n^4 tuples (i,j,m,p)."""
    return _sweep("skew-inverse", n, 2, _skew_rows)


def verify_q_identity(n):
    """Generating-function identities for Q^+.

    (i)  sum_j Q^+_j t prod_{m != j}(1 + h_m t) = e(t) - e(t)[-e_1-..-e_n],
         the cleared form of sum_j Q^+_j / (h_j + 1/t) = 1 - e(t)[-eps]/e(t);
    (ii) sum_j Q^+_j / (h_jm + 1) = 1 for every m.
    """
    failures = []
    # both sides of (i) as their n+1 coefficients by power of t
    lhs = [RatFun.zero(n)] * (n + 1)
    for j in range(1, n + 1):
        q = q_plus(n, j)
        comp = [Poly.zero(n)] + e_generating(n, skip=j)
        lhs = [s + q * p for s, p in zip(lhs, comp, strict=True)]
    shift_all = tuple([-1] * n)
    rhs = [RatFun.from_poly(p - p.shift(shift_all)) for p in e_generating(n)]
    if lhs != rhs:
        failures.append("generating")
    for m in range(1, n + 1):
        s = RatFun.zero(n)
        for j in range(1, n + 1):
            if j == m:
                s = s + q_plus(n, j)
            else:
                s = s + q_plus(n, j) * RatFun.inverse_diff(n, j, m, 1)
        if s != RatFun.one(n):
            failures.append(("row", m))
    return CheckReport(f"q-identity n={n}", n + 1, failures)


def verify_chi_identity(n, L):
    """sum_j h_j^L / chi_j = 0 for L <= n-2 and = H_{L-n+1} for L >= n-1;
    one check, labelled L when it fails."""
    s = RatFun.zero(n)
    for j in range(1, n + 1):
        s = s + (Poly.var(n, j) ** L) * chi_inv(n, j)
    if L <= n - 2:
        target = RatFun.zero(n)
    else:
        target = RatFun.from_poly(complete_symmetric(n, L - n + 1))
    return CheckReport(f"chi-identity n={n}", 1, [] if s == target else [L])

