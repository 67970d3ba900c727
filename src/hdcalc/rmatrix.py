"""Dynamical R-matrix of type A over the weight field, its skew inverse, and
the structure functions built from products of weight differences.

All components are generated on demand; the "ice" sparsity pattern
(R^{ij}_{kl} = 0 unless (k,l) is (i,j) or (j,i)) is used throughout, so
identity checks run over O(n^2) nonzero components per index pair.

Every quotient here (components, phi, Q^+-, 1/chi) has a denominator known
as a product of shifted differences, so it is built from those factors with
RatFun.build; nothing divides, and ratfield.factor_linfactors is left to
user-typed division.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product

from .ratfield import Poly, RatFun, eps_vec

F1 = Fraction(1)


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
    """Result of an identity sweep: list of (label, ok) pairs."""

    def __init__(self, name, results):
        self.name = name
        self.results = list(results)

    @property
    def passed(self):
        return all(ok for _, ok in self.results)

    @property
    def total(self):
        return len(self.results)

    @property
    def failures(self):
        return [label for label, ok in self.results if not ok]

    def summary(self):
        good = sum(1 for _, ok in self.results if ok)
        return f"{self.name}: {good}/{self.total} pass"

    def __repr__(self):
        return f"CheckReport<{self.summary()}>"


# ---------------------------------------------------------------------------
# verifiers


def verify_dybe(n):
    """Shifted dynamical Yang-Baxter equation, all n^6 free index tuples.

    sum_{a,b,u} R^{ij}_{ab} R^{bk}_{ur}[-e_a] R^{au}_{mp}
      = sum_{a,b,u} R^{jk}_{ab}[-e_i] R^{ia}_{mu} R^{ub}_{pr}[-e_m]
    """
    results = []
    rng = range(1, n + 1)
    for i, j, k, m, p, r in product(rng, repeat=6):
        lhs = RatFun.zero(n)
        for a, b in _nonzero_lower(i, j):
            r1 = r_component(n, i, j, a, b)
            sa = eps_vec(n, a, -1)
            us = set()
            if r == k:
                us.add(b)
            if r == b:
                us.add(k)
            for u in us:
                if (m, p) not in _nonzero_lower(a, u):
                    continue
                r2 = r_component(n, b, k, u, r).shift(sa)
                r3 = r_component(n, a, u, m, p)
                lhs = lhs + r1 * r2 * r3
        rhs = RatFun.zero(n)
        si = eps_vec(n, i, -1)
        sm = eps_vec(n, m, -1)
        for a, b in _nonzero_lower(j, k):
            r1 = r_component(n, j, k, a, b).shift(si)
            for mm, u in _nonzero_lower(i, a):
                if mm != m:
                    continue
                if (p, r) not in _nonzero_lower(u, b):
                    continue
                r2 = r_component(n, i, a, m, u)
                r3 = r_component(n, u, b, p, r).shift(sm)
                rhs = rhs + r1 * r2 * r3
        results.append(((i, j, k, m, p, r), (lhs - rhs).is_zero()))
    return CheckReport(f"dybe n={n}", results)


def verify_r_squared(n):
    """sum_{a,b} R^{ij}_{ab} R^{ab}_{kl} = delta^i_k delta^j_l."""
    results = []
    rng = range(1, n + 1)
    for i, j, k, l in product(rng, repeat=4):
        s = RatFun.zero(n)
        for a, b in _nonzero_lower(i, j):
            s = s + r_component(n, i, j, a, b) * r_component(n, a, b, k, l)
        target = RatFun.one(n) if (i, j) == (k, l) else RatFun.zero(n)
        results.append(((i, j, k, l), s == target))
    return CheckReport(f"r-squared n={n}", results)


def verify_ice(n):
    """Components vanish off the ice pattern; also weight preservation."""
    results = []
    rng = range(1, n + 1)
    for i, j, k, l in product(rng, repeat=4):
        v = r_component(n, i, j, k, l)
        if (k, l) in _nonzero_lower(i, j):
            ok = not v.is_zero()
        else:
            ok = v.is_zero()
        results.append(((i, j, k, l), ok))
    return CheckReport(f"ice n={n}", results)


def verify_shift_invariance(n):
    """R^{ij}_{kl}[e_i + e_j] = R^{ij}_{kl}."""
    results = []
    rng = range(1, n + 1)
    for i, j, k, l in product(rng, repeat=4):
        v = r_component(n, i, j, k, l)
        s = [0] * n
        s[i - 1] += 1
        s[j - 1] += 1
        results.append(((i, j, k, l), v.shift(tuple(s)) == v))
    return CheckReport(f"shift-invariance n={n}", results)


def verify_skew_inverse(n):
    """sum_{k,l} Psi^{ik}_{jl} R^{ml}_{pk}[e_m] = delta^i_p delta^m_j."""
    results = []
    rng = range(1, n + 1)
    for i, j, m, p in product(rng, repeat=4):
        s = RatFun.zero(n)
        sm = eps_vec(n, m)
        for k in rng:
            for (jj, l) in _nonzero_lower(i, k):
                if jj != j:
                    continue
                lhs = psi_component(n, i, k, j, l)
                if (p, k) not in _nonzero_lower(m, l):
                    continue
                rhs = r_component(n, m, l, p, k).shift(sm)
                s = s + lhs * rhs
        target = RatFun.one(n) if (i == p and m == j) else RatFun.zero(n)
        results.append(((i, j, m, p), s == target))
    return CheckReport(f"skew-inverse n={n}", results)


def verify_q_identity(n):
    """Generating-function identities for Q^+.

    (i)  sum_j Q^+_j t prod_{m != j}(1 + h_m t) = e(t) - e(t)[-e_1-..-e_n],
         the cleared form of sum_j Q^+_j / (h_j + 1/t) = 1 - e(t)[-eps]/e(t);
    (ii) sum_j Q^+_j / (h_jm + 1) = 1 for every m.
    """
    from .ratfield import TPolyRat
    results = []
    lhs = TPolyRat.zero(n)
    for j in range(1, n + 1):
        comp = TPolyRat(n, [RatFun.zero(n)] +
                        [RatFun.from_poly(p) for p in e_generating(n, skip=j)])
        lhs = lhs + comp * q_plus(n, j)
    et = TPolyRat(n, [RatFun.from_poly(p) for p in e_generating(n)])
    rhs = et - et.shift(tuple([-1] * n))
    results.append(("generating", lhs == rhs))
    for m in range(1, n + 1):
        s = RatFun.zero(n)
        for j in range(1, n + 1):
            if j == m:
                s = s + q_plus(n, j)
            else:
                s = s + q_plus(n, j) * RatFun.inverse_diff(n, j, m, 1)
        results.append((("row", m), s == RatFun.one(n)))
    return CheckReport(f"q-identity n={n}", results)


def verify_chi_identity(n, L):
    """sum_j h_j^L / chi_j = 0 for L <= n-2 and = H_{L-n+1} for L >= n-1."""
    s = RatFun.zero(n)
    for j in range(1, n + 1):
        s = s + (Poly.var(n, j) ** L) * chi_inv(n, j)
    if L <= n - 2:
        target = RatFun.zero(n)
    else:
        target = RatFun.from_poly(complete_symmetric(n, L - n + 1))
    return s == target

