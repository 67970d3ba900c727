"""Classification of flat potentials: the difference-equation system on the
sigma vector, its solution space W = span of pi(h_k)/chi_k plus symmetric
polynomials, and exact reconstruction of a potential from its sigma vector.
"""

from __future__ import annotations

from fractions import Fraction

from .ratfield import Poly, RatFun, partial_fractions, eps_vec, solve_exact
from .rmatrix import chi_inv, complete_symmetric

F0 = Fraction(0)


class NotFlat(ValueError):
    """The sigma vector fails the flatness system; carries the witness pair."""

    def __init__(self, pair, msg=None):
        self.pair = pair
        super().__init__(msg or f"sigma system fails at (i,j)={pair}")


class NotInW(ValueError):
    """The element is not in the solution space W."""


# ---------------------------------------------------------------------------
# the two difference systems


def sigma_from_potential(f, n=None):
    """sigma_i = Delta_i f for i = 1..n."""
    n = n or f.n
    return tuple(f.delta(i) for i in range(1, n + 1))


def sigma_system_check(sigma):
    """h_ij * Delta_j sigma_i = sigma_i - sigma_j for all i, j.

    Returns (ok, failing_pair_or_None)."""
    n = len(sigma)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            lhs = RatFun.from_poly(Poly.diff(n, i, j)) * sigma[i - 1].delta(j)
            if not (lhs - sigma[i - 1] + sigma[j - 1]).is_zero():
                return False, (i, j)
    return True, None


def delta_system_check(f):
    """Delta_i Delta_j (h_ij * f) = 0 for all i < j (membership in W)."""
    n = f.n
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            g = (RatFun.from_poly(Poly.diff(n, i, j)) * f).delta(j).delta(i)
            if not g.is_zero():
                return False, (i, j)
    return True, None


# ---------------------------------------------------------------------------
# symmetric-polynomial solves


def h_combination(p):
    """Write the polynomial p as sum c_L H_L; None if impossible.

    H_L is homogeneous of degree L, so the solve is one comparison per
    homogeneous component; c_L is read off the h_1^L monomial.
    """
    n = p.n
    out = {}
    for d, comp in p.homogeneous_components().items():
        e = [0] * n
        e[0] = d
        c = comp.coeff_of(tuple(e))
        if not (comp - complete_symmetric(n, d).scale(c)).is_zero():
            return None
        out[d] = c
    return sorted(out.items())


def _solve_delta1_symmetric(rem, min_L=1):
    """Solve Delta_1 nu = rem with nu = sum_{L >= min_L} c_L H_L.

    Triangular in the total degree; returns list of (L, c) or None.
    rem must be a polynomial (empty denominator).
    """
    n = rem.n
    if not rem.is_poly():
        return None
    cur = rem.num
    out = []
    while not cur.is_zero():
        d = cur.total_degree()
        L = d + 1
        if L < min_L:
            return None
        # coefficient of h_1^{L-1} in Delta_1 H_L is L
        e = [0] * n
        e[0] = d
        comp = cur.homogeneous_components()[d]
        c = comp.coeff_of(tuple(e)) / L
        hl = complete_symmetric(n, L)
        cur = cur - (hl - hl.shift(eps_vec(n, 1, -1))).scale(c)
        top = cur.homogeneous_components().get(d)
        if top is not None and not top.is_zero():
            return None  # degree-d part not killed: no solution
        if c:
            out.append((L, c))
    return sorted(out)


# ---------------------------------------------------------------------------
# decomposition of W


class WDecomposition:
    """f = sum_{k != pivot} pi_k(h_k)/chi_k + sum_L c_L H_L.

    parts maps k to the coefficient list of pi_k (ascending powers of h_k);
    symmetric is a sorted list of (L, c_L).
    """

    def __init__(self, n, pivot, parts, symmetric):
        self.n = n
        self.pivot = pivot
        self.parts = parts
        self.symmetric = symmetric

    def summand(self, k):
        """pi_k(h_k) / chi_k."""
        n = self.n
        pk = Poly(n, {eps_vec(n, k, d): c for d, c in enumerate(self.parts[k]) if c})
        return pk * chi_inv(n, k)

    def reassemble(self):
        n = self.n
        total = RatFun.zero(n)
        for k in self.parts:
            total = total + self.summand(k)
        for L, c in self.symmetric:
            total = total + RatFun.from_poly(complete_symmetric(n, L).scale(c))
        return total

    def __repr__(self):
        return f"WDecomposition<pivot={self.pivot}, parts={self.parts}, symmetric={self.symmetric}>"


def w_decompose(f, pivot=1):
    """Decompose f in W along the direct sum over k != pivot plus symmetric part.

    Raises NotInW if f fails the membership system or the expected pole shape.
    """
    n = f.n
    ok, pair = delta_system_check(f)
    if not ok:
        raise NotInW(f"delta system fails at {pair}")
    if n == 1:
        comb = h_combination(f.num) if f.is_poly() else None
        if comb is None:
            raise NotInW("univariate element is not polynomial")
        return WDecomposition(1, pivot, {}, comb)
    principal, regular = partial_fractions(f, pivot)
    parts = {}
    for k, a, nu, u in principal:
        if a != 0 or nu != 1:
            raise NotInW(f"unexpected pole (h_{pivot}-h_{k}-{a})^{nu}")
        # u/(h_pivot - h_k) is the pivot-pole of pi_k/chi_k:
        # pi_k = -u * prod_{l != k, pivot}(h_k - h_l)
        pk = -u
        for l in range(1, n + 1):
            if l in (k, pivot):
                continue
            pk = pk * RatFun.from_poly(Poly.diff(n, k, l))
        if not pk.is_poly() or (pk.num.support_vars() - {k}):
            raise NotInW(f"pole data at k={k} is not univariate in h_{k}")
        coeffs = [F0] * (pk.num.degree_in(k) + 1)
        for e, c in pk.num.terms.items():
            coeffs[e[k - 1]] = c
        parts[k] = coeffs
    if not regular.is_poly():
        raise NotInW("regular part keeps spurious denominators")
    comb = h_combination(regular.num)
    if comb is None:
        raise NotInW("regular part is not a symmetric-polynomial combination")
    return WDecomposition(n, pivot, parts, comb)


def is_polynomial_potential(f):
    """True iff f in W is a polynomial, i.e. a combination of the H_L.

    Cross-checked against S_n-invariance."""
    ok, pair = delta_system_check(f)
    if not ok:
        raise NotInW(f"delta system fails at {pair}")
    if not f.is_poly():
        return False
    comb = h_combination(f.num)
    if comb is None:
        return False
    # the two characterizations must agree
    n = f.n
    for t in range(1, n):
        perm = list(range(1, n + 1))
        perm[t - 1], perm[t] = perm[t], perm[t - 1]
        assert f.permuted(tuple(perm)) == f
    return True


# ---------------------------------------------------------------------------
# reconstruction


def reconstruct_potential(sigma):
    """Find f with Delta_i f = sigma_i for all i, normalized to have no
    pivot-1 component and no constant symmetric term.

    Raises NotFlat (with the witness pair) if the sigma system fails.
    """
    n = len(sigma)
    ok, pair = sigma_system_check(sigma)
    if not ok:
        raise NotFlat(pair)
    s1 = sigma[0]
    if n == 1:
        comb = _solve_delta1_symmetric(s1, min_L=1)
        if comb is None:
            raise NotFlat((1, 1), "no polynomial solution in one variable")
        f = RatFun.from_poly(_poly_from_sym(1, comb))
    else:
        principal, regular = partial_fractions(s1, 1)
        # poles of sigma_1 sit at (h_1 - h_k) and (h_1 - h_k - 1):
        # the a=0 residue determines pi_k, the a=1 one must mirror it.
        parts = {}
        for k, a, nu, u in principal:
            if nu != 1 or a not in (0, 1):
                raise NotFlat((1, k), f"unexpected pole (h_1-h_{k}-{a})^{nu}")
            # both residues (a = 0 and a = 1) determine the same quantity
            # w_k = pi_k / prod_{l != 1,k}(h_k - h_l), with opposite signs
            parts.setdefault(k, []).append((a, -u if a == 0 else u))
        f = RatFun.zero(n)
        for k, vals in parts.items():
            got = None
            for a, pk in vals:
                w = pk
                for l in range(1, n + 1):
                    if l in (1, k):
                        continue
                    w = w * RatFun.from_poly(Poly.diff(n, k, l))
                if got is None:
                    got = w
                elif not (got - w).is_zero():
                    raise NotFlat((1, k), "inconsistent residues")
            if not got.is_poly() or (got.num.support_vars() - {k}):
                raise NotFlat((1, k), "residue not univariate")
            f = f + got * chi_inv(n, k)
        rem = s1 - f.delta(1)
        comb = _solve_delta1_symmetric(rem, min_L=1)
        if comb is None:
            raise NotFlat((1, 1), "symmetric part has no polynomial antidifference")
        f = f + RatFun.from_poly(_poly_from_sym(n, comb))
    for i in range(1, n + 1):
        if not (f.delta(i) - sigma[i - 1]).is_zero():
            raise NotFlat((i, i), "reconstructed potential fails verification")
    return f


def _poly_from_sym(n, comb):
    p = Poly.zero(n)
    for L, c in comb:
        p = p + complete_symmetric(n, L).scale(c)
    return p
