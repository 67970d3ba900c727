"""Classification of flat potentials: the difference-equation system on the
sigma vector, its solution space W = span of pi(h_k)/chi_k plus symmetric
polynomials, and exact reconstruction of a potential from its sigma vector.
Reconstruction reads the pole part off sigma_1 by one path for every n;
its closing check Delta_i f = sigma_i is the proof.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .ratfield import (Poly, RatFun, check_index, clear_denominators, eps_vec,
                       lcm_lift, partial_fractions, ring_mismatch)
from .rmatrix import chi_inv, complete_symmetric


class NotFlat(ValueError):
    """The sigma vector fails the flatness system; carries the witness pair."""

    def __init__(self, pair, msg=None):
        self.pair = pair
        super().__init__(msg or f"sigma system fails at (i,j)={pair}")


class NotInW(ValueError):
    """The element is not in the solution space W."""


class MismatchError(AssertionError):
    """Two supposedly equal routes disagree."""


# ---------------------------------------------------------------------------
# the two difference systems


def sigma_from_potential(f, n=None):
    """sigma_i = Delta_i f for i = 1..n; n, if given, must be f.n
    (DomainError otherwise).  The differences are taken of L f in ints, L
    the lcm of the denominators of f's coefficients, and divided by L."""
    if n is not None and n != f.n:
        raise ring_mismatch(f.n, n)
    L = lcm(*(c.denominator for c in f.num.terms.values()))
    g = f * L
    return tuple(g.delta(i) * Fraction(1, L) for i in range(1, f.n + 1))


def sigma_system_check(sigma):
    """h_ij * Delta_j sigma_i = sigma_i - sigma_j for all i, j.

    Each equation is decided as one numerator identity, with nothing
    cancelled: (h_ij - 1) sigma_i + sigma_j = h_ij sigma_i[-e_j], both
    sides lifted to the lcm of their denominators.
    Returns (ok, failing_pair_or_None)."""
    n = len(sigma)
    sigma = clear_denominators(sigma)  # each equation is linear in sigma
    for i in range(1, n + 1):
        s = sigma[i - 1]
        for j in range(1, n + 1):
            if i == j:
                continue
            t, shifted = sigma[j - 1], s.shift(eps_vec(n, j, -1))
            p, q, den, _ = lcm_lift(Poly.diff(n, i, j, -1) * s.num, s.den,
                                    t.num, t.den)
            p, q, _, _ = lcm_lift(p + q, den,
                                  Poly.diff(n, i, j) * shifted.num, shifted.den)
            if p != q:
                return False, (i, j)
    return True, None


def delta_system_check(f):
    """Delta_i Delta_j (h_ij * f) = 0 for all i < j (membership in W)."""
    n = f.n
    [f] = clear_denominators([f])  # each equation is linear in f
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
        c = comp.coeff_of(eps_vec(n, 1, d))
        if not (comp - complete_symmetric(n, d).scale(c)).is_zero():
            return None
        out[d] = c
    return sorted(out.items())


def _solve_delta1_symmetric(rem):
    """Solve Delta_1 nu = rem with nu = sum_{L >= 1} c_L H_L.

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
        # coefficient of h_1^{L-1} in Delta_1 H_L is L
        comp = cur.homogeneous_components()[d]
        c = Fraction(comp.coeff_of(eps_vec(n, 1, d)), L)
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

    def components(self):
        """Each pi_k(h_k)/chi_k, then the symmetric part, as RatFuns."""
        return [self.summand(k) for k in self.parts] + [
            RatFun.from_poly(_poly_from_sym(self.n, self.symmetric))]

    def reassemble(self):
        return sum(self.components(), RatFun.zero(self.n))

    def __repr__(self):
        return f"WDecomposition<pivot={self.pivot}, parts={self.parts}, symmetric={self.symmetric}>"


def w_decompose(f, pivot=1):
    """Decompose f in W along the direct sum over k != pivot plus symmetric part.

    Raises NotInW if f fails the membership system, and DomainError unless
    1 <= pivot <= n.  The system is linear in f, so it is decided on the
    components: when they add up to f and each passes it, so does f.
    Otherwise it is run on f itself, and its first failing pair is the
    error.  If f passes it, f is in W, where the split always exists, so
    the split is at fault: MismatchError.
    """
    n = f.n
    check_index(n, pivot)
    try:
        dec = _decomposition(f, pivot)
    except NotInW:
        dec = None
    if dec is not None and f == dec.reassemble() and all(
            delta_system_check(g)[0] for g in dec.components()):
        return dec
    ok, pair = delta_system_check(f)
    if not ok:
        raise NotInW(f"delta system fails at {pair}")
    raise MismatchError(f"f passes the delta system, but its split along"
                        f" h_{pivot} is not a decomposition of f in W")


def _decomposition(f, pivot):
    """f split along the pivot's partial fractions, as a WDecomposition;
    NotInW if a pole or the regular part has an unexpected shape."""
    n = f.n
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
        coeffs = [0] * (pk.num.degree_in(k) + 1)
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

    Cross-checked against S_n-invariance: MismatchError if they disagree."""
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
        if f.permuted(tuple(perm)) != f:
            raise MismatchError(f"polynomial potential is not invariant under"
                                f" swapping h_{t} and h_{t + 1}")
    return True


# ---------------------------------------------------------------------------
# reconstruction


def reconstruct_potential(sigma):
    """Find f with Delta_i f = sigma_i for all i, normalized to have no
    pivot-1 component and no constant symmetric term.

    f's pole part along h_1 is read off sigma_1: for u free of h_1,
    Delta_1 of u/(h_1 - h_k) adds only a pole at h_1 - h_k - 1, so f and
    sigma_1 share their a = 0 principal parts.  What is left of sigma_1 is
    Delta_1 of a combination of the H_L.  The closing check
    Delta_i f = sigma_i for every i is the proof; a wrong f fails it.

    Raises NotFlat (with the witness pair) if the sigma system fails.
    """
    n = len(sigma)
    ok, pair = sigma_system_check(sigma)
    if not ok:
        raise NotFlat(pair)
    f = RatFun.zero(n)
    for k, a, nu, u in partial_fractions(sigma[0], 1)[0]:
        if a == 0:
            f = f + u * RatFun.inverse_diff(n, 1, k) ** nu
    comb = _solve_delta1_symmetric(sigma[0] - f.delta(1))
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
