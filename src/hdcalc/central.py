"""The commutative family c(t) = sum_i prod_{m != i}(1 + h_m t) d_i x^i - rho(t)
and its coefficients c_1..c_n, which are central for flat sigma.

rho(t) solves Delta_j rho(t) = prod_{m != j}(1 + h_m t) sigma_j; it is built
per direct summand of the potential, with divisions by (1 + h_i t) always
materialized as the complementary product, so t never enters denominators.
"""

from __future__ import annotations

from fractions import Fraction

from .ratfield import Poly, RatFun, TPolyRat, rank_exact
from .rmatrix import chi_inv, e_generating, elementary_symmetric, psi_component
from .potential import NotInW, w_decompose
from .diffring import RingSpec, NormalElement, commutator
from .potential import sigma_from_potential


class MismatchError(AssertionError):
    """Two supposedly equal routes disagree."""


def rho_for(f):
    """Solve Delta_j rho(t) = prod_{m != j}(1 + h_m t) * Delta_j f for all j.

    f must lie in the solution space W (raises NotInW otherwise).  The
    polynomial part of f is first re-expanded over the summands pi(h_j)/chi_j.
    """
    n = f.n
    dec = w_decompose(f, pivot=1)
    # prod_{m != j} (1 + h_m t)
    e_comp = {j: TPolyRat(n, map(RatFun.from_poly, e_generating(n, skip=j)))
              for j in range(1, n + 1)}
    rho = TPolyRat.zero(n)
    for k in dec.parts:
        rho = rho + e_comp[k] * dec.summand(k)
    for L, c in dec.symmetric:
        # H_L = sum_j h_j^{L+n-1} / chi_j, then the per-summand formula
        for j in range(1, n + 1):
            term = (Poly.var(n, j) ** (L + n - 1)).scale(c) * chi_inv(n, j)
            rho = rho + e_comp[j] * term
    sigma = sigma_from_potential(f)
    for j in range(1, n + 1):
        want = e_comp[j] * sigma[j - 1]
        if not (rho.delta(j) - want).is_zero():
            raise MismatchError(f"rho fails its difference equation at j={j}")
    return rho


class CentralFamily:
    """The ring spec, rho(t), and the candidate central elements c_1..c_n."""

    __slots__ = ("spec", "rho", "elements")

    def __init__(self, spec, rho, elements):
        self.spec = spec
        self.rho = rho
        self.elements = elements


def central_family(f, n=None):
    """Build c_1..c_n for the ring with potential f (c_k = t^{k-1} coefficient)."""
    n = n or f.n
    spec = RingSpec(n, sigma_from_potential(f, n))
    rho = rho_for(f)
    elements = []
    for k in range(1, n + 1):
        elem = spec.coeff(-rho.coeff(k - 1))
        for i in range(1, n + 1):
            c = RatFun.from_poly(elementary_symmetric(n, k - 1, skip=i))
            elem = elem + spec.gamma(i).scale(c)
        elements.append(elem)
    return CentralFamily(spec, rho, elements)


def verify_central(fam):
    """[c_k, g] = 0 for every generator g (x^j, d_j, h_j); exact."""
    spec = fam.spec
    n = spec.n
    results = []
    gens = [(f"x{j}", spec.x(j)) for j in range(1, n + 1)]
    gens += [(f"d{j}", spec.d(j)) for j in range(1, n + 1)]
    gens += [(f"h{j}", spec.h(j)) for j in range(1, n + 1)]
    for k, c in enumerate(fam.elements, start=1):
        for label, g in gens:
            results.append(((k, label), commutator(spec, c, g).is_zero()))
    return results


# ---------------------------------------------------------------------------
# evidence of algebraic independence


def character_map(fam):
    """The scalars by which c_1..c_n act on a lowest weight vector, as
    functions of the weight: v_k = sum_i e_{k-1}(no i) gamma_i - rho_{k-1},
    where gamma_i = sum_k Psi^{ik}_{ik} sigma_k is the vacuum value of d_i x^i."""
    spec = fam.spec
    n = spec.n
    gam = []
    for i in range(1, n + 1):
        g = RatFun.zero(n)
        for k in range(1, n + 1):
            g = g + psi_component(n, i, k, i, k) * spec.sigma[k - 1]
        gam.append(g)
    out = []
    for k in range(1, n + 1):
        v = -fam.rho.coeff(k - 1)
        for i in range(1, n + 1):
            v = v + RatFun.from_poly(elementary_symmetric(n, k - 1, skip=i)) * gam[i - 1]
        out.append(v)
    return out


def center_basis_note(fam, points=None):
    """Rank evidence that c_1..c_n are algebraically independent: the exact
    Jacobian of the character map is evaluated at generic rational weights.

    Returns (max_rank, n).  This is an oracle, not a proof.
    """
    from .ratfield import PoleError
    spec = fam.spec
    n = spec.n
    chars = character_map(fam)
    jac = [[v.derivative(j) for j in range(1, n + 1)] for v in chars]
    if points is None:
        points = []
        for s in range(1, n * n + 1):
            pt = tuple(Fraction(3 * (k + 1) * (2 * s + 1) + 1, 2 * (k + 1) + s)
                       for k in range(n))
            points.append(pt)
    best = 0
    for pt in points:
        try:
            m = [[e.evaluate(pt) for e in row] for row in jac]
        except PoleError:
            continue
        best = max(best, rank_exact(m))
        if best == n:
            break
    return best, n
