"""The commutative family c(t) = sum_i prod_{m != i}(1 + h_m t) d_i x^i - rho(t)
and its coefficients c_1..c_n, which are central for flat sigma.

rho(t) solves Delta_j rho(t) = prod_{m != j}(1 + h_m t) sigma_j.  It has
degree n-1 in t and is held as the list [rho_0, ..., rho_{n-1}] of its
coefficients, each a RatFun in h, so t never enters denominators.  The
symmetric part of each rho_k is one polynomial, by the chi identity
sum_j h_j^{p+n-1} / chi_j = H_p: a sum of hook Schur polynomials
s_(L,1^k), each written from its support.  Only the pole parts of f are
summed as RatFuns.  The closing check Delta_j rho_k = sigma_j e_k(no j)
is the proof; it is linear in f, so it is decided per W-component of f.
"""

from __future__ import annotations

from functools import cached_property

from .ratfield import Poly, RatFun, eps_vec, ring_mismatch
from .rmatrix import (CheckReport, elementary_symmetric, hook_schur,
                      psi_component)
from .potential import MismatchError, sigma_from_potential, w_decompose
from .diffring import RingSpec, commutator


def rho_for(f):
    """Solve Delta_j rho(t) = prod_{m != j}(1 + h_m t) * Delta_j f for all j.

    f must lie in the solution space W (raises NotInW otherwise).  Returns
    the n coefficients [rho_0, ..., rho_{n-1}] of rho(t) by power of t.
    f's constant c_0 H_0 is left out: rho depends on f only through Delta f.

    Each c_L H_L, L >= 1, of f = sum_m g_m + P (`w_decompose`) adds
    c_L s_(L,1^k) to rho_k, written term by term (`hook_schur`).  Its
    proof, the closing check Delta_j rho_k = e_k(no j) Delta_j f, is
    linear in (rho, f), so it is decided per W-component: P with its
    polynomial share of each rho_k, as Poly identities, and each pole part
    g_m with its share g_m e_k(no m), over its own denominator.  Once
    f == sum_m g_m + P holds too, the component identities add up to the
    whole one.  If any of these fails, the whole check on rho and f
    decides (MismatchError names its first failing k and j)."""
    n = f.n
    dec = w_decompose(f, pivot=1)
    # rho_k = sum_j e_k(no j) g_j, with g_j the part of f with poles along h_j.
    # As e_k(no j) = sum_i (-h_j)^i e_{k-i}, the chi identity turns the share of
    # c_L H_L into c_L sum_{i<=k} (-1)^i e_{k-i} H_{L+i}, which is c_L s_(L,1^k)
    syms = [sum((hook_schur(n, L, k).scale(c) for L, c in dec.symmetric if L),
                Poly.zero(n)) for k in range(n)]
    parts = {m: dec.summand(m) for m in dec.parts}
    shares = {m: [g * elementary_symmetric(n, k, skip=m) for k in range(n)]
              for m, g in parts.items()}
    rho = [sum((shares[m][k] for m in parts), RatFun.from_poly(syms[k]))
           for k in range(n)]
    if not (_first_open(syms, dec.polynomial()) is None
            and f == dec.reassemble()
            and all(_first_open(shares[m], g) is None
                    for m, g in parts.items())):
        first = _first_open(rho, f)
        if first is not None:
            k, j = first
            raise MismatchError(
                f"rho_{k} fails its difference equation at j={j}")
    return rho


def _first_open(rho, g):
    """The first (k, j), j before k, where Delta_j rho_k = e_k(no j)
    Delta_j g fails, or None; rho and g are Polys or RatFuns in h_1..h_n."""
    n = g.n
    for j in range(1, n + 1):
        s = eps_vec(n, j, -1)
        dg = g - g.shift(s)
        for k in range(n):
            if rho[k] - rho[k].shift(s) != dg * elementary_symmetric(n, k, skip=j):
                return k, j
    return None


class CentralFamily:
    """The potential f, rho(t) as [rho_0, ..., rho_{n-1}], the candidate central
    elements c_1..c_n, and f's ring spec, built on its first read and kept."""

    def __init__(self, f, rho, elements):
        self.f = f
        self.rho = rho
        self.elements = elements

    @cached_property
    def spec(self):
        return RingSpec(self.f.n, sigma_from_potential(self.f))


def central_family(f, n=None):
    """Build c_1..c_n (c_k = t^{k-1} coefficient) for the ring with potential
    f, used as given; n, if given, must be f.n (DomainError otherwise).
    They read no sigma, so they are built in RingSpec(n): f is not differenced."""
    if n is not None and n != f.n:
        raise ring_mismatch(f.n, n)
    n = f.n
    spec = RingSpec(n)
    rho = rho_for(f)
    elements = []
    for k in range(1, n + 1):
        elem = spec.coeff(-rho[k - 1])
        for i in range(1, n + 1):
            c = RatFun.from_poly(elementary_symmetric(n, k - 1, skip=i))
            elem = elem + spec.gamma(i).scale(c)
        elements.append(elem)
    return CentralFamily(f, rho, elements)


def verify_central(fam):
    """[c_k, g] = 0 for every generator g (x^j, d_j, h_j); exact.  A
    failing check is labelled by its commutator, e.g. [c1,x2]."""
    spec = fam.spec
    n = spec.n
    gens = [(f"x{j}", spec.x(j)) for j in range(1, n + 1)]
    gens += [(f"d{j}", spec.d(j)) for j in range(1, n + 1)]
    gens += [(f"h{j}", spec.h(j)) for j in range(1, n + 1)]
    failures = [f"[c{k},{label}]"
                for k, c in enumerate(fam.elements, start=1)
                for label, g in gens
                if not commutator(spec, c, g).is_zero()]
    return CheckReport("central", len(fam.elements) * len(gens), failures)


# ---------------------------------------------------------------------------
# evidence of algebraic independence


def character_map(fam):
    """The scalars by which c_1..c_n act on a lowest weight vector, as
    functions of the weight: v_k = sum_i e_{k-1}(no i) gamma_i - rho_{k-1},
    where gamma_i = sum_k Psi^{ik}_{ik} sigma_k is the value by which
    d_i x^i acts on it."""
    spec = fam.spec
    n = spec.n
    gammas = [sum((psi_component(n, i, k, i, k) * spec.sigma[k - 1]
                   for k in range(1, n + 1)), RatFun.zero(n))
              for i in range(1, n + 1)]
    out = []
    for k in range(1, n + 1):
        v = -fam.rho[k - 1]
        for i in range(1, n + 1):
            v = v + (RatFun.from_poly(elementary_symmetric(n, k - 1, skip=i))
                     * gammas[i - 1])
        out.append(v)
    return out

