"""R-matrix components, skew inverse, symmetric polynomial helpers."""

from fractions import Fraction
from itertools import product

import pytest
import sympy

from hdcalc import diffring, ratfield, rmatrix
from hdcalc.central import central_family
from hdcalc.diffring import RingSpec, epsilon_antiauto, module_form, verify_pbw
from hdcalc.multicopy import SigmaArray, mixed_normal_form
from hdcalc.potential import reconstruct_potential, sigma_from_potential
from hdcalc.ratfield import Poly, RatFun, eps_vec
from hdcalc.rmatrix import (r_component, psi_component, chi, chi_inv, phi,
                            phi_inv, q_plus, q_minus, elementary_symmetric,
                            complete_symmetric, CheckReport, verify_dybe,
                            verify_r_squared, verify_ice, verify_skew_inverse,
                            verify_q_identity, verify_chi_identity)


def test_r_components_closed_form():
    n = 2
    h12 = RatFun.from_poly(Poly.diff(n, 1, 2))
    assert r_component(n, 1, 2, 1, 2) == RatFun.inverse_diff(n, 1, 2)
    assert r_component(n, 1, 2, 2, 1) == (h12 * h12 - 1) / (h12 * h12)
    assert r_component(n, 2, 1, 2, 1) == -RatFun.inverse_diff(n, 1, 2)
    assert r_component(n, 2, 1, 1, 2) == RatFun.one(n)
    assert r_component(n, 1, 1, 1, 1) == RatFun.one(n)
    # ice rule: out-pair must be a permutation of the in-pair
    assert r_component(n, 1, 1, 1, 2).is_zero()
    assert r_component(3, 1, 2, 1, 3).is_zero()


def test_r_values_at_a_point():
    pt = (Fraction(3), Fraction(1))
    assert r_component(2, 1, 2, 1, 2).evaluate(pt) == Fraction(1, 2)
    assert r_component(2, 1, 2, 2, 1).evaluate(pt) == Fraction(3, 4)


def test_psi_diagonal_value():
    # Psi^{11}_{11} = (h12^2 - 1)/h12^2 at n=2
    n = 2
    h12 = RatFun.from_poly(Poly.diff(n, 1, 2))
    assert psi_component(n, 1, 1, 1, 1) == (h12 * h12 - 1) / (h12 * h12)
    assert psi_component(n, 1, 2, 2, 1) == RatFun.one(n)


def test_r_shift_invariance_by_constant_vector():
    # every component depends on the h's only through differences
    for (i, j, k, l) in [(1, 2, 1, 2), (1, 2, 2, 1), (2, 1, 1, 2), (1, 1, 1, 1)]:
        f = r_component(2, i, j, k, l)
        assert f.shift((5, 5)) == f


def test_chi_phi_q_relations():
    n = 3
    for i in range(1, n + 1):
        assert phi(n, i) * phi_inv(n, i) == RatFun.one(n)
        assert q_plus(n, i) == chi(n, i).shift(eps_vec(n, i)) / chi(n, i)
        assert q_minus(n, i) == chi(n, i).shift(eps_vec(n, i, -1)) / chi(n, i)


def test_elementary_symmetric_against_sympy():
    hs = sympy.symbols("h1:4")
    for L in range(4):
        p = elementary_symmetric(3, L)
        want = sum(sympy.prod(c) for c in sympy.utilities.iterables.subsets(hs, L))
        got = sum(sympy.Rational(v) * sympy.prod(h ** e for h, e in zip(hs, ev))
                  for ev, v in p.terms.items())
        assert sympy.expand(got - want) == 0
    # skip variable: e_2 without h2
    p = elementary_symmetric(3, 2, skip=2)
    assert p.terms == {(1, 0, 1): Fraction(1)}


def test_complete_symmetric_small_cases():
    assert complete_symmetric(2, 2).terms == {
        (2, 0): Fraction(1), (1, 1): Fraction(1), (0, 2): Fraction(1)}
    assert complete_symmetric(1, 5).terms == {(5,): Fraction(1)}
    assert complete_symmetric(3, 0).terms == {(0, 0, 0): Fraction(1)}


def test_newton_style_identity():
    # sum_{k=0..L} (-1)^k e_k H_{L-k} = 0 for L >= 1
    n = 3
    for L in range(1, 5):
        acc = Poly.zero(n)
        for k in range(L + 1):
            term = elementary_symmetric(n, k) * complete_symmetric(n, L - k)
            acc = acc + term.scale(Fraction((-1) ** k))
        assert acc.is_zero()


def test_chi_partial_fraction_identity_small():
    # sum_j h_j^L/chi_j vanishes for L <= n-2 and gives H_{L-n+1} above that
    assert verify_chi_identity(2, 3)
    assert verify_chi_identity(3, 0)
    assert verify_chi_identity(3, 1)
    assert verify_chi_identity(4, 2)
    assert verify_chi_identity(4, 6)


def test_identity_sweeps_n2():
    assert verify_dybe(2).passed
    assert verify_r_squared(2).passed
    assert verify_ice(2).passed
    assert verify_skew_inverse(2).passed
    assert verify_q_identity(2).passed


def test_checkreport_accounting():
    rep = CheckReport("demo", [("a", True), ("b", False), ("c", True)])
    assert not rep.passed
    assert rep.total == 3
    assert rep.failures == ["b"]
    assert rep.summary() == "demo: 2/3 pass"


# the closed forms written as quotients, evaluated by division
def _r_by_division(n, i, j, k, l):
    one = RatFun.one(n)
    if (k, l) == (i, j):
        return one if i == j else one / RatFun.from_poly(Poly.diff(n, i, j))
    if (k, l) == (j, i):
        if i >= j:
            return one
        h = RatFun.from_poly(Poly.diff(n, i, j))
        return (h * h - 1) / (h * h)
    return RatFun.zero(n)


def _q_by_division(n, i, sign):
    return chi(n, i).shift(eps_vec(n, i, sign)) / chi(n, i)


def _psi_by_division(n, i, j, k, l):
    if (k, l) == (i, j):
        num = _q_by_division(n, i, 1) * _q_by_division(n, j, -1)
        if i == j:
            return num
        return num / RatFun.from_poly(Poly.diff(n, i, j, 1))
    if (k, l) == (j, i):
        if i < j:
            return RatFun.one(n)
        h = RatFun.from_poly(Poly.diff(n, i, j))
        return (h - 1) ** 2 / (h * (h - 2))
    return RatFun.zero(n)


def test_built_quotients_match_division():
    # components and structure functions are built from their linear
    # factors; the canonical form must be the one division gives
    for n in range(2, 6):
        pairs = []
        for t in product(range(1, n + 1), repeat=4):
            pairs.append((r_component(n, *t), _r_by_division(n, *t)))
            pairs.append((psi_component(n, *t), _psi_by_division(n, *t)))
        for i in range(1, n + 1):
            one = RatFun.one(n)
            psi_i = rmatrix.psi(n, i)
            pairs += [
                (phi(n, i), psi_i / psi_i.shift(eps_vec(n, i, -1))),
                (phi_inv(n, i), psi_i.shift(eps_vec(n, i, -1)) / psi_i),
                (q_plus(n, i), _q_by_division(n, i, 1)),
                (q_minus(n, i), _q_by_division(n, i, -1)),
                (chi_inv(n, i), one / chi(n, i)),
            ]
        for built, divided in pairs:
            assert built == divided
            assert built.to_json() == divided.to_json()


def test_no_internal_path_factors(monkeypatch):
    # factor_linfactors serves only user-typed division: no verifier,
    # rewriting order or potential routine may reach it
    def refuse(p):
        raise AssertionError(f"factor_linfactors({p!r}) reached")

    monkeypatch.setattr(ratfield, "factor_linfactors", refuse)
    for cached in (rmatrix.psi, rmatrix.psi_prime, chi, phi, phi_inv, q_plus,
                   q_minus, diffring._swap_coeff):
        cached.cache_clear()
    with pytest.raises(AssertionError, match="reached"):
        RatFun.one(2) / RatFun.from_poly(Poly.diff(2, 1, 2))

    assert verify_dybe(3).passed
    assert verify_skew_inverse(3).passed
    assert verify_q_identity(3).passed
    assert verify_chi_identity(3, 4)

    n = 3
    f = (RatFun.from_poly(complete_symmetric(n, 2))
         + (Poly.var(n, 2) + Poly.const(n, 1)) * chi_inv(n, 2)
         + (Poly.var(n, 3) ** 2) * chi_inv(n, 3))
    sigma = sigma_from_potential(f)
    spec = RingSpec(n, sigma)
    assert verify_pbw(spec).flat
    assert not verify_pbw(RingSpec(n, (sigma[0] + RatFun.var(n, 2),) + sigma[1:])).flat
    assert reconstruct_potential(sigma) == f
    fam = central_family(f)
    assert len(fam.elements) == n
    word = [('d', 1), ('x', 2), ('d', 3), ('x', 1)]
    assert module_form(spec, word, "left") == module_form(spec, word, "right")
    el = spec.x(1) + spec.d(2)
    assert epsilon_antiauto(spec, epsilon_antiauto(spec, el)) == el
    sig = SigmaArray.constant(n, 2, 2, {(1, 1): 1, (1, 2): 2, (2, 1): 0, (2, 2): 3})
    word = [('d', 1, 1), ('x', 2, 2), ('d', 3, 2), ('x', 1, 1)]
    assert (mixed_normal_form(n, sig, word, "left")
            == mixed_normal_form(n, sig, word, "right"))
