"""Lowest weight modules at generic weights and central characters."""

from fractions import Fraction

import pytest

from hdcalc.ratfield import Poly, RatFun
from hdcalc.rmatrix import chi
from hdcalc.diffring import RingSpec, multiply
from hdcalc.potential import sigma_from_potential
from hdcalc.central import central_family
from hdcalc.lowestweight import (Weight, NonGenericWeight, generic_lambda,
                                 LWVector, act, central_character)


def Hpot(n, L):
    out = RatFun.zero(n)
    for j in range(1, n + 1):
        out = out + RatFun.from_poly(Poly.var(n, j) ** (L + n - 1)) / chi(n, j)
    return out


def test_weight_genericity_enforced():
    with pytest.raises(NonGenericWeight):
        Weight((Fraction(1), Fraction(3)))  # difference -2
    with pytest.raises(NonGenericWeight):
        Weight((Fraction(1, 2), Fraction(7, 2)))  # difference -3
    w = Weight((Fraction(1, 2), Fraction(1, 3)))
    assert w.n == 2
    assert generic_lambda(2).values == (Fraction(4, 3), Fraction(8, 3))
    assert generic_lambda(3).values == (Fraction(5, 4), Fraction(5, 2),
                                        Fraction(15, 4))


def test_vector_algebra():
    lam = generic_lambda(2)
    v = LWVector.vacuum(lam)
    assert v.scalar_multiple_of_vacuum() == 1
    w = LWVector(lam, {(0, 0): Fraction(3, 2)})
    assert w.scalar_multiple_of_vacuum() == Fraction(3, 2)
    assert LWVector(lam).is_zero()
    assert LWVector(lam).scalar_multiple_of_vacuum() == 0
    assert LWVector(lam, {(1, 0): Fraction(1)}).scalar_multiple_of_vacuum() is None


def test_generators_on_vacuum():
    n = 2
    spec = RingSpec(n, (RatFun.one(n), RatFun.one(n)))
    lam = Weight((Fraction(5, 4), Fraction(10, 3)))
    vac = LWVector.vacuum(lam)
    # d_i kills the vacuum, h_i reads the weight, x^i creates
    assert act(spec, spec.d(1), vac).is_zero()
    assert act(spec, spec.h(1), vac).scalar_multiple_of_vacuum() == Fraction(5, 4)
    xv = act(spec, spec.x(2), vac)
    assert xv.terms == {(0, 1): Fraction(1)}
    # gamma_1 = d_1 x^1 acts by sum_k Psi^{1k}_{1k} sigma_k at lambda
    assert act(spec, spec.gamma(1), vac).scalar_multiple_of_vacuum() == Fraction(13, 25)


def test_action_respects_products():
    n = 2
    spec = RingSpec(n, sigma_from_potential(Hpot(n, 1)))
    lam = generic_lambda(n)
    vac = LWVector.vacuum(lam)
    pairs = [(spec.d(1), spec.x(1)), (spec.x(2), spec.x(1)),
             (spec.d(2), spec.x(2)), (spec.x(1), spec.d(1))]
    for u, v in pairs:
        assert act(spec, u, act(spec, v, vac)) == \
            act(spec, multiply(spec, u, v), vac)


def test_central_characters_frozen():
    fam = central_family(Hpot(2, 1))
    acted, predicted = central_character(fam, generic_lambda(2))
    assert acted == predicted == [Fraction(-2), Fraction(-5, 9)]
    fam = central_family(Hpot(3, 2))
    acted, predicted = central_character(fam, generic_lambda(3))
    assert acted == [Fraction(-241, 16), Fraction(-357, 16),
                     Fraction(-297, 64)]


def test_character_for_pole_potential():
    n = 2
    fam = central_family(RatFun.one(n) / chi(n, 1))
    acted, predicted = central_character(fam, generic_lambda(n))
    assert acted == predicted
