"""Lowest weight modules at generic weights and central characters."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from hdcalc.ratfield import Poly, RatFun
from hdcalc.rmatrix import chi, elementary_symmetric, psi_component
from hdcalc.diffring import NormalElement, RingSpec, module_form, multiply
from hdcalc.potential import sigma_from_potential
from hdcalc.central import central_family, character_map
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


def test_float_weight_is_refused():
    # 0.1 would be stored as 3602879701896397/36028797018963968
    with pytest.raises(TypeError):
        Weight((0.1, 0.3))
    assert Weight(("1/10", 3)).values == (Fraction(1, 10), Fraction(3))


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


def _explicit_vacuum_value(spec, i):
    n = spec.n
    return sum((psi_component(n, i, k, i, k) * spec.sigma[k - 1]
                for k in range(1, n + 1)), RatFun.zero(n))


def test_vacuum_values_are_per_spec():
    """Two families at one n, built before either is read, keep their own
    vacuum values on every route that reads them: the zero-order term of
    module_form on d_i x^i, the action of d_i x^i on the vacuum, and
    character_map."""
    n = 3
    fams = [central_family(Hpot(n, L)) for L in (1, 2)]
    specs = [fam.spec for fam in fams]
    assert specs[0] != specs[1]
    lam = generic_lambda(n)
    vac = LWVector.vacuum(lam)
    z = (0,) * n
    for _ in range(2):  # the second pass reads the memoised values
        for fam, spec in zip(fams, specs):
            want = [_explicit_vacuum_value(spec, i) for i in range(1, n + 1)]
            for i in range(1, n + 1):
                assert spec.vacuum_value(i) == want[i - 1]
                word = [('d', i), ('x', i)]
                assert module_form(spec, word)[(z, z)] == want[i - 1]
                assert (act(spec, spec.gamma(i), vac).scalar_multiple_of_vacuum()
                        == want[i - 1].evaluate(lam.values))
            assert character_map(fam) == [
                -fam.rho[k - 1] + sum(
                    (RatFun.from_poly(elementary_symmetric(n, k - 1, skip=i))
                     * want[i - 1] for i in range(1, n + 1)), RatFun.zero(n))
                for k in range(1, n + 1)]
    assert ([specs[0].vacuum_value(i) for i in range(1, n + 1)]
            != [specs[1].vacuum_value(i) for i in range(1, n + 1)])


def _seeded_specs(n):
    flat = sigma_from_potential(Hpot(n, 1))
    bumped = (flat[0] + RatFun.var(n, 2),) + flat[1:]
    return [RingSpec(n, flat), RingSpec(n, bumped), RingSpec(n)]


def _module_and_act_digest(n, seed, count, length):
    """sha256 over module_form on seeded words and act on a seeded vector,
    for flat, bumped and zero sigma."""
    rng = random.Random(seed)
    lam = generic_lambda(n)
    vec = LWVector(lam, {(0,) * n: Fraction(1),
                         tuple(int(j == 0) for j in range(n)): Fraction(2, 3)})
    out = []
    for spec in _seeded_specs(n):
        for _ in range(count):
            word = [(rng.choice("xd"), rng.randint(1, n))
                    for _ in range(rng.randint(1, length))]
            coeff = RatFun.var(n, rng.randint(1, n)) + rng.randint(-2, 2)
            form = module_form(spec, [coeff] + word)
            out.append(sorted([list(a), list(b), c.to_json()]
                              for (a, b), c in form.items()))
            a, b = (tuple(word.count((s, j)) for j in range(1, n + 1))
                    for s in "dx")
            v = act(spec, NormalElement(n, {(a, b): coeff}), vec)
            out.append(sorted([list(k), str(c)] for k, c in v.terms.items()))
    blob = json.dumps(out, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("n, count, length, digest", [
    (2, 12, 5, "2ef9dacade2ddd5299dfee87de846f50829965cc3af6a585d5fc76cd24516840"),
    (3, 8, 4, "5a931890740e988b53a90d6c7e2e18f5e7e4ef6389b40ed3bfe23d7497fb2d1c"),
], ids=["n2", "n3"])
def test_module_form_and_act_outputs_pinned(n, count, length, digest):
    """The outputs are pinned from before the vacuum values were memoised."""
    assert _module_and_act_digest(n, 7 + n, count, length) == digest
