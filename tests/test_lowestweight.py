"""Lowest weight modules at generic weights and central characters."""

import functools
import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hdcalc.ratfield import Poly, RatFun
from hdcalc import lowestweight
from hdcalc.rmatrix import chi, elementary_symmetric, psi_component
from hdcalc.diffring import (NormalElement, RingSpec, module_form, multiply,
                             normal_form)
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
    seen = []
    for _ in range(2):  # the second pass follows a pass over both specs
        for fam, spec in zip(fams, specs):
            want = [_explicit_vacuum_value(spec, i) for i in range(1, n + 1)]
            got = [module_form(spec, [[('d', i), ('x', i)]])[(z, z)]
                   for i in range(1, n + 1)]
            assert got == want
            seen.append(got)
            for i in range(1, n + 1):
                assert (act(spec, spec.gamma(i), vac).scalar_multiple_of_vacuum()
                        == want[i - 1].evaluate(lam.values))
            assert character_map(fam) == [
                -fam.rho[k - 1] + sum(
                    (RatFun.from_poly(elementary_symmetric(n, k - 1, skip=i))
                     * want[i - 1] for i in range(1, n + 1)), RatFun.zero(n))
                for k in range(1, n + 1)]
    assert seen[0] != seen[1]


@functools.cache
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
            form = module_form(spec, [[coeff] + word])
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


def test_act_follows_the_left_walk_which_a_bumped_sigma_tells_apart():
    """act is the module walk leftmost pair first.  On the non-flat sigma
    (1 + h2, 1) the walk rightmost pair first, the right-to-left action,
    gives another vector for x1 d1 on x2 v, so an action by one scalar per
    generator cannot keep act's outputs there; on the flat (1, 1) the two
    walks agree."""
    n = 2
    lam = generic_lambda(n)
    vec = LWVector(lam, {(0, 1): Fraction(1)})
    mono = NormalElement._mono_tokens
    walks = {}
    for name, first in (("bumped", RatFun.var(n, 2) + 1),
                        ("flat", RatFun.one(n))):
        spec = RingSpec(n, (first, RatFun.one(n)))
        elem = normal_form(spec, [('x', 1), ('d', 1)])
        words = [[f, *mono(a, b), *mono((0,) * n, (0, 1))]
                 for (a, b), f in elem.terms.items()]
        walks[name] = (act(spec, elem, vec).terms,
                       module_form(spec, words, weight=lam.values),
                       module_form(spec, words, "right", weight=lam.values))
    assert walks["bumped"] == ({}, {}, {(0, 1): Fraction(-72, 49)})
    assert walks["flat"] == ({}, {}, {})


def _act_by_canonical_forms(spec, elem, vec):
    """act by the canonical route: module_form without a weight on each
    term's word times each basis vector x^b, and each d-free coefficient
    evaluated at lambda + b."""
    n = spec.n
    lam = vec.weight
    mono = NormalElement._mono_tokens
    out = {}
    for bv, cv in vec.terms.items():
        for (a, b), f in elem.terms.items():
            word = [f, *mono(a, b), *mono((0,) * n, bv)]
            for (ak, bk), coeff in module_form(spec, [word]).items():
                if not any(ak):
                    out[bk] = (out.get(bk, 0)
                               + cv * coeff.evaluate(lam.shifted(bk)))
    return LWVector(lam, out)


def _coefficients(n):
    """A Fraction constant, a polynomial with Fraction coefficients, and
    rational functions with poles along h1 - h2 + 1 and h_n - h1 - 2."""
    h = [RatFun.var(n, i) for i in range(1, n + 1)]
    pole = RatFun.inverse_diff(n, 1, 2, 1)
    return [RatFun.const(n, Fraction(3, 7)),
            h[0] * Fraction(2, 3) - h[n - 1] * h[1] + Fraction(1, 2),
            pole,
            (h[1] + Fraction(1, 3)) * pole * RatFun.inverse_diff(n, n, 1, -2)]


@functools.cache
def _pole_specs(n):
    """A flat sigma with poles, so that sigma tokens moved across
    generators carry shifted denominators."""
    return [RingSpec(n, sigma_from_potential(Hpot(n, 1)
                                             + RatFun.one(n) / chi(n, 2)))]


_WEIGHTS = [(Fraction(1, 3), Fraction(2, 5), Fraction(4, 7)),
            (Fraction(-7, 4), Fraction(5, 6), Fraction(11, 9))]


@settings(max_examples=40)
@given(st.data())
def test_act_agrees_with_the_canonical_module_form(data):
    """act, one walk for every basis vector read at the weight term by term,
    gives the vector that the canonical module forms give, evaluated: on
    random words at n=2,3 with Fraction and pole coefficients, for flat,
    bumped, zero and pole sigma, on vectors of two or more basis terms."""
    n = data.draw(st.sampled_from([2, 3]), label="n")
    spec = data.draw(st.sampled_from(_seeded_specs(n) + _pole_specs(n)),
                     label="spec")
    gen = st.tuples(st.sampled_from("xd"), st.integers(1, n))
    word = data.draw(st.lists(gen, min_size=1, max_size=6 - n), label="word")
    coeff = data.draw(st.sampled_from(_coefficients(n)), label="coeff")
    elem = normal_form(spec, [coeff, *word])
    basis = [b for b in itertools.product(range(3), repeat=n) if sum(b) <= 2]
    scalars = st.fractions(min_value=-3, max_value=3,
                           max_denominator=9).filter(bool)
    terms = data.draw(st.dictionaries(st.sampled_from(basis), scalars,
                                      min_size=2, max_size=3), label="vec")
    lam = Weight(data.draw(st.sampled_from(_WEIGHTS), label="lambda")[:n])
    vec = LWVector(lam, terms)
    assert act(spec, elem, vec) == _act_by_canonical_forms(spec, elem, vec)


def test_act_adds_no_ratfun(monkeypatch):
    """The central elements act on the vacuum at n=3 with no RatFun added:
    every sum is taken at the weight."""
    fam = central_family(Hpot(3, 2) + RatFun.one(3) / chi(3, 2))
    fam.spec  # the family's ring is built on its first read, before the patch

    def refuse(self, other):
        raise AssertionError("a RatFun was added")

    monkeypatch.setattr(RatFun, "__add__", refuse)
    acted, predicted = central_character(fam, generic_lambda(3))
    assert acted == predicted


def test_act_walks_once_for_a_vector_of_three_terms(monkeypatch):
    """Every basis vector's words go into one module_form call, each led by
    the vector's scalar, and the result is the canonical route's."""
    n = 2
    spec = _pole_specs(n)[0]
    lam = generic_lambda(n)
    vec = LWVector(lam, {(0, 0): Fraction(1, 2), (1, 0): Fraction(-2, 3),
                         (0, 2): Fraction(3)})
    elem = (multiply(spec, spec.d(1), spec.d(2)) + spec.x(1)
            + spec.gamma(2).scale(RatFun.var(n, 1)))
    want = _act_by_canonical_forms(spec, elem, vec)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return module_form(*args, **kwargs)

    monkeypatch.setattr(lowestweight, "module_form", counted)
    assert act(spec, elem, vec) == want
    assert len(calls) == 1
    assert not want.is_zero()
