"""Exact polynomial / rational-function layer, cross-checked against sympy."""

import importlib.util
import pathlib
import random
import sys
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import example, given, settings, assume, strategies as st

from hdcalc.ratfield import (Poly, RatFun, DomainError, PoleError,
                             partial_fractions, factor_linfactors, rank_exact,
                             eps_vec, canon_factor, exact_coeff, lcm_lift)


def sym_vars(n):
    return sympy.symbols(f"h1:{n + 1}")


def to_sympy(p):
    hs = sym_vars(p.n)
    out = sympy.Integer(0)
    for e, c in p.terms.items():
        mono = sympy.Rational(c.numerator, c.denominator)
        for i, d in enumerate(e):
            mono *= hs[i] ** d
        out += mono
    return sympy.expand(out)


def ratfun_to_sympy(f):
    hs = sym_vars(f.n)
    out = to_sympy(f.num)
    for (i, j, a), m in f.den.items():
        out /= (hs[i - 1] - hs[j - 1] + a) ** m
    return out


def rand_poly(rng, n, nterms=4, deg=3):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randrange(deg + 1) for _ in range(n))
        terms[e] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
    return Poly(n, {e: c for e, c in terms.items() if c})


def test_poly_ring_axioms_match_sympy():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randrange(1, 4)
        a, b = rand_poly(rng, n), rand_poly(rng, n)
        assert to_sympy(a + b) == to_sympy(a) + to_sympy(b)
        assert to_sympy(a * b) == sympy.expand(to_sympy(a) * to_sympy(b))
        assert to_sympy(-a) == -to_sympy(a)


def test_poly_shift_matches_substitution():
    rng = random.Random(8)
    hs = sym_vars(3)
    for _ in range(10):
        p = rand_poly(rng, 3)
        svec = tuple(rng.randrange(-2, 3) for _ in range(3))
        shifted = to_sympy(p.shift(svec))
        direct = to_sympy(p).subs({hs[i]: hs[i] + svec[i] for i in range(3)},
                                  simultaneous=True)
        assert shifted == sympy.expand(direct)


def test_subst_var_linear_matches_sympy():
    rng = random.Random(9)
    for n in (2, 3, 4):
        hs = sym_vars(n)
        for _ in range(8):
            p = rand_poly(rng, n, 6, 3)
            i, j = rng.sample(range(1, n + 1), 2)
            for j in (j, i):  # j == i is the shift h_i := h_i + a
                for a in (-2, 0, 3):
                    got = p.subst_var_linear(i, j, a)
                    want = sympy.expand(to_sympy(p).subs(hs[i - 1], hs[j - 1] + a))
                    assert to_sympy(got) == want
                    if j != i:
                        assert got.degree_in(i) <= 0


def test_poly_fraction_coefficients_stay_exact():
    p = Poly(1, {(1,): Fraction(1, 3), (0,): Fraction(1, 2)})
    q = p * p
    assert q.terms[(2,)] == Fraction(1, 9)
    assert q.terms[(1,)] == Fraction(1, 3)
    assert q.terms[(0,)] == Fraction(1, 4)


def test_poly_pow_and_eval():
    p = Poly.diff(2, 1, 2, 1)  # h1 - h2 + 1
    assert (p ** 3).evaluate((Fraction(5), Fraction(2))) == 64
    assert p.evaluate((Fraction(1, 2), Fraction(1, 2))) == 1


def test_ratfun_cancellation_is_automatic():
    n = 2
    num = Poly.diff(n, 1, 2) * Poly(n, {(1, 0): Fraction(1), (0, 1): Fraction(1)})
    f = RatFun.build(num, [(1, 2, 0)])  # (h1-h2)(h1+h2)/(h1-h2)
    assert f.is_poly()
    assert f == RatFun.from_poly(Poly(n, {(1, 0): Fraction(1), (0, 1): Fraction(1)}))


def test_cancel_leaves_the_callers_den_alone():
    d = {(1, 2, 0): 1}
    f = RatFun(Poly.diff(2, 1, 2), d)
    assert d == {(1, 2, 0): 1} and f.den is not d
    assert f == RatFun.one(2)
    d = {(1, 2, 0): 2, (1, 2, 1): 1}
    f = RatFun(Poly.diff(2, 1, 2), d)
    assert d == {(1, 2, 0): 2, (1, 2, 1): 1}
    assert f.den == {(1, 2, 0): 1, (1, 2, 1): 1}


def test_constant_numerator_keeps_its_factors_and_not_the_callers_den():
    # no linear factor divides a nonzero constant, so _cancel returns early;
    # it must still copy the dict the caller passed
    d = {(1, 2, 0): 2, (1, 2, 1): 1}
    f = RatFun(Poly.const(2, 3), d)
    assert f.den == {(1, 2, 0): 2, (1, 2, 1): 1} and f.den is not d
    d[(1, 2, 0)] = 5
    del d[(1, 2, 1)]
    assert f.den == {(1, 2, 0): 2, (1, 2, 1): 1}
    assert f.num == Poly.const(2, 3)
    assert f.evaluate((Fraction(3), Fraction(1))) == Fraction(1, 4)
    g = RatFun.build(Poly.const(3, Fraction(-1, 2)), [(2, 1, 0), ((1, 3, 2), 3)])
    assert g.num == Poly.const(3, Fraction(1, 2))
    assert g.den == {(1, 2, 0): 1, (1, 3, 2): 3}


def test_cancel_keeps_factor_when_only_a_point_of_its_hyperplane_vanishes():
    # h3 - 7 vanishes at points of the hyperplane h1 = h2, but h1 - h2 does
    # not divide it
    n = 3
    num = Poly(n, {(0, 0, 1): 1, (0, 0, 0): -7})
    f = RatFun(num, {(1, 2, 0): 1})
    assert f.den == {(1, 2, 0): 1}
    assert f.num == num


def test_cancel_with_coefficient_denominator_divisible_by_prime():
    n, P = 2, 2**61 - 1
    rest = Poly(n, {(1, 0): Fraction(1), (0, 0): Fraction(1, 3 * P)})
    f = RatFun(Poly.diff(n, 1, 2) ** 2 * rest, {(1, 2, 0): 3, (1, 2, 1): 1})
    assert f.num == rest
    assert f.den == {(1, 2, 0): 1, (1, 2, 1): 1}


def _cancel_by_substitution(num, den):
    """Cancel num / den with no shortcut: divide by each factor while the
    substitution h_i := h_j - a sends num to zero."""
    out = {}
    for (i, j, a), m in den.items():
        while m and num.subst_var_linear(i, j, -a).is_zero():
            num = num.div_linfactor(i, j, a)
            m -= 1
        if m:
            out[(i, j, a)] = m
    return num, out


def test_one_term_numerator_makes_no_divisibility_test(monkeypatch):
    # no linear factor h_i - h_j + a divides a nonzero monomial
    calls = [0]
    subst_var_linear = Poly.subst_var_linear

    def counted(*args):
        calls[0] += 1
        return subst_var_linear(*args)

    den = {(1, 2, 0): 2, (1, 3, -1): 1, (2, 3, 4): 3}
    for c in (1, -7, Fraction(3, 5)):
        for e in ((0, 0, 0), (1, 0, 0), (2, 1, 0), (0, 3, 1), (4, 4, 4)):
            num = Poly(3, {e: c})
            with monkeypatch.context() as m:
                m.setattr(Poly, "subst_var_linear", counted)
                f = RatFun(num, den)
            assert (f.num, f.den) == _cancel_by_substitution(num, den)
            assert f.den is not den
    assert calls[0] == 0


def _uncancelled(rng, f):
    """f as a pair (num * F^k, den * F^k) over random extra factors F."""
    num, den = f.num, dict(f.den)
    for fac in _POOL:
        k = rng.randrange(3)
        if k:
            num = num.mul_linfactor(*fac, k)
            den[fac] = den.get(fac, 0) + k
    return num, den


def test_lcm_lift_decides_equality_as_subtraction_does():
    rng = random.Random(41)
    n = 3
    coeffs = (1, -2, Fraction(1, 3), Fraction(-5, 7))
    extras = (Poly.var(n, 1) + Poly.var(n, 3), Poly.diff(n, 2, 3, 2),
              Poly.var(n, 1) * Poly.var(n, 2) + Poly.const(n, Fraction(1, 2)))

    def canonical():
        num = rng.choice(extras).scale(rng.choice(coeffs))
        den = {}
        for fac in _POOL:
            num = num * Poly.diff(n, *fac) ** rng.randrange(2)
            if rng.randrange(2):
                den[fac] = rng.randrange(1, 3)
        return RatFun(num, den)

    equal = 0
    for _ in range(200):
        f = canonical()
        g = rng.choice((f, canonical(), f + RatFun.inverse_diff(n, 1, 2)))
        x, y = _uncancelled(rng, f), _uncancelled(rng, g)
        p, q, den, _ = lcm_lift(*x, *y)
        assert RatFun(p, den) == f and RatFun(q, den) == g
        assert (p == q) == (f - g).is_zero()
        equal += p == q
    assert 0 < equal < 200
    # (h1 - h2 - 1)(h1 - h2 + 1) / (h1 - h2 - 1) against h1 - h2 + 1
    plus = Poly.diff(2, 1, 2, 1)
    p, q, den, _ = lcm_lift(Poly.diff(2, 1, 2, -1) * plus, {(1, 2, -1): 1},
                           plus, {})
    assert p == q and den == {(1, 2, -1): 1}


@st.composite
def _quotient_and_factor(draw):
    n = draw(st.integers(2, 3))
    exps = st.tuples(*[st.integers(0, 2)] * n)
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    terms = draw(st.dictionaries(exps, coeffs, min_size=1, max_size=5))
    q = Poly(n, {e: c for e, c in terms.items() if c})
    i, j = sorted(draw(st.lists(st.integers(1, n), min_size=2, max_size=2,
                                unique=True)))
    return q, (i, j, draw(st.integers(-3, 3)))


@settings(max_examples=60)
@given(_quotient_and_factor(), st.integers(0, 3), st.integers(1, 3))
def test_cancel_matches_hand_cancellation(qf, k, m):
    q, fac = qf
    i, j, a = fac
    assume(not q.is_zero())
    assume(not q.subst_var_linear(i, j, -a).is_zero())  # L does not divide q
    L = Poly.diff(q.n, i, j, a)
    f = RatFun(q * L ** k, {fac: m})
    c = min(k, m)
    want_den = {fac: m - c} if m > c else {}
    assert f == RatFun(q * L ** (k - c), want_den, _canonical=True)


def test_ratfun_canonical_equality():
    # 1/(h2 - h1) must normalize to -1/(h1 - h2)
    f = RatFun.inverse_diff(2, 2, 1)
    g = -RatFun.inverse_diff(2, 1, 2)
    assert f == g
    assert list(f.den) == [(1, 2, 0)]


def test_ratfun_field_ops_match_sympy():
    rng = random.Random(21)
    pool = [RatFun.inverse_diff(3, 1, 2), RatFun.inverse_diff(3, 2, 3, 1),
            RatFun.from_poly(rand_poly(rng, 3, 3, 2)),
            RatFun.inverse_diff(3, 1, 3, -2)]
    sy = ratfun_to_sympy

    for _ in range(20):
        a, b = rng.choice(pool), rng.choice(pool)
        for op in ("+", "*", "-"):
            got = {"+": a + b, "*": a * b, "-": a - b}[op]
            want = {"+": sy(a) + sy(b), "*": sy(a) * sy(b), "-": sy(a) - sy(b)}[op]
            assert sympy.simplify(sy(got) - want) == 0


def test_inverse_of_integer_constant_is_exact():
    inv = RatFun.const(2, 3).inverse()
    assert inv.const_value() == Fraction(1, 3)
    assert RatFun.from_poly(Poly.diff(2, 1, 2, 1).scale(3)).inverse() == (
        RatFun.inverse_diff(2, 1, 2, 1) * Fraction(1, 3))


def test_float_coefficients_are_refused():
    with pytest.raises(TypeError):
        Poly.const(2, 0.5)
    with pytest.raises(TypeError):
        Poly.var(2, 1).scale(1 / 3)


def test_ratfun_inverse_requires_linfactor_denominator():
    f = RatFun.from_poly(Poly.diff(2, 1, 2, 5))
    assert f.inverse() == RatFun.inverse_diff(2, 1, 2, 5)
    g = RatFun.from_poly(Poly(2, {(1, 0): Fraction(1), (0, 1): Fraction(1)}))
    with pytest.raises(DomainError):
        g.inverse()


def test_shift_then_delta():
    f = RatFun.inverse_diff(2, 1, 2)
    # Delta_1 1/h12 = 1/h12 - 1/(h12-1)
    d = f.delta(1)
    want = f - RatFun.inverse_diff(2, 1, 2, -1)
    assert d == want
    # shifting in j leaves h_i - h_j + a with a bumped the other way
    assert f.shift(eps_vec(2, 2)) == RatFun.inverse_diff(2, 1, 2, -1)


@st.composite
def _poly_and_point(draw):
    """A polynomial at n = 1..4 with int and Fraction coefficients, and a
    point of ints and Fractions, zero and negative among them."""
    n = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 4)] * n)
    rationals = st.one_of(st.integers(-5, 5),
                          st.fractions(min_value=-4, max_value=4, max_denominator=6))
    terms = draw(st.dictionaries(exps, rationals, max_size=6))
    p = Poly(n, {e: c.numerator if c.denominator == 1 else c
                 for e, c in terms.items() if c})
    return p, draw(st.tuples(*[rationals] * n))


@settings(max_examples=150)
@given(_poly_and_point())
@example((Poly(2, {(2, 1): Fraction(2, 3), (0, 0): -1}), (0, Fraction(-3, 4))))
@example((Poly(3, {(1, 0, 2): Fraction(-1, 6), (0, 3, 0): 4}),
          (Fraction(-1, 2), 0, Fraction(5, 3))))
def test_evaluate_matches_term_by_term_fractions(pp):
    p, point = pp
    want = Fraction(0)
    for e, c in p.terms.items():
        v = Fraction(c)
        for x, d in zip(point, e):
            v *= Fraction(x) ** d
        want += v
    got = p.evaluate(point)
    assert type(got) is Fraction and got == want


def test_evaluate_and_pole():
    f = RatFun.inverse_diff(2, 1, 2)
    assert f.evaluate((Fraction(3), Fraction(1))) == Fraction(1, 2)
    with pytest.raises(PoleError):
        f.evaluate((Fraction(1), Fraction(1)))


def test_subst_var_hits_pole():
    f = RatFun.inverse_diff(2, 1, 2)
    with pytest.raises(PoleError):
        f.subst_var(1, 2, 0)
    assert f.subst_var(1, 2, 3) == RatFun.const(2, Fraction(1, 3))


def test_subst_var_into_the_same_variable_is_the_shift():
    n = 3
    for f in _samples(n):
        for j in range(1, n + 1):
            for a in (-2, 0, 1, 3):
                assert f.subst_var(j, j, a) == f.shift(eps_vec(n, j, a))


def test_permuted_relabels_factors():
    f = RatFun.inverse_diff(3, 1, 2) * RatFun.from_poly(Poly.var(3, 1))
    g = f.permuted((2, 3, 1))  # h1->h2, h2->h3, h3->h1
    want = RatFun.inverse_diff(3, 2, 3) * RatFun.from_poly(Poly.var(3, 2))
    assert g == want


def test_partial_fractions_roundtrip():
    rng = random.Random(5)
    n = 3
    for _ in range(12):
        num = rand_poly(rng, n, 3, 2)
        dens = rng.sample([(1, 2, 0), (1, 2, 1), (1, 3, 0), (2, 3, -1)],
                          rng.randrange(1, 4))
        f = RatFun.build(num, dens)
        principal, regular = partial_fractions(f, 1)
        back = regular
        for k, a, nu, u in principal:
            back = back + u * (RatFun.inverse_diff(n, 1, k, -a) ** nu)
        assert back == f
        # regular part carries no h1 poles
        for (i, j, _a), _m in regular.den.items():
            assert 1 not in (i, j)


def test_factor_linfactors():
    n = 3
    p = Poly.diff(n, 1, 2) * Poly.diff(n, 1, 2) * Poly.diff(n, 2, 3, 4).scale(Fraction(-3, 2))
    fac = factor_linfactors(p)
    assert fac is not None
    scal, factors = fac
    assert scal == Fraction(-3, 2)
    assert factors == {(1, 2, 0): 2, (2, 3, 4): 1}
    # irreducible quadratic: no linear-difference factorization
    q = Poly(2, {(2, 0): Fraction(1), (0, 2): Fraction(1)})
    assert factor_linfactors(q) is None


def _huge_shift_product(n):
    return (Poly.diff(n, 1, 2, 10**20) * Poly.diff(n, 1, 2)
            * Poly.diff(n, 1, 3, -7) ** 2 * Poly.diff(n, 2, 3, 1))


def test_factor_linfactors_huge_shift():
    # the shift is read off the coefficients, not searched among divisors
    p = _huge_shift_product(3).scale(Fraction(-5, 3))
    assert factor_linfactors(p) == (
        Fraction(-5, 3), {(1, 2, 10**20): 1, (1, 2, 0): 1, (1, 3, -7): 2, (2, 3, 1): 1})
    assert factor_linfactors(Poly.diff(2, 2, 1, -10**20)) == (-1, {(1, 2, 10**20): 1})
    # repeated roots far apart: the root bound, not the coefficient size,
    # sets the number of Newton steps
    p = Poly.diff(2, 1, 2, 10**20) ** 10 * Poly.diff(2, 1, 2, -10**20) ** 10
    assert factor_linfactors(p) == (1, {(1, 2, 10**20): 10, (1, 2, -10**20): 10})


def test_factor_linfactors_rejects_irreducible_cofactor():
    n = 3
    q = Poly.var(n, 1) ** 2 + Poly.var(n, 2) ** 2 + Poly.const(n, 1)
    assert factor_linfactors(_huge_shift_product(n) * q) is None
    assert factor_linfactors(Poly.diff(n, 1, 2) * (Poly.var(n, 1) + Poly.const(n, 1))) is None
    assert factor_linfactors(Poly.diff(n, 1, 2) * Poly.diff(n, 1, 2, 1).scale(2)
                             + Poly.const(n, 1)) is None


@st.composite
def _linfactor_product(draw):
    n = draw(st.integers(2, 4))
    c = draw(st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool))
    pair = st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)
    shift = st.one_of(st.integers(-5, 5), st.integers(-10**30, 10**30))
    return n, c, draw(st.lists(st.tuples(pair, shift), max_size=6))


@settings(max_examples=100)
@given(_linfactor_product())
def test_factor_linfactors_round_trip(prod):
    n, c, factors = prod
    p = Poly.const(n, c)
    want = {}
    for (i, j), a in factors:
        p = p * Poly.diff(n, i, j, a)
        fac, sign = canon_factor(i, j, a)
        want[fac] = want.get(fac, 0) + 1
        c *= sign
    assert factor_linfactors(p) == (c, want)


def test_rank_exact_matches_sympy():
    rng = random.Random(32)
    for _ in range(10):
        m = [[Fraction(rng.randrange(-3, 4)) for _ in range(4)] for _ in range(3)]
        assert rank_exact(m) == sympy.Matrix(m).rank()


def test_json_roundtrip():
    f = RatFun.build(Poly(2, {(1, 0): Fraction(-2, 3), (0, 0): Fraction(5)}),
                     [((1, 2, -1), 2)])
    assert RatFun.from_json(2, f.to_json()) == f


def _forms(terms, as_fraction):
    """terms with every integral coefficient an int, or every one a Fraction."""
    return {e: (Fraction(c) if as_fraction else c) for e, c in terms.items()}


@st.composite
def _mixed_pair(draw):
    n = draw(st.integers(2, 3))
    exps = st.tuples(*[st.integers(0, 2)] * n)
    coeffs = st.one_of(st.integers(-6, 6),
                       st.fractions(min_value=-3, max_value=3, max_denominator=4))
    pair = st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)
    factor = st.tuples(pair, st.integers(-2, 2))

    def ratfun():
        terms = draw(st.dictionaries(exps, coeffs, max_size=4))
        terms = {e: (c.numerator if isinstance(c, Fraction) and c.denominator == 1 else c)
                 for e, c in terms.items() if c}
        return terms, draw(st.lists(factor, max_size=2))

    return n, ratfun(), ratfun(), draw(st.tuples(*[st.integers(-2, 2)] * n)), draw(pair)


def _build(n, terms, den, as_fraction):
    return RatFun.build(Poly(n, _forms(terms, as_fraction)),
                        [(i, j, a) for (i, j), a in den])


def _mixed_results(case, fa, fb):
    n, (ta, da), (tb, db), svec, (j, k) = case
    a, b = _build(n, ta, da, fa), _build(n, tb, db, fb)
    out = [a + b, a - b, a * b, a.shift(svec), b.shift(svec)]
    for f in (a, b):
        try:
            out.append(f.subst_var(j, k, 1))
        except PoleError:
            out.append(None)
    return a, b, out


@settings(max_examples=80)
@given(_mixed_pair())
def test_integral_coefficients_as_int_or_fraction_agree(case):
    _, _, want = _mixed_results(case, False, False)
    for fa, fb in ((True, True), (True, False), (False, True)):
        _, _, got = _mixed_results(case, fa, fb)
        for g, w in zip(got, want):
            assert g == w
            if w is not None:
                assert g.to_json() == w.to_json()
                assert repr(g) == repr(w)
                assert all(type(c) in (int, Fraction) for c in g.num.terms.values())


@settings(max_examples=8)
@given(_mixed_pair())
def test_mixed_coefficient_ops_match_sympy(case):
    n, _, _, svec, (j, k) = case
    hs = sym_vars(n)
    sy = ratfun_to_sympy
    a, b, got = _mixed_results(case, True, False)
    shifted = {hs[i]: hs[i] + svec[i] for i in range(n)}
    want = [sy(a) + sy(b), sy(a) - sy(b), sy(a) * sy(b),
            sy(a).subs(shifted, simultaneous=True), sy(b).subs(shifted, simultaneous=True),
            sy(a).subs(hs[j - 1], hs[k - 1] + 1), sy(b).subs(hs[j - 1], hs[k - 1] + 1)]
    for g, w in zip(got, want):
        if g is not None:  # None: the substitution hit a pole
            assert sympy.cancel(sy(g) - w) == 0


def test_no_float_reaches_a_coefficient(monkeypatch, capsys):
    from hdcalc import diffring, rmatrix
    from hdcalc.cli import main
    from hdcalc.diffring import RingSpec, verify_pbw
    from hdcalc.potential import reconstruct_potential, sigma_from_potential

    init = Poly.__init__

    def checked(self, n, terms=None, den=None):
        init(self, n, terms, den)
        assert type(self.den) is int and self.den >= 1, f"den {self.den!r}"
        for c in self.ints.values():
            assert type(c) is int and c, f"coefficient {c!r}"
        assert gcd(self.den, *self.ints.values()) == 1, self

    monkeypatch.setattr(Poly, "__init__", checked)
    # every cache, so that no value built earlier in the process escapes
    # the checked constructor
    for obj in list(vars(rmatrix).values()) + list(vars(diffring).values()):
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()

    n = 3
    # the symmetric part's leading coefficients are not divisible by L
    f = (RatFun.from_poly(rmatrix.complete_symmetric(n, 3)) * Fraction(1, 3)
         + RatFun.from_poly(rmatrix.complete_symmetric(n, 2)) * Fraction(5, 2)
         + (Poly.var(n, 2) + Poly.const(n, 1)) * rmatrix.chi_inv(n, 2))
    sigma = sigma_from_potential(f)
    assert verify_pbw(RingSpec(n, sigma)).flat
    assert not verify_pbw(RingSpec(n, (sigma[0] + RatFun.var(n, 2),) + sigma[1:])).flat
    assert rmatrix.verify_dybe(3).passed
    assert (reconstruct_potential(sigma) - f).is_const()

    for argv, want in ((["nf", "2/(2*h1-2*h2+4) + 1/3", "-n", "2"],
                        "(1/3*h1 - 1/3*h2 + 5/3)/(h1-h2+2)"),
                       (["solve-potential", "--sigmas", "Delta(1,H(3)/3);Delta(2,H(3)/3)"],
                        "1/3*H(3)"),
                       (["central", "-n", "2", "--potential", "H(2)/3"], None)):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert want is None or out.strip() == want


# ---------------------------------------------------------------------------
# arithmetic tests only the factors that can cancel; it trusts _canonical


def _assert_canonical(f):
    """Rebuilding f without the canonical flag cancels every factor again."""
    again = RatFun(f.num, dict(f.den))
    assert again.to_json() == f.to_json()


def _samples(n=3):
    L12, L23 = Poly.diff(n, 1, 2), Poly.diff(n, 2, 3, 1)
    return [
        RatFun.zero(n), RatFun.one(n), RatFun.const(n, Fraction(-2, 3)),
        RatFun.const(n, 5), RatFun.var(n, 2),
        RatFun.from_poly(L12 * L23 + Poly.const(n, 1)),
        RatFun.inverse_diff(n, 1, 2), RatFun.inverse_diff(n, 3, 1, 2),
        RatFun.build(L12 + Poly.const(n, 1), [(1, 2, 0)]),
        RatFun.build(L23 * Poly.var(n, 1), [((1, 2, 0), 2), (2, 3, 0)]),
        RatFun.build(L12 * Poly.const(n, Fraction(1, 2)), [(2, 3, 1), (1, 2, 1)]),
        RatFun.build(Poly.var(n, 3) ** 2, [((1, 2, 0), 1), ((2, 3, 1), 2)]),
    ]


def test_canonical_flags_hold():
    from hdcalc import rmatrix

    n = 3
    samples = _samples(n)
    flagged = list(samples)
    for f in samples:
        flagged += [-f, f.shift((1, 0, -2)), f.shift((0, 3, 0)),
                    f.permuted((2, 3, 1)), f.permuted((3, 2, 1))]
        for g in samples:
            # the constant and zero fast paths and the general paths
            flagged += [f * g, f + g, f - g]
    flagged += [RatFun.build(Poly.const(n, 7), [(2, 1, 0), ((3, 1, -1), 2)]),
                RatFun.build(Poly.const(n, Fraction(-1, 4)), [(1, 3, 2)]),
                RatFun.build(Poly.zero(n), [(1, 2, 0), (2, 3, 1)])]
    flagged += [rmatrix.chi_inv(n, i) for i in range(1, n + 1)]
    flagged += [rmatrix.r_component(n, i, j, k, l)
                for i in range(1, n + 1) for j in range(1, n + 1)
                for k, l in ((i, j), (j, i))]
    for f in flagged:
        _assert_canonical(f)


def _reference_product(a, b):
    """a * b the long way: the full product, every factor tested."""
    den = dict(a.den)
    for fac, m in b.den.items():
        den[fac] = den.get(fac, 0) + m
    return RatFun(a.num * b.num, den)


def _reference_sum(a, b):
    """a + b the long way: lift to the lcm, every factor tested."""
    den = dict(a.den)
    for fac, m in b.den.items():
        den[fac] = max(den.get(fac, 0), m)
    nums = []
    for f in (a, b):
        num = f.num
        for fac, m in den.items():
            num = num * Poly.diff(f.n, *fac) ** (m - f.den.get(fac, 0))
        nums.append(num)
    return RatFun(nums[0] + nums[1], den)


_POOL = ((1, 2, 0), (1, 2, 1), (2, 3, 0), (1, 3, -1))


@st.composite
def _pooled_ratfun(draw, n=3):
    """c * extra * prod F^k / prod F^m over a small pool of factors F, so
    denominators share factors at equal and unequal powers and numerators
    hold the factors of other denominators."""
    kind = draw(st.sampled_from(("general", "general", "general", "const", "zero")))
    if kind == "zero":
        return RatFun.zero(n)
    c = draw(st.sampled_from((1, -1, 2, Fraction(-3, 2), Fraction(1, 3))))
    if kind == "const":
        return RatFun.const(n, c)
    extra = draw(st.sampled_from((Poly.const(n, 1), Poly.var(n, 1) + Poly.var(n, 3),
                                  Poly.var(n, 1) * Poly.var(n, 2) + Poly.const(n, 1),
                                  Poly.diff(n, 2, 3, 2))))
    num = extra.scale(c)
    den = {}
    for fac in _POOL:
        num = num * Poly.diff(n, *fac) ** draw(st.integers(0, 2))
        m = draw(st.integers(0, 2))
        if m:
            den[fac] = m
    return RatFun(num, den)


@st.composite
def _operands(draw):
    a = draw(_pooled_ratfun())
    b = draw(_pooled_ratfun())
    if draw(st.booleans()):
        # b = g - a: the sum a + b = g cancels exactly
        b = _reference_sum(b, -a)
    return a, b


def _counter_pair(n=3):
    L = RatFun.from_poly(Poly.diff(n, 1, 2))
    return RatFun.inverse_diff(n, 1, 2), (L - 1) * RatFun.inverse_diff(n, 1, 2)


def _inverse_pair(n=3):
    a = RatFun.build(Poly.diff(n, 1, 2), [(1, 2, 1)])
    return a, RatFun.build(Poly.diff(n, 1, 2, 1), [(1, 2, 0)])


@settings(max_examples=150)
@given(_operands())
@example(_counter_pair())
@example(_inverse_pair())
def test_arithmetic_matches_cancel_everything(ab):
    a, b = ab
    for got, want in ((a * b, _reference_product(a, b)),
                      (b * a, _reference_product(b, a)),
                      (a + b, _reference_sum(a, b)),
                      (a - b, _reference_sum(a, -b))):
        assert got.to_json() == want.to_json()
        assert got == want
    # powers and inverses skip cancellation: compare with the long way
    want = RatFun.one(a.n)
    for k in range(4):
        if k:
            want = _reference_product(want, a)
        assert (a ** k).to_json() == want.to_json()
    if not a.is_zero() and factor_linfactors(a.num) is not None:
        inv = a.inverse()
        _assert_canonical(inv)
        assert _reference_product(inv, a) == RatFun.one(a.n)


def _int_when_integral(p):
    return all(type(c) is (int if c.denominator == 1 else Fraction)
               for c in p.terms.values())


def test_integral_fraction_results_become_int():
    from hdcalc.potential import sigma_from_potential
    from hdcalc.rmatrix import complete_symmetric

    n = 3
    sigma = sigma_from_potential(RatFun.from_poly(complete_symmetric(n, 3))
                                 * Fraction(1, 3))
    want = sigma_from_potential(RatFun.from_poly(complete_symmetric(n, 3)))
    for s, w in zip(sigma, want):
        assert s * 3 == w
        assert any(c.denominator == 1 for c in s.num.terms.values())
        assert _int_when_integral(s.num), s
    h = Poly(2, {(1, 0): Fraction(3, 2), (0, 1): Fraction(1, 2)})
    g = Poly(2, {(1, 0): 3, (0, 0): Fraction(1, 3)})
    for p in (h + h, h - Poly(2, {(0, 1): Fraction(-1, 2)}), h * Poly.const(2, 2),
              h * g, h.scale(4), h.shift((0, 1)), h.subst_var_linear(1, 2, 1),
              h.permuted((2, 1))):
        assert _int_when_integral(p), p
    assert type((h * Poly.const(2, 2)).terms[(1, 0)]) is int


def _assert_layout(p, want):
    """p is ints over den, den the least positive one, and its exact
    coefficients are the Fraction dict want, term by term."""
    assert type(p.den) is int and p.den >= 1
    assert all(type(c) is int and c for c in p.ints.values())
    assert gcd(p.den, *p.ints.values()) == 1
    assert p.terms == {e: c for e, c in want.items() if c}
    assert _int_when_integral(p)


def _ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return out


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


def _ref_subst(a, n, i, j, s):
    """h_i := h_j + s, one term at a time."""
    out = {}
    for e, c in a.items():
        term = {e[:i - 1] + (0,) + e[i:]: c}
        for _ in range(e[i - 1]):
            term = _ref_mul(term, {eps_vec(n, j): 1, (0,) * n: s})
        out = _ref_add(out, term)
    return out


@st.composite
def _layout_case(draw):
    """Two coefficient dicts at n = 1..3 whose values have denominators,
    a scalar, indices i and j, a shift a and a permutation."""
    n = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 2)] * n)
    coeffs = st.one_of(st.integers(-4, 4),
                       st.fractions(min_value=-4, max_value=4, max_denominator=6))
    p, q = (draw(st.dictionaries(exps, coeffs, max_size=5)) for _ in range(2))
    c = draw(coeffs)
    i, j = draw(st.integers(1, n)), draw(st.integers(1, n))
    perm = draw(st.permutations(range(1, n + 1)))
    return p, q, c, i, j, draw(st.integers(-2, 2)), perm


@settings(max_examples=150)
@given(_layout_case())
@example(({(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)}, {}, Fraction(2, 3),
          1, 2, 0, (2, 1)))
def test_every_kernel_keeps_one_least_denominator(case):
    P, Q, c, i, j, a, perm = case
    n = len(perm)
    p, q = Poly(n, P), Poly(n, Q)
    _assert_layout(p, P)
    _assert_layout(q, Q)
    _assert_layout(p + q, _ref_add(P, Q))
    _assert_layout(p - q, _ref_add(P, Q, -1))
    _assert_layout(-p, {e: -v for e, v in P.items()})
    _assert_layout(p * q, _ref_mul(P, Q))
    _assert_layout(p.scale(c), {e: c * v for e, v in P.items()})
    _assert_layout(p.shift(eps_vec(n, i, a)), _ref_subst(P, n, i, i, a))
    _assert_layout(p.subst_var_linear(i, j, a), _ref_subst(P, n, i, j, a))
    _assert_layout(p.permuted(perm), {tuple(e[perm.index(k)] for k in range(1, n + 1)): v
                                      for e, v in P.items()})
    comps = p.homogeneous_components()
    for d, comp in comps.items():
        _assert_layout(comp, {e: v for e, v in P.items() if sum(e) == d})
    assert sorted(comps) == sorted({sum(e) for e, v in P.items() if v})
    if i != j:
        lin = Poly.diff(n, i, j, a).terms
        _assert_layout(p.mul_linfactor(i, j, a, 2), _ref_mul(_ref_mul(P, lin), lin))
        _assert_layout((p * Poly.diff(n, i, j, a)).div_linfactor(i, j, a), P)


def test_the_layout_on_three_examples():
    # (h1 + h2)/2 at h1 := h2 is h2: the merged terms leave den 1
    half = Poly(2, {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)})
    assert half.den == 2 and half.ints == {(1, 0): 1, (0, 1): 1}
    got = half.subst_var_linear(1, 2, 0)
    assert got == Poly.var(2, 2) and got.den == 1 and got.ints == {(0, 1): 1}
    h = Poly.var(1, 1)
    third = h.scale(Fraction(1, 3))
    assert (third.ints, third.den) == ({(1,): 1}, 3)
    for p in (third * 3, third * Poly.const(1, 3), third + third + third):
        assert p == h and p.den == 1
    for zero in (Poly.zero(2), Poly(2, {(1, 0): Fraction(0)}), half - half,
                 half * Poly.zero(2), half.scale(0)):
        assert zero.is_zero() and zero.den == 1 and zero.ints == {}


@st.composite
def _poly_and_factor(draw):
    """A polynomial at n = 2..4 with int and Fraction coefficients, maybe
    zero, and a factor h_i - h_j + a with i != j in either order."""
    n = draw(st.integers(2, 4))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    coeffs = st.one_of(st.integers(-6, 6),
                       st.fractions(min_value=-5, max_value=5, max_denominator=4))
    terms = draw(st.dictionaries(exps, coeffs, max_size=6))
    p = Poly(n, {e: c.numerator if c.denominator == 1 else c
                 for e, c in terms.items() if c})
    i, j = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
    return p, (i, j, draw(st.integers(-3, 3)))


@settings(max_examples=150)
@given(_poly_and_factor(), st.integers(0, 3))
@example((Poly.zero(3), (1, 3, 0)), 2)
@example((Poly(2, {(1, 0): Fraction(1, 2), (0, 1): 3}), (2, 1, 0)), 1)
def test_mul_linfactor_is_the_product(pf, k):
    p, (i, j, a) = pf
    got = p.mul_linfactor(i, j, a, k)
    assert got == p * Poly.diff(p.n, i, j, a) ** k
    assert _int_when_integral(got)


@settings(max_examples=150)
@given(_poly_and_factor(), st.booleans())
@example((Poly.zero(2), (2, 1, 0)), False)
@example((Poly.const(2, 5), (1, 2, -1)), True)
@example((Poly(2, {(2, 0): Fraction(1, 2), (1, 1): 1}), (1, 2, 0)), True)
def test_div_linfactor_is_exact_division(pf, times_factor):
    p, (i, j, a) = pf
    if times_factor:
        p = p * Poly.diff(p.n, i, j, a)
    q = p.div_linfactor(i, j, a)
    assert (q is None) == (not p.subst_var_linear(i, j, -a).is_zero())
    if times_factor:
        assert q is not None
    if q is not None:
        assert q.mul_linfactor(i, j, a) == p
        assert _int_when_integral(q)


def test_cancellation_work_counts(monkeypatch):
    """Operation counts, which do not jitter the way time does.  Every
    cancellation still happens (the divisions), and no futile divisibility
    test comes back (the substitutions h_i := h_j - a with j != i, as a
    shift is j == i: 3,209 when every product and sum tested every factor,
    1,237 when a constant numerator was tested against its denominator)."""
    from hdcalc import diffring, rmatrix
    from hdcalc.diffring import (RingSpec, is_overlap_ambiguity, normal_form,
                                 overlap_words, verify_pbw)

    for obj in list(vars(rmatrix).values()) + list(vars(diffring).values()):
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    calls = {"divisibility_tests": 0, "div_linfactor": 0}
    subst_var_linear, div_linfactor = Poly.subst_var_linear, Poly.div_linfactor

    def counted_subst(self, i, j, a):
        if j != i:
            calls["divisibility_tests"] += 1
        return subst_var_linear(self, i, j, a)

    def counted_div_linfactor(*args):
        calls["div_linfactor"] += 1
        return div_linfactor(*args)

    monkeypatch.setattr(Poly, "subst_var_linear", counted_subst)
    monkeypatch.setattr(Poly, "div_linfactor", counted_div_linfactor)
    n = 2
    spec = RingSpec(n, (RatFun.one(n), RatFun.one(n)))
    # both decide each word or tuple by one numerator identity and cancel
    # nothing (16 divisions when verify_pbw compared canonical normal forms;
    # 142 when verify_dybe's rows held canonical values)
    assert verify_pbw(spec).flat
    assert rmatrix.verify_dybe(3).passed
    assert calls == {"divisibility_tests": 0, "div_linfactor": 0}
    # the canonical normal forms of the 4 overlap ambiguities at n=2, both
    # ways: 4 divisions, as a product of factored coefficients cancels
    # equal factors by their exponents (16 when every product along a path
    # was a canonical RatFun; 20 when verify_pbw also reduced all 16 words)
    for w in overlap_words(n):
        if is_overlap_ambiguity(w):
            left, right = (normal_form(spec, w, s) for s in ("left", "right"))
            assert left == right
    assert calls["div_linfactor"] == 4
    assert calls["divisibility_tests"] <= 4


def _layer_ops():
    """The code objects of the RatFun and Poly methods that the benchmark's
    tracer (perfbench/tracer.py) records as spans."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    classes = {"RatFun": RatFun, "Poly": Poly}
    return {getattr(classes[c], m).__code__: f"{c}.{m}"
            for c, methods in tracer.LAYER_METHODS.items() for m in methods}


def test_divisions_and_divisibility_tests_run_inside_ratfun_init(monkeypatch):
    """Every exact division and every divisibility test (a substitution
    h_i := h_j - a with j != i) of three verifications runs inside
    RatFun.__init__, with no other recorded RatFun or Poly operation in
    between.  The tracer counts `ratfield.divisions` and
    `ratfield.divisibility_tests` as exactly those calls, so a cancellation
    reached another way would read 0 there."""
    from hdcalc import diffring, rmatrix
    from hdcalc.diffring import RingSpec, verify_pbw

    for obj in list(vars(rmatrix).values()) + list(vars(diffring).values()):
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    ops = _layer_ops()
    parents = {"div_linfactor": [], "subst_var_linear": []}

    def caller_op():
        frame = sys._getframe(2)
        while frame is not None and frame.f_code not in ops:
            frame = frame.f_back
        return None if frame is None else ops[frame.f_code]

    div_linfactor, subst_var_linear = Poly.div_linfactor, Poly.subst_var_linear

    def recorded_div(self, i, j, a):
        parents["div_linfactor"].append(caller_op())
        return div_linfactor(self, i, j, a)

    def recorded_subst(self, i, j, a):
        if j != i:
            parents["subst_var_linear"].append(caller_op())
        return subst_var_linear(self, i, j, a)

    monkeypatch.setattr(Poly, "div_linfactor", recorded_div)
    monkeypatch.setattr(Poly, "subst_var_linear", recorded_subst)
    n = 2
    assert verify_pbw(RingSpec(n, (RatFun.one(n), RatFun.one(n)))).flat
    assert rmatrix.verify_dybe(3).passed
    # those two cancel nothing; a bumped sigma's residual still divides
    bumped = verify_pbw(RingSpec(n, (RatFun.one(n), RatFun.var(n, 1))))
    assert not bumped.flat and not bumped.residual.is_zero()
    for name, seen in parents.items():
        assert seen, name
        assert set(seen) == {"RatFun.__init__"}, name



@st.composite
def _poly_and_factor(draw):
    """A polynomial at n = 2..4 with exponents up to 3 and int or Fraction
    coefficients, some with a denominator that the prime 2**61 - 1
    divides, and a factor h_i - h_j + a with i != j in either order."""
    n = draw(st.integers(2, 4))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    near_p = st.sampled_from([2**61 - 1, 2 * (2**61 - 1), 3 * (2**61 - 1)])
    coeffs = st.one_of(
        st.integers(-9, 9),
        st.fractions(min_value=-5, max_value=5, max_denominator=7),
        st.builds(Fraction, st.integers(-9, 9).filter(bool), near_p))
    terms = draw(st.dictionaries(exps, coeffs, max_size=6))
    p = Poly(n, {e: exact_coeff(c) for e, c in terms.items() if c})
    i, j = draw(st.lists(st.integers(1, n), min_size=2, max_size=2,
                         unique=True))
    return p, i, j, draw(st.integers(-4, 4))


@settings(max_examples=300)
@given(_poly_and_factor())
def test_cancel_removes_a_factor_from_every_multiple_of_it(case):
    """p * (h_i - h_j + a) over that factor is p, whatever the
    denominators of p's coefficients."""
    p, i, j, a = case
    fac, sign = canon_factor(i, j, a)
    f = RatFun(p * Poly.diff(p.n, i, j, a), {fac: 1})
    assert f.den == {}
    assert f.num == p.scale(sign)


@st.composite
def _pooled_num_and_den(draw, n=3):
    """(num, den): a sum of two or more terms times powers of the factors
    of _POOL, over powers of the same factors, uncancelled."""
    c = draw(st.sampled_from((1, -2, Fraction(1, 3), Fraction(5, 3 * (2**61 - 1)))))
    num = draw(st.sampled_from((
        Poly.var(n, 1) + Poly.var(n, 3),
        Poly.var(n, 1) * Poly.var(n, 2) + Poly.const(n, Fraction(1, 2)),
        Poly.diff(n, 2, 3, 2), Poly.diff(n, 1, 2, 1) * Poly.diff(n, 1, 3, 3)))).scale(c)
    den = {}
    for fac in _POOL:
        num = num * Poly.diff(n, *fac) ** draw(st.integers(0, 3))
        m = draw(st.integers(0, 3))
        if m:
            den[fac] = m
    return num, den


@settings(max_examples=100)
@given(_pooled_num_and_den())
def test_cancel_matches_cancellation_by_substitution(case):
    num, den = case
    f = RatFun(num, den)
    assert (f.num, f.den) == _cancel_by_substitution(num, den)
    assert f.den is not den
