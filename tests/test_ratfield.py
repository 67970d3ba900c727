"""Exact polynomial / rational-function layer, cross-checked against sympy."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, assume, strategies as st

from hdcalc.ratfield import (Poly, RatFun, TPolyRat, DomainError, PoleError,
                             partial_fractions, reassemble_partial_fractions,
                             factor_linfactors, solve_exact, rank_exact,
                             eps_vec, canon_factor, _P, _point, _may_vanish)


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
            for a in (-2, 0, 3):
                got = p.subst_var_linear(i, j, a)
                want = sympy.expand(to_sympy(p).subs(hs[i - 1], hs[j - 1] + a))
                assert to_sympy(got) == want
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


def test_cancel_keeps_factor_when_only_the_prefilter_point_vanishes():
    # h3 - x3 vanishes at the pre-filter point for every hyperplane that
    # leaves h3 alone, but h1 - h2 does not divide it
    n = 3
    num = Poly(n, {(0, 0, 1): Fraction(1), (0, 0, 0): Fraction(-_point(n)[2])})
    assert _may_vanish(num, 1, 2, 0)
    f = RatFun(num, {(1, 2, 0): 1})
    assert f.den == {(1, 2, 0): 1}
    assert f.num == num


def test_cancel_with_coefficient_denominator_divisible_by_prime():
    n = 2
    rest = Poly(n, {(1, 0): Fraction(1), (0, 0): Fraction(1, 3 * _P)})
    assert _may_vanish(rest, 1, 2, 0)  # P | denominator: no verdict mod P
    f = RatFun(Poly.diff(n, 1, 2) ** 2 * rest, {(1, 2, 0): 3, (1, 2, 1): 1})
    assert f.num == rest
    assert f.den == {(1, 2, 0): 1, (1, 2, 1): 1}


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


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
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
    hs = sym_vars(3)
    pool = [RatFun.inverse_diff(3, 1, 2), RatFun.inverse_diff(3, 2, 3, 1),
            RatFun.from_poly(rand_poly(rng, 3, 3, 2)),
            RatFun.inverse_diff(3, 1, 3, -2)]

    def sy(f):
        e = to_sympy(f.num)
        for (i, j, a), m in f.den.items():
            e /= (hs[i - 1] - hs[j - 1] + a) ** m
        return e

    for _ in range(20):
        a, b = rng.choice(pool), rng.choice(pool)
        for op in ("+", "*", "-"):
            got = {"+": a + b, "*": a * b, "-": a - b}[op]
            want = {"+": sy(a) + sy(b), "*": sy(a) * sy(b), "-": sy(a) - sy(b)}[op]
            assert sympy.simplify(sy(got) - want) == 0


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
        back = reassemble_partial_fractions(n, 1, principal, regular)
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


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
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


def test_solve_exact_matches_sympy():
    # rows are sparse col -> value maps
    rng = random.Random(31)
    for _ in range(10):
        dense = [[Fraction(rng.randrange(-4, 5)) for _ in range(3)] for _ in range(4)]
        sol = [Fraction(rng.randrange(-3, 4), 2) for _ in range(3)]
        rhs = [sum(r[k] * sol[k] for k in range(3)) for r in dense]
        rows = [{k: v for k, v in enumerate(r) if v} for r in dense]
        got = solve_exact(rows, rhs, 3)
        assert got is not None
        M = sympy.Matrix([[sympy.Rational(x) for x in r] for r in dense])
        b = sympy.Matrix([sympy.Rational(x) for x in rhs])
        assert M * sympy.Matrix(got) == b


def test_solve_exact_inconsistent():
    rows = [{0: Fraction(1)}, {0: Fraction(1)}]
    rhs = [Fraction(1), Fraction(2)]
    assert solve_exact(rows, rhs, 2) is None


def test_rank_exact_matches_sympy():
    rng = random.Random(32)
    for _ in range(10):
        m = [[Fraction(rng.randrange(-3, 4)) for _ in range(4)] for _ in range(3)]
        assert rank_exact(m) == sympy.Matrix(m).rank()


def test_tpolyrat_coefficientwise():
    n = 2
    a = TPolyRat(n, [RatFun.one(n), RatFun.inverse_diff(n, 1, 2)])
    b = TPolyRat(n, [RatFun.zero(n), RatFun.one(n)])
    s = a + b
    assert s.coeff(0) == RatFun.one(n)
    assert s.coeff(1) == RatFun.inverse_diff(n, 1, 2) + RatFun.one(n)
    p = a * b
    assert p.coeff(0).is_zero()
    assert p.coeff(1) == RatFun.one(n)
    assert p.coeff(2) == RatFun.inverse_diff(n, 1, 2)


def test_json_roundtrip():
    f = RatFun.build(Poly(2, {(1, 0): Fraction(-2, 3), (0, 0): Fraction(5)}),
                     [((1, 2, -1), 2)])
    assert RatFun.from_json(2, f.to_json()) == f
