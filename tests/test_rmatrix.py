"""R-matrix components, skew inverse, symmetric polynomial helpers."""

import operator
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from hdcalc import diffring, ratfield, rmatrix
from hdcalc.central import central_family
from hdcalc.diffring import RingSpec, epsilon_antiauto, module_form, verify_pbw
from hdcalc.multicopy import SigmaArray, ambiguity_oracle, mixed_normal_form
from hdcalc.potential import reconstruct_potential, sigma_from_potential
from hdcalc.ratfield import Poly, RatFun, eps_vec
from hdcalc.rmatrix import (r_component, r_shifted, psi_component, chi,
                            chi_inv, phi, phi_inv, psi, psi_prime, q_plus,
                            elementary_symmetric, complete_symmetric,
                            hook_schur, CheckReport, verify_dybe,
                            verify_r_squared, verify_ice,
                            verify_shift_invariance, verify_skew_inverse,
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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_structure_functions_equal_their_product_definitions(n):
    """psi, psi', chi, phi and their inverses, built from their factors,
    equal the products of h_i - h_k + a written out in Poly and RatFun
    arithmetic."""
    def prod_of(i, ks, a=0):
        p = Poly.const(n, 1)
        for k in ks:
            p = p * Poly.diff(n, i, k, a)
        return RatFun.from_poly(p)

    for i in range(1, n + 1):
        above, below = range(i + 1, n + 1), range(1, i)
        others = [k for k in range(1, n + 1) if k != i]
        assert psi(n, i) == prod_of(i, above)
        assert psi_prime(n, i) == prod_of(i, below)
        assert chi(n, i) == prod_of(i, others) == psi(n, i) * psi_prime(n, i)
        assert chi_inv(n, i) == RatFun.one(n) / prod_of(i, others)
        assert phi(n, i) == prod_of(i, above) / prod_of(i, above, -1)
        assert phi_inv(n, i) == prod_of(i, above, -1) / prod_of(i, above)
        assert phi(n, i) == psi(n, i) / psi(n, i).shift(eps_vec(n, i, -1))


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


def _e_by_recursion(n, L, skip=0):
    """e_L(x_1..x_m) = e_L(x_1..x_{m-1}) + x_m e_{L-1}(x_1..x_{m-1})."""
    idxs = [i for i in range(1, n + 1) if i != skip]
    if L < 0 or L > len(idxs):
        return Poly.zero(n)
    rows = [Poly.const(n, 1)] + [Poly.zero(n)] * L
    for i in idxs:
        for k in range(L, 0, -1):
            rows[k] = rows[k] + Poly.var(n, i) * rows[k - 1]
    return rows[L]


def _h_by_recursion(n, L):
    """H_L with h_i allowed any multiplicity, one variable at a time."""
    if L < 0:
        return Poly.zero(n)
    rows = [Poly.const(n, 1)] + [Poly.zero(n)] * L
    for i in range(1, n + 1):
        for k in range(1, L + 1):
            rows[k] = rows[k] + Poly.var(n, i) * rows[k - 1]
    return rows[L]


def test_symmetric_polynomials_match_their_recursions():
    for n in range(1, 7):
        for L in range(-1, n + 2):
            assert complete_symmetric(n, L) == _h_by_recursion(n, L), (n, L)
            for skip in range(n + 1):
                assert (elementary_symmetric(n, L, skip=skip)
                        == _e_by_recursion(n, L, skip)), (n, L, skip)


def test_hook_schur_is_the_pieri_sum():
    # s_(L,1^k) = sum_{i<=k} (-1)^i e_{k-i} H_{L+i}: 84 cases
    cases = 0
    for n in range(1, 7):
        for L in range(1, 5):
            for k in range(n):
                want = Poly.zero(n)
                for i in range(k + 1):
                    want = want + (elementary_symmetric(n, k - i)
                                   * complete_symmetric(n, L + i)).scale((-1) ** i)
                assert hook_schur(n, L, k) == want, (n, L, k)
                cases += 1
    assert cases == 84


def test_chi_partial_fraction_identity_small():
    # sum_j h_j^L/chi_j vanishes for L <= n-2 and gives H_{L-n+1} above that
    for n, L in ((2, 3), (3, 0), (3, 1), (4, 2), (4, 6)):
        rep = verify_chi_identity(n, L)
        assert rep.passed and rep.total == 1, (n, L)


def test_identity_sweeps_n2():
    assert verify_dybe(2).passed
    assert verify_r_squared(2).passed
    assert verify_ice(2).passed
    assert verify_skew_inverse(2).passed
    assert verify_q_identity(2).passed


def test_q_identity_fails_on_a_wrong_q_plus(monkeypatch):
    # Q^+_1 + 1 breaks the generating identity and every row identity
    right = rmatrix.q_plus
    monkeypatch.setattr(rmatrix, "q_plus",
                        lambda n, i: right(n, i) + (1 if i == 1 else 0))
    rep = verify_q_identity(3)
    assert rep.summary() == "q-identity n=3: 0/4 pass"
    assert rep.failures == ["generating", ("row", 1), ("row", 2), ("row", 3)]


def test_checkreport_accounting():
    rep = CheckReport("demo", 3, ["b"])
    assert not rep.passed
    assert rep.total == 3
    assert rep.failures == ["b"]
    assert rep.summary() == "demo: 2/3 pass"


def test_checkreport_has_no_truth_value():
    # an object is true by default: `assert report` must not pass silently
    for failures in (["f"], []):
        rep = CheckReport("x", 1, failures)
        with pytest.raises(TypeError):
            bool(rep)
        with pytest.raises(TypeError):
            assert rep


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
                   rmatrix.r_terms, rmatrix.r_terms_shifted,
                   rmatrix.psi_terms, r_component, r_shifted, psi_component,
                   diffring._swap_coeff):
        cached.cache_clear()
    with pytest.raises(AssertionError, match="reached"):
        RatFun.one(2) / RatFun.from_poly(Poly.diff(2, 1, 2))

    assert verify_dybe(3).passed
    assert verify_skew_inverse(3).passed
    assert verify_q_identity(3).passed
    assert verify_chi_identity(3, 4).passed

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
    assert module_form(spec, [word], "left") == module_form(spec, [word],
                                                            "right")
    el = spec.x(1) + spec.d(2)
    assert epsilon_antiauto(spec, epsilon_antiauto(spec, el)) == el
    sig = SigmaArray.constant(n, 2, 2, {(1, 1): 1, (1, 2): 2, (2, 1): 0, (2, 2): 3})
    word = [('d', 1, 1), ('x', 2, 2), ('d', 3, 2), ('x', 1, 1)]
    assert (mixed_normal_form(n, sig, word, "left")
            == mixed_normal_form(n, sig, word, "right"))


# ---------------------------------------------------------------------------
# the memoised components


def _memo_keys(n):
    """(function, args) for every component at n, and every unit weight
    shift of every R component."""
    idx = [(n,) + key for key in product(range(1, n + 1), repeat=4)]
    shifts = [eps_vec(n, a, sign) for a in range(1, n + 1) for sign in (1, -1)]
    return ([(r_component, key) for key in idx]
            + [(psi_component, key) for key in idx]
            + [(r_shifted, key + (s,)) for key in idx for s in shifts])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_memoised_components_match_fresh_builds(n):
    for fn, args in _memo_keys(n):
        if fn is r_shifted:
            fresh = r_component.__wrapped__(*args[:5]).shift(args[5])
        else:
            fresh = fn.__wrapped__(*args)
        assert fn(*args).to_json() == fresh.to_json(), (fn.__name__, args)


def test_memoised_components_are_not_mutated():
    n = 3
    held = [(fn, args, fn(*args)) for fn, args in _memo_keys(n)]
    before = [v.to_json() for _, _, v in held]
    factored = {rmatrix.r_component: rmatrix.r_terms,
                rmatrix.psi_component: rmatrix.psi_terms,
                rmatrix.r_shifted: rmatrix.r_terms_shifted}
    held_terms = [(factored[fn], args, factored[fn](*args))
                  for fn, args, _ in held]
    before_terms = [dict(v) for _, _, v in held_terms]
    assert verify_dybe(n).passed
    assert verify_r_squared(n).passed
    assert verify_skew_inverse(n).passed
    sig = SigmaArray.constant(n, 2, 2, {(1, 1): 1, (1, 2): 2,
                                        (2, 1): 0, (2, 2): 3})
    assert ambiguity_oracle(n, 2, 2, sig).passed
    for (fn, args, v), js in zip(held + held_terms, before + before_terms):
        assert fn(*args) is v, (fn.__name__, args)
        assert (v if isinstance(v, dict) else v.to_json()) == js, (fn.__name__, args)


def _doubled(source, *at):
    """source with the components at the index tuples `at` doubled (every
    R^{ij}_{ij}, i != j, when none is given)."""
    def value(n, i, j, k, l):
        v = source(n, i, j, k, l)
        hit = (i, j, k, l) in at if at else i != j and (k, l) == (i, j)
        return {key: 2 * c for key, c in v.items()} if hit else v
    return value


def _drop_shift(n, i, j, k, l, svec):
    return rmatrix.r_terms(n, i, j, k, l)


def _as_ratfun(n, terms):
    """A factored sum as a RatFun, each term built from its factors by
    RatFun.build and the terms added."""
    s = RatFun.zero(n)
    for key, c in terms.items():
        num = Poly.const(n, c)
        den = []
        for (i, j, a), e in key:
            if e > 0:
                num = num * Poly.diff(n, i, j, a) ** e
            else:
                den.append(((i, j, a), -e))
        s = s + RatFun.build(num, den)
    return s


# ---------------------------------------------------------------------------
# the sweeps compare only weight-conserving tuples


def _conserves(upper, lower):
    return sorted(upper) == sorted(lower)


def _dense_r_squared(n, i, j, k, l):
    """sum_{a,b} R^{ij}_{ab} R^{ab}_{kl} over every a, b in 1..n."""
    s = RatFun.zero(n)
    for a, b in product(range(1, n + 1), repeat=2):
        s = s + (rmatrix.r_component(n, i, j, a, b)
                 * rmatrix.r_component(n, a, b, k, l))
    return s


def _dense_skew(n, i, j, m, p):
    """sum_{k,l} Psi^{ik}_{jl} R^{ml}_{pk}[e_m] over every k, l in 1..n."""
    s = RatFun.zero(n)
    for k, l in product(range(1, n + 1), repeat=2):
        s = s + (rmatrix.psi_component(n, i, k, j, l)
                 * rmatrix.r_shifted(n, m, l, p, k, eps_vec(n, m)))
    return s


def _r_squared_oracle(n):
    """The tuples where the dense sums break R^2 = 1, in sweep order."""
    one, zero = RatFun.one(n), RatFun.zero(n)
    return [(i, j, k, l) for i, j, k, l in product(range(1, n + 1), repeat=4)
            if _dense_r_squared(n, i, j, k, l) != (one if (i, j) == (k, l) else zero)]


def _skew_oracle(n):
    """The tuples where the dense sums break the skew-inverse identity, in
    sweep order."""
    one, zero = RatFun.one(n), RatFun.zero(n)
    return [(i, j, m, p) for i, j, m, p in product(range(1, n + 1), repeat=4)
            if _dense_skew(n, i, j, m, p) != (one if (i, m) == (p, j) else zero)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_r_squared_and_skew_rows_match_the_dense_sums(n):
    # a row entry is a factored sum, compared here as a RatFun
    idx = range(1, n + 1)
    for rows, dense in ((rmatrix._r_squared_rows, _dense_r_squared),
                        (rmatrix._skew_rows, _dense_skew)):
        for upper in product(idx, repeat=2):
            lhs, _ = rows(n, *upper)
            for lower in product(idx, repeat=2):
                got = _as_ratfun(n, lhs.get(lower, {}))
                assert got == dense(n, *upper, *lower), (rows.__name__,
                                                         upper + lower)


@pytest.mark.parametrize("n, dybe, quartic", [(2, 20, 6), (3, 55, 15),
                                              (4, 55, 28)])
def test_sweeps_compare_only_conserving_tuples(monkeypatch, n, dybe, quartic):
    # from n=3 on the DYBE rows are built once per order pattern of the
    # upper indices: 13 patterns, holding 55 conserving lower tuples; at
    # n=2 they are built for all 8 upper tuples
    seen = {}
    sweep = rmatrix._sweep

    def recording(name, n, arity, sides, *by_pattern):
        def rows(n, *upper):
            lhs, rhs = sides(n, *upper)
            seen.setdefault(name, []).extend(
                upper + lower for lower in lhs.keys() | rhs.keys())
            return lhs, rhs
        return sweep(name, n, arity, rows, *by_pattern)

    monkeypatch.setattr(rmatrix, "_sweep", recording)
    assert verify_dybe(n).passed
    assert verify_r_squared(n).passed
    assert verify_skew_inverse(n).passed
    assert len(seen["dybe"]) == dybe
    assert all(_conserves(t[:3], t[3:]) for t in seen["dybe"])
    assert len(seen["r-squared"]) == len(seen["skew-inverse"]) == quartic
    assert all(_conserves((i, j), (k, l)) for i, j, k, l in seen["r-squared"])
    assert all(_conserves((i, m), (j, p)) for i, j, m, p in seen["skew-inverse"])


def test_r_squared_failures_match_the_dense_oracle(mutant):
    # with every R^{ij}_{ij}, i != j, doubled, R^2 = 1 fails; the sweep must
    # name the same tuples as the dense sums, in the same order
    mutant("r_terms", _doubled(rmatrix.r_terms))
    want = _r_squared_oracle(3)
    assert want
    assert verify_r_squared(3).failures == want


def test_skew_inverse_failures_match_the_dense_oracle(mutant):
    # with every Psi^{ij}_{ij}, i != j, doubled, the skew-inverse identity
    # fails; the sweep must name the same tuples as the dense sums, in the
    # same order
    mutant("psi_terms", _doubled(rmatrix.psi_terms))
    want = _skew_oracle(3)
    assert want
    assert verify_skew_inverse(3).failures == want


def test_skew_inverse_fails_if_the_shift_is_dropped(mutant):
    mutant("r_terms_shifted", _drop_shift)
    want = _skew_oracle(3)
    assert want
    assert verify_skew_inverse(3).failures == want


# ---------------------------------------------------------------------------
# shift invariance as a sweep


def _shift_oracle(n):
    """The tuples where a canonical component changes under its shift by
    e_i + e_j, over all n^4 tuples in sweep order."""
    out = []
    for i, j, k, l in product(range(1, n + 1), repeat=4):
        s = [0] * n
        s[i - 1] += 1
        s[j - 1] += 1
        v = rmatrix.r_component(n, i, j, k, l)
        if v.shift(tuple(s)) != v:
            out.append((i, j, k, l))
    return out


def _replaced(source, at, factors):
    """source with the component at the index tuple `at` replaced by the
    one-term sum of the given factors (i, j, a, e)."""
    def value(n, i, j, k, l):
        if (i, j, k, l) == at:
            return rmatrix.factored(factors)
        return source(n, i, j, k, l)
    return value


@pytest.mark.parametrize("n, at, factors", [
    # R^{11}_{11} := h_1 - h_2
    (2, (1, 1, 1, 1), [(1, 2, 0, 1)]),
    # R^{12}_{12} times h_1 - h_3
    (3, (1, 2, 1, 2), [(1, 2, 0, -1), (1, 3, 0, 1)]),
])
def test_shift_invariance_failures_match_the_dense_oracle(mutant, n, at, factors):
    mutant("r_terms", _replaced(rmatrix.r_terms, at, factors))
    want = _shift_oracle(n)
    assert at in want
    rep = verify_shift_invariance(n)
    assert rep.failures == want
    assert rep.total == n ** 4


# ---------------------------------------------------------------------------
# the one zero test against canonical sums


def _add_terms(acc, terms, c=1):
    """acc += c * terms, for factored sums as dicts."""
    for key, v in terms.items():
        v = acc.get(key, 0) + c * v
        if v:
            acc[key] = v
        else:
            acc.pop(key, None)


@st.composite
def _factored_sums(draw, n=None):
    """A factored sum at n, or at n = 2..5, with int and Fraction constants,
    exponents in -3..3 and shifts a in -2..2, plus, in most draws, a zero
    by construction times a random term: (h^2 - 1)/h^2 - (1 - h^-2), or
    h_ij + a - (h_ik + b) - (h_kj + a - b) with i < k < j."""
    if n is None:
        n = draw(st.integers(2, 5))
    idx = st.integers(1, n)
    factor = st.tuples(idx, idx, st.integers(-2, 2), st.integers(-3, 3)).filter(
        lambda f: f[0] != f[1])
    const = st.one_of(st.integers(-4, 4),
                      st.fractions(-3, 3, max_denominator=4)).filter(bool)
    term = st.tuples(const, st.lists(factor, max_size=4))
    total = {}
    for c, factors in draw(st.lists(term, max_size=4)):
        _add_terms(total, rmatrix.factored(factors), c)
    kinds = ["none", "square"] + (["telescope"] if n > 2 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "square":
        i, j = sorted(draw(st.lists(idx, min_size=2, max_size=2, unique=True)))
        parts = [(1, [(i, j, -1, 1), (i, j, 1, 1), (i, j, 0, -2)]), (-1, []),
                 (1, [(i, j, 0, -2)])]
    elif kind == "telescope":
        i, k, j = sorted(draw(st.lists(idx, min_size=3, max_size=3, unique=True)))
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        parts = [(1, [(i, j, a, 1)]), (-1, [(i, k, b, 1)]),
                 (-1, [(k, j, a - b, 1)])]
    else:
        parts = []
    c, factors = draw(term)
    for sign, part in parts:
        _add_terms(total, rmatrix.factored(part + factors), sign * c)
    return n, total


@settings(max_examples=200)
@given(_factored_sums())
@example((2, {}))
@example((3, {(((1, 3, 0), 1),): 1, (((1, 2, 0), 1),): -1,
              (((2, 3, 0), 1),): -1}))
@example((4, {(((1, 4, 2), 1),): Fraction(1, 2),
              (((1, 4, 0), 1),): Fraction(-1, 2), (): -1}))
def test_vanishes_is_the_canonical_zero_test(nf):
    n, terms = nf
    got = rmatrix.vanishes(n, [(None, terms.items())])
    assert got == _as_ratfun(n, terms).is_zero()


def test_vanishes_decides_a_zero_by_construction():
    # (h^2 - 1)/h^2 against 1 - h^-2 with h = h_2 - h_4, times h_1 - h_3 + 1
    n, times = 4, [(1, 3, 1, 1)]
    total = {}
    for sign, part in ((1, [(2, 4, -1, 1), (2, 4, 1, 1), (2, 4, 0, -2)]),
                       (-1, []), (1, [(2, 4, 0, -2)])):
        _add_terms(total, rmatrix.factored(part + times), sign)
    assert len(total) == 3
    assert rmatrix.vanishes(n, [(None, total.items())])
    _add_terms(total, rmatrix.factored(times))
    assert not rmatrix.vanishes(n, [(None, total.items())])


def test_vanishes_multiplies_a_numerator_in_every_variable():
    # h_1 - (h_1 - h_2) is h_2, not zero; with h_2 := 0 applied to the
    # factor but not to the numerator h_1 it would read h_1 - h_1 = 0
    n = 2
    h1, h2 = Poly.var(n, 1), Poly.var(n, 2)
    diff = (((1, 2, 0), 1),)
    assert not rmatrix.vanishes(n, [(h1, [((), 1)]), (None, [(diff, -1)])])
    assert rmatrix.vanishes(n, [(h1, [((), 1)]), (h2, [((), -1)]),
                                (None, [(diff, -1)])])


def test_vanishes_forms_no_poly_product(monkeypatch):
    # over h_1 - h_2 + 1: 2/3 h_1 + 1/5 h_2 (h_1 - h_2)
    # - 1/5 (h_1 h_2 - h_2^2) + 2 c h_1, zero for c = -1/3 only; vanishes
    # decides it by one value on ints and multiplies no two polynomials
    n = 2
    seen = []
    mul = Poly.__mul__

    def recorded(p, q):
        seen.extend(type(c) for c in (*p.terms.values(), *q.terms.values()))
        return mul(p, q)

    monkeypatch.setattr(Poly, "__mul__", recorded)
    num1 = Poly.var(n, 1).scale(Fraction(2, 3))
    num2 = Poly.var(n, 2).scale(Fraction(1, 5))
    over = (((1, 2, 1), -1),)
    for extra, zero in ((Fraction(-1, 3), True), (Fraction(1, 3), False)):
        groups = [(num1, [(over, 1)]),
                  (num2, [((((1, 2, 0), 1), ((1, 2, 1), -1)), 1)]),
                  (Poly.var(n, 1) * Poly.var(n, 2) - Poly.var(n, 2) ** 2,
                   [(over, Fraction(-1, 5))]),
                  (Poly.var(n, 1), [(over, 2 * extra)])]
        seen.clear()
        assert rmatrix.vanishes(n, groups) is zero
        assert not seen


@st.composite
def _numerator_groups(draw):
    """Groups (num, terms) at n = 2..4, as ZeroTest passes them: each num is
    None or a polynomial of degree <= 3 in several variables with negative
    and Fraction coefficients, and each terms a factored sum as
    `_factored_sums` draws it.  In most draws one more group cancels a drawn
    one: num (h_i - h_j + a) times its terms over h_i - h_j + a, negated."""
    n = draw(st.integers(2, 4))
    exps = st.lists(st.integers(1, n), max_size=3).map(
        lambda vs: tuple(vs.count(v) for v in range(1, n + 1)))
    coeffs = st.one_of(st.integers(-6, 6),
                       st.fractions(-5, 5, max_denominator=4)).filter(bool)
    polys = st.dictionaries(exps, coeffs, min_size=1, max_size=4).map(
        lambda t: Poly(n, {e: c.numerator if c.denominator == 1 else c
                           for e, c in t.items()}))
    nums = st.one_of(st.none(), polys)
    groups = [(draw(nums), draw(_factored_sums(n))[1])
              for _ in range(draw(st.integers(1, 2)))]
    if draw(st.booleans()) or draw(st.booleans()):
        num, terms = draw(st.sampled_from(groups))
        i, j = sorted(draw(st.lists(st.integers(1, n), min_size=2, max_size=2,
                                    unique=True)))
        a = draw(st.integers(-2, 2))
        over = {}
        rmatrix.add_product(over, terms, {(((i, j, a), -1),): -1})
        times = Poly.diff(n, i, j, a)
        groups.append((times if num is None else num * times, over))
    return n, groups


@settings(max_examples=100)
@given(_numerator_groups())
@example((2, [(Poly(2, {(1, 0): Fraction(-2, 3)}), {(): 1}),
              (None, {(((1, 2, 0), 1),): Fraction(2, 3)}),
              (Poly.var(2, 2), {(): Fraction(2, 3)})]))
def test_vanishes_with_numerators_is_the_canonical_zero_test(ng):
    n, groups = ng
    want = RatFun.zero(n)
    for num, terms in groups:
        part = _as_ratfun(n, terms)
        want = want + (part if num is None else RatFun.from_poly(num) * part)
    assert rmatrix.vanishes(n, [(num, terms.items())
                                for num, terms in groups]) == want.is_zero()


@pytest.mark.parametrize("w", [1, 2, 3, 4])
def test_vanishes_at_the_packing_base(w):
    # B = 2^(8w) is the base of a w-byte slot.  Each nonzero sum below is
    # (h_1 - h_2) - B or (h_1 - h_2)^2 - B (h_1 - h_2), and reads 0 at
    # h_1 := B, h_2 := 0, so the base that vanishes takes must exceed B: its
    # bound counts every constant and every shift a.  Minus its product
    # form, each sum is zero.
    n, B = 2, 2 ** (8 * w)
    h, hb, d = (1, 2, 0), (1, 2, -B), Poly.diff(n, 1, 2)
    once, twice = {((hb, 1),): 1}, {((hb, 1), (h, 1)): 1}
    for nonzero, form in (({((h, 1),): 1, (): -B}, once),
                          ({(((1, 2, 2 - 2 * B), 1),): 1, (): B - 2}, once),
                          ({((h, 2),): 1, ((h, 1),): -B}, twice)):
        zero = dict(nonzero)
        _add_terms(zero, form, -1)
        assert not rmatrix.vanishes(n, [(None, nonzero.items())])
        assert rmatrix.vanishes(n, [(None, zero.items())])
    # the same with numerator groups, which keep h_2
    for num, form in ((d - Poly.const(n, B), once),
                      (d * d - d.scale(B), twice)):
        [(key, _)] = form.items()
        assert not rmatrix.vanishes(n, [(num, [((), 1)])])
        assert not rmatrix.vanishes(n, [(num, [((), 1)]), (None, [(key, 1)])])
        assert rmatrix.vanishes(n, [(num, [((), 1)]), (None, [(key, -1)])])
        assert rmatrix.vanishes(n, [(num, [(((h, 1),), 1)]),
                                    (d, [(key, -1)])])


def _opaque_tokens(n):
    """Two opaque tokens of n variables: p = 2/3 h_1 + 1, with Fraction
    coefficients, and the pole 3/(h_1 - h_2 + 1)."""
    return (RatFun.var(n, 1) * Fraction(2, 3) + 1,
            RatFun.inverse_diff(n, 1, 2, 1) * 3)


@st.composite
def _token_sums(draw):
    """(n, terms) at n = 2..4, terms a list of (key, refs, c) with each ref
    (index into _opaque_tokens(n), shift): a factored sum of
    _factored_sums, all of whose terms carry no token or one token at a
    shift in -1..1, plus, in some draws, a zero by construction times a
    random term that mixes tokens and factors: p(h + s + e_1) - p(h + s)
    - 2/3, or the pole at h + s against 3/(h_1 - h_2 + 1 + s_1 - s_2)."""
    n, total = draw(_factored_sums().filter(lambda nf: nf[0] <= 4))
    shift = st.tuples(*[st.integers(-1, 1)] * n)
    refs = draw(st.sampled_from([[], [(0, draw(shift))], [(1, draw(shift))]]))
    terms = [(key, refs, c) for key, c in total.items()]
    kind = draw(st.sampled_from(["none", "polynomial", "pole"]))
    s = draw(shift)
    if kind == "polynomial":
        up = tuple(map(operator.add, s, eps_vec(n, 1)))
        parts = [((), [(0, up)], 1), ((), [(0, s)], -1),
                 ((), [], Fraction(-2, 3))]
    elif kind == "pole":
        [(key, sign)] = rmatrix.factored([(1, 2, 1 + s[0] - s[1], -1)]).items()
        parts = [((), [(1, s)], 1), (key, [], -3 * sign)]
    else:
        parts = []
    [(times, c)] = rmatrix.factored(draw(st.lists(
        st.tuples(st.integers(1, n), st.integers(1, n), st.integers(-2, 2),
                  st.integers(-2, 2)).filter(lambda f: f[0] != f[1]),
        max_size=2))).items()
    c *= draw(st.sampled_from([1, -2, Fraction(3, 5)]))
    terms += [(rmatrix.key_product((key, times)), refs, c * v)
              for key, refs, v in parts]
    return n, terms


def _engine_sum(names, terms):
    """The sum {(key, refs): c} of terms as the engine writes one: each ref
    (index, shift) becomes (names[index], shift), and like terms merge."""
    out = {}
    for key, refs, c in terms:
        _add_terms(out, {(key, tuple(sorted((names[k], svec)
                                            for k, svec in refs))): c})
    return out


def _token_value(n, tokens, terms):
    """The canonical RatFun of a list of (key, refs, c)."""
    total = RatFun.zero(n)
    for key, refs, c in terms:
        v = _as_ratfun(n, {key: c})
        for k, svec in refs:
            v = v * tokens[k].shift(svec)
        total = total + v
    return total


@settings(max_examples=150)
@given(_token_sums(), st.data())
def test_zero_test_is_the_canonical_zero_test_and_reuses_its_verdicts(
        case, data):
    # a renamed sum without tokens, and a translate or a multiple by a
    # product of linear factors of a sum with them, reuse the verdict of the
    # sum: no second vanishes.  A constant multiple has its own normal form,
    # and the same verdict
    n, terms = case
    tokens = _opaque_tokens(n)
    test = rmatrix.ZeroTest(n)
    total = _engine_sum([test.hold(t) for t in tokens], terms)
    zero = test.is_zero(total)
    assert zero == _token_value(n, tokens, terms).is_zero()
    if any(refs for _, refs in total):
        t = data.draw(st.tuples(*[st.integers(-2, 2)] * n))
        # a product of linear factors, of constant 1
        [fkey] = rmatrix.factored([(1, 2, 3, 1), (1, n, 0, -2)])
        moved = {(rmatrix.shifted_key(key, t),
                  tuple((name, tuple(map(operator.add, svec, t)))
                        for name, svec in refs)): c
                 for (key, refs), c in total.items()}
        variants = [moved, {(rmatrix.key_product((key, fkey)), refs): c
                            for (key, refs), c in total.items()}]
    else:
        used = sorted({v for key, _ in total for (i, j, _), _ in key
                       for v in (i, j)})
        new = sorted(data.draw(st.lists(st.integers(1, n), unique=True,
                                        min_size=len(used),
                                        max_size=len(used))))
        name = dict(zip(used, new))
        variants = [{(tuple([((name[i], name[j], a), e)
                             for (i, j, a), e in key]), ()): c
                     for (key, _), c in total.items()}]
    calls = []
    vanishes = rmatrix.vanishes
    rmatrix.vanishes = lambda *args: calls.append(args) or vanishes(*args)
    try:
        assert [test.is_zero(v) for v in variants] == [zero] * len(variants)
    finally:
        rmatrix.vanishes = vanishes
    assert not calls
    assert test.is_zero({term: -5 * c for term, c in total.items()}) == zero


# ---------------------------------------------------------------------------
# the DYBE rows against the dense sums


def _dense_dybe_sides(n, i, j, k, m, p, r):
    """Both sides of the shifted DYBE at one tuple, summed over every a, b, u
    in 1..n: no ice rule, no shared partial products."""
    lhs = rhs = RatFun.zero(n)
    si, sm = eps_vec(n, i, -1), eps_vec(n, m, -1)
    for a, b, u in product(range(1, n + 1), repeat=3):
        lhs = lhs + (rmatrix.r_component(n, i, j, a, b)
                     * rmatrix.r_shifted(n, b, k, u, r, eps_vec(n, a, -1))
                     * rmatrix.r_component(n, a, u, m, p))
        rhs = rhs + (rmatrix.r_shifted(n, j, k, a, b, si)
                     * rmatrix.r_component(n, i, a, m, u)
                     * rmatrix.r_shifted(n, u, b, p, r, sm))
    return lhs, rhs


def _dybe_oracle(n):
    """The tuples where the dense sums break the DYBE, in sweep order."""
    return [t for t in product(range(1, n + 1), repeat=6)
            if operator.ne(*_dense_dybe_sides(n, *t))]


@pytest.mark.parametrize("n", [2, 3])
def test_dybe_rows_match_the_dense_sums(n):
    # a row entry is a factored sum, compared here as a RatFun
    idx = range(1, n + 1)
    for upper in product(idx, repeat=3):
        lhs, rhs = rmatrix._dybe_rows(n, *upper)
        for lower in product(idx, repeat=3):
            got = (_as_ratfun(n, lhs.get(lower, {})),
                   _as_ratfun(n, rhs.get(lower, {})))
            assert got == _dense_dybe_sides(n, *upper, *lower), upper + lower


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dybe_rows_hold_exactly_the_conserving_keys(n):
    idx = range(1, n + 1)
    for upper in product(idx, repeat=3):
        lhs, rhs = rmatrix._dybe_rows(n, *upper)
        want = {t for t in product(idx, repeat=3) if _conserves(upper, t)}
        assert lhs.keys() == rhs.keys() == want, upper


def test_dybe_failures_match_the_dense_oracle(mutant):
    # with R^{12}_{21} doubled the equation fails; the sweep must name the
    # same tuples as the dense sums, in the same order
    mutant("r_terms", _doubled(rmatrix.r_terms, (1, 2, 2, 1)))
    want = _dybe_oracle(3)
    assert want
    assert verify_dybe(3).failures == want


def test_dybe_fails_if_the_shift_is_dropped(mutant):
    mutant("r_terms_shifted", _drop_shift)
    want = _dybe_oracle(3)
    assert want
    assert verify_dybe(3).failures == want


@pytest.mark.parametrize("n, at", [(3, (2, 3, 3, 2)), (4, (3, 4, 4, 3))])
def test_one_mutated_index_tuple_fails_where_the_dense_sums_do(mutant, n, at):
    # R^{ij}_{ji} for one (i, j) doubled: the sums of every other (i, j)
    # are equal under an order-preserving renaming of the variables, so the
    # memo of each sweep must not hand their verdicts to the mutated ones
    mutant("r_terms", _doubled(rmatrix.r_terms, at))
    for sweep, oracle in ((verify_dybe, _dybe_oracle),
                          (verify_r_squared, _r_squared_oracle),
                          (verify_skew_inverse, _skew_oracle)):
        want = oracle(n)
        assert want, sweep.__name__
        assert sweep(n).failures == want, sweep.__name__


def _swaps_doubled(source):
    """source with every R^{ij}_{ji}, i < j, doubled: a mutant that leaves
    every component a function of the order of its indices."""
    def value(n, i, j, k, l):
        v = source(n, i, j, k, l)
        hit = i < j and (k, l) == (j, i)
        return {key: 2 * c for key, c in v.items()} if hit else v
    return value


# each mutant, and the least n at which it changes a component the DYBE
# reads (and breaks the DYBE)
DYBE_MUTANTS = {
    "real": (lambda: None, None),
    "swaps doubled": (lambda: ("r_terms", _swaps_doubled(rmatrix.r_terms)),
                      2),
    "R^{12}_{21} doubled": (lambda: ("r_terms", _doubled(
        rmatrix.r_terms, (1, 2, 2, 1))), 2),
    "R^{23}_{32} doubled": (lambda: ("r_terms", _doubled(
        rmatrix.r_terms, (2, 3, 3, 2))), 3),
    "R^{34}_{43} doubled": (lambda: ("r_terms", _doubled(
        rmatrix.r_terms, (3, 4, 4, 3))), 4),
    "R^{ij}_{ij} doubled": (lambda: ("r_terms", _doubled(rmatrix.r_terms)),
                            2),
    "shift dropped": (lambda: ("r_terms_shifted", _drop_shift), 2),
    # keys naming a variable outside the component's indices
    "R^{11}_{11} := h1 - h2": (lambda: ("r_terms", _replaced(
        rmatrix.r_terms, (1, 1, 1, 1), [(1, 2, 0, 1)])), 2),
    "R^{12}_{12} times h1 - h3": (lambda: ("r_terms", _replaced(
        rmatrix.r_terms, (1, 2, 1, 2), [(1, 2, 0, -1), (1, 3, 0, 1)])), 3),
}


@pytest.mark.parametrize("case, ns, equivariant", [
    ("real", (1, 2, 3, 4, 5, 6), True),
    ("swaps doubled", (1, 2, 3, 4, 5), True),
    ("R^{ij}_{ij} doubled", (2, 3, 4), True),
    ("shift dropped", (2, 3, 4), True),
    # a mutant changes nothing below its highest index, and at n=2 the one
    # pair (1, 2) is every pair i < j
    ("R^{12}_{21} doubled", (1, 2), True),
    ("R^{12}_{21} doubled", (3, 4, 5), False),
    ("R^{23}_{32} doubled", (3, 4), False),
    ("R^{34}_{43} doubled", (3,), True),
    ("R^{34}_{43} doubled", (4, 5), False),
    ("R^{11}_{11} := h1 - h2", (2, 3, 4), False),
    ("R^{12}_{12} times h1 - h3", (3, 4), False),
])
def test_dybe_by_pattern_reports_what_the_full_sweep_does(mutant, case, ns,
                                                          equivariant):
    # verify_dybe decides one upper tuple per order pattern only after
    # _order_equivariant proves that R allows it; either way its report is
    # the full sweep's: total, failures and their order
    make, breaks_from = DYBE_MUTANTS[case]
    patched = make()
    if patched:
        mutant(*patched)
    for n in ns:
        assert rmatrix._order_equivariant(n) is equivariant, n
        got = verify_dybe(n)
        want = rmatrix._sweep("dybe", n, 3, rmatrix._dybe_rows)
        assert (got.name, got.total) == (want.name, want.total) == (
            f"dybe n={n}", n ** 6)
        assert got.failures == want.failures, n
        assert bool(got.failures) == (breaks_from is not None
                                      and n >= breaks_from), n


def test_dybe_multiplies_out_each_distinct_sum_once(monkeypatch):
    # lhs - rhs keeps two or more terms at 60 compared tuples at n=3 and at
    # 156 at n=4; with their variables renamed they are 25 distinct sums,
    # and only those are multiplied out, once per sweep
    calls = [0]
    vanishes = rmatrix.vanishes

    def counted(*args):
        calls[0] += 1
        return vanishes(*args)

    monkeypatch.setattr(rmatrix, "vanishes", counted)
    for n in (3, 4):
        calls[0] = 0
        assert verify_dybe(n).passed
        assert calls[0] == 25, n


def test_dybe_sweep_memory_does_not_grow_with_its_tuples():
    # the sweep keeps a count and the failing tuples, nothing per passing
    # tuple: the peak, with every memoised component built inside the
    # measurement, stays far below one small object per n^6 = 46,656 tuples
    for fn in vars(rmatrix).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
    tracemalloc.start()
    try:
        assert verify_dybe(6).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sweeps_count_every_tuple(n):
    # the order of the failures is checked against the dense oracles above
    for sweep, arity in ((verify_dybe, 6), (verify_r_squared, 4),
                         (verify_ice, 4), (verify_shift_invariance, 4),
                         (verify_skew_inverse, 4)):
        rep = sweep(n)
        assert rep.passed
        assert rep.total == n ** arity


def test_ice_fails_on_a_component_off_the_pattern(monkeypatch):
    # the skip rests on the ice rule; verify_ice is what checks it
    right = rmatrix.r_component
    monkeypatch.setattr(rmatrix, "r_component",
                        lambda n, i, j, k, l: RatFun.one(n)
                        if (i, j, k, l) == (1, 2, 1, 1) else right(n, i, j, k, l))
    rep = verify_ice(2)
    assert rep.failures == [(1, 2, 1, 1)]
