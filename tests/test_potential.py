"""Potential space membership, decomposition, reconstruction."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hdcalc.ratfield import DomainError, Poly, RatFun
from hdcalc.rmatrix import chi, complete_symmetric
from hdcalc import central, potential
from hdcalc.cli import main
from hdcalc.potential import (MismatchError, NotFlat, NotInW,
                              sigma_from_potential, sigma_system_check,
                              delta_system_check, h_combination, w_decompose,
                              reconstruct_potential, is_polynomial_potential)


def Hpot(n, L):
    """H_L written through the chi expansion (a flat potential by design)."""
    out = RatFun.zero(n)
    for j in range(1, n + 1):
        out = out + RatFun.from_poly(Poly.var(n, j) ** (L + n - 1)) / chi(n, j)
    return out


def pole_part(n, k, coeffs):
    """pi(h_k)/chi_k with pi given by ascending coefficients."""
    p = Poly.zero(n)
    for m, c in enumerate(coeffs):
        p = p + (Poly.var(n, k) ** m).scale(Fraction(c))
    return RatFun.from_poly(p) / chi(n, k)


# polynomials in h_1 at n = 1, of degree 2 to 4 and without constant term:
# each is its own symmetric part (H_L = h_1^L) and has no principal part;
# pole_part(1, 1, coeffs) is that polynomial, since chi_1 = 1 at n = 1
UNIVARIATE = ([0, 0, 1], [0, -2, 0, Fraction(1, 3)], [0, 0, Fraction(5, 2), 0, -1])


def test_chi_expansion_equals_complete_symmetric():
    for n in (1, 2, 3):
        for L in range(4):
            assert Hpot(n, L) == RatFun.from_poly(complete_symmetric(n, L))


def test_sigma_of_h1_is_all_ones():
    for n in (1, 2, 3):
        sig = sigma_from_potential(RatFun.from_poly(complete_symmetric(n, 1)))
        assert all(s == RatFun.one(n) for s in sig)


def test_sigma_of_h2():
    # Delta_i H_2 = h_i + e_1 - 1
    n = 3
    sig = sigma_from_potential(RatFun.from_poly(complete_symmetric(n, 2)))
    e1 = RatFun.from_poly(complete_symmetric(n, 1))
    for i, s in enumerate(sig, start=1):
        assert s == RatFun.var(n, i) + e1 - 1


def test_sigma_system_accepts_gradients_rejects_perturbations():
    rng = random.Random(11)
    n = 3
    for _ in range(6):
        f = RatFun.zero(n)
        for L in range(1, 4):
            f = f + Hpot(n, L) * Fraction(rng.randrange(-3, 4))
        if rng.random() < 0.5:
            f = f + pole_part(n, rng.randrange(2, n + 1),
                              [rng.randrange(-2, 3) for _ in range(3)])
        sig = sigma_from_potential(f)
        ok, _ = sigma_system_check(sig)
        assert ok
        bad = list(sig)
        bad[0] = bad[0] + RatFun.var(n, 1)  # h_1 is not a gradient direction
        ok, pair = sigma_system_check(tuple(bad))
        assert not ok and pair is not None


def _sigma_system_by_subtraction(sigma):
    """The sigma system in RatFun arithmetic, each equation cancelled."""
    n = len(sigma)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                lhs = RatFun.from_poly(Poly.diff(n, i, j)) * sigma[i - 1].delta(j)
                if not (lhs - sigma[i - 1] + sigma[j - 1]).is_zero():
                    return False, (i, j)
    return True, None


def test_sigma_system_on_fraction_coefficients_matches_subtraction():
    rng = random.Random(12)
    n = 3
    bumps = (RatFun.var(n, 2) * Fraction(1, 3),
             RatFun.inverse_diff(n, 1, 2) * Fraction(-2, 5),
             RatFun.inverse_diff(n, 2, 3, 1) * RatFun.var(n, 1) * Fraction(3, 7))
    failed = 0
    for _ in range(6):
        f = RatFun.zero(n)
        for L in range(1, 4):
            f = f + Hpot(n, L) * Fraction(rng.randrange(-3, 4), rng.randrange(1, 6))
        f = f + pole_part(n, rng.randrange(2, n + 1),
                          [Fraction(rng.randrange(-2, 3), rng.randrange(1, 4))
                           for _ in range(3)])
        sig = list(sigma_from_potential(f))
        assert sigma_system_check(sig) == (True, None)
        sig[rng.randrange(n)] += rng.choice(bumps)
        want = _sigma_system_by_subtraction(sig)
        assert sigma_system_check(sig) == want
        failed += not want[0]
    assert failed == 6


def test_delta_system_membership():
    n = 3
    assert delta_system_check(Hpot(n, 2))[0]
    assert delta_system_check(pole_part(n, 2, [1, 0, 5]))[0]
    assert delta_system_check(RatFun.const(n, 7))[0]
    ok, pair = delta_system_check(RatFun.from_poly(Poly.var(n, 1) ** 2))
    assert not ok
    ok, _ = delta_system_check(RatFun.inverse_diff(n, 1, 2))
    assert not ok


def _delta_system_unscaled(f):
    """delta_system_check's equations on f as given, first failure first."""
    n = f.n
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            g = (RatFun.from_poly(Poly.diff(n, i, j)) * f).delta(j).delta(i)
            if not g.is_zero():
                return False, (i, j)
    return True, None


def test_delta_system_on_fraction_coefficients_matches_the_unscaled_check():
    # the check scales f by the lcm of its coefficient denominators; the
    # verdict and the witness pair must be those of f itself
    rng = random.Random(13)
    n = 3
    bumps = (RatFun.var(n, 3) ** 2 * Fraction(2, 9),
             RatFun.inverse_diff(n, 2, 3) * Fraction(-3, 4),
             RatFun.inverse_diff(n, 1, 3, 1) * RatFun.var(n, 2) * Fraction(5, 7))
    witnesses = set()
    for _ in range(6):
        f = RatFun.zero(n)
        for L in range(1, 4):
            f = f + Hpot(n, L) * Fraction(rng.randrange(-3, 4), rng.randrange(1, 6))
        f = f + pole_part(n, rng.randrange(1, n + 1),
                          [Fraction(rng.randrange(-2, 3), rng.randrange(1, 4))
                           for _ in range(3)])
        assert delta_system_check(f) == _delta_system_unscaled(f) == (True, None)
        g = f + rng.choice(bumps)
        want = _delta_system_unscaled(g)
        assert not want[0]
        assert delta_system_check(g) == want
        witnesses.add(want[1])
    assert len(witnesses) > 1


def test_h_combination_reads_off_coefficients():
    n = 3
    p = complete_symmetric(n, 3).scale(Fraction(2)) \
        + complete_symmetric(n, 1).scale(Fraction(-1, 2))
    assert h_combination(p) == [(1, Fraction(-1, 2)), (3, Fraction(2))]
    assert h_combination(Poly.var(n, 2)) is None


def test_w_decompose_roundtrip():
    rng = random.Random(12)
    n = 3
    for _ in range(8):
        f = RatFun.zero(n)
        for L in range(4):
            f = f + RatFun.from_poly(
                complete_symmetric(n, L).scale(Fraction(rng.randrange(-2, 3))))
        for k in range(2, n + 1):
            if rng.random() < 0.6:
                f = f + pole_part(n, k, [rng.randrange(-2, 3) for _ in range(4)])
        dec = w_decompose(f, 1)
        assert dec.reassemble() == f
        assert 1 not in dec.parts
    for coeffs in UNIVARIATE + ([7, 1, -1],):
        f = pole_part(1, 1, coeffs)
        dec = w_decompose(f, 1)
        assert dec.reassemble() == f
        assert dec.parts == {}
        assert dec.symmetric == [(L, c) for L, c in enumerate(coeffs) if c]


def test_w_decompose_moves_pivot_poles():
    # a pole at the pivot variable gets re-expressed through the others
    n = 2
    f = pole_part(n, 1, [0, 0, 1])  # h1^2/(h1-h2)
    dec = w_decompose(f, 1)
    assert dec.reassemble() == f
    assert 1 not in dec.parts
    dec2 = w_decompose(f, 2)
    assert dec2.reassemble() == f
    assert 2 not in dec2.parts


def test_w_decompose_rejects_a_pivot_outside_1_to_n():
    # 1/chi_2 is in W: pivot 4, 0 or -1 once gave the wrong verdict NotInW,
    # and at n=2 pivot 0 returned a decomposition
    f = RatFun.one(3) / chi(3, 2)
    for pivot in (4, 0, -1):
        with pytest.raises(DomainError, match="outside 1..3"):
            w_decompose(f, pivot)
    with pytest.raises(DomainError, match="outside 1..2"):
        w_decompose(Hpot(2, 2), 0)


def test_sigma_from_potential_rejects_another_n():
    # n=2 for a potential at n=3 once dropped sigma_3
    f = Hpot(3, 2)
    with pytest.raises(DomainError, match="ring sizes differ"):
        sigma_from_potential(f, 2)
    assert sigma_from_potential(f, 3) == sigma_from_potential(f)
    assert len(sigma_from_potential(f)) == 3


def test_w_decompose_decides_membership_on_the_parts(monkeypatch):
    # the delta system is linear in f: the parts add up to f and each
    # passes it, so f is in W without the system running on f itself
    n = 3
    seen = []
    right = potential.delta_system_check

    def recorded(g):
        seen.append(g)
        return right(g)

    monkeypatch.setattr(potential, "delta_system_check", recorded)
    f = (Hpot(n, 2) + RatFun.const(n, 4) + pole_part(n, 2, [1, 0, 5])
         + pole_part(n, 3, [Fraction(2, 3)]))
    dec = w_decompose(f, 1)
    assert dec.reassemble() == f
    assert len(seen) == 3 and f not in seen


def _outside_w(n):
    """Potentials outside W at n: two with a pole of the wrong shape, one
    whose regular part is not symmetric, a W element plus h_1, and from
    n = 3 on one whose pole data is not univariate."""
    h1 = RatFun.var(n, 1)
    out = [RatFun.inverse_diff(n, 1, 2) ** 2, h1 * h1,
           h1 * RatFun.inverse_diff(n, 1, 2, 1),
           Hpot(n, 2) + pole_part(n, 2, [1, 3]) + h1]
    return out + [RatFun.inverse_diff(n, 1, 2)] if n > 2 else out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_w_decompose_outside_w_names_the_first_failing_pair(n):
    # when the parts fail, the delta system on f decides, and its first
    # failing pair is the error, as it was when the system ran first
    for f in _outside_w(n):
        ok, pair = delta_system_check(f)
        assert not ok
        with pytest.raises(NotInW) as err:
            w_decompose(f, 1)
        assert str(err.value) == f"delta system fails at {pair}"


def test_w_decompose_returns_only_a_decomposition_of_f_in_w(capsys,
                                                            monkeypatch):
    # f passes the delta system, so f is in W and the split along the pivot
    # exists: a split that does not add up to f, or a shape error, is the
    # split's fault and raises MismatchError
    n = 3
    f = Hpot(n, 2) + pole_part(n, 2, [1])
    dec = potential._decomposition(f, 1)
    assert (dec.parts, dec.symmetric) == ({2: [1]}, [(2, 1)])
    dec.parts[2][0] += 1
    monkeypatch.setattr(potential, "_decomposition", lambda f, pivot: dec)
    with pytest.raises(MismatchError):
        w_decompose(f, 1)
    assert main(["decompose", "H(2)+1/chi(2)", "-n", "3"]) == 1
    cap = capsys.readouterr()
    assert cap.out == "" and cap.err.startswith("check failed: ")

    def shape_error(f, pivot):
        raise NotInW("unexpected pole")

    monkeypatch.setattr(potential, "_decomposition", shape_error)
    with pytest.raises(MismatchError):
        w_decompose(f, 1)


def test_w_decompose_rejects_outsiders():
    n = 2
    with pytest.raises(NotInW):
        w_decompose(RatFun.from_poly(Poly.var(n, 1) ** 2), 1)
    with pytest.raises(NotInW):
        w_decompose(RatFun.inverse_diff(n, 1, 2) ** 2, 1)


def test_reconstruct_ones_gives_h1():
    for n in (1, 2, 3, 4):
        sig = tuple(RatFun.one(n) for _ in range(n))
        f = reconstruct_potential(sig)
        assert f == RatFun.from_poly(complete_symmetric(n, 1))


def test_reconstruct_roundtrip_normalized():
    rng = random.Random(13)
    n = 3
    for _ in range(6):
        f = RatFun.zero(n)
        for L in range(1, 4):
            f = f + Hpot(n, L) * Fraction(rng.randrange(-2, 3))
        for k in range(2, n + 1):
            f = f + pole_part(n, k, [rng.randrange(-2, 3) for _ in range(3)])
        got = reconstruct_potential(sigma_from_potential(f))
        # normalization: same gradient, so the difference is a constant
        diff = got - f
        assert diff.is_const()
    for coeffs in UNIVARIATE:
        f = pole_part(1, 1, coeffs)
        assert reconstruct_potential(sigma_from_potential(f)) == f


@st.composite
def _potential_in_w(draw):
    """f = sum_L c_L H_L + sum_{k >= 2} pi_k(h_k)/chi_k at n = 1, 2, 3, with
    L >= 1: the normalization reconstruct_potential returns (no pivot-1
    pole part, no constant term)."""
    n = draw(st.integers(1, 3))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=2)
    f = RatFun.zero(n)
    for L in range(1, 4):
        f = f + RatFun.from_poly(complete_symmetric(n, L).scale(draw(coeff)))
    for k in range(2, n + 1):
        f = f + pole_part(n, k, draw(st.lists(coeff, max_size=3)))
    return f


@settings(max_examples=40)
@given(_potential_in_w())
def test_reconstruct_inverts_sigma_property(f):
    assert reconstruct_potential(sigma_from_potential(f)) == f


def test_reconstruct_when_L_does_not_divide_the_leading_coefficient():
    # the top coefficient of Delta_1 (c_L H_L) in h_1 is L * c_L, here 1 and
    # 5; read back from JSON, the integral ones are ints
    n = 3
    f = (Hpot(n, 3) * Fraction(1, 3) + Hpot(n, 2) * Fraction(5, 2)
         + pole_part(n, 2, [1, 1]))
    sigma = tuple(RatFun.from_json(n, s.to_json()) for s in sigma_from_potential(f))
    got = reconstruct_potential(sigma)
    assert (got - f).is_const()


def test_reconstruct_rejects_nonflat():
    n = 2
    sig = (RatFun.var(n, 1), RatFun.var(n, 2))
    with pytest.raises(NotFlat):
        reconstruct_potential(sig)


def test_is_polynomial_potential():
    n = 3
    assert is_polynomial_potential(Hpot(n, 2))
    assert not is_polynomial_potential(pole_part(n, 2, [0, 1]))
    with pytest.raises(NotInW):
        is_polynomial_potential(RatFun.from_poly(Poly.var(n, 1)))


def test_is_polynomial_potential_cross_check_raises(monkeypatch):
    """The S_n-invariance cross-check is a raise, so it also runs under
    python -O; central reports the same class."""
    monkeypatch.setattr(RatFun, "permuted", lambda self, perm: self + 1)
    with pytest.raises(MismatchError, match="h_1 and h_2"):
        is_polynomial_potential(Hpot(3, 2))
    assert central.MismatchError is MismatchError
