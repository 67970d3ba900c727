"""Commutative family c_1..c_n and its lowest weight characters."""

import random
from fractions import Fraction

import pytest

from hdcalc.ratfield import DomainError, Poly, RatFun, exact_coeff
from hdcalc import central, cli
from hdcalc.rmatrix import chi, chi_inv, complete_symmetric, elementary_symmetric
from hdcalc.potential import NotInW, sigma_from_potential, w_decompose
from hdcalc.central import (MismatchError, central_family, verify_central,
                            character_map, rho_for)
from hdcalc.diffring import RingSpec, commutator


def Hpot(n, L):
    out = RatFun.zero(n)
    for j in range(1, n + 1):
        out = out + RatFun.from_poly(Poly.var(n, j) ** (L + n - 1)) / chi(n, j)
    return out


def test_central_family_rejects_another_n():
    # n=2 for a potential at n=3 once gave a spec at n=2 with three rho_k
    f = Hpot(3, 2)
    with pytest.raises(DomainError, match="ring sizes differ"):
        central_family(f, n=2)
    fam = central_family(f, n=3)
    assert fam.spec.n == 3 and len(fam.rho) == len(fam.elements) == 3


def test_rho_for_h1():
    # for f = H_1 the solution of Delta_j rho(t) = prod_{m != j}(1 + h_m t)
    # is rho(t) = e_1 + e_2 t + ... + e_n t^{n-1}
    for n in (2, 3, 4, 8):
        rho = rho_for(RatFun.from_poly(complete_symmetric(n, 1)))
        assert isinstance(rho, list) and len(rho) == n
        assert rho == [RatFun.from_poly(elementary_symmetric(n, k))
                       for k in range(1, n + 1)]


def rho_by_reexpansion(f):
    """rho_k = sum_j g_j e_k(no j), where g_j is the part of f with poles
    along h_j and each c_L H_L with L >= 1 is re-expanded as
    sum_j c_L h_j^{L+n-1}/chi_j.  The constant c_0 H_0 is left out, as
    Delta_j of it is 0."""
    n = f.n
    dec = w_decompose(f, pivot=1)
    g = {j: RatFun.zero(n) for j in range(1, n + 1)}
    for j in dec.parts:
        g[j] = g[j] + dec.summand(j)
    for L, c in dec.symmetric:
        if L == 0:
            continue
        for j in range(1, n + 1):
            g[j] = g[j] + (Poly.var(n, j) ** (L + n - 1)).scale(c) * chi_inv(n, j)
    rho = []
    for k in range(n):
        r = RatFun.zero(n)
        for j in range(1, n + 1):
            r = r + g[j] * elementary_symmetric(n, k, skip=j)
        rho.append(r)
    return rho


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rho_for_matches_the_reexpansion(n):
    # a constant H_0, two higher H_L and pole parts pi_k(h_k)/chi_k on up to
    # two k != 1, with Fraction coefficients, so w_decompose(f, pivot=1)
    # holds exactly these terms
    rng = random.Random(n)

    def coeff(m):
        return Fraction(rng.randint(-m, m) or 1, rng.randint(1, 6))

    Ls = [0] + rng.sample(range(1, 4), 2)
    f = RatFun.zero(n)
    for L in Ls:
        f = f + RatFun.from_poly(complete_symmetric(n, L).scale(coeff(5)))
    ks = rng.sample(range(2, n + 1), min(n - 1, 2))
    for k in ks:
        pk = Poly(n, {tuple(d if m == k else 0 for m in range(1, n + 1)):
                      exact_coeff(coeff(3)) for d in range(3)})
        f = f + pk * chi_inv(n, k)
    dec = w_decompose(f, pivot=1)
    assert [L for L, _ in dec.symmetric] == sorted(Ls)
    assert sorted(dec.parts) == sorted(ks)
    assert rho_for(f) == rho_by_reexpansion(f)


def test_rho_for_multiplies_no_fraction_polynomials():
    """On a potential with Fraction coefficients, both in its symmetric
    part and in its pole part, rho is the reexpansion's.  Every Poly is an
    int polynomial over one denominator, so no product here multiplies a
    Fraction (test_every_kernel_keeps_one_least_denominator)."""
    n = 4
    f = (RatFun.from_poly(complete_symmetric(n, 1).scale(Fraction(4, 3))
                          - complete_symmetric(n, 2).scale(Fraction(1, 2))
                          + complete_symmetric(n, 3).scale(Fraction(3, 5)))
         + Poly(n, {(0, 0, 0, 0): Fraction(1, 3), (0, 1, 0, 0): -2,
                    (0, 2, 0, 0): 1}) * chi_inv(n, 2))
    assert rho_for(f) == rho_by_reexpansion(f)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_constant_changes_neither_rho_nor_the_family(n):
    f = Hpot(n, 2) + (RatFun.one(n) / chi(n, 2) if n > 1 else RatFun.zero(n))
    c = RatFun.const(n, Fraction(-7, 3))
    assert rho_for(c) == [RatFun.zero(n)] * n
    assert rho_for(f + c) == rho_for(f)
    assert central_family(f + c).elements == central_family(f).elements


def _pole_and_symmetric(n):
    """H_1 - 2 H_2 + (1 + h_2)/chi_2: one pole part and two symmetric terms."""
    return (RatFun.from_poly(complete_symmetric(n, 1)
                             - complete_symmetric(n, 2).scale(2))
            + (Poly.var(n, 2) + Poly.const(n, 1)) * chi_inv(n, 2))


def test_rho_for_rejects_a_corrupted_share(monkeypatch):
    # s_(2,1) one h_1 too large: the polynomial share that c_2 H_2 adds to
    # rho_1 is wrong, so the symmetric part fails its own check, and the
    # whole check names the first failing equation
    n = 3
    right = central.hook_schur

    def bumped(m, L, k):
        p = right(m, L, k)
        return p + Poly.var(m, 1) if (L, k) == (2, 1) else p

    monkeypatch.setattr(central, "hook_schur", bumped)
    with pytest.raises(MismatchError, match=r"rho_1 fails .* at j=1$"):
        rho_for(_pole_and_symmetric(n))


def test_rho_for_rejects_a_decomposition_that_is_not_f(monkeypatch):
    # pi_2 one larger: every component and its share of rho still agree,
    # but the components add up to another potential than f, so the whole
    # check decides
    n = 3
    right = central.w_decompose

    def wrong(f, pivot):
        dec = right(f, pivot)
        dec.parts[2] = [c + 1 for c in dec.parts[2]]
        return dec

    monkeypatch.setattr(central, "w_decompose", wrong)
    with pytest.raises(MismatchError, match=r"rho_0 fails .* at j=1$"):
        rho_for(_pole_and_symmetric(n))


def test_family_h1_frozen():
    n = 2
    fam = central_family(Hpot(n, 1))
    spec = fam.spec
    e1 = RatFun.from_poly(complete_symmetric(n, 1))
    c1 = spec.gamma(1) + spec.gamma(2) - spec.coeff(e1)
    assert fam.elements[0] == c1
    c2 = spec.gamma(1).scale(RatFun.var(n, 2)) \
        + spec.gamma(2).scale(RatFun.var(n, 1)) \
        - spec.coeff(RatFun.from_poly(Poly(n, {(1, 1): Fraction(1)})))
    assert fam.elements[1] == c2


def test_central_elements_commute_with_generators():
    for n, L in ((1, 1), (2, 2)):
        fam = central_family(Hpot(n, L))
        rep = verify_central(fam)
        assert rep.passed and rep.total == 3 * n * n, rep.failures


def test_failing_central_check_is_labelled_by_its_commutator():
    fam = central_family(Hpot(2, 1))
    spec = fam.spec
    bad = central.CentralFamily(fam.f, fam.rho, [spec.h(1)] + fam.elements[1:])
    assert verify_central(bad).failures == ["[c1,x1]", "[c1,d1]"]


def test_the_family_differences_f_only_when_its_ring_is_read(
        capsys, monkeypatch):
    """central_family builds c_1..c_n without Delta f, and `hdcalc central`
    never reads the ring; its first read builds the ring of f and keeps it."""
    n = 3
    f = Hpot(n, 2) + RatFun.one(n) / chi(n, 2)
    want = central_family(f)
    argv = ["central", "-n", str(n), "--potential", "H(2)+1/chi(2)"]
    printed = cli.main(argv), capsys.readouterr()

    def refuse(*args):
        raise AssertionError("Delta f taken")

    monkeypatch.setattr(central, "sigma_from_potential", refuse)
    fam = central_family(f)
    assert (fam.rho, fam.elements) == (want.rho, want.elements)
    assert (cli.main(argv), capsys.readouterr()) == printed
    assert printed[0] == 0 and printed[1].out.count("\n") == 2 * n
    monkeypatch.undo()
    spec = fam.spec
    assert spec == RingSpec(n, sigma_from_potential(f))
    assert fam.spec is spec


def test_central_for_pole_potential():
    n = 2
    fam = central_family(RatFun.one(n) / chi(n, 1))
    rep = verify_central(fam)
    assert rep.passed and rep.total == 3 * n * n, rep.failures


def test_family_elements_commute_mutually():
    n = 2
    fam = central_family(Hpot(n, 2))
    spec = fam.spec
    for a in range(n):
        for b in range(a + 1, n):
            assert commutator(spec, fam.elements[a], fam.elements[b]).is_zero()


def test_character_map_matches_family_definition():
    # v_k must satisfy the same vacuum evaluation the elements do: the
    # coefficient of the identity term of c_k after projecting d_i x^i to
    # its vacuum scalar
    n = 2
    fam = central_family(Hpot(n, 1))
    chars = character_map(fam)
    pt = (Fraction(7, 3), Fraction(1, 5))
    got = [v.evaluate(pt) for v in chars]
    assert got[0] != got[1]  # nondegenerate at a generic point
    assert all(isinstance(x, Fraction) for x in got)


def test_rho_rejects_potentials_outside_w():
    with pytest.raises(NotInW):
        rho_for(RatFun.from_poly(Poly.var(2, 1) ** 2))
