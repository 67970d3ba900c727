"""Acceptance gate: the twelve exact verification sweeps.

Every check is exact over Q; each test prints a single pass line and
enforces its time budget.
"""

import random
import time
from fractions import Fraction

from hdcalc.ratfield import Poly, RatFun
from hdcalc.rmatrix import (chi, complete_symmetric, verify_dybe,
                            verify_r_squared, verify_ice,
                            verify_shift_invariance, verify_skew_inverse,
                            verify_chi_identity)
from hdcalc.potential import (sigma_from_potential, sigma_system_check,
                              delta_system_check, reconstruct_potential)
from hdcalc.diffring import (RingSpec, NormalElement, multiply,
                             epsilon_antiauto, verify_pbw, check_assignment,
                             zhelobenko_assignment,
                             localized_coordinates_commute)
from hdcalc.central import central_family, verify_central
from hdcalc.lowestweight import generic_lambda, central_character
from hdcalc.multicopy import SigmaArray, flatness_check, ambiguity_oracle


def Hpot(n, L):
    """H_L assembled from its chi expansion."""
    out = RatFun.zero(n)
    for j in range(1, n + 1):
        out = out + RatFun.from_poly(Poly.var(n, j) ** (L + n - 1)) / chi(n, j)
    return out


def pole_part(n, k, coeffs):
    p = Poly.zero(n)
    for m, c in enumerate(coeffs):
        p = p + (Poly.var(n, k) ** m).scale(Fraction(c))
    return RatFun.from_poly(p) / chi(n, k)


def sym(n, L):
    return RatFun.from_poly(complete_symmetric(n, L))


def rand_potential(rng, n, max_L=3, pole_deg=2):
    f = RatFun.zero(n)
    for L in range(1, max_L + 1):
        f = f + sym(n, L) * Fraction(rng.randrange(-2, 3))
    for k in range(2, n + 1):
        if rng.random() < 0.5:
            f = f + pole_part(n, k,
                              [rng.randrange(-2, 3) for _ in range(pole_deg + 1)])
    return f


def done(num, name, t0, budget):
    dt = time.time() - t0
    assert dt < budget, f"criterion {num} took {dt:.1f}s (budget {budget}s)"
    print(f"criterion {num:2d} ({name}): pass [{dt:.1f}s]")


def test_01_r_matrix_identities():
    t0 = time.time()
    for n in (1, 2, 3, 4):
        for rep in (verify_dybe(n), verify_r_squared(n), verify_ice(n),
                    verify_shift_invariance(n)):
            assert rep.passed, rep.summary()
    done(1, "dybe / r squared / ice / shift", t0, 30)


def test_02_skew_inverse():
    t0 = time.time()
    for n in (1, 2, 3):
        rep = verify_skew_inverse(n)
        assert rep.passed, rep.summary()
    done(2, "skew inverse", t0, 10)


def test_03_chi_identity():
    t0 = time.time()
    for n in range(1, 6):
        for L in range(9):
            assert verify_chi_identity(n, L).passed, (n, L)
    done(3, "chi partial fractions", t0, 10)


def test_04_pbw_equivalence():
    t0 = time.time()
    rng = random.Random(104)
    plan = [(2, 13, 12), (3, 12, 13)]  # 25 flat + 25 perturbed in total
    for n, nflat, nbad in plan:
        sigmas = []
        for _ in range(nflat):
            f = rand_potential(rng, n)
            sigmas.append((sigma_from_potential(f), True))
        made = 0
        while made < nbad:
            f = rand_potential(rng, n)
            sig = list(sigma_from_potential(f))
            i = rng.randrange(n)
            bump = rng.choice([RatFun.var(n, i + 1),
                               RatFun.var(n, rng.randrange(1, n + 1)) ** 2,
                               RatFun.inverse_diff(n, 1, 2)])
            sig[i] = sig[i] + bump
            if sigma_system_check(tuple(sig))[0]:
                continue
            sigmas.append((tuple(sig), False))
            made += 1
        for sig, flat in sigmas:
            rep = verify_pbw(RingSpec(n, sig))
            assert rep.agree, f"routes disagree at n={n}"
            assert rep.flat == flat
    done(4, "double reduction vs difference system", t0, 120)


def test_05_delta_system_classification():
    t0 = time.time()
    rng = random.Random(105)
    for n in (2, 3):
        for j in range(1, n + 1):
            for m in range(6):
                assert delta_system_check(pole_part(n, j, [0] * m + [1]))[0]
        for L in range(7):
            assert delta_system_check(sym(n, L))[0]
    rejected = 0
    while rejected < 20:
        n = rng.choice((2, 3))
        kind = rng.randrange(3)
        if kind == 0:
            p = Poly.zero(n)
            for _ in range(3):
                e = tuple(rng.randrange(3) for _ in range(n))
                p = p + Poly(n, {e: Fraction(rng.randrange(-3, 4))})
            f = RatFun.from_poly(p)
        elif kind == 1:
            f = RatFun.inverse_diff(n, 1, 2) ** rng.randrange(1, 3)
        else:
            f = pole_part(n, 1, [rng.randrange(1, 3)]) \
                * RatFun.var(n, rng.randrange(1, n + 1)) * RatFun.var(n, 1)
        if not delta_system_check(f)[0]:
            rejected += 1
    done(5, "delta system membership", t0, 60)


def test_06_potential_reconstruction():
    t0 = time.time()
    rng = random.Random(106)
    for n, reps in ((1, 7), (2, 9), (3, 8), (4, 6)):
        for _ in range(reps):
            if n == 4:
                # one pole block only; size grows steeply with n
                f = sym(n, 1) * Fraction(rng.randrange(-2, 3)) \
                    + sym(n, 2) * Fraction(rng.randrange(-2, 3)) \
                    + pole_part(n, rng.randrange(2, n + 1),
                                [rng.randrange(-2, 3) for _ in range(3)])
            else:
                f = rand_potential(rng, n)
            got = reconstruct_potential(sigma_from_potential(f))
            assert got == f, f"roundtrip drifted at n={n}"
    for n in (2, 3):
        ones = tuple(RatFun.one(n) for _ in range(n))
        assert reconstruct_potential(ones) == sym(n, 1)
        annih = tuple(-RatFun.var(n, i) - sym(n, 1) + 1 for i in range(1, n + 1))
        got = reconstruct_potential(annih)
        assert (got + sym(n, 2)).is_const()
        assert got == -sym(n, 2)
    done(6, "potential reconstruction", t0, 120)


def test_07_weight_permuting_symmetries():
    t0 = time.time()
    for n in (2, 3):
        good = [sym(n, 1), sym(n, 2), sym(n, 1) + sym(n, 4) * 3]
        bad = [RatFun.one(n) / chi(n, 1),
               RatFun.from_poly(Poly.var(n, 1) ** 3) / chi(n, 1)]
        for f in good:
            spec = RingSpec(n, sigma_from_potential(f))
            for i in range(1, n):
                rep = check_assignment(spec, spec, zhelobenko_assignment(spec, i))
                assert rep.passed, (n, i, rep.failures)
        for f in bad:
            spec = RingSpec(n, sigma_from_potential(f))
            failed = False
            for i in range(1, n):
                rep = check_assignment(spec, spec, zhelobenko_assignment(spec, i))
                failed = failed or not rep.passed
            assert failed, f"non-polynomial potential accepted at n={n}"
    done(7, "weight permutation criterion", t0, 60)


def grid_potentials(n):
    return [RatFun.zero(n), Hpot(n, 1), -Hpot(n, 2), RatFun.one(n) / chi(n, 1)]


def test_08_center():
    t0 = time.time()
    for n in (1, 2, 3):
        for f in grid_potentials(n):
            fam = central_family(f, n=n)
            # rho solves its difference system coefficientwise (rechecked
            # independently of the construction inside rho_for)
            from hdcalc.rmatrix import elementary_symmetric
            sig = sigma_from_potential(f, n)
            for j in range(1, n + 1):
                for k in range(n):
                    lhs = fam.rho[k].delta(j)
                    rhs = RatFun.from_poly(
                        elementary_symmetric(n, k, skip=j)) * sig[j - 1]
                    assert lhs == rhs, (n, j, k)
            rep = verify_central(fam)
            assert rep.passed, (n, "commutators", rep.failures)
            assert rep.total == 3 * n * n
    done(8, "central family", t0, 180)


def test_09_central_character():
    t0 = time.time()
    for n in (1, 2, 3):
        lam = generic_lambda(n)
        for f in grid_potentials(n):
            fam = central_family(f, n=n)
            acted, predicted = central_character(fam, lam)
            assert acted == predicted, (n, "routes differ")
    done(9, "central character", t0, 60)


def test_10_multicopy_flatness():
    t0 = time.time()
    rng = random.Random(110)
    n = 2
    agreements = 0
    for trial in range(30):
        nx, nd = rng.choice([(2, 1), (1, 2), (2, 2)])
        kind = trial % 3
        if kind == 0:
            vals = {(a, b): Fraction(rng.randrange(-3, 4))
                    for a in range(1, nx + 1) for b in range(1, nd + 1)}
            s = SigmaArray.constant(n, nx, nd, vals)
            expect = True
        elif kind == 1:
            ent = {(i, rng.randrange(1, nx + 1), rng.randrange(1, nd + 1)):
                   RatFun.var(n, i) for i in (1, 2)}
            s = SigmaArray(n, nx, nd, ent)
            expect = False
        else:
            ent = {(i, 1, 1): RatFun.const(n, i) for i in (1, 2)}
            s = SigmaArray(n, nx, nd, ent)
            expect = False
        chk = flatness_check(n, nx, nd, s).passed
        orc = ambiguity_oracle(n, nx, nd, s).passed
        assert chk == expect, (trial, "flatness verdict")
        assert chk == orc, (trial, "oracle disagrees")
        agreements += 1
    assert agreements == 30
    done(10, "multicopy constants", t0, 120)


def rand_mono(rng, n, deg=2):
    a = [0] * n
    b = [0] * n
    for _ in range(rng.randrange(deg + 1)):
        a[rng.randrange(n)] += 1
    for _ in range(rng.randrange(deg + 1)):
        b[rng.randrange(n)] += 1
    c = RatFun.const(n, Fraction(rng.randrange(1, 5), rng.randrange(1, 3)))
    if n >= 2 and rng.random() < 0.3:
        c = c * RatFun.inverse_diff(n, 1, 2)
    return NormalElement(n, {(tuple(a), tuple(b)): c})


def test_11_antiautomorphism():
    t0 = time.time()
    rng = random.Random(111)
    pairs = 0
    for n in (1, 2, 3):
        spec = RingSpec(n, sigma_from_potential(Hpot(n, 1)))
        for _ in range(20 if n == 1 else 40):
            a, b = rand_mono(rng, n), rand_mono(rng, n)
            ab = multiply(spec, a, b)
            assert epsilon_antiauto(spec, ab) == multiply(
                spec, epsilon_antiauto(spec, b), epsilon_antiauto(spec, a))
            assert epsilon_antiauto(spec, epsilon_antiauto(spec, a)) == a
            pairs += 1
    assert pairs == 100
    done(11, "involutive antiautomorphism", t0, 60)


def test_12_localized_coordinates():
    t0 = time.time()
    for n in (2, 3):
        for f in (Hpot(n, 1), -Hpot(n, 2)):
            spec = RingSpec(n, sigma_from_potential(f))
            rep = localized_coordinates_commute(spec)
            assert rep.passed and rep.total == n * (n - 1) // 2, rep.failures
    done(12, "localized coordinates commute", t0, 30)
