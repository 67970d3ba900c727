"""Several commuting copies: mixed normal forms and flatness of sigma arrays."""

import random
import re
from fractions import Fraction

import pytest

from hdcalc import diffring, multicopy, rmatrix
from hdcalc.ratfield import RatFun, eps_vec
from hdcalc.rmatrix import chi
from hdcalc.potential import sigma_from_potential
from hdcalc.diffring import (RingSpec, is_overlap_ambiguity, normal_form,
                             overlap_words, verify_pbw)
from hdcalc.multicopy import (SigmaArray, constant_profile, mixed_normal_form,
                              vcopy_normal_form, flatness_check,
                              ambiguity_oracle)


def one_copy_sigma(n, f):
    return SigmaArray.from_one_copy(sigma_from_potential(f, n))


def as_exponents(n, key):
    a = [0] * n
    b = [0] * n
    for sp, i, _c in key:
        (b if sp == 'd' else a)[i - 1] += 1
    return tuple(b), tuple(a)


def test_single_copy_matches_ring_normal_form():
    n = 2
    sigma = (RatFun.one(n), RatFun.one(n))
    words = [
        [('x', 1, 1), ('d', 1, 1)],
        [('x', 1, 1), ('x', 2, 1), ('d', 2, 1)],
        [('d', 2, 1), ('x', 1, 1), ('d', 1, 1)],
    ]
    cases = [(n, sigma, words)]
    # n = 3: x d pairs with i < j, i > j and i = j, flat and bumped sigma
    n = 3
    flat = sigma_from_potential(RatFun.var(n, 2) ** 3 / chi(n, 2), n)
    bumped = (flat[0] + RatFun.var(n, 2),) + flat[1:]
    words = [
        [('x', 1, 1), ('d', 3, 1)],
        [('x', 3, 1), ('d', 1, 1)],
        [('x', 2, 1), ('d', 2, 1)],
        [('x', 3, 1), ('d', 2, 1), ('d', 1, 1)],
        [('x', 1, 1), ('x', 3, 1), ('d', 1, 1)],
        [('x', 2, 1), ('d', 3, 1), ('x', 1, 1), ('d', 2, 1)],
    ]
    cases += [(n, flat, words), (n, bumped, words)]
    for n, sigma, words in cases:
        spec = RingSpec(n, sigma)
        s = SigmaArray.from_one_copy(sigma)
        for w in words:
            for strategy in ("left", "right"):
                got = mixed_normal_form(n, s, w, strategy)
                ring = normal_form(spec, [(t[0], t[1]) for t in w], strategy)
                assert {as_exponents(n, k): v
                        for k, v in got.items()} == ring.terms


def test_x_sector_confluent_without_sigma():
    rng = random.Random(9)
    n, nc = 2, 2
    for _ in range(12):
        w = [('x', rng.randrange(1, n + 1), rng.randrange(1, nc + 1))
             for _ in range(4)]
        left = vcopy_normal_form(n, nc, w, "left")
        right = vcopy_normal_form(n, nc, w, "right")
        assert left == right


def test_cross_copy_commutation_quadratic():
    # moving copy 2 past copy 1 and back is the identity (R^2 = Id aspect)
    n, nc = 2, 2
    for i in (1, 2):
        for j in (1, 2):
            w = [('x', i, 2), ('x', j, 1)]
            nf = vcopy_normal_form(n, nc, w, "left")
            back = {}
            for key, c in nf.items():
                for k2, c2 in vcopy_normal_form(n, nc, list(key), "left").items():
                    back[k2] = back.get(k2, RatFun.zero(n)) + c * c2
            back = {k: v for k, v in back.items() if not v.is_zero()}
            # original word in canonical order
            want = vcopy_normal_form(n, nc, w, "left")
            assert back == want


def test_constant_sigma_arrays_are_flat():
    s = SigmaArray.constant(2, 2, 2, {(1, 1): 1, (1, 2): 2,
                                      (2, 1): 0, (2, 2): Fraction(5, 3)})
    rep = flatness_check(2, 2, 2, s)
    # eqsigib, ysy1 and ysy2 for each of the four copy pairs
    assert rep.summary() == "flatness n=2 nx=2 nd=2: 12/12 pass"
    orep = ambiguity_oracle(2, 2, 2, s)
    assert orep.passed


def test_weight_dependent_entries_fail():
    n = 2
    ent = {(i, 1, 1): RatFun.var(n, i) for i in (1, 2)}
    s = SigmaArray(n, 2, 2, ent)
    rep = flatness_check(n, 2, 2, s)
    assert not rep.passed
    labels = " ".join(rep.failures)
    assert "ysy1" in labels or "ysy2" in labels
    orep = ambiguity_oracle(n, 2, 2, s)
    assert not orep.passed


def test_ambiguity_oracle_is_exhaustive_or_refuses():
    s = SigmaArray.constant(2, 2, 2, 1)
    # n^3 (nx nd^2 + nx^2 nd) words: 8 * 16 at n = 2 with two copies each
    assert ambiguity_oracle(2, 2, 2, s).total == 128
    assert ambiguity_oracle(2, 2, 2, s, budget=128).total == 128
    with pytest.raises(ValueError, match="128 words exceed the budget of 127"):
        ambiguity_oracle(2, 2, 2, s, budget=127)


def oracle_words(n, nx, nd):
    """The oracle's words, in its report order: each x over the copies
    1..nx, each d over 1..nd."""
    return overlap_words(n, [(a,) for a in range(1, nx + 1)],
                         [(b,) for b in range(1, nd + 1)])


def oracle_arrays(n, nx, nd):
    """A constant array and one with an h-dependent entry per i."""
    rng = random.Random(10 * n + nx + nd)
    vals = {(a, b): rng.randint(1, 5)
            for a in range(1, nx + 1) for b in range(1, nd + 1)}
    return (SigmaArray.constant(n, nx, nd, vals),
            SigmaArray(n, nx, nd, {(i, rng.randint(1, nx), rng.randint(1, nd)):
                                   RatFun.var(n, i) * rng.randint(1, 4)
                                   for i in range(1, n + 1)}))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("nx, nd", [(2, 1), (1, 2), (2, 2)])
def test_skipped_oracle_words_take_the_same_steps_both_ways(rewrite_steps,
                                                             n, nx, nd):
    # the words the oracle records as passes without reducing them: both
    # strategies rewrite the same pairs in the same order
    for s in oracle_arrays(n, nx, nd):
        for w in oracle_words(n, nx, nd):
            left, right = rewrite_steps(
                lambda strategy: mixed_normal_form(n, s, list(w), strategy))
            assert left, w
            # on an overlap ambiguity the first step already differs
            assert (left == right) != is_overlap_ambiguity(w), w


def test_oracle_reduces_only_overlap_ambiguities(monkeypatch):
    # the words the engine reduces, each with its strategy, and its calls:
    # one per word for double reduction, and a failing array reduces its
    # first failing word once more each way, for its canonical forms
    reduced = []
    calls = []
    rewrite = diffring._rewrite

    def counted(n, walks, order, resolve):
        calls.append(len(walks))
        reduced.extend((tuple(t for t in w if type(t) is tuple), strategy)
                       for strategy, w in walks)
        return rewrite(n, walks, order, resolve)

    for module in (diffring, multicopy):
        monkeypatch.setattr(module, "_rewrite", counted)
    for (nx, nd), computed, total in (((2, 1), 16, 48), ((1, 2), 16, 48),
                                      ((2, 2), 48, 128)):
        for s in oracle_arrays(2, nx, nd):
            reduced.clear()
            calls.clear()
            rep = ambiguity_oracle(2, nx, nd, s)
            assert len(reduced) == 2 * computed + (0 if rep.passed else 2)
            assert sorted(calls) == ([] if rep.passed else [1, 1]) + [2] * computed
            assert len(set(reduced)) == 2 * computed
            assert {w for w, _ in reduced} == {
                w for w in oracle_words(2, nx, nd) if is_overlap_ambiguity(w)}
            assert rep.total == total == len(oracle_words(2, nx, nd))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("nx, nd", [(2, 1), (1, 2), (2, 2)])
def test_oracle_failures_are_the_overlap_words_that_differ(n, nx, nd):
    _, s = oracle_arrays(n, nx, nd)
    want = ["*".join(f"{sp}{i},{c}" for sp, i, c in w)
            for w in oracle_words(n, nx, nd)
            if is_overlap_ambiguity(w)
            and mixed_normal_form(n, s, list(w), "left")
            != mixed_normal_form(n, s, list(w), "right")]
    assert want
    assert ambiguity_oracle(n, nx, nd, s).failures == want


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("bumped", [False, True])
def test_one_copy_oracle_is_verify_pbw(n, bumped):
    # at one copy of each species the oracle double-reduces the ring's 2n^3
    # words: the same failing words, once the copy tags are stripped
    sigma = list(sigma_from_potential(RatFun.var(n, 1) ** (n + 1) / chi(n, 1),
                                      n))
    if bumped:
        sigma[0] = sigma[0] + RatFun.var(n, 2)
    rep = ambiguity_oracle(n, 1, 1, SigmaArray.from_one_copy(sigma))
    direct = verify_pbw(RingSpec(n, sigma)).direct
    assert rep.total == direct.total == 2 * n ** 3
    assert [re.sub(r",\d+", "", w) for w in rep.failures] == direct.failures
    assert bool(direct.failures) == bumped


def test_copy_dependent_constants_fail_sigma_system():
    # sigma_{i,1,1} = i is constant in h but depends on the ring index
    n = 2
    ent = {(i, 1, 1): RatFun.const(n, i) for i in (1, 2)}
    s = SigmaArray(n, 1, 1, ent)
    rep = flatness_check(n, 1, 1, s)
    assert rep.total == 1
    assert not rep.passed
    assert rep.failures == ["sigma a=1 b=1 (i,j)=(1,2)"]


@pytest.mark.parametrize("n, witnesses", [
    (2, (None, (1, 1, 1, 1), (1, 2, 1, 2))),
    (3, (None, (1, 1, 1, 1), (1, 3, 3, 1))),
])
def test_ysy1_decides_each_factor_without_the_product(monkeypatch, n,
                                                      witnesses):
    # R^{ui}_{kj} (sigma_k - sigma_i[-e_u]) is zero iff one factor is, so
    # no RatFun product is formed; the witnesses are the product's
    def refuse(self, other):
        raise AssertionError("RatFun product formed")

    constant = tuple(RatFun.const(n, Fraction(2, 3)) for _ in range(n))
    varying = tuple(RatFun.var(n, i) for i in range(1, n + 1))
    last = (RatFun.one(n),) * (n - 1) + (RatFun.var(n, 1),)
    monkeypatch.setattr(RatFun, "__mul__", refuse)
    assert tuple(multicopy._ysy1_failure(n, fam)
                 for fam in (constant, varying, last)) == witnesses


def test_flatness_failures_name_their_indices():
    n = 2
    ent = {(i, 1, 1): RatFun.var(n, i) for i in (1, 2)}
    rep = flatness_check(n, 2, 2, SigmaArray(n, 2, 2, ent))
    assert rep.failures == ["sigma a=1 b=1 (i,j)=(1,2)",
                            "ysy1 a=1 b=1 (u,i,k,j)=(1,1,1,1)",
                            "ysy2 a=1 b=1 (u,i,k,j)=(1,1,1,1)"]


def test_one_copy_rational_sigma_flat():
    n = 2
    s = one_copy_sigma(n, RatFun.one(n) / chi(n, 1))
    assert flatness_check(n, 1, 1, s).passed
    # the same entries used across two copies stop being flat
    ent = {(i, a, b): s.get(i, 1, 1)
           for i in (1, 2) for a in (1, 2) for b in (1, 2)}
    s2 = SigmaArray(n, 2, 2, ent)
    assert not flatness_check(n, 2, 2, s2).passed


def test_constant_profile():
    s = SigmaArray.constant(2, 2, 2, {(1, 1): 1, (1, 2): 2,
                                      (2, 1): 2, (2, 2): 4})
    assert constant_profile(s) == (1, (1, 0))
    s = SigmaArray.constant(2, 2, 2, {(1, 1): 1, (1, 2): 0,
                                      (2, 1): 0, (2, 2): 1})
    assert constant_profile(s) == (2, (1, 1))
    ent = {(1, 1, 1): RatFun.var(2, 1)}
    assert constant_profile(SigmaArray(2, 1, 1, ent)) is None


def test_sigma_array_json_roundtrip():
    n = 2
    ent = {(1, 1, 2): RatFun.inverse_diff(n, 1, 2),
           (2, 2, 1): RatFun.const(n, Fraction(-3, 7))}
    s = SigmaArray(n, 2, 2, ent)
    back = SigmaArray.from_json(s.to_json())
    assert (back.n, back.nx, back.nd) == (s.n, s.nx, s.nd)
    assert back.entries == s.entries


def test_family_and_get_defaults():
    s = SigmaArray.constant(3, 1, 1, 4)
    fam = s.family(1, 1)
    assert all(f == RatFun.const(3, 4) for f in fam)
    assert s.get(1, 1, 1) == RatFun.const(3, 4)
    empty = SigmaArray(3, 1, 1)
    assert empty.get(2, 1, 1).is_zero()


def test_float_constant_is_refused():
    # 0.1 would be stored as 3602879701896397/36028797018963968
    with pytest.raises(TypeError):
        SigmaArray.constant(2, 1, 1, 0.1)
    with pytest.raises(TypeError):
        SigmaArray.constant(2, 1, 2, {(1, 1): 1, (1, 2): 0.5})
    s = SigmaArray.constant(2, 1, 1, Fraction(1, 10))
    assert s.get(1, 1, 1) == RatFun.const(2, Fraction(1, 10))


# ---------------------------------------------------------------------------
# the second YSY equation on factored sums, against canonical RatFuns


def _ysy2_dense(n, fam):
    """The first (u, i, k, j) where the second YSY equation fails, each side
    a canonical RatFun built from the R components; None if none does."""
    for u in range(1, n + 1):
        for i in range(1, n + 1):
            pairs = {(u, i), (i, u)}
            for (k, j) in pairs:
                rhs = RatFun.zero(n)
                for (a, b) in pairs:
                    r1 = rmatrix.r_component(n, a, b, k, j)
                    r2 = rmatrix.r_component(n, u, i, a, b)
                    rhs = rhs + (r1.shift(eps_vec(n, i, -1))
                                 * r2.shift(eps_vec(n, u))
                                 * fam[a - 1].shift(eps_vec(n, u)))
                lhs = fam[i - 1] if (i == j and u == k) else RatFun.zero(n)
                if lhs != rhs:
                    return (u, i, k, j)
    return None


# family of one copy pair -> whether the equation holds for it under the
# true R-matrix
YSY2_FAMILIES = {
    "zero": (lambda n: (RatFun.zero(n),) * n, True),
    "constant": (lambda n: (RatFun.const(n, Fraction(-2, 3)),) * n, True),
    "constants by index": (
        lambda n: tuple(RatFun.const(n, i) for i in range(1, n + 1)), False),
    "last entry bumped": (lambda n: (RatFun.one(n),) * (n - 1)
                          + (RatFun.one(n) + RatFun.var(n, 1),), False),
    "flat one copy": (
        lambda n: sigma_from_potential(RatFun.var(n, 2) ** 2 / chi(n, 2), n),
        False),
    "h and a pole": (lambda n: tuple(
        RatFun.var(n, i) * Fraction(1, 2) + RatFun.inverse_diff(n, 1, 2, i)
        for i in range(1, n + 1)), False),
}


def _r_doubled(right, at):
    """r_terms with the components at the index tuples `at` doubled (every
    R^{ij}_{ij}, i != j, when `at` is empty)."""
    def value(n, i, j, k, l):
        v = right(n, i, j, k, l)
        hit = (i, j, k, l) in at if at else i != j and (k, l) == (i, j)
        return {key: 2 * c for key, c in v.items()} if hit else v
    return value


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("family", list(YSY2_FAMILIES))
@pytest.mark.parametrize("doubled", [None, (), ((1, 2, 2, 1),)],
                         ids=["R", "R^ij_ij x2", "R^12_21 x2"])
def test_ysy2_on_factored_sums_fails_where_the_canonical_sums_do(
        mutant, n, family, doubled):
    build, holds = YSY2_FAMILIES[family]
    fam = build(n)
    if doubled is not None:
        mutant("r_terms", _r_doubled(rmatrix.r_terms, doubled))
    want = _ysy2_dense(n, fam)
    assert multicopy._ysy2_failure(n, fam) == want
    if doubled is None:
        assert (want is None) == holds
