"""PBW normal ordering, flatness detection, ring (anti)morphisms."""

import functools
import itertools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hdcalc import diffring, multicopy, rmatrix
from hdcalc.ratfield import DomainError, Poly, RatFun, eps_vec
from hdcalc.rmatrix import chi, complete_symmetric
from hdcalc.potential import sigma_from_potential
from hdcalc.diffring import (RingSpec, NormalElement, normal_form, multiply,
                             commutator, module_form, epsilon_antiauto,
                             verify_pbw, is_overlap_ambiguity, overlap_words,
                             word_label,
                             GeneratorAssignment,
                             check_assignment, zhelobenko_assignment, scaling_assignment,
                             localized_coordinates_commute)
from hdcalc.multicopy import (SigmaArray, ambiguity_oracle, flatness_check,
                               mixed_normal_form, vcopy_normal_form)
from hdcalc.expressions import evaluate, parse
from hdcalc.central import central_family
from hdcalc.lowestweight import LWVector, Weight, act, central_character


def Hpot(n, L):
    out = RatFun.zero(n)
    for j in range(1, n + 1):
        out = out + RatFun.from_poly(Poly.var(n, j) ** (L + n - 1)) / chi(n, j)
    return out


def flat_spec(n, L=1):
    return RingSpec(n, sigma_from_potential(Hpot(n, L)))


def rand_monomial(rng, n, deg=2):
    a = [0] * n
    b = [0] * n
    for _ in range(rng.randrange(deg + 1)):
        a[rng.randrange(n)] += 1
    for _ in range(rng.randrange(deg + 1)):
        b[rng.randrange(n)] += 1
    return NormalElement(n, {(tuple(a), tuple(b)): RatFun.one(n)})


def test_generators_and_zero():
    spec = RingSpec(2)
    assert spec.zero().is_zero()
    assert spec.x(1).terms == {((0, 0), (1, 0)): RatFun.one(2)}
    assert spec.d(2).terms == {((0, 1), (0, 0)): RatFun.one(2)}
    assert spec.gamma(1) == multiply(spec, spec.d(1), spec.x(1))


def weight3():
    return Weight((Fraction(1, 3), Fraction(2, 5), Fraction(3, 7)))


def identity_images(n):
    spec = RingSpec(n)
    r = range(1, n + 1)
    return [spec.x(i) for i in r], [spec.d(i) for i in r]


@pytest.mark.parametrize("call", [
    lambda: eps_vec(2, 0),
    lambda: eps_vec(2, 3),
    lambda: RatFun.var(2, 0),
    lambda: RatFun.var(2, 1).delta(0),
    lambda: Poly.diff(2, 1, 1),
    lambda: Poly.var(2, 1) ** -1,
    lambda: RingSpec(2).x(0),
    lambda: RingSpec(2).d(3),
    lambda: RingSpec(2, [RatFun.zero(2)]),
    lambda: zhelobenko_assignment(RingSpec(2), 0),
    lambda: zhelobenko_assignment(RingSpec(3), 3),
    lambda: Poly.var(2, 1) + Poly.var(3, 1),
    lambda: Poly.var(2, 1) * Poly.var(3, 1),
    lambda: Poly.var(2, 2).evaluate((1,)),
    lambda: RatFun.var(2, 1) + RatFun.var(3, 1),
    lambda: RatFun.var(2, 1) * RatFun.var(3, 1),
    lambda: RingSpec(2).x(1) + RingSpec(3).x(1),
    lambda: evaluate(parse("x1"), 2, RingSpec(3)),
    lambda: flatness_check(2, 1, 1, SigmaArray(3, 1, 1)),
    lambda: vcopy_normal_form(2, 1, [("x", 1, 1), ("x", 2, 2)]),
    lambda: vcopy_normal_form(2, 1, [("d", 1, 1)]),
    lambda: ambiguity_oracle(2, 2, 2, SigmaArray.constant(2, 1, 1, 1)),
    lambda: ambiguity_oracle(2, 2, 2, SigmaArray.constant(2, 2, 2, 1),
                             budget=127),
    lambda: mixed_normal_form(2, SigmaArray(2, 1, 1), [("x", 1, 2), ("d", 1, 1)]),
    lambda: mixed_normal_form(2, SigmaArray(2, 1, 1), [("x", 1, 1), ("d", 1, 2)]),
    lambda: mixed_normal_form(2, SigmaArray(2, 1, 1), [("x", 0, 1), ("d", 1, 1)]),
    lambda: Poly.var(2, 2).subst_var_linear(0, 1, 5),
    lambda: Poly.var(2, 2).subst_var_linear(1, 3, 0),
    lambda: RatFun.var(2, 2).subst_var(0, 1, 5),
    lambda: Poly.var(2, 2).degree_in(0),
    lambda: GeneratorAssignment([RingSpec(2).x(1)], identity_images(2)[1]),
    lambda: GeneratorAssignment([RingSpec(2).x(1)], [RingSpec(2).d(1)]),
    lambda: GeneratorAssignment(*identity_images(2), perm=(1, 1)),
    lambda: check_assignment(RingSpec(3), RingSpec(3),
                             GeneratorAssignment(*identity_images(2))),
    lambda: Poly(2, {(1, 1): 1}).permuted((1, 1)),
    lambda: act(flat_spec(2), flat_spec(2).x(1), LWVector.vacuum(weight3())),
    lambda: central_character(central_family(Hpot(2, 1)), weight3()),
], ids=["eps_vec-0", "eps_vec-3", "var-0", "delta-0", "diff-i-i",
        "poly-pow-neg", "x0", "d3", "short-sigma", "zhelobenko-0",
        "zhelobenko-n", "poly-add-n", "poly-mul-n", "poly-evaluate-n",
        "ratfun-add-n", "ratfun-mul-n", "element-add-n", "evaluate-spec-n",
        "flatness-shape", "vcopy-copy", "vcopy-d", "oracle-shape",
        "oracle-budget", "mixed-x-copy", "mixed-d-copy", "mixed-index-0",
        "subst-0", "subst-above-n", "ratfun-subst-0", "degree-in-0",
        "assign-short-x", "assign-image-n", "assign-perm", "assign-src-n",
        "permuted-not-perm", "act-weight-n", "character-weight-n"])
def test_library_input_guards_raise_domain_error(call):
    """Out-of-range library input is refused also under python -O, where an
    assert is skipped: index 0 once wrapped round to n, h_i - h_i was -h_i,
    a negative power of a Poly never ended, a sum of two rings' polynomials
    held exponent tuples of both lengths, evaluation at a short point
    dropped the missing variables, the multi-copy oracle and normal form
    read a sigma entry outside the array's copies as zero, a generator
    assignment one image short failed with IndexError, relabelling by a
    map that is not a permutation merged two variables, and a module vector
    or central character at a weight of another n was computed with
    exponent tuples of the wrong length."""
    with pytest.raises(DomainError):
        call()


def test_xx_reordering():
    n = 2
    spec = RingSpec(n)
    h12 = RatFun.from_poly(Poly.diff(n, 1, 2))
    prod = multiply(spec, spec.x(1), spec.x(2))
    want = multiply(spec, spec.x(2), spec.x(1)).scale((h12 + 1) / h12)
    assert prod == want
    # and the d's with the opposite shift of the coefficient
    prod = multiply(spec, spec.d(1), spec.d(2))
    want = multiply(spec, spec.d(2), spec.d(1)).scale((h12 - 1) / h12)
    assert prod == want
    # x^2 d_1 = h21 (h21 - 2)/(h21 - 1)^2 d_1 x^2, written out by hand
    h21 = RatFun.from_poly(Poly.diff(n, 2, 1))
    prod = multiply(spec, spec.x(2), spec.d(1))
    want = multiply(spec, spec.d(1), spec.x(2)).scale(
        h21 * (h21 - 2) / ((h21 - 1) * (h21 - 1)))
    assert prod == want
    # x^1 d_2 = d_2 x^1 with no coefficient
    for n in (2, 3):
        spec = RingSpec(n)
        assert multiply(spec, spec.x(1), spec.d(2)) == \
            multiply(spec, spec.d(2), spec.x(1))


def test_xd_diagonal_relation():
    # x^i d_i = sum_k Psi-weights d_k x^k - sigma_i, frozen at n=2, sigma=(1,1)
    n = 2
    spec = RingSpec(n, (RatFun.one(n), RatFun.one(n)))
    got = multiply(spec, spec.x(1), spec.d(1))
    w2 = RatFun.inverse_diff(n, 2, 1, 1)  # 1/(h2-h1+1)
    want = spec.gamma(1) + spec.gamma(2).scale(w2) - spec.one()
    assert got == want


def test_weight_variables_migrate_with_shifts():
    n = 2
    spec = RingSpec(n)
    h1 = RatFun.var(n, 1)
    # x^1 f = f[-e_1] x^1 and d_1 f = f[+e_1] d_1
    lhs = multiply(spec, spec.x(1), spec.coeff(h1))
    assert lhs == normal_form(spec, [('x', 1), h1])
    assert lhs.terms[((0, 0), (1, 0))] == h1 - 1
    lhs = multiply(spec, spec.d(1), spec.coeff(h1))
    assert lhs.terms[((1, 0), (0, 0))] == h1 + 1


def test_multiply_associative_flat():
    # degree is kept small on purpose; rational coefficients grow fast
    rng = random.Random(3)
    spec = flat_spec(2)
    for _ in range(4):
        a, b, c = (rand_monomial(rng, 2) for _ in range(3))
        left = multiply(spec, multiply(spec, a, b), c)
        right = multiply(spec, a, multiply(spec, b, c))
        assert left == right
    spec = flat_spec(3)
    gens = [spec.x(2), spec.d(1), spec.d(3), spec.x(1)]
    for a, b, c in [(0, 1, 2), (3, 2, 0), (1, 0, 3)]:
        left = multiply(spec, multiply(spec, gens[a], gens[b]), gens[c])
        right = multiply(spec, gens[a], multiply(spec, gens[b], gens[c]))
        assert left == right


def test_strategy_independence_needs_flatness():
    n = 2
    word = [('x', 1), ('d', 1), ('d', 2)]
    flat = flat_spec(n)
    assert normal_form(flat, word, "left") == normal_form(flat, word, "right")
    # sigma = (h1, h2) fails the difference system; the two orders disagree
    bad = RingSpec(n, (RatFun.var(n, 1), RatFun.var(n, 2)))
    assert normal_form(bad, word, "left") != normal_form(bad, word, "right")


def test_strategy_independence_on_random_words():
    # words of length 4-5, beyond the three-letter overlap words: the
    # leftmost-first and rightmost-first reductions agree exactly when the
    # rules are confluent, in the ring, module and multi-copy orders
    rng = random.Random(11)
    n = 2
    f = (Hpot(n, 1) * rng.randint(1, 5) + Hpot(n, 2) * rng.randint(1, 5)
         + (RatFun.var(n, 2) + rng.randint(1, 5)) / chi(n, 2))
    flat = RingSpec(n, sigma_from_potential(f))
    bumped = RingSpec(n, (flat.sigma[0] + RatFun.var(n, 2), flat.sigma[1]))
    words = [[(rng.choice("xd"), rng.randint(1, n))
              for _ in range(rng.randint(4, 5))] for _ in range(6)]
    differs = False
    for w in words:
        for form in (normal_form,
                     lambda s, w, strategy: module_form(s, [w], strategy)):
            assert form(flat, w, "left") == form(flat, w, "right")
            differs |= form(bumped, w, "left") != form(bumped, w, "right")
    assert differs

    const = SigmaArray.constant(n, 2, 2, {(1, 1): 1, (1, 2): 2,
                                          (2, 1): 0, (2, 2): 3})
    varying = SigmaArray(n, 2, 2, {(i, 1, 1): RatFun.var(n, i) for i in (1, 2)})
    differs = False
    for _ in range(6):
        w = [(rng.choice("xd"), rng.randint(1, n), rng.randint(1, 2))
             for _ in range(rng.randint(4, 5))]
        assert (mixed_normal_form(n, const, w, "left")
                == mixed_normal_form(n, const, w, "right"))
        differs |= (mixed_normal_form(n, varying, w, "left")
                    != mixed_normal_form(n, varying, w, "right"))
    assert differs


@st.composite
def _flat_spec_and_word(draw):
    """sigma = Delta f for a random f in W at n = 2, 3, and a word of
    length 3-5."""
    n = draw(st.integers(2, 3))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=2)
    f = Hpot(n, 1) * draw(coeff) + Hpot(n, 2) * draw(coeff)
    k = draw(st.integers(2, n))
    pi = RatFun.var(n, k) * draw(coeff) + draw(coeff)
    f = f + pi / chi(n, k)
    word = draw(st.lists(st.tuples(st.sampled_from("xd"), st.integers(1, n)),
                         min_size=3, max_size=5))
    return RingSpec(n, sigma_from_potential(f)), word


@settings(max_examples=30)
@given(_flat_spec_and_word())
def test_strategy_independence_on_random_flat_sigmas(case):
    spec, word = case
    assert normal_form(spec, word, "left") == normal_form(spec, word, "right")


@st.composite
def _spec_and_elements(draw):
    """Two random elements of 1-2 terms at n = 2, 3 over a flat sigma or
    the same sigma bumped off flatness, and a strategy."""
    n = draw(st.integers(2, 3))
    spec = flat_spec(n, draw(st.integers(1, 2)))
    if draw(st.booleans()):
        spec = RingSpec(n, (spec.sigma[0] + RatFun.var(n, 2),) + spec.sigma[1:])
    exps = st.lists(st.integers(0, 1), min_size=n, max_size=n).map(tuple)
    coeff = st.builds(lambda c, i, k: RatFun.var(n, i) * c + k,
                      st.integers(-2, 2), st.integers(1, n), st.integers(1, 3))

    def element():
        return NormalElement(n, draw(st.dictionaries(
            st.tuples(exps, exps), coeff, min_size=1, max_size=2)))

    return spec, element(), element(), draw(st.sampled_from(["left", "right"]))


@settings(max_examples=25)
@given(_spec_and_elements())
def test_multiply_is_sum_of_term_products(case):
    # the definition multiply had before it reduced a whole sum per call:
    # each pair of terms as one word, normal ordered, scaled by the left
    # coefficient and summed
    spec, a, b, strategy = case
    want = spec.zero()
    for (am, bm), fa in a.terms.items():
        for (an, bn), fb in b.terms.items():
            word = (NormalElement._mono_tokens(am, bm) + [fb]
                    + NormalElement._mono_tokens(an, bn))
            want = want + normal_form(spec, word, strategy).scale(fa)
    assert multiply(spec, a, b, strategy) == want


def test_verify_pbw_flags():
    flat = flat_spec(2, 2)
    rep = verify_pbw(flat)
    assert rep.flat and rep.agree
    bad = RingSpec(2, (RatFun.var(2, 1), RatFun.var(2, 2)))
    rep = verify_pbw(bad)
    assert not rep.flat and rep.agree


def pbw_words(n):
    """(label, word) of each word of verify_pbw's double reduction, in its
    report order; a word such as x_1 d_1 d_2 is labelled x1*d1*d2."""
    r = range(1, n + 1)
    words = [w for i in r for j in r for k in r
             for w in ([('x', i), ('d', j), ('d', k)],
                       [('x', j), ('x', k), ('d', i)])]
    return [("*".join(f"{s}{i}" for s, i in w), w) for w in words]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_skipped_pbw_words_take_the_same_steps_both_ways(rewrite_steps, n):
    # the words verify_pbw records as passes without reducing them: both
    # strategies rewrite the same pairs in the same order, flat or not
    bumped = list(flat_spec(n).sigma)
    bumped[0] = bumped[0] + RatFun.var(n, 2)
    for spec in (flat_spec(n), RingSpec(n, bumped), RingSpec(n)):
        for _, w in pbw_words(n):
            left, right = rewrite_steps(
                lambda strategy: normal_form(spec, w, strategy))
            assert left, w
            # on an overlap ambiguity the first step already differs
            assert (left == right) != is_overlap_ambiguity(w), w


def test_verify_pbw_reduces_only_overlap_ambiguities(monkeypatch):
    # the words the engine reduces, each with its strategy, and its calls
    reduced = []
    calls = []
    rewrite = diffring._rewrite

    def counted(n, walks, order, resolve):
        calls.append(len(walks))
        reduced.extend((tuple(t for t in w if type(t) is tuple), strategy)
                       for strategy, w in walks)
        return rewrite(n, walks, order, resolve)

    monkeypatch.setattr(diffring, "_rewrite", counted)
    # n^2 (n - 1) of the 2 n^3 words, each reduced both ways in one call
    for n, computed in ((2, 4), (3, 18), (4, 48)):
        reduced.clear()
        calls.clear()
        rep = verify_pbw(flat_spec(n))
        assert rep.flat and rep.residual is None
        assert len(reduced) == 2 * computed
        assert calls == [2] * computed
        assert len(set(reduced)) == 2 * computed
        assert {w for w, _ in reduced} == {
            tuple(w) for _, w in pbw_words(n) if is_overlap_ambiguity(w)}
        assert rep.direct.total == 2 * n ** 3 == len(pbw_words(n))
        assert rep.system.total == 1


def test_a_check_resolves_each_pair_once(monkeypatch):
    # one rule table serves every word of a check, so each out-of-order
    # pair reaches the rule once; the next check makes its own table
    calls = []
    resolve = diffring._resolve

    def counted(n, sigma, t1, t2):
        calls.append((t1, t2))
        return resolve(n, sigma, t1, t2)

    for module in (diffring, multicopy):
        monkeypatch.setattr(module, "_resolve", counted)
    spec = flat_spec(3)
    seen = []
    for _ in range(2):
        calls.clear()
        assert verify_pbw(spec).flat
        assert calls and len(calls) == len(set(calls))
        seen.append(set(calls))
    assert seen[0] == seen[1]
    calls.clear()
    assert ambiguity_oracle(2, 2, 2, SigmaArray.constant(2, 2, 2, 1)).passed
    assert calls and len(calls) == len(set(calls))
    # the oracle's words hold pairs of two copies as well as of one
    assert any(t1[2:] != t2[2:] for t1, t2 in calls)


def test_verify_pbw_keeps_the_first_residual():
    spec = RingSpec(2, (RatFun.one(2), RatFun.var(2, 1)))
    rep = verify_pbw(spec)
    first = next(w for label, w in pbw_words(2)
                 if label == rep.direct.failures[0])
    want = normal_form(spec, first, "left") - normal_form(spec, first, "right")
    assert not want.is_zero() and rep.residual == want


@pytest.mark.parametrize("n", [2, 3])
def test_verify_pbw_failures_are_the_words_that_differ(n):
    # every word reduced both ways, skipped ones too: the report keeps
    # exactly the words whose two normal forms differ, in report order
    bumped = list(flat_spec(n).sigma)
    bumped[0] = bumped[0] + RatFun.var(n, 2)
    spec = RingSpec(n, bumped)
    rep = verify_pbw(spec)
    want = [label for label, w in pbw_words(n)
            if normal_form(spec, w, "left") != normal_form(spec, w, "right")]
    assert want and rep.direct.failures == want
    assert rep.direct.total == 2 * n ** 3
    assert rep.system.failures == ["sigma (i,j)=(1,2)"]


_FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_NONZERO = _FRACTIONS.filter(bool)


@st.composite
def _bumps(draw, n):
    """A nonzero term to add to one sigma_i: a multiple of h_j, a constant
    or a pole 1/(h_1 - h_2 + a)."""
    c = draw(_NONZERO)
    kind = draw(st.sampled_from(["h", "const", "pole"]))
    if kind == "h":
        return RatFun.var(n, draw(st.integers(1, n))) * c
    if kind == "const":
        return RatFun.const(n, c)
    return RatFun.inverse_diff(n, 1, 2, draw(st.integers(-2, 2))) * c


@st.composite
def _seeded_specs(draw):
    """sigma = Delta f at n = 2, 3 for f with Fraction coefficients, a
    symmetric and a pole part, and with one sigma_i bumped in most
    examples."""
    n = draw(st.integers(2, 3))
    f = Hpot(n, 1) * draw(_FRACTIONS) + Hpot(n, 2) * draw(_FRACTIONS)
    k = draw(st.integers(2, n))
    pi = (RatFun.var(n, k) ** draw(st.integers(0, 2)) * draw(_FRACTIONS)
          + draw(_FRACTIONS))
    sigma = list(sigma_from_potential(f + pi / chi(n, k)))
    if draw(st.integers(0, 3)):
        i = draw(st.integers(1, n))
        sigma[i - 1] = sigma[i - 1] + draw(_bumps(n))
    return RingSpec(n, sigma)


@settings(max_examples=24)
@given(_seeded_specs())
def test_verify_pbw_decides_each_word_as_its_normal_forms_do(spec):
    # the report's failures and residual against every word's two
    # canonical normal forms, compared one by one
    rep = verify_pbw(spec)
    forms = [(label, normal_form(spec, w, "left"),
              normal_form(spec, w, "right")) for label, w in pbw_words(spec.n)]
    differ = [(label, left - right) for label, left, right in forms
              if left != right]
    assert rep.direct.failures == [label for label, _ in differ]
    assert rep.residual == (differ[0][1] if differ else None)


@st.composite
def _seeded_arrays(draw):
    """A multi-copy sigma array at n = 2 with two copies of one species or
    both: every entry one constant, or entries drawn one by one (constant,
    a multiple of h_j, a pole, or missing)."""
    n = 2
    nx, nd = draw(st.sampled_from([(2, 1), (1, 2), (2, 2)]))
    if draw(st.booleans()):
        return SigmaArray.constant(n, nx, nd, draw(_FRACTIONS))
    entries = {}
    for key in itertools.product(range(1, n + 1), range(1, nx + 1),
                                 range(1, nd + 1)):
        if draw(st.booleans()):
            entries[key] = draw(_bumps(n))
    return SigmaArray(n, nx, nd, entries)


@settings(max_examples=16)
@given(_seeded_arrays())
def test_oracle_decides_each_word_as_its_mixed_forms_do(sig):
    n = sig.n
    words = overlap_words(n, [(a,) for a in range(1, sig.nx + 1)],
                          [(b,) for b in range(1, sig.nd + 1)])
    want = [word_label(w) for w in words if is_overlap_ambiguity(w)
            and mixed_normal_form(n, sig, list(w), "left")
            != mixed_normal_form(n, sig, list(w), "right")]
    assert ambiguity_oracle(n, sig.nx, sig.nd, sig).failures == want


@functools.cache
def _flat_and_bumped(n):
    bumped = list(flat_spec(n).sigma)
    bumped[0] = bumped[0] + RatFun.var(n, 2)
    return flat_spec(n), RingSpec(n, bumped)


@st.composite
def _token_words(draw, n):
    """A word of one to three generators with up to two opaque
    coefficients (see _bumps) at random places."""
    word = [draw(st.tuples(st.sampled_from("xd"), st.integers(1, n)))
            for _ in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(0, 2))):
        word.insert(draw(st.integers(0, len(word))), draw(_bumps(n)))
    return word


@st.composite
def _engine_results(draw):
    """(n, an engine result, whether it is zero by construction) at n = 2, 3:
    a sum of 2-4 random words, each with its strategy; a word minus the
    words of its own normal form; or, on a flat sigma, a word "left" minus
    the same word "right"."""
    n = draw(st.integers(2, 3))
    flat, bumped = _flat_and_bumped(n)
    kind = draw(st.sampled_from(["words", "normal form", "both ways"]))
    spec = flat if kind == "both ways" else draw(st.sampled_from([flat, bumped]))
    w = draw(_token_words(n))
    if kind == "words":
        walks = [(draw(st.sampled_from(["left", "right"])), draw(_token_words(n)))
                 for _ in range(draw(st.integers(2, 4)))]
    elif kind == "normal form":
        walks = [("left", w)] + [
            ("left", [-f, *NormalElement._mono_tokens(a, b)])
            for (a, b), f in normal_form(spec, w).terms.items()]
    else:
        walks = [("left", w), ("right", [RatFun.const(n, -1), *w])]
    result = diffring._rewrite(n, walks, diffring._order,
                               diffring._ring_resolve(spec))
    return n, result, kind != "words"


@settings(max_examples=60)
@given(_engine_results())
def test_is_zero_is_an_empty_canonical_value(case):
    n, result, zero = case
    got = diffring._is_zero(result, rmatrix.ZeroTest(n))
    assert got == (not diffring._values(n, result))
    assert got or not zero


@pytest.mark.parametrize("n", [2, 3])
def test_double_reduction_decides_each_overlap_word_exactly(n):
    # every overlap word of a flat, a bumped and a Fraction sigma: a sum is
    # called zero exactly when it has no canonical value, and the bumped
    # sigma leaves some nonzero
    flat, bumped = _flat_and_bumped(n)
    fractions = RingSpec(n, [s * Fraction(2, 7) + Fraction(1, 3)
                             for s in bumped.sigma])
    for spec in (flat, bumped, fractions):
        nonzero = 0
        for _, w in pbw_words(n):
            if is_overlap_ambiguity(w):
                result = diffring._rewrite(
                    n, [("left", w), ("right", [diffring._MINUS_ONE, *w])],
                    diffring._order, diffring._ring_resolve(spec))
                zero = diffring._is_zero(result, rmatrix.ZeroTest(n))
                assert zero == (not diffring._values(n, result))
                nonzero += not zero
        assert (nonzero == 0) == (spec is flat)


@settings(max_examples=20)
@given(st.lists(_engine_results(), min_size=2, max_size=4))
def test_one_state_shared_by_many_results_decides_as_fresh_ones(cases):
    # every result twice, so that the second visit reads the memo
    tests = {}
    for n, result, _ in cases + cases:
        shared = tests.setdefault(n, rmatrix.ZeroTest(n))
        assert (diffring._is_zero(result, shared)
                == diffring._is_zero(result, rmatrix.ZeroTest(n)))


def _tokens(n):
    """Three distinct opaque tokens of n variables."""
    return (RatFun.var(n, 1) + 1, RatFun.inverse_diff(n, 1, 2, 1) * 3,
            RatFun.var(n, 2) * Fraction(2, 5))


def _named_sum(test, n, svecs, tokens):
    """A sum of three terms, as the engine writes one, of tokens that test
    holds: tokens [0], [0] and [1] at the shifts svecs, with three factored
    keys."""
    names = [test.hold(t) for t in tokens]
    keys = [next(iter(rmatrix.factored(f))) for f in (
        [(1, 2, 0, -1), (1, 2, 1, 2)], [(1, 2, -1, 1)], [(1, n, 2, -2)])]
    return {(keys[0], ((names[0], svecs[0]),)): 2,
            (keys[1], ((names[0], svecs[1]),)): -3,
            (keys[2], ((names[1], svecs[2]),)): Fraction(1, 2)}


@pytest.mark.parametrize("n", [2, 3])
def test_a_sum_its_translates_and_multiples_share_one_normal_form(n):
    test = rmatrix.ZeroTest(n)
    tokens = _tokens(n)
    e1, e2 = eps_vec(n, 1), eps_vec(n, 2)
    svecs = [e1, (0,) * n, tuple(map(operator.add, e1, e2))]
    terms = _named_sum(test, n, svecs, tokens)
    form = rmatrix._translated(n, terms)
    # a product of linear factors, of constant 1
    [fkey] = rmatrix.factored([(1, 2, 3, 1), (1, n, 0, -2)])
    for t in (eps_vec(n, 2, -3), tuple(range(1, n + 1)), (5,) * n):
        moved = {(rmatrix.shifted_key(key, t),
                  tuple((name, tuple(map(operator.add, s, t)))
                        for name, s in refs)): c
                 for (key, refs), c in terms.items()}
        assert rmatrix._translated(n, moved) == form
        times = {(rmatrix.key_product((key, fkey)), refs): c
                 for (key, refs), c in moved.items()}
        assert rmatrix._translated(n, times) == form
        # a constant multiple has a form of its own
        scaled = {term: c * 7 for term, c in times.items()}
        assert rmatrix._translated(n, scaled) != form
    # another token, or another shift of one token relative to the others
    other = _named_sum(test, n, svecs, (tokens[0], tokens[2]))
    assert rmatrix._translated(n, other) != form
    svecs[1] = e2
    assert rmatrix._translated(n, _named_sum(test, n, svecs, tokens)) != form


def _counted(monkeypatch, name):
    """calls[0] counts the calls of rmatrix's name from now on."""
    calls = [0]
    fn = getattr(rmatrix, name)

    def counted(*args):
        calls[0] += 1
        return fn(*args)

    monkeypatch.setattr(rmatrix, name, counted)
    return calls


def test_double_reduction_multiplies_out_each_distinct_sum_once(monkeypatch):
    # sigma = 1 leaves no opaque token: 36 sums of two or more terms, 20
    # distinct with their variables renamed, are multiplied out.  Delta H_2
    # leaves 12 sums with sigma tokens, 6 distinct up to translation and a
    # multiple by a product of linear factors, and 24 pure sums, 16
    # distinct when renamed
    calls = _counted(monkeypatch, "vanishes")
    for L, want in ((1, 20), (2, 22)):
        calls[0] = 0
        assert verify_pbw(flat_spec(3, L)).flat
        assert calls[0] == want, L


def test_a_zero_test_shifts_each_token_once(monkeypatch):
    # verify_pbw at n = 3 on a flat and a bumped pole sigma: within one
    # ZeroTest each (token, shift) is shifted at most once, some are read
    # again from the memo, and every exact verdict is the one an empty memo
    # gives
    n = 3
    f = Hpot(n, 2) + (RatFun.var(n, 2) * Fraction(1, 3) + 1) / chi(n, 2)
    flat = RingSpec(n, sigma_from_potential(f))
    bumped = RingSpec(n, [flat.sigma[0] + RatFun.inverse_diff(n, 2, 3, 1),
                          *flat.sigma[1:]])
    exact, shift = rmatrix.ZeroTest._exact, RatFun.shift
    # every ZeroTest stays alive, so that no two of them share an id()
    current, alive, shifts, reads = [], [], [], [0]

    def recorded_exact(test, m, terms):
        reads[0] += sum(len(refs) for (_, refs), _ in terms)
        alive.append(test)
        current.append(test)
        got = exact(test, m, terms)
        current.pop()
        memo, test.shifted = test.shifted, {}
        assert exact(test, m, terms) == got
        test.shifted = memo
        return got

    def recorded_shift(token, svec):
        if current:
            shifts.append((id(current[-1]), id(token), tuple(svec)))
        return shift(token, svec)

    monkeypatch.setattr(rmatrix.ZeroTest, "_exact", recorded_exact)
    monkeypatch.setattr(RatFun, "shift", recorded_shift)
    assert verify_pbw(flat).flat
    assert not verify_pbw(bumped).flat
    assert shifts and len(set(shifts)) == len(shifts)
    assert reads[0] > len(shifts)


@pytest.mark.parametrize("n", [2, 3])
def test_a_word_is_decided_by_one_exact_value_per_new_sum(monkeypatch, n):
    # every overlap word of a flat and a bumped sigma, each with a fresh
    # zero test: the sums are read in order up to the first nonzero one,
    # and each new normal form among them is multiplied out once; a sum of
    # one term multiplies nothing out
    calls = _counted(monkeypatch, "vanishes")
    stopped = 0
    for spec in _flat_and_bumped(n):
        for label, w in pbw_words(n):
            if not is_overlap_ambiguity(w):
                continue
            result = diffring._rewrite(
                n, [("left", w), ("right", [diffring._MINUS_ONE, *w])],
                diffring._order, diffring._ring_resolve(spec))
            nonzero = diffring._values(n, result)
            forms = set()
            for gens, terms in result[0].items():
                if len(terms) > 1:
                    forms.add(rmatrix._translated(n, terms)
                              if any(refs for _, refs in terms)
                              else rmatrix._renamed(terms))
                if gens in nonzero:
                    stopped += 1
                    break
            calls[0] = 0
            zero = diffring._is_zero(result, rmatrix.ZeroTest(n))
            assert zero == (not nonzero), label
            assert calls[0] == len(forms), label
    assert stopped


def test_commutator_of_center_candidate():
    # gamma_1 + gamma_2 - e_1(h) commutes with everything when sigma = (1, 1)
    n = 2
    spec = RingSpec(n, (RatFun.one(n), RatFun.one(n)))
    c1 = spec.gamma(1) + spec.gamma(2) - spec.coeff(
        RatFun.from_poly(complete_symmetric(n, 1)))
    for g in (spec.x(1), spec.x(2), spec.d(1), spec.d(2), spec.h(1)):
        assert commutator(spec, c1, g).is_zero()


def test_module_form_roundtrip():
    # a normal monomial put in the module order (x left of d) and normal
    # ordered again is itself
    rng = random.Random(4)
    n = 2
    spec = flat_spec(n)
    for _ in range(6):
        el = rand_monomial(rng, n)
        [((a, b), f)] = el.terms.items()
        back = spec.zero()
        for (ma, mb), c in module_form(
                spec, [[f] + NormalElement._mono_tokens(a, b)]).items():
            x_then_d = NormalElement._mono_tokens((0,) * n, mb) + \
                NormalElement._mono_tokens(ma, (0,) * n)
            back = back + normal_form(spec, [c] + x_then_d)
        assert back == el


def test_module_form_of_dx():
    # d_1 x^1 in x-left order picks up the sigma constants
    n = 2
    spec = RingSpec(n, (RatFun.one(n), RatFun.one(n)))
    out = module_form(spec, [[('d', 1), ('x', 1)]])
    z = (0, 0)
    const = out.get((z, z))
    assert const is not None and not const.is_zero()


def test_epsilon_antiautomorphism():
    rng = random.Random(5)
    n = 2
    spec = flat_spec(n)
    for _ in range(5):
        a, b = rand_monomial(rng, n), rand_monomial(rng, n)
        lhs = epsilon_antiauto(spec, multiply(spec, a, b))
        rhs = multiply(spec, epsilon_antiauto(spec, b), epsilon_antiauto(spec, a))
        assert lhs == rhs
        assert epsilon_antiauto(spec, epsilon_antiauto(spec, a)) == a


def test_zhelobenko_polynomial_vs_rational():
    n = 2
    poly_spec = flat_spec(n, 2)
    rep = check_assignment(poly_spec, poly_spec,
                           zhelobenko_assignment(poly_spec, 1))
    assert rep.passed
    rat = RingSpec(n, sigma_from_potential(RatFun.one(n) / chi(n, 1)))
    rep = check_assignment(rat, rat, zhelobenko_assignment(rat, 1))
    assert not rep.passed


def test_check_assignment_relation_set():
    for n in (2, 3):
        spec = flat_spec(n)
        assert not any(s.is_zero() for s in spec.sigma)
        idx = range(1, n + 1)
        weights = [f"{s}{i}" for i in idx for s in "xd"]
        relations = ([f"{s}{i}*{s}{j}" for i in idx for j in idx if i < j
                      for s in "xd"]
                     + [f"x{i}*d{j}" for i in idx for j in idx if i != j]
                     + [f"x{i}*d{i}" for i in idx])
        assert len(relations) == n * (n - 1) + n * n
        rep = check_assignment(spec, spec, scaling_assignment(spec, 1))
        assert rep.total == 2 * n + n * (n - 1) + n * n
        assert rep.passed
        # swapping x^i and d_i fails every check, so its failures are all
        # the labels, in check order
        X = [spec.x(i) for i in idx]
        D = [spec.d(i) for i in idx]
        rep = check_assignment(spec, spec, GeneratorAssignment(D, X))
        assert rep.failures == weights + relations
        # into the unscaled ring only the relations with a zero-order term
        # fail: 3 x^i d_i - 3 sum_k c_k d_k x^k maps to -2 sigma_i, not -sigma_i
        rep = check_assignment(spec, spec, scaling_assignment(spec, 3))
        assert rep.total == 2 * n + n * (n - 1) + n * n
        assert rep.failures == [f"x{i}*d{i}" for i in idx]


def test_check_assignment_labels_weight_failure_by_generator():
    # x^1 -> x^2 has weight e_2, not e_1: of the weight checks only x1 fails
    for n in (2, 3):
        spec = flat_spec(n)
        X = [spec.x(2)] + [spec.x(i) for i in range(2, n + 1)]
        D = [spec.d(i) for i in range(1, n + 1)]
        failed = check_assignment(spec, spec, GeneratorAssignment(X, D)).failures
        assert [lbl for lbl in failed if "*" not in lbl] == ["x1"]
        assert "x1*d1" in failed


def test_check_assignment_fails_where_the_multiply_route_does():
    # images with Fraction and pole coefficients: the image of each
    # relation, built by multiply, is nonzero exactly where the report
    # fails it
    for n in (2, 3):
        spec = flat_spec(n)
        idx = range(1, n + 1)
        X = [spec.x(i).scale(Fraction(3, 2)) for i in idx]
        D = [spec.d(i).scale(Fraction(2, 3)) for i in idx]
        D[0] = spec.d(1).scale(RatFun.inverse_diff(n, 1, 2, 3) * Fraction(2, 3))
        assign = GeneratorAssignment(X, D)
        image = {**{('x', i): X[i - 1] for i in idx},
                 **{('d', i): D[i - 1] for i in idx}}
        pairs = ([((s, i), (s, j)) for i in idx for j in idx if i < j
                  for s in "xd"]
                 + [(('x', i), ('d', j)) for i in idx for j in idx if i != j]
                 + [(('x', i), ('d', i)) for i in idx])
        resolve = diffring._ring_resolve(spec)
        want = []
        for t1, t2 in pairs:
            rel = multiply(spec, image[t1], image[t2])
            for repl in resolve(t1, t2):
                # a rule's coefficient tokens lead its word
                c, elem = RatFun.one(n), spec.one()
                for t in repl:
                    if type(t) is tuple:
                        elem = multiply(spec, elem, image[t])
                    else:
                        c = c * assign.map_coeff(diffring._token_value(n, t))
                rel = rel - elem.scale(c)
            if not rel.is_zero():
                want.append(word_label((t1, t2)))
        rep = check_assignment(spec, spec, assign)
        assert want and len(want) < len(pairs)
        assert rep.failures == want


def test_scaling_assignment_into_scaled_ring():
    n = 2
    src = flat_spec(n, 1)
    gamma = Fraction(3)
    dst = RingSpec(n, tuple(s / gamma for s in src.sigma))
    rep = check_assignment(src, dst, scaling_assignment(dst, gamma))
    assert rep.passed and rep.total == 2 * n + n * (n - 1) + n * n


def test_localized_coordinates_commute():
    for n in (2, 3):
        spec = flat_spec(n)
        rep = localized_coordinates_commute(spec)
        assert rep.passed and rep.total == n * (n - 1) // 2, rep.failures


def test_localized_coordinates_failure_is_labelled_by_its_pair(monkeypatch):
    # without psi'_i the coordinates x^i no longer commute
    monkeypatch.setattr(diffring, "psi_prime", lambda n, i: RatFun.one(n))
    rep = localized_coordinates_commute(flat_spec(3))
    assert rep.failures == ["(i,j)=(1,2)", "(i,j)=(1,3)", "(i,j)=(2,3)"]
