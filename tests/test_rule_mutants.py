"""Rule mutants: each rule family of the rewriting table, broken on purpose,
must be reported by the verifiers named for it.

A mutant patches one coefficient of `diffring._resolve`, the rule table that
the ring and its multi-copy form share (`multicopy` imports it by value, so
both names are patched).  The ring is flat, with sigma from the potential
H_2 - 2 H_1, and so is the two-copy ring with a constant sigma array.  The
verifiers are the double reduction of `verify_pbw`, the same check run by
the multi-copy oracle at one copy of each species and at two, and
`verify_central`, which ties the ring to its potential.  The copy-tagged
mutants break a rule between two copies, which only the two-copy oracle
reads.

Under every mutant, each double reduction must also report exactly the
words whose two canonical forms differ, and `verify_pbw` the first such
word's residual: the verdict memo of the shared zero test may not change
a verdict.

A module mutant patches one coefficient of `diffring._resolve_module`, the
rules of the module order (x left of d) by which ring elements act on a
lowest weight vector.  Its checks are the two routes of
`central_character` (the central elements acted on the vacuum, against the
rho prediction) and the representation identity
act(u, act(v, w)) == act(multiply(u, v), w) for generators u, v and the
vectors w = x^b v with |b| <= 2.  `verify_pbw` and `verify_central` read
the ring's rules alone, so they pass under every module mutant.
"""

import functools
from itertools import product

import pytest

from hdcalc import diffring, multicopy
from hdcalc.central import central_family, verify_central
from hdcalc.cli import main
from hdcalc.diffring import (RingSpec, is_overlap_ambiguity, multiply,
                             normal_form, overlap_words, verify_pbw,
                             word_label)
from hdcalc.lowestweight import (LWVector, act, central_character,
                                 generic_lambda)
from hdcalc.multicopy import (SigmaArray, ambiguity_oracle, flatness_check,
                              mixed_normal_form)
from hdcalc.potential import MismatchError, sigma_from_potential
from hdcalc.ratfield import RatFun
from hdcalc.rmatrix import complete_symmetric


def patched_coefficient(family, patch):
    """The mutant that replaces the coefficient c of the first replacement
    of each rule of a family, the pairs t1 t2 for which family(t1, t2)
    holds, by patch(c), as a RatFun token; c is the value of the rule's
    coefficient token, factored or not, and 1 for a rule without one."""
    def mutant(resolve):
        def mutated(n, sigma, t1, t2):
            out = resolve(n, sigma, t1, t2)
            if not family(t1, t2):
                return out
            first, *rest = out
            if isinstance(first[0], tuple):
                return [[patch(RatFun.one(n)), *first], *rest]
            c = diffring._token_value(n, first[0])
            return [[patch(c), *first[1:]], *rest]
        return mutated
    return mutant


def doubled_sigma(resolve):
    """The mutant whose x_i d_i rule subtracts 2 sigma_i, not sigma_i."""
    return lambda n, sigma, t1, t2: resolve(
        n, lambda *key: sigma(*key) * 2, t1, t2)


def xd(t1, t2):
    return t1[0] == 'x' and t2[0] == 'd'


def cross_copy(t1, t2):
    return t1[2:] != t2[2:]


CAUGHT = (False, False, False, False)
ONLY_TWO_COPIES = (True, True, False, True)

# mutant -> (the patch of the rule table, and the verdicts "passes" of the
# double reduction, the one-copy oracle, the two-copy oracle and
# verify_central)
MUTANTS = {
    None: (None, (True, True, True, True)),
    "xx swap x2": (patched_coefficient(
        lambda t1, t2: t1[0] == t2[0] == 'x', lambda c: c * 2), CAUGHT),
    "dd swap x2": (patched_coefficient(
        lambda t1, t2: t1[0] == t2[0] == 'd', lambda c: c * 2), CAUGHT),
    "x_i d_j (i > j) +1": (patched_coefficient(
        lambda t1, t2: xd(t1, t2) and t1[1] > t2[1], lambda c: c + 1), CAUGHT),
    "x_i d_j (i < j) x2": (patched_coefficient(
        lambda t1, t2: xd(t1, t2) and t1[1] < t2[1], lambda c: c * 2), CAUGHT),
    # 2 sigma is flat when sigma is, so both routes of the PBW check still
    # agree: a blind spot that only a check tying the ring to f closes
    "sigma term of x_i d_i x2": (doubled_sigma, (True, True, True, False)),
    "cross-copy x x x2": (patched_coefficient(
        lambda t1, t2: t1[0] == t2[0] == 'x' and cross_copy(t1, t2),
        lambda c: c * 2), ONLY_TWO_COPIES),
    "cross-copy x_i d_j (i > j) +1": (patched_coefficient(
        lambda t1, t2: xd(t1, t2) and cross_copy(t1, t2) and t1[1] > t2[1],
        lambda c: c + 1), ONLY_TWO_COPIES),
}


def flat_ring(n):
    """sigma from H_2 - 2 H_1, and the potential."""
    f = RatFun.from_poly(complete_symmetric(n, 2)
                         - complete_symmetric(n, 1).scale(2))
    return sigma_from_potential(f), f


# a constant, and so flat, sigma array on two copies of each species
TWO_COPIES = {(1, 1): 1, (1, 2): 2, (2, 1): 0, (2, 2): 3}


def patch_rules(monkeypatch, mutant):
    patch, expected = MUTANTS[mutant]
    if patch is not None:
        rule = patch(diffring._resolve)
        for module in (diffring, multicopy):
            monkeypatch.setattr(module, "_resolve", rule)
    return expected


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("mutant", list(MUTANTS), ids=str)
def test_each_rule_mutant_is_caught_by_its_named_verifiers(monkeypatch, n,
                                                           mutant):
    sigma, f = flat_ring(n)
    expected = patch_rules(monkeypatch, mutant)
    pbw = verify_pbw(RingSpec(n, sigma))
    oracle = ambiguity_oracle(n, 1, 1, SigmaArray.from_one_copy(sigma))
    two = SigmaArray.constant(n, 2, 2, TWO_COPIES)
    central = verify_central(central_family(f, n))
    verdicts = (pbw.direct.passed, oracle.passed,
                ambiguity_oracle(n, 2, 2, two).passed, central.passed)
    assert verdicts == expected
    # the difference system and the flatness equations read sigma alone,
    # never the rules
    assert pbw.system.passed
    assert flatness_check(n, 2, 2, two).passed


def test_check_pbw_exits_1_when_its_two_routes_disagree(capsys, monkeypatch):
    # sigma = (1, 1) is flat, so the difference system passes while the
    # mutant's double reduction fails: no flatness verdict is printed
    patch_rules(monkeypatch, "x_i d_j (i < j) x2")
    assert main(["check-pbw", "-n", "2", "--sigmas", "1;1"]) == 1
    cap = capsys.readouterr()
    assert (cap.out, cap.err) == (
        "", "internal: double reduction and sigma system disagree\n")


def differing_words(words, form):
    """The labels of the overlap words whose canonical forms "left" and
    "right" differ, in order, and the first one's two forms."""
    labels, first = [], None
    for w in words:
        if is_overlap_ambiguity(w):
            forms = form(list(w), "left"), form(list(w), "right")
            if forms[0] != forms[1]:
                labels.append(word_label(w))
                first = first or forms
    return labels, first


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("mutant", list(MUTANTS), ids=str)
def test_each_double_reduction_reports_the_words_whose_forms_differ(
        monkeypatch, n, mutant):
    sigma, _ = flat_ring(n)
    patch_rules(monkeypatch, mutant)
    spec = RingSpec(n, sigma)
    labels, first = differing_words(overlap_words(n),
                                    functools.partial(normal_form, spec))
    pbw = verify_pbw(spec)
    assert pbw.direct.failures == labels
    assert pbw.residual == (first and first[0] - first[1])
    for copies, s in ((1, SigmaArray.from_one_copy(sigma)),
                      (2, SigmaArray.constant(n, 2, 2, TWO_COPIES))):
        tags = [(a,) for a in range(1, copies + 1)]
        labels, _ = differing_words(overlap_words(n, tags, tags),
                                    functools.partial(mixed_normal_form, n, s))
        assert ambiguity_oracle(n, copies, copies, s).failures == labels


# ---------------------------------------------------------------------------
# module rule mutants


def doubled_module_rows(row):
    """The mutant of `diffring._resolve_module` that doubles the coefficient
    of each replacement r of a pair d_j x^i for which row(j, i, r) holds;
    every replacement of such a pair starts with its coefficient."""
    def mutant(resolve):
        def mutated(spec, t1, t2):
            out = resolve(spec, t1, t2)
            if (t1[0], t2[0]) != ('d', 'x'):
                return out
            return [[diffring._token_value(spec.n, r[0]) * 2, *r[1:]]
                    if row(t1[1], t2[1], r) else r for r in out]
        return mutated
    return mutant


# mutant -> (the patch of the module rules, and the verdicts "passes" of
# central_character's two routes and of the representation identity).  On
# the vacuum every Psi row ends in d_k, which kills it, so only the vacuum
# term reaches the characters; no mutant is a blind spot of both checks
MODULE_MUTANTS = {
    None: (None, (True, True)),
    # the replacements of d_i x^i without generators, Psi^{ik}_{ik} sigma_k:
    # doubling each one's Psi token doubles the vacuum term gamma_i
    "vacuum term x2": (doubled_module_rows(
        lambda j, i, r: not any(type(t) is tuple for t in r)),
        (False, False)),
    "diagonal Psi^{ik}_{ik} (k != i) x2": (doubled_module_rows(
        lambda j, i, r: j == i and len(r) == 3 and r[1][1] != i),
        (True, False)),
    "off-diagonal Psi (j != i) x2": (doubled_module_rows(
        lambda j, i, r: j != i), (True, False)),
}


def characters_agree(fam, weight):
    """Whether central_character's two routes agree at weight."""
    try:
        central_character(fam, weight)
    except MismatchError:
        return False
    return True


def representation_holds(spec, weight):
    """Whether act(u, act(v, w)) == act(multiply(u, v), w) for all
    generators u, v and the vectors w = x^b v with |b| <= 2 at weight."""
    n = spec.n
    gens = ([spec.x(i) for i in range(1, n + 1)]
            + [spec.d(i) for i in range(1, n + 1)])
    vectors = [LWVector(weight, {b: 1})
               for b in product(range(3), repeat=n) if sum(b) <= 2]
    return all(act(spec, u, act(spec, v, w))
               == act(spec, multiply(spec, u, v), w)
               for u in gens for v in gens for w in vectors)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("mutant", list(MODULE_MUTANTS), ids=str)
def test_each_module_rule_mutant_is_caught_by_its_named_checks(monkeypatch, n,
                                                               mutant):
    patch, expected = MODULE_MUTANTS[mutant]
    if patch is not None:
        monkeypatch.setattr(diffring, "_resolve_module",
                            patch(diffring._resolve_module))
    _, f = flat_ring(n)
    fam = central_family(f, n)
    weight = generic_lambda(n)
    assert (characters_agree(fam, weight),
            representation_holds(fam.spec, weight)) == expected
    # both read the ring's rules alone
    assert verify_pbw(fam.spec).flat
    assert verify_central(fam).passed
