"""Rule mutants: each rule family of the rewriting table, broken on purpose,
must be reported by the verifiers named for it.

A mutant patches one coefficient of `diffring._resolve`, the rule table that
the ring and its multi-copy form share (`multicopy` imports it by value, so
both names are patched).  The ring is flat, with sigma from the potential
H_2 - 2 H_1.  The verifiers are the double reduction of `verify_pbw`, the
same check run by the multi-copy oracle at one copy of each species, and
`verify_central`, which ties the ring to its potential.
"""

import pytest

from hdcalc import diffring, multicopy
from hdcalc.central import central_family, verify_central
from hdcalc.diffring import RingSpec, verify_pbw
from hdcalc.multicopy import SigmaArray, ambiguity_oracle
from hdcalc.potential import sigma_from_potential
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


CAUGHT = (False, False, False)

# mutant -> (the patch of the rule table, and the verdicts "passes" of the
# double reduction, the one-copy oracle and verify_central)
MUTANTS = {
    None: (None, (True, True, True)),
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
    "sigma term of x_i d_i x2": (doubled_sigma, (True, True, False)),
}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("mutant", list(MUTANTS), ids=str)
def test_each_rule_mutant_is_caught_by_its_named_verifiers(monkeypatch, n,
                                                           mutant):
    f = RatFun.from_poly(complete_symmetric(n, 2)
                         - complete_symmetric(n, 1).scale(2))
    sigma = sigma_from_potential(f)
    patch, expected = MUTANTS[mutant]
    if patch is not None:
        rule = patch(diffring._resolve)
        for module in (diffring, multicopy):
            monkeypatch.setattr(module, "_resolve", rule)
    pbw = verify_pbw(RingSpec(n, sigma))
    oracle = ambiguity_oracle(n, 1, 1, SigmaArray.from_one_copy(sigma))
    central = verify_central(central_family(f, n))
    verdicts = pbw.direct.passed, oracle.passed, central.passed
    assert verdicts == expected
    # the difference system reads sigma alone, never the rules
    assert pbw.system.passed
