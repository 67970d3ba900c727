"""The rewriting engine against a reference copy of its plain stack loop.

`_rewrite_reference` is the engine as a word stack with no bookkeeping: it
pops a (coefficient, word) pair, moves every coefficient token to the left,
finds the out-of-order pair with `order` on each visit, and pushes the
replacements.  The engine in `diffring` must give the same terms, in the
same order, for the ring's normal form, the module form and the multi-copy
mixed form, in both strategies, also where sigma is not flat and the two
strategies disagree.
"""

import random

import pytest

from hdcalc import diffring, multicopy
from hdcalc.diffring import RingSpec, module_form, normal_form
from hdcalc.multicopy import SigmaArray, mixed_normal_form
from hdcalc.ratfield import Poly, RatFun


def _rewrite_reference(n, words, order, resolve, strategy):
    acc = {}
    stack = [(RatFun.one(n), list(w)) for w in words]
    while stack:
        coeff, toks = stack.pop()
        gens = []
        svec = [0] * n
        for t in toks:
            if isinstance(t, RatFun):
                if any(svec):
                    t = t.shift(tuple(svec))
                coeff = coeff * t
            else:
                gens.append(t)
                svec[t[1] - 1] += -1 if t[0] == 'x' else 1
        if coeff.is_zero():
            continue
        pairs = range(len(gens) - 1)
        if strategy != "left":
            pairs = reversed(pairs)
        idx = next((p for p in pairs if order(gens[p]) > order(gens[p + 1])),
                   None)
        if idx is None:
            diffring._add_term(acc, tuple(gens), coeff)
            continue
        head, tail = gens[:idx], gens[idx + 2:]
        for repl in resolve(gens[idx], gens[idx + 1]):
            stack.append((coeff, head + repl + tail))
    return acc


def _h(n, i):
    return RatFun.var(n, i)


def _coefficients(n):
    """Coefficient tokens: a constant, a polynomial and a rational function
    with a shifted-difference pole."""
    return [RatFun.const(n, 3), _h(n, 1) + 2,
            RatFun.build(Poly.var(n, n), [(1, n, 1)])]


def _words(rng, n, count, copies=0):
    """Seeded words of 2-6 generators over indices 1..n, tagged with a copy
    in 1..copies when copies > 0; about half carry a coefficient token."""
    coeffs = _coefficients(n)
    out = []
    for _ in range(count):
        word = []
        for _ in range(rng.randint(2, 6)):
            tag = (rng.randint(1, copies),) if copies else ()
            word.append((rng.choice("xd"), rng.randint(1, n)) + tag)
        if rng.random() < 0.5:
            word.insert(rng.randint(0, len(word)), rng.choice(coeffs))
        out.append(word)
    return out


def _items(form):
    """A form's (key, value) pairs in order; a NormalElement by its terms."""
    return list(getattr(form, "terms", form).items())


def _both_engines(monkeypatch, compute):
    """compute() with the engine, then with the reference loop."""
    got = compute()
    with monkeypatch.context() as m:
        for module in (diffring, multicopy):
            m.setattr(module, "_rewrite", _rewrite_reference)
        want = compute()
    return got, want


def _not_flat_specs():
    s2 = RingSpec(2, (RatFun.one(2), _h(2, 1)))
    s3 = RingSpec(3, (_h(3, 2), RatFun.one(3), _h(3, 1)))
    return [s2, s3]


@pytest.mark.parametrize("spec", _not_flat_specs(), ids=["n2", "n3"])
def test_ring_and_module_forms_match_the_reference(monkeypatch, spec):
    n = spec.n
    words = _words(random.Random(20 + n), n, 40)

    def compute():
        return [_items(f(spec, w, strategy)) for w in words
                for f in (normal_form, module_form)
                for strategy in ("left", "right")]

    got, want = _both_engines(monkeypatch, compute)
    assert got == want
    # the sigmas are not flat: the two strategies differ on some word
    assert any(got[k] != got[k + 1] for k in range(0, len(got), 2))


def test_mixed_forms_match_the_reference(monkeypatch):
    n = 2
    sig = SigmaArray(2, 2, 2, {(1, 1, 1): RatFun.one(n),
                               (2, 1, 1): _h(n, 1),
                               (1, 1, 2): RatFun.const(n, 2),
                               (2, 2, 1): _h(n, 2) - 1,
                               (1, 2, 2): RatFun.one(n)})
    words = _words(random.Random(5), n, 50, copies=2)

    def compute():
        return [_items(mixed_normal_form(n, sig, w, strategy))
                for w in words for strategy in ("left", "right")]

    got, want = _both_engines(monkeypatch, compute)
    assert got == want
    assert any(got[k] != got[k + 1] for k in range(0, len(got), 2))
