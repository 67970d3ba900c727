"""Lowest weight modules with generic weights: the d-generators kill the
lowest vector, h_i acts by lambda_i, and the module is free over the x's.

Elements act through the module ordering (x left of d): terms still holding a
d-generator annihilate the lowest vector, and a coefficient standing left of
x^b evaluates at lambda + b, term by term as the rewriting engine wrote it.
"""

from __future__ import annotations

from fractions import Fraction

from .central import MismatchError
from .diffring import NormalElement, module_form
from .ratfield import exact_coeff, ring_mismatch


class NonGenericWeight(ValueError):
    """Some lambda_i - lambda_j is an integer."""


class Weight:
    """Tuple of rational weights with pairwise non-integer differences; a
    float is refused, as its value is already rounded."""

    __slots__ = ("values",)

    def __init__(self, values):
        vals = tuple(Fraction(exact_coeff(v)) for v in values)
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                if (vals[i] - vals[j]).denominator == 1:
                    raise NonGenericWeight(
                        f"lambda_{i+1} - lambda_{j+1} = {vals[i]-vals[j]} is an integer")
        self.values = vals

    @property
    def n(self):
        return len(self.values)

    def shifted(self, b):
        return tuple(v + k for v, k in zip(self.values, b))

    def __eq__(self, other):
        return isinstance(other, Weight) and self.values == other.values

    __hash__ = None

    def __repr__(self):
        return f"Weight{self.values!r}"


def generic_lambda(n):
    """A deterministic generic weight: lambda_i = i (n+2)/(n+1)."""
    return Weight(tuple(Fraction(i * (n + 2), n + 1) for i in range(1, n + 1)))


class LWVector:
    """Finite combination of basis vectors x^b applied to the lowest vector."""

    __slots__ = ("weight", "terms")

    def __init__(self, weight, terms=None):
        self.weight = weight
        self.terms = {b: c for b, c in (terms or {}).items() if c}

    @classmethod
    def vacuum(cls, weight):
        return cls(weight, {(0,) * weight.n: Fraction(1)})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, LWVector) and self.weight == other.weight
                and self.terms == other.terms)

    __hash__ = None

    def scalar_multiple_of_vacuum(self):
        """The scalar c with self = c * vacuum, or None."""
        if not self.terms:
            return Fraction(0)
        z = (0,) * self.weight.n
        if set(self.terms) == {z}:
            return self.terms[z]
        return None

    def __repr__(self):
        return f"LWVector<{self.terms!r} at {self.weight!r}>"


def act(spec, elem, vec):
    """Apply a ring element to a module vector at a weight of the same n:
    one module-order walk of the words c elem x^b, for every basis vector
    x^b of vec and its scalar c, a constant token that the walk folds into
    each path's constant, read at the weight with no canonical form built
    (module_form with a weight; exact, as the weight is generic)."""
    n = spec.n
    lam = vec.weight
    if lam.n != n:
        raise ring_mismatch(n, lam.n)
    mono = NormalElement._mono_tokens
    words = [[f, *mono(a, b)] for (a, b), f in elem.terms.items()]
    # an integral scalar leads as an int, so that the path constants stay ints
    walks = [[{(): exact_coeff(cv)}, *w, *mono((0,) * n, bv)]
             for bv, cv in vec.terms.items() for w in words]
    return LWVector(lam, module_form(spec, walks, weight=lam.values))


def central_character(fam, weight):
    """Scalars of c_1..c_n on the lowest vector, two ways.

    (a) act with the elements on the vacuum;
    (b) evaluate -rho(t)[-e_1-..-e_n] at lambda, i.e. -rho(t) at lambda - (1,..,1).
    Raises DomainError at a weight of another n, MismatchError if the routes
    disagree; returns (acted, predicted).
    """
    spec = fam.spec
    n = spec.n
    vac = LWVector.vacuum(weight)
    acted = []
    for k, c in enumerate(fam.elements, start=1):
        v = act(spec, c, vac)
        s = v.scalar_multiple_of_vacuum()
        if s is None:
            raise MismatchError(f"c_{k} does not act by a scalar on the vacuum")
        acted.append(s)
    predicted = [-r.evaluate(weight.shifted([-1] * n)) for r in fam.rho]
    if acted != predicted:
        raise MismatchError(f"character routes disagree: {acted} vs {predicted}")
    return acted, predicted
