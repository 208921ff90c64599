"""Seeded random curve generators used by the self-test suite.

The high-multiplicity instances follow the two explicit families that
realize every multiplicity-(d-1) germ: a degree-(d-2) plus degree-(d-1)
part (times a line in the component case).  Coefficients are small random
rationals; draws are rejected until the curve is square-free and every
blowup center of its resolution is rational, so the resolution oracle
can check each instance.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import IrrationalCenter, NotSquareFree
from .poly import BPoly, X
from .resolution import resolve_over_origin

__all__ = ["random_high_mult_instance", "random_rational"]


def random_rational(rng, span=5, max_den=3):
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def random_high_mult_instance(d, rng):
    """A square-free degree-d curve with multiplicity d-1 at the origin
    whose resolution tower stays rational."""
    while True:
        component_case = rng.random() < 0.5
        e = d - 1 if component_case else d  # f is x * (low + high), or low + high
        k = rng.randint(1 if component_case else 2, e - 1)
        low = BPoly.zero()
        for i in range(k, e):
            c = Fraction(1) if i == k else random_rational(rng)
            low = low + BPoly.monomial(i, e - 1 - i, c)
        high = BPoly.monomial(0, e, rng.choice([1, -1, 2]))
        for j in range(1, e + 1):
            if rng.random() < 0.5:
                high = high + BPoly.monomial(j, e - j, random_rational(rng))
        f = X * (low + high) if component_case else low + high
        if f.degree != d or f.multiplicity() != d - 1:
            continue
        try:
            resolve_over_origin(f)
        except (NotSquareFree, IrrationalCenter):
            # not reduced, or a center left the rationals; draw again
            continue
        return f
