"""Seeded random curve generators used by the self-test suite.

The high-multiplicity instances follow the two explicit families that
realize every multiplicity-(d-1) germ: a degree-(d-2) plus degree-(d-1)
part (times a line in the component case).  Coefficients are small random
rationals; draws are rejected until the curve is square-free and every
repeated factor of its tangent cone is a rational line, which keeps all
blowup centers of the resolution oracle rational.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import IrrationalCenter, NotSquareFree
from .factorize import factor_binary_form
from .poly import BPoly, X, Y
from .resolution import resolve_over_origin

__all__ = ["random_high_mult_instance", "random_rational"]


def random_rational(rng, span=5, max_den=3):
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def _tangent_cone_centers_rational(f):
    """True iff every repeated factor of the tangent cone of f is linear
    (so the first-level blowup centers are rational points of E_1)."""
    cone = f.homogeneous_part(f.multiplicity())
    for factor, exp in factor_binary_form(cone).factors:
        if exp >= 2 and factor.degree > 1:
            return False
    return True


def random_high_mult_instance(d, rng):
    """A square-free degree-d curve with multiplicity d-1 at the origin
    whose resolution tower stays rational."""
    while True:
        component_case = rng.random() < 0.5
        if component_case:
            k = rng.randint(1, d - 2)
            inner_low = BPoly.zero()
            for i in range(k, d - 1):
                c = Fraction(1) if i == k else random_rational(rng)
                inner_low = inner_low + BPoly.monomial(i, d - 2 - i, c)
            inner_high = BPoly.monomial(0, d - 1, rng.choice([1, -1, 2]))
            for j in range(1, d):
                if rng.random() < 0.5:
                    inner_high = inner_high + BPoly.monomial(
                        j, d - 1 - j, random_rational(rng)
                    )
            f = X * (inner_low + inner_high)
        else:
            k = rng.randint(2, d - 1)
            low = BPoly.zero()
            for i in range(k, d):
                c = Fraction(1) if i == k else random_rational(rng)
                low = low + BPoly.monomial(i, d - 1 - i, c)
            high = BPoly.monomial(0, d, rng.choice([1, -1, 2]))
            for j in range(1, d + 1):
                if rng.random() < 0.5:
                    high = high + BPoly.monomial(j, d - j, random_rational(rng))
            f = low + high
        if f.degree != d or f.multiplicity() != d - 1:
            continue
        if not _tangent_cone_centers_rational(f):
            continue
        try:
            resolve_over_origin(f)
        except (NotSquareFree, IrrationalCenter):
            # not reduced, or a deeper center left the rationals; draw again
            continue
        return f
