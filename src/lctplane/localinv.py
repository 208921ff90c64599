"""Local invariants of a plane curve germ at the origin.

``newton_lct`` reads the lct of a Newton non-degenerate germ off its
Newton boundary: when every compact edge's polynomial has only simple
roots, lct_0(f) = min(1, 1/t) for the point (t, t) at which the diagonal
meets the boundary (Varchenko, "Zeta-function of monodromy and Newton's
diagram", Invent. Math. 37, 1976, and "Complex exponents of a singularity
do not change along the stratum mu = const", 1982; Howald, "Multiplier
ideals of sufficiently general polynomials", 2003).

Intersection multiplicity is computed by the classical exact recursion
(restrict to y = 0, cancel the lowest x-power, extract y factors), with
the terms above what the Bezout bound leaves dropped at each step, on
the integer term dicts of the two curves' numerators; the Milnor number
is the intersection multiplicity of the two partial derivatives.
Everything is exact integer arithmetic; sympy's gcd runs only where the
integer certificates of ``poly`` leave a case undecided.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import NotThroughOrigin, PreconditionError, ZeroPolynomial
from .extended import INF
from .factorize import form_coeffs, squarefree_parts
from .poly import (
    BPoly,
    _canonical,
    _derivative,
    _face,
    _newton_boundary,
    add_terms,
    certify_coprime,
    certify_squarefree,
    coprime_univariate,
    gcd_bivariate,
    gcd_many,
    mul_terms,
    restrict_coeffs,
    scale_terms,
)

__all__ = [
    "intersection_multiplicity_origin",
    "milnor_number_origin",
    "tangent_cone_pattern",
    "is_square_free",
    "newton_lct",
    "weighted_lct_upper_bound",
    "WeightedBound",
]


class WeightedBound(NamedTuple):
    """The weighted-homogeneous lct upper bound ``b = (w1 + w2) / wt(f)``."""

    weights: tuple
    wt: Fraction
    bound: Fraction
    leading_part: BPoly


def _truncate(terms, n):
    """``terms`` without its terms of total degree above ``n``."""
    return {exp: c for exp, c in terms.items() if exp[0] + exp[1] <= n}


def intersection_multiplicity_origin(f, g):
    """Local intersection number I_0(f, g) at the origin.

    Returns ``INF`` when f and g share a component through the origin.
    The exact gcd checks that only when ``certify_coprime`` cannot prove
    f and g coprime; for the partials of a reduced germ it nearly always
    can, so the Milnor number usually takes no gcd.
    """
    if f.is_zero or g.is_zero:
        raise ZeroPolynomial("intersection multiplicity needs nonzero curves")
    if f.coefficient(0, 0) != 0 or g.coefficient(0, 0) != 0:
        return 0
    if not certify_coprime(f, g):
        common = gcd_bivariate(f, g)
        if not common.is_constant() and common.coefficient(0, 0) == 0:
            return INF

    bound = f.degree * g.degree  # Bezout: I_0(f, g) <= deg f * deg g
    # scaling f or g keeps I_0, so the recursion runs on integer numerators
    f, g = f._terms, g._terms
    total = 0
    while True:
        if (0, 0) in f or (0, 0) in g:
            return total
        # I_0(f, g) is now at most n = bound - total, so m^n lies in (f, g)
        # and the terms of degree above n lie in m*(f, g): dropping them
        # keeps the ideal (Nakayama) and the unit products from growing
        f, g = _truncate(f, bound - total), _truncate(g, bound - total)
        fx0 = restrict_coeffs(f, 0, 0)  # f(x, 0)
        gx0 = restrict_coeffs(g, 0, 0)
        if not fx0 and not gx0:
            raise AssertionError("common factor y slipped past the gcd check")
        if not fx0:
            f, g = g, f
            fx0, gx0 = gx0, fx0
        if not gx0:
            # g = y^a * h: I(f, g) = a * ord_x f(x,0) + I(f, h)
            a = min(j for _, j in g)
            r = next(i for i, c in enumerate(fx0) if c)
            total += a * r
            g = {(i, j - a): c for (i, j), c in g.items()}
            continue
        r = next(i for i, c in enumerate(fx0) if c)
        s = next(i for i, c in enumerate(gx0) if c)
        if r > s:
            f, g = g, f
            fx0, gx0 = gx0, fx0
            r, s = s, r
        # f(x, 0) = x^r * u and g(x, 0) = x^s * v with u(0), v(0) != 0;
        # g <- u * g - x^(s-r) * v * f cancels g(x, 0)'s lowest term, and
        # dividing out its content keeps the coefficients from growing
        u = {(i, 0): c for i, c in enumerate(fx0[r:]) if c}
        v = {(i + s - r, 0): c for i, c in enumerate(gx0[s:]) if c}
        g = add_terms(mul_terms(u, g), scale_terms(mul_terms(v, f), -1))
        if not g:
            raise AssertionError("unexpected exact cancellation in recursion")
        content = math.gcd(*g.values())
        g = {exp: c // content for exp, c in g.items()}


def milnor_number_origin(f):
    """Milnor number at the origin: I_0(f_x, f_y).

    Finite iff the origin is an isolated critical point; 0 iff the curve
    is smooth at the origin.
    """
    if f.is_zero:
        raise ZeroPolynomial("Milnor number of the zero polynomial")
    if f.coefficient(0, 0) != 0:
        raise NotThroughOrigin("curve does not pass through the origin")
    fx = f.derivative("x")
    fy = f.derivative("y")
    if fx.is_zero and fy.is_zero:
        raise ZeroPolynomial("constant polynomial has no Milnor number")
    if fx.is_zero or fy.is_zero:
        other = fy if fx.is_zero else fx
        return 0 if other.coefficient(0, 0) != 0 else INF
    return intersection_multiplicity_origin(fx, fy)


def tangent_cone_pattern(f):
    """Line multiplicities of the tangent cone of f at the origin, as a
    tuple sorted descending: over the algebraic closure, a squarefree part
    of degree g with exponent e of the cone in t = y/x (``form_coeffs``)
    is g distinct lines and contributes g copies of e, and the line x = 0
    at t = infinity contributes its own multiplicity, so the entries sum to
    the multiplicity at the origin.  No irreducible factorization is
    needed."""
    if f.is_zero:
        raise ZeroPolynomial("tangent cone of the zero polynomial")
    if f.coefficient(0, 0) != 0:
        raise NotThroughOrigin("curve does not pass through the origin")
    mult = f.multiplicity()
    cone = form_coeffs(f._terms, mult)
    entries = [mult + 1 - len(cone)] if len(cone) <= mult else []
    for part, exp in squarefree_parts(cone):
        entries.extend([exp] * (len(part) - 1))
    return tuple(sorted(entries, reverse=True))


def is_square_free(f):
    """True iff no non-unit square divides f.

    ``certify_squarefree`` proves most reduced curves squarefree without
    sympy.  When it cannot, ``gcd(f, f_x, f_y)`` being constant decides
    (``gcd_many``, sympy's exact dense gcd), which is equivalent over a
    field of characteristic zero (and, unlike the per-variable test, also
    correct for factors involving a single variable).
    """
    if f.is_zero:
        raise ZeroPolynomial("square-freeness of the zero polynomial")
    if certify_squarefree(f):
        return True
    return gcd_many([f, f.derivative("x"), f.derivative("y")]).is_constant()


def weighted_lct_upper_bound(f, w):
    """The Lemma-style weighted upper bound: lct_0(f) <= (w1+w2)/wt(f), for
    positive rational weights ``w``, read off the face of least weight."""
    w1, w2 = Fraction(w[0]), Fraction(w[1])
    if w1 <= 0 or w2 <= 0:
        raise PreconditionError("weights must be positive")
    if f.is_zero:
        raise ZeroPolynomial("weighted bound of the zero polynomial")
    if f.coefficient(0, 0) != 0:
        raise NotThroughOrigin("curve does not pass through the origin")
    scale = math.lcm(w1.denominator, w2.denominator)
    low, face = _face(f._terms, None, int(w1 * scale), int(w2 * scale))
    wt = Fraction(low, scale)
    leading = _canonical({exp: f._terms[exp] for exp in face}, f._den)
    return WeightedBound((w1, w2), wt, (w1 + w2) / wt, leading)


def newton_lct(f):
    """lct_0(f) off the Newton boundary of f, or None when f is not
    certified Newton non-degenerate.  It does not check that f is reduced;
    ``dispatch.lct`` does, as for every route.

    Non-degenerate: the polynomial of each compact edge, read along the
    edge's lattice points, has only simple roots; both its ends are
    vertices, so none is 0.  An edge with no term inside is a binomial and
    passes; any other is certified by ``coprime_univariate(e, e')``, and an
    undecided certificate gives None, with no Yun step.  The Newton polygon
    is the intersection of the half-planes i >= i_min, j >= j_min and
    w1 i + w2 j >= N over the edges, with (w1, w2) normal to the edge, so
    the diagonal meets its boundary at t = max(i_min, j_min, N / (w1 + w2)):
    on an edge, at a vertex, or, when f is not convenient, on a ray."""
    if f.is_zero:
        raise ZeroPolynomial("Newton boundary of the zero polynomial")
    terms = f._terms
    if (0, 0) in terms:
        raise NotThroughOrigin("curve does not pass through the origin")
    hull = _newton_boundary(terms)
    num, den = max(hull[0][0], hull[-1][1]), 1  # t = num / den
    for (i0, j0), (i1, j1) in zip(hull, hull[1:]):
        w1, w2 = j0 - j1, i1 - i0
        g = math.gcd(w1, w2)
        di, dj = w2 // g, w1 // g
        edge = [terms.get((i0 + k * di, j0 - k * dj), 0) for k in range(g + 1)]
        if any(edge[1:-1]) and not coprime_univariate(edge, _derivative(edge)):
            return None
        n = w1 * i0 + w2 * j0
        if n * den > num * (w1 + w2):
            num, den = n, w1 + w2
    return Fraction(den, num) if num > den else Fraction(1)
