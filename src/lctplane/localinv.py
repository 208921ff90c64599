"""Local invariants of a plane curve germ at the origin.

``newton_lct`` reads the lct of a reduced germ off its Newton polygon in
adapted coordinates: lct_0(f) = min(1, 1/d) for the point (d, d) at which
the diagonal meets the boundary, once no root of the face through (d, d)
has multiplicity above max(1, d); the changes y -> y + c x^m that get
there, and the proof, are in its docstring (Varchenko, "Newton polyhedra
and estimation of oscillating integrals", Funct. Anal. Appl. 10, 1976;
Ikromov and Mueller, "On adapted coordinate systems", Trans. AMS 363,
2011; Howald, "Multiplier ideals of sufficiently general polynomials",
2003).

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

from .errors import NotSquareFree, NotThroughOrigin, PreconditionError, ZeroPolynomial
from .extended import INF
from .factorize import form_lines, squarefree_parts
from .poly import (
    BPoly,
    _canonical,
    _face,
    _newton_boundary,
    add_terms,
    certify_coprime,
    certify_squarefree,
    gcd_bivariate,
    gcd_many,
    mul_terms,
    restrict_coeffs,
    scale_terms,
    shift_terms,
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


def _check_germ(f, zero_message):
    """Refuse f = 0 with ``zero_message``, and f(0) != 0: every invariant
    at the origin needs a germ of a curve through it."""
    if f.is_zero:
        raise ZeroPolynomial(zero_message)
    if (0, 0) in f._terms:
        raise NotThroughOrigin("curve does not pass through the origin")


def milnor_number_origin(f):
    """Milnor number at the origin: I_0(f_x, f_y).

    Finite iff the origin is an isolated critical point; 0 iff the curve
    is smooth at the origin.  A germ f != 0 with f(0) = 0 has a term of
    degree >= 1, so f_x and f_y are not both zero.
    """
    _check_germ(f, "Milnor number of the zero polynomial")
    fx = f.derivative("x")
    fy = f.derivative("y")
    if fx.is_zero or fy.is_zero:
        other = fy if fx.is_zero else fx
        return 0 if other.coefficient(0, 0) != 0 else INF
    return intersection_multiplicity_origin(fx, fy)


def tangent_cone_pattern(f):
    """Line multiplicities of the tangent cone of f at the origin, as a
    tuple sorted descending: each part of degree g with multiplicity e
    (``form_lines``) is g distinct lines and contributes g copies of e, so
    the entries sum to the multiplicity at the origin.  No irreducible
    factorization is needed."""
    _check_germ(f, "tangent cone of the zero polynomial")
    lines = form_lines(f._terms, f.multiplicity())
    return tuple(sorted((e for part, e in lines for _ in range(len(part) - 1)), reverse=True))


def is_square_free(f):
    """True iff no non-unit square divides f.

    ``certify_squarefree`` proves most reduced curves squarefree without
    sympy, and x^2 or y^2 dividing f, read off its least exponents, refutes
    it.  Otherwise ``gcd(f, f_x, f_y)`` being constant decides
    (``gcd_many``, sympy's exact dense gcd), which is equivalent over a
    field of characteristic zero (and, unlike the per-variable test, also
    correct for factors involving a single variable).
    """
    if f.is_zero:
        raise ZeroPolynomial("square-freeness of the zero polynomial")
    if certify_squarefree(f):
        return True
    if min(f._terms)[0] > 1 or min(j for _, j in f._terms) > 1:
        return False
    return gcd_many([f, f.derivative("x"), f.derivative("y")]).is_constant()


def weighted_lct_upper_bound(f, w):
    """The Lemma-style weighted upper bound: lct_0(f) <= (w1+w2)/wt(f), for
    positive rational weights ``w``, read off the face of least weight."""
    w1, w2 = Fraction(w[0]), Fraction(w[1])
    if w1 <= 0 or w2 <= 0:
        raise PreconditionError("weights must be positive")
    _check_germ(f, "weighted bound of the zero polynomial")
    scale = math.lcm(w1.denominator, w2.denominator)
    low, face = _face(f._terms, None, int(w1 * scale), int(w2 * scale))
    wt = Fraction(low, scale)
    leading = _canonical({exp: f._terms[exp] for exp in face}, f._den)
    return WeightedBound((w1, w2), wt, (w1 + w2) / wt, leading)


def newton_lct(f):
    """lct_0(f) of a reduced germ off its Newton polygon in adapted
    coordinates, which a few changes y -> y + c x^m, and perhaps one swap
    of x and y, reach.  A non-reduced f raises ``NotSquareFree`` first.

    Write G for the Newton polygon of f (the convex hull of its exponents
    plus the quadrant),
    d for its Newton distance, where the diagonal meets G's boundary at
    (d, d), and the principal face for the face of least dimension holding
    (d, d): a vertex, a ray, or a compact edge on w1 i + w2 j = N, with
    coprime weights w1, w2 >= 1 and N = d (w1 + w2).  An edge's polynomial
    is read along its lattice points; its roots are nonzero, since both
    ends are vertices, and at most its lattice length g in number.

    Theorem.  For reduced f with f(0) = 0: if the principal face is not a
    compact edge, or every root of its polynomial has multiplicity
    e <= max(1, d), then lct_0(f) = min(1, 1/d).

    Proof.  (<=) f(0) = 0 gives lct <= 1.  The monomial valuation of
    weights w supporting G at (d, d), (1, 0) or (0, 1) on a ray, has log
    discrepancy w1 + w2 and takes d (w1 + w2) on f, so lct <= 1/d.  (>=) Fix
    c < min(1, 1/d) and take the toric modification of a regular
    subdivision of G's dual fan (Varchenko, "Zeta-function of monodromy
    and Newton's diagram", 1976).  A ray (a, b) gives a divisor of log
    discrepancy a + b - c N_ab > 0, as N_ab <= (a + b) d.  The strict
    transform F misses the torus-fixed points, where f is a vertex
    monomial times a unit, and the divisors of rays normal to no edge; it
    meets the divisor E of a compact edge once per root, with intersection
    number its multiplicity e.  There the pair is (1 - r) E + c F with
    r = w1 + w2 - c N > 0.  By inversion of adjunction (Kollar and Mori,
    "Birational geometry of algebraic varieties", 5.50), E + c F is log
    canonical there iff c e <= 1, and lowering E's coefficient to
    1 - r < 1 makes it klt.  An edge off the
    principal face lies where i <= d or j <= d, so e <= g <= d; on the
    principal face e <= max(1, d).  Either way c e < 1: f is klt with c.

    The loop.  If a root has e > max(1, d), then w1 = 1 or w2 = 1, since
    g w1 w2 <= N gives e <= d (1/w1 + 1/w2) < d otherwise.  Say w1 = 1
    (else swap x and y; the lct is symmetric), m = w2: the edge is
    x^N p(y/x^m), and p, of degree at most N/m <= 2d, has one root of
    multiplicity e > d.  Galois fixes it, so it is rational, the linear
    last Yun part of p.  The change y -> y + c x^m keeps every weight
    i + m j at least N and turns p into t^e q(t), so the new boundary has
    the vertex (N - m e, e) above the diagonal, and every edge below it
    has w2 > m w1.  So (d, d) leaves G, d grows, and each later change is
    again in y, with a larger m: the swap comes first, if at all.

    Bound.  Let f = x^a h, x not dividing h, and let P be the Weierstrass
    polynomial of h in y, with roots s_k.  A change moves each s_k by
    c x^m and fixes a, so S = sum over k != l of ord(s_k - s_l)
    = I_0(h, h_y) does not change.  By Bezout S <= D (D - 1) for
    D = deg f: h and h_y share no component but factors x - b, b != 0,
    units at 0 that can be divided out first.  The e >= 2
    roots above c share the term c x^m, so 2 m < S, and the m of the
    changes grow: fewer than D (D - 1) / 2 changes, which the loop
    asserts, as ``intersection_multiplicity_origin`` does its recursion.
    """
    _check_germ(f, "Newton boundary of the zero polynomial")
    if not is_square_free(f):
        raise NotSquareFree("curve must be reduced")
    terms = f._terms
    for _ in range(1 + math.comb(f.degree, 2)):  # fewer than D (D - 1) / 2 changes
        hull = _newton_boundary(terms)
        k = next((k for k, (i, j) in enumerate(hull) if i >= j), len(hull))
        if k in (0, len(hull)) or hull[k][0] == hull[k][1]:  # a ray or a vertex
            d = hull[0][0] if k == 0 else hull[-1][1] if k == len(hull) else hull[k][0]
            return Fraction(1, d) if d > 1 else Fraction(1)
        (i0, j0), (i1, j1) = hull[k - 1], hull[k]
        g = math.gcd(j0 - j1, i1 - i0)
        w1, w2 = (j0 - j1) // g, (i1 - i0) // g
        n = w1 * i0 + w2 * j0  # d = n / (w1 + w2)
        value = Fraction(w1 + w2, n) if n > w1 + w2 else Fraction(1)
        # the edge's polynomial in s = x^w2 / y^w1, read along its lattice points;
        # a binomial has simple roots, and no weight 1 means e < d (see above)
        edge = [terms.get((i0 + r * w2, j0 - r * w1), 0) for r in range(g + 1)]
        if min(w1, w2) > 1 or not any(edge[1:-1]):
            return value
        root, e = squarefree_parts(edge)[-1]
        if e * value <= 1:  # e <= max(1, d)
            return value
        if w1 == 1:  # the root is y / x^m = 1 / s
            m, c = w2, Fraction(-root[1], root[0])
        else:  # x -> x + c y^m, which the lct's symmetry in x and y makes y's
            m, c = w1, Fraction(-root[0], root[1])
            terms = {(j, i): v for (i, j), v in terms.items()}
        # y -> y + c x^m is a shift in t = y/x^m: key (i, j) as (i + m j, j)
        shifted, _ = shift_terms({(i + m * j, j): v for (i, j), v in terms.items()}, 1, c)
        content = math.gcd(*shifted.values())
        terms = {(i - m * j, j): v // content for (i, j), v in shifted.items()}
    raise AssertionError("more changes of coordinates than the bound allows")
