"""Factorization over the rationals: squarefree binary forms, and
irreducible univariate factors where irreducibility matters.

Both return the same shape, ``(unit, [(part, exponent), ...])`` with
``unit * prod(part ** exponent)`` equal to the input.
``squarefree_binary_form`` dehomogenizes to ``F(t, 1)``, runs Yun's
algorithm over Q, then re-homogenizes and accounts for the root at
infinity (the factor y).  It needs no sympy and is all the tangent-cone
pattern and the closed form's special line need.  Irreducible factors
(``factor_univariate``, delegated to sympy's exact Zassenhaus-based
``dup_factor_list`` on the integer polynomial, imported on the first
factorization) are needed only by the resolution's ``rational_roots``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ZeroPolynomial
from .poly import BPoly, _derivative, coprime_univariate, normalize_primitive

__all__ = [
    "factor_univariate",
    "squarefree_binary_form",
    "rational_roots",
]


def factor_univariate(coeffs):
    """Factor a univariate rational polynomial into irreducibles.

    ``coeffs`` is a coefficient list (index = degree).  Returns
    ``(unit, [(factor_coeffs, exponent), ...])`` with primitive integer
    factors, positive leading coefficients, such that
    ``unit * prod(factor ** exponent)`` equals the input exactly.
    """
    from sympy.polys.domains import ZZ
    from sympy.polys.factortools import dup_factor_list

    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        raise ZeroPolynomial("factorization of the zero polynomial")
    if len(coeffs) == 1:
        return coeffs[0], []
    denom = math.lcm(*(c.denominator for c in coeffs))
    dense = [ZZ(c.numerator * (denom // c.denominator)) for c in reversed(coeffs)]
    # over ZZ, sympy returns primitive factors with positive leading coefficients
    content, factor_list = dup_factor_list(dense, ZZ)
    unit = Fraction(int(content), denom)
    factors = [
        ([Fraction(int(c)) for c in reversed(fac)], exp) for fac, exp in factor_list
    ]
    return unit, factors


def _dehomogenize(form):
    """``F(t, 1)`` of a nonzero binary form as a coefficient list."""
    coeffs = [Fraction(0)] * (form.degree + 1)
    for (i, _), c in form.terms.items():
        coeffs[i] = c
    return coeffs


def _homogenize(coeffs):
    """The binary form of degree ``len(coeffs) - 1`` with ``F(t, 1)`` given."""
    n = len(coeffs) - 1
    return BPoly({(i, n - i): c for i, c in enumerate(coeffs) if c})


def _divmod(a, b):
    """Quotient and remainder of coefficient lists over Q (``b`` nonzero)."""
    a = list(a)
    db, lead = len(b) - 1, b[-1]
    quot = [Fraction(0)] * max(len(a) - db, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = quot[k] = a[k + db] / lead
        if c:
            for i, bc in enumerate(b):
                a[k + i] -= c * bc
    del a[db:]
    while a and not a[-1]:
        a.pop()
    return quot, a


def _gcd_monic(a, b):
    while b:
        a, b = b, _divmod(a, b)[1]
    return [c / a[-1] for c in a]


def _yun(f):
    """Yun's squarefree decomposition over Q of a nonzero ``f``: the monic
    nonconstant parts ``a_i`` with ``f = lc(f) * prod(a_i ** i)``,
    as ``(a_i, i)``."""
    if len(f) < 2:
        return []
    denom = math.lcm(*(c.denominator for c in f))
    integral = [c.numerator * (denom // c.denominator) for c in f]
    if coprime_univariate(integral, _derivative(integral)):  # squarefree: no Euclid
        return [([c / f[-1] for c in f], 1)]
    df = _derivative(f)
    g = _gcd_monic(f, df)
    b, c = _divmod(f, g)[0], _divmod(df, g)[0]
    parts, i = [], 1
    while len(b) > 1:
        # c and b' have the same length; d is zero or keeps its top term
        d = [ci - bi for ci, bi in zip(c, _derivative(b))]
        if not d[-1]:
            d = []
        a = _gcd_monic(b, d)
        if len(a) > 1:
            parts.append((a, i))
        b, c = _divmod(b, a)[0], _divmod(d, a)[0]
        i += 1
    return parts


def squarefree_binary_form(form):
    """Squarefree decomposition ``(unit, [(part, exponent), ...])`` of a
    nonzero binary form, without sympy: Yun's algorithm over Q on
    ``F(t, 1)``, plus the part ``y`` with exponent ``n - deg F(t, 1)`` for
    the root at infinity.  ``unit * prod(part ** exponent)`` is the form.

    The parts are pairwise coprime and squarefree; a part of degree g
    with exponent e stands for g distinct lines of multiplicity e.  They
    are primitive with integer coefficients and a positive graded-lex
    leading coefficient (``normalize_primitive``).
    """
    if form.is_zero:
        raise ZeroPolynomial("squarefree decomposition of the zero form")
    coeffs = _dehomogenize(form)
    while not coeffs[-1]:
        coeffs.pop()
    unit = coeffs[-1]
    factors = []
    for part, exp in _yun(coeffs):
        scale, factor = normalize_primitive(_homogenize(part))
        factors.append((factor, exp))
        unit *= scale**exp
    pad = form.degree + 1 - len(coeffs)
    if pad:
        factors.append((BPoly.monomial(0, 1), pad))
    return unit, factors


def rational_roots(coeffs):
    """All rational roots of a univariate polynomial with multiplicities,
    plus the irreducible non-linear factors (potential irrational roots).

    Returns ``(roots, nonlinear)`` where ``roots`` is a list of
    ``(root, multiplicity)`` and ``nonlinear`` a list of
    ``(factor_coeffs, multiplicity)``.
    """
    _, factors = factor_univariate(coeffs)
    roots = []
    nonlinear = []
    for fac_coeffs, exp in factors:
        if len(fac_coeffs) == 2:
            b, a = fac_coeffs
            roots.append((Fraction(-b, a), exp))
        elif len(fac_coeffs) > 2:
            nonlinear.append((fac_coeffs, exp))
    return roots, nonlinear
