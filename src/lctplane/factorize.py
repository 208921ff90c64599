"""Irreducible factorization over the rationals.

Univariate factorization is delegated to sympy's exact Zassenhaus-based
``dup_factor_list`` (denominators cleared, integer domain, no numerics
anywhere), imported on the first factorization.  On top of it we factor
binary forms completely: dehomogenize to ``F(t, 1)``, factor, then
re-homogenize and account for the root at infinity (the factor y).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ZeroPolynomial
from .poly import BPoly, Factorization, normalize_primitive

__all__ = ["factor_univariate", "factor_binary_form", "rational_roots"]


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


def factor_binary_form(form):
    """Complete irreducible factorization of a nonzero binary form.

    Roots at infinity appear as the factor ``y`` with exponent
    ``n - deg F(t, 1)``.  The factor degrees weighted by exponents sum
    to the form degree.
    """
    if form.is_zero:
        raise ZeroPolynomial("factorization of the zero form")
    n = form.degree
    # dehomogenize: F(t, 1)
    coeffs = [Fraction(0)] * (n + 1)
    for (i, j), c in form.terms.items():
        coeffs[i] = c
    unit, uni_factors = factor_univariate(coeffs)
    factors = []
    covered = 0
    for fac_coeffs, exp in uni_factors:
        fdeg = len(fac_coeffs) - 1
        factor = BPoly({(i, fdeg - i): c for i, c in enumerate(fac_coeffs) if c})
        factors.append((normalize_primitive(factor)[1], exp))
        covered += fdeg * exp
    pad = n - covered
    if pad > 0:
        factors.append((BPoly.monomial(0, 1), pad))
    result = Factorization(unit=unit, factors=tuple(factors), grade="irreducible")
    assert result.reconstruct() == form
    return result


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
