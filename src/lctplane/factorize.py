"""Factorization over the rationals: squarefree parts, without sympy, and
irreducible univariate factors where irreducibility matters.

Everything here runs on integer polynomials: a factorization over Q is
one over Z up to a rational unit, so a ``BPoly``'s integer numerators are
factored as they are.  ``form_coeffs`` reads a homogeneous part of the
numerators, such as a tangent cone, as a coefficient list in t = y/x, and
``squarefree_parts`` is Yun's algorithm on such a list.  Every lct route
reads its repeated directions through Yun's parts; the resolution builds
its cone lists, and ``localinv.newton_lct`` its edge polynomials, off a
Newton boundary, the closed form through ``form_lines``.  Irreducible
factors (``factor_univariate``, sympy's exact Zassenhaus-based
``dup_factor_list``, imported on first use) are needed only by the
resolution, for a repeated part of degree >= 2 on an exceptional divisor.
"""

from __future__ import annotations

import math

from .errors import ZeroPolynomial
from .poly import _derivative, coprime_univariate

__all__ = [
    "factor_univariate",
    "form_coeffs",
    "form_lines",
    "squarefree_parts",
]


def factor_univariate(coeffs):
    """Factor a univariate integer polynomial into irreducibles.

    ``coeffs`` is an integer coefficient list (index = degree, no zero last
    entry).  Returns ``(unit, [(factor_coeffs, exponent), ...])`` with
    primitive integer factors, positive leading coefficients, such that
    ``unit * prod(factor ** exponent)`` equals the input exactly.
    """
    from sympy.polys.domains import ZZ
    from sympy.polys.factortools import dup_factor_list

    if not coeffs:
        raise ZeroPolynomial("factorization of the zero polynomial")
    # over ZZ, sympy returns primitive factors with positive leading coefficients
    content, factor_list = dup_factor_list([ZZ(c) for c in reversed(coeffs)], ZZ)
    return int(content), [([int(c) for c in reversed(fac)], exp) for fac, exp in factor_list]


def form_coeffs(terms, k):
    """The degree-``k`` part of the integer term dict ``terms`` as a
    coefficient list in t = y/x: entry j is the coefficient of
    x^(k-j) y^j, the last entry is nonzero, and a zero part is ``[]``.

    The form's lines are read by ``form_lines``."""
    coeffs = [0] * (k + 1)
    for (i, j), c in terms.items():
        if i + j == k:
            coeffs[j] = c
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def form_lines(terms, k):
    """The lines of the degree-``k`` part of ``terms`` (``form_coeffs``) as
    ``(part, multiplicity)``, over the algebraic closure: first the line
    x = 0, at t = infinity, as ``[1, 0]`` when the form vanishes there, then
    the squarefree parts of the form in t, a part of degree g being g
    lines, and a linear part ``[q0, q1]`` the line q0 x + q1 y."""
    coeffs = form_coeffs(terms, k)
    at_infinity = [([1, 0], k + 1 - len(coeffs))] if len(coeffs) <= k else []
    return at_infinity + squarefree_parts(coeffs)


def _primitive(a):
    """A nonzero integer list over its content, with a positive last entry."""
    g = math.gcd(*a)
    return [c // (g if a[-1] > 0 else -g) for c in a]


def _quo(a, b):
    """``a / b`` for integer coefficient lists, exact when ``b`` is primitive
    and divides ``a`` over Q (then it divides in Z[t], by Gauss's lemma)."""
    a = list(a)
    db, lead = len(b) - 1, b[-1]
    quot = [0] * max(len(a) - db, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = quot[k] = a[k + db] // lead
        if c:
            for i, bc in enumerate(b):
                a[k + i] -= c * bc
    return quot


def _gcd(a, b):
    """The primitive gcd of integer coefficient lists, ``a`` nonzero:
    Euclid on pseudo-remainders, each cut to its primitive part."""
    while b:
        n, lead = len(b) - 1, b[-1]
        while len(a) > n:  # a <- lead * a - top(a) * t^k * b drops deg a
            c, shifted = a[-1], [0] * (len(a) - 1 - n) + b
            a = [lead * x - c * y for x, y in zip(a, shifted)][:-1]
            while a and not a[-1]:
                a.pop()
        a, b = b, _primitive(a) if a else a
    return _primitive(a)


def squarefree_parts(f):
    """Yun's squarefree decomposition over Q of an integer coefficient list
    ``f`` (index = degree, nonzero last entry): the nonconstant parts
    ``a_i``, primitive with positive leading coefficients, squarefree and
    pairwise coprime, with ``f = c * prod(a_i ** i)`` for an integer ``c``,
    as ``(a_i, i)`` in increasing ``i``.  It runs on integer multiples of the
    polynomials, which Yun's recurrences allow; a factor ``t`` is a part like
    any other."""
    if len(f) < 2:
        return []
    df = _derivative(f)
    if coprime_univariate(f, df):  # squarefree: no Euclid
        return [(_primitive(f), 1)]
    g = _gcd(f, df)
    b, c = _quo(f, g), _quo(df, g)
    parts, i = [], 1
    while len(b) > 1:
        # c and b' have the same length; d is zero or keeps its top term
        d = [ci - bi for ci, bi in zip(c, _derivative(b))]
        if not d[-1]:
            d = []
        a = _gcd(b, d)
        if len(a) > 1:
            parts.append((a, i))
        b, c = _quo(b, a), _quo(d, a)
        i += 1
    return parts
