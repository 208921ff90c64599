"""lct at a point of multiplicity d-1 on a reduced degree-d plane curve.

The closed-form fast path: take the squarefree decomposition of the
degree-(d-1) part of f, read as a polynomial in t = y/x with the line
x = 0 at t = infinity (no irreducible factorization, no sympy), and look
for the unique part whose exponent m satisfies 2m > d-1.  Such a part
is automatically linear (exponent times degree is at most d-1), so the
distinguished direction is always rational.
If no such part exists, lct = 2/(d-1); otherwise the two case
formulas apply according to whether the line is a component of the
curve.

``construct_witness`` realizes each value of ``lambda_set`` by one curve
of the paper's families, proven reduced in its docstring: no search.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import (
    DegreeOutOfRange,
    DegreeTooSmall,
    NotInLambdaSet,
    NotSquareFree,
    NotThroughOrigin,
    TargetNotRealizable,
    WrongMultiplicity,
)
from .factorize import form_lines
from .localinv import is_square_free
from .parse import MAX_EXPONENT
from .poly import ONE, BPoly, X, Y

__all__ = [
    "HighMultAnalysis",
    "analyze_high_mult",
    "lambda_set",
    "construct_witness",
    "reducibility_hint",
]


class HighMultAnalysis(NamedTuple):
    """Full dossier of the multiplicity-(d-1) analysis at the origin."""

    d: int
    has_special_q: bool
    lct: Fraction
    m: Optional[int] = None
    line_is_component: Optional[bool] = None
    k_q: Optional[int] = None
    line: Optional[BPoly] = None


def analyze_high_mult(f):
    """Analyze a square-free curve with mult_0(f) = deg(f) - 1, deg >= 3."""
    d = f.degree
    if not isinstance(d, int) or d < 3:
        raise DegreeTooSmall(f"degree must be at least 3, got {d}")
    if f.coefficient(0, 0) != 0:
        raise NotThroughOrigin("curve does not pass through the origin")
    if f.multiplicity() != d - 1:
        raise WrongMultiplicity(
            f"multiplicity at origin is {f.multiplicity()}, expected {d - 1}"
        )
    if not is_square_free(f):
        raise NotSquareFree("curve must be reduced")

    # m times a part's degree is at most d-1, so a part with 2m > d-1 is linear
    special = next(((q, m) for q, m in form_lines(f._terms, d - 1) if 2 * m > d - 1), None)
    if special is None:
        return HighMultAnalysis(d=d, has_special_q=False, lct=Fraction(2, d - 1))

    (q0, q1), m = special
    if q0 < 0:  # the line with its first nonzero coefficient positive
        q0, q1 = -q0, -q1
    line = BPoly({(1, 0): q0, (0, 1): q1})
    line_is_component = _line_divides(q0, q1, f._terms)
    if line_is_component:
        k_q = m - 1
        lct = Fraction(2 * m - 1, d * (m - 1) + 1)
    else:
        k_q = m
        lct = Fraction(2 * m + 1, d * m)
    return HighMultAnalysis(
        d=d,
        has_special_q=True,
        lct=lct,
        m=m,
        line_is_component=line_is_component,
        k_q=k_q,
        line=line,
    )


def _line_divides(q0, q1, terms):
    """True iff the line q0 x + q1 y divides the polynomial with integer
    term dict ``terms``: iff every homogeneous part vanishes at (q1, -q0).

    The ideal (L) of the line is homogeneous, so f lies in it iff each
    homogeneous part of f does; and a binary form that vanishes at the
    point (q1 : -q0) of P^1 is divisible by the linear form vanishing
    there, which is L up to a unit."""
    parts = {}
    for (i, j), c in terms.items():
        parts[i + j] = parts.get(i + j, 0) + c * q1**i * (-q0) ** j
    return not any(parts.values())


def _special_values(d):
    """The lcts at degree d with a special line, each mapped to
    ``(k, line is a component)``: ``(2k+1)/(kd+1)`` when the line is a
    component of the curve, ``(2k+1)/(kd)`` when it is not.

    The table has about d entries, so ``d`` above ``parse.MAX_EXPONENT``,
    the largest exponent an input term may carry and the largest degree a
    power may expand to, is refused."""
    if d < 3:
        raise DegreeTooSmall(f"degree must be at least 3, got {d}")
    if d > MAX_EXPONENT:
        raise DegreeOutOfRange(f"degree {d} exceeds the degree limit {MAX_EXPONENT}")
    values = {Fraction(2 * k + 1, k * d + 1): (k, True) for k in range((d - 1) // 2, d - 1)}
    values.update({Fraction(2 * k + 1, k * d): (k, False) for k in range((d + 1) // 2, d)})
    return values


def lambda_set(d):
    """All lcts achieved at multiplicity-(d-1) points of degree-d curves:
    ``2/(d-1)`` and the special-line values."""
    values = _special_values(d)
    return tuple(sorted({Fraction(2, d - 1), *values}))


def reducibility_hint(lct, d):
    """True iff lct lies in the (2k+1)/(kd+1) family, forcing the curve
    to be reducible (the special line is then a component)."""
    values = _special_values(d)
    if lct == Fraction(2, d - 1):
        return False
    if lct not in values:
        raise NotInLambdaSet(f"{lct} is not an lct value for degree {d}")
    return values[lct][1]


def construct_witness(d, target):
    """The paper's reduced degree-d curve with mult d-1 and lct ``target``.

    2/(d-1): ``prod_{i=0}^{d-2} (x - i y) + y^d``.  A special value, with
    ``(k, component) = _special_values(d)[target]`` and e = d-1 if the line
    is a component, else d: ``x g`` or ``g`` for ``g = y^e + sum_{i=k}^{e-1}
    x^i y^(e-1-i)``, whose cone is x^k times a form prime to x.

    Reduced: an irreducible h with h^2 | f passes through the origin, or
    f / h^2 would have multiplicity d-1 above its degree.  The 2/(d-1) cone
    is d-1 distinct lines.  g touches both axes, and up to monomials its
    edges carry ``y^(k+1) + x^k`` (coprime exponents) and ``1 + t + ... +
    t^(e-1-k)``, t = y/x (simple roots), so g is Newton non-degenerate and
    its singularity isolated (Kouchnirenko, "Polyedres de Newton et nombres
    de Milnor", Invent. Math. 32, 1976); and x does not divide g, as
    g(0, y) = y^e.  The check below still keeps a wrong witness from
    leaving."""
    values = _special_values(d)
    target = Fraction(target)
    if target == Fraction(2, d - 1):
        f = math.prod((X - i * Y for i in range(d - 1)), start=ONE) + Y**d
    elif target not in values:
        raise TargetNotRealizable(f"{target} is not in the lct value set of degree {d}")
    else:
        k, component = values[target]
        e = d - 1 if component else d
        g = BPoly({**{(i, e - 1 - i): 1 for i in range(k, e)}, (0, e): 1})
        f = X * g if component else g
    if analyze_high_mult(f).lct != target:
        raise TargetNotRealizable(f"the witness {f} misses lct {target} at degree {d}")
    return f
