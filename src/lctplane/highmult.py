"""lct at a point of multiplicity d-1 on a reduced degree-d plane curve.

The closed-form fast path: take the squarefree decomposition of the
degree-(d-1) part of f, read as a polynomial in t = y/x with the line
x = 0 at t = infinity (no irreducible factorization, no sympy), and look
for the unique part whose exponent m satisfies 2m > d-1.  Such a part
is automatically linear (exponent times degree is at most d-1), so the
distinguished direction is always rational.
If no such part exists, lct = 2/(d-1); otherwise ``_special_lct`` gives
it, by whether the line is a component of the curve.

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
        fields = (False, Fraction(2, d - 1))
    else:
        (q0, q1), m = special
        if q0 < 0:  # the line with its first nonzero coefficient positive
            q0, q1 = -q0, -q1
        component = _line_divides(q0, q1, f._terms)
        k = m - 1 if component else m
        line = BPoly({(1, 0): q0, (0, 1): q1})
        fields = (True, _special_lct(k, d, component), m, component, k, line)
    return HighMultAnalysis(d, *fields)


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


def _special_lct(k, d, component):
    """The lct with a special line: ``(2k+1)/(kd+1)`` when the line is a
    component of the curve, ``(2k+1)/(kd)`` when it is not."""
    return Fraction(2 * k + 1, k * d + (1 if component else 0))


def _lambda_values(d):
    """The lcts at degree d, each mapped to ``(k, line is a component)``:
    the special-line values, and ``2/(d-1)``, the value with no special
    line, mapped to ``(None, False)``.

    The table has about d entries, so ``d`` above ``parse.MAX_EXPONENT``,
    the largest exponent an input term may carry and the largest degree a
    power may expand to, is refused."""
    if d < 3:
        raise DegreeTooSmall(f"degree must be at least 3, got {d}")
    if d > MAX_EXPONENT:
        raise DegreeOutOfRange(f"degree {d} exceeds the degree limit {MAX_EXPONENT}")
    # k runs over (d-1)//2 .. d-2 for a component, (d+1)//2 .. d-1 otherwise
    values = {
        _special_lct(k, d, c): (k, c) for c in (True, False) for k in range((d + 1) // 2 - c, d - c)
    }
    values[Fraction(2, d - 1)] = (None, False)
    return values


def lambda_set(d):
    """All lcts achieved at multiplicity-(d-1) points of degree-d curves."""
    return tuple(sorted(_lambda_values(d)))


def reducibility_hint(lct, d):
    """True iff lct lies in the (2k+1)/(kd+1) family, forcing the curve
    to be reducible (the special line is then a component)."""
    entry = _lambda_values(d).get(lct)
    if entry is None:
        raise NotInLambdaSet(f"{lct} is not an lct value for degree {d}")
    return entry[1]


def construct_witness(d, target):
    """The paper's reduced degree-d curve with mult d-1 and lct ``target``.

    With ``(k, component) = _lambda_values(d)[target]``: for 2/(d-1), where
    k is None, ``prod_{i=0}^{d-2} (x - i y) + y^d``; for a special value,
    with e = d-1 if the line is a component, else d, ``x g`` or ``g`` for
    ``g = y^e + sum_{i=k}^{e-1} x^i y^(e-1-i)``, whose cone is x^k times a
    form prime to x.

    Reduced: an irreducible h with h^2 | f passes through the origin, or
    f / h^2 would have multiplicity d-1 above its degree.  The 2/(d-1) cone
    is d-1 distinct lines.  g touches both axes, and up to monomials its
    edges carry ``y^(k+1) + x^k`` (coprime exponents) and ``1 + t + ... +
    t^(e-1-k)``, t = y/x (simple roots), so g is Newton non-degenerate and
    its singularity isolated (Kouchnirenko, "Polyedres de Newton et nombres
    de Milnor", Invent. Math. 32, 1976); and x does not divide g, as
    g(0, y) = y^e.  The check below still keeps a wrong witness from
    leaving."""
    values = _lambda_values(d)
    target = Fraction(target)
    entry = values.get(target)
    if entry is None:
        raise TargetNotRealizable(f"{target} is not in the lct value set of degree {d}")
    k, component = entry
    if k is None:
        f = math.prod((X - i * Y for i in range(d - 1)), start=ONE) + Y**d
    else:
        e = d - 1 if component else d
        g = BPoly({**{(i, e - 1 - i): 1 for i in range(k, e)}, (0, e): 1})
        f = X * g if component else g
    if analyze_high_mult(f).lct != target:
        raise TargetNotRealizable(f"the witness {f} misses lct {target} at degree {d}")
    return f
