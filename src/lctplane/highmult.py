"""lct at a point of multiplicity d-1 on a reduced degree-d plane curve.

The closed-form fast path: factor the degree-(d-1) part of f as a binary
form and look for the unique factor whose exponent m satisfies
2m > d-1.  Such a factor is automatically linear (exponent times degree
is at most d-1), so the distinguished direction is always rational.
If no such factor exists, lct = 2/(d-1); otherwise the two case
formulas apply according to whether the line is a component of the
curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    DegreeOutOfRange,
    DegreeTooSmall,
    NotInLambdaSet,
    NotSquareFree,
    NotThroughOrigin,
    TargetNotRealizable,
    WrongMultiplicity,
)
from .factorize import factor_binary_form
from .localinv import is_square_free
from .parse import MAX_EXPONENT
from .poly import BPoly, X, Y, divides

__all__ = [
    "HighMultAnalysis",
    "analyze_high_mult",
    "lambda_set",
    "construct_witness",
    "reducibility_hint",
]


@dataclass(frozen=True)
class HighMultAnalysis:
    """Full dossier of the multiplicity-(d-1) analysis at the origin."""

    d: int
    has_special_q: bool
    lct: Fraction
    m: Optional[int] = None
    line_is_component: Optional[bool] = None
    k_q: Optional[int] = None
    l_q: Optional[Fraction] = None
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

    cone = f.homogeneous_part(d - 1)
    special = None
    for factor, exp in factor_binary_form(cone).factors:
        if 2 * exp > d - 1:
            # exponent * degree <= d-1 forces degree 1
            assert factor.degree == 1, "special factor must be linear"
            special = (factor, exp)
            break
    if special is None:
        return HighMultAnalysis(d=d, has_special_q=False, lct=Fraction(2, d - 1))

    line, m = special
    line_is_component = divides(line, f)
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
        l_q=lct,
        line=line,
    )


def lambda_set(d):
    """All lcts achieved at multiplicity-(d-1) points of degree-d curves.

    The set has about d values, so ``d`` above ``parse.MAX_EXPONENT``, the
    largest degree an input polynomial may have, is refused."""
    if d < 3:
        raise DegreeTooSmall(f"degree must be at least 3, got {d}")
    if d > MAX_EXPONENT:
        raise DegreeOutOfRange(f"degree {d} exceeds the degree limit {MAX_EXPONENT}")
    values = {Fraction(2, d - 1)}
    for k in range((d - 1) // 2, d - 1):
        values.add(Fraction(2 * k + 1, k * d + 1))
    for k in range((d + 1) // 2, d):
        values.add(Fraction(2 * k + 1, k * d))
    return tuple(sorted(values))


def reducibility_hint(lct, d):
    """True iff lct lies in the (2k+1)/(kd+1) family, forcing the curve
    to be reducible (the special line is then a component)."""
    if d < 3:
        raise DegreeTooSmall(f"degree must be at least 3, got {d}")
    if lct not in lambda_set(d):
        raise NotInLambdaSet(f"{lct} is not an lct value for degree {d}")
    for k in range((d - 1) // 2, d - 1):
        if lct == Fraction(2 * k + 1, k * d + 1):
            return True
    return False


def _tail_form(low_exp, high_exp, var_mix_degree):
    """Binary form sum_{i=low..high} x^i y^(deg - i); its cofactor after
    pulling x^low has only simple roots, all nonzero."""
    terms = {}
    for i in range(low_exp, high_exp + 1):
        terms[(i, var_mix_degree - i)] = Fraction(1)
    return BPoly(terms)


def construct_witness(d, target):
    """A square-free degree-d witness with mult d-1 and the target lct."""
    if d < 3:
        raise DegreeTooSmall(f"degree must be at least 3, got {d}")
    target = Fraction(target)
    if target not in lambda_set(d):
        raise TargetNotRealizable(f"{target} is not in the lct value set of degree {d}")

    candidates = []
    if target == Fraction(2, d - 1):
        # squarefree tangent cone: product of d-1 distinct rational lines
        cone = BPoly.constant(1)
        for i in range(d - 1):
            cone = cone * (X - i * Y)
        candidates = [cone + Y**d, cone + X**d, cone + X**d + Y**d]
    else:
        component_k = None
        plain_k = None
        for k in range((d - 1) // 2, d - 1):
            if target == Fraction(2 * k + 1, k * d + 1):
                component_k = k
        for k in range((d + 1) // 2, d):
            if target == Fraction(2 * k + 1, k * d):
                plain_k = k
        if component_k is not None:
            k = component_k
            base = X * _tail_form(k, d - 2, d - 2)
            candidates = [
                base + X * Y ** (d - 1),
                base + X * (Y ** (d - 1) + X ** (d - 1)),
                base + X * (Y ** (d - 1) + X ** (d - 2) * Y),
            ]
        else:
            k = plain_k
            base = _tail_form(k, d - 1, d - 1)
            candidates = [
                base + Y**d,
                base + Y**d + X**d,
                base + Y**d + X ** (d - 1) * Y,
            ]

    for f in candidates:
        try:
            if analyze_high_mult(f).lct == target:
                return f
        except NotSquareFree:
            continue
    raise TargetNotRealizable(
        f"no square-free witness found for lct {target} at degree {d}"
    )
