"""The lct dispatcher: off the curve, smooth, the closed form at
multiplicity-(d-1) points, and the Newton polygon in adapted coordinates
for every other germ, tried in that order."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import DegreeOutOfRange, NotSquareFree, ZeroPolynomial
from .extended import INF
from .highmult import analyze_high_mult
from .localinv import is_square_free, newton_lct

__all__ = ["LctResult", "lct", "lct_low_degree"]


class LctResult(NamedTuple):
    """An lct and the route that gave it: ``"trivial"`` (off the curve or
    smooth), ``"highmult"`` or ``"newton"``."""

    value: Fraction
    method: str


def lct(f):
    """lct of the germ of f at the origin, by the first route that applies.

    The off-curve answer ``INF`` and the smooth answer 1 hold for any
    curve, so they do not check that f is reduced.  A singular germ goes
    to the closed form when its multiplicity is deg(f) - 1, else to
    ``newton_lct``, whatever its degree; both refuse a non-reduced curve
    with ``NotSquareFree``.
    """
    if f.is_zero:
        raise ZeroPolynomial("curve is the zero polynomial")
    if f.coefficient(0, 0) != 0:
        return LctResult(INF, "trivial")
    mult = f.multiplicity()
    if mult == 1:
        return LctResult(Fraction(1), "trivial")
    # mult >= 2 here, so the closed form gets the degree >= 3 it needs
    if mult == f.degree - 1:
        return LctResult(analyze_high_mult(f).lct, "highmult")
    return LctResult(newton_lct(f), "newton")


def lct_low_degree(f, p=(0, 0)):
    """lct of a reduced curve of degree <= 5 at a rational point.

    Returns ``INF`` when the point is not on the curve (convention) and
    1 at smooth points.
    """
    if f.is_zero:
        raise ZeroPolynomial("cannot analyze the zero polynomial")
    if not 1 <= f.degree <= 5:
        raise DegreeOutOfRange(f"reduced curves of degree 1..5 only, got {f.degree}")
    result = lct(f.translate(p))
    # the singular routes have already refused a non-reduced curve
    if result.method == "trivial" and not is_square_free(f):
        raise NotSquareFree("curve must be reduced")
    return result.value
