"""The lct dispatcher: off the curve, smooth, the closed form at
multiplicity-(d-1) points, and the Newton polygon in adapted coordinates
for every other germ, tried in that order."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import ZeroPolynomial
from .extended import INF
from .highmult import analyze_high_mult
from .localinv import newton_lct

__all__ = ["LctResult", "lct"]


class LctResult(NamedTuple):
    """An lct and the route that gave it: ``"trivial"`` (off the curve or
    smooth), ``"highmult"`` or ``"newton"``."""

    value: Fraction
    method: str


def lct(f):
    """lct of the germ of f at the origin, by the first route that applies;
    at a rational point p, call ``lct(f.translate(p))``.

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
