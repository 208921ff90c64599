"""Embedded resolution of a plane curve germ by iterated point blowups.

Independent lct oracle: blow up every point over the origin where the
total transform of the curve plus the exceptional divisors fails to be
simple normal crossings, maintaining the standard recurrences

    m_new = mult(strict transform at center) + sum of incident m,
    a_new = 1 + sum of incident a,

and read off lct = min(1, min (a_E + 1) / m_E).

All blowup centers must be rational points; a required center that is a
root of a nonlinear irreducible polynomial raises ``IrrationalCenter``
(first-class, documented failure, never silent).  After each blowup the
only points that can violate snc lie on the newest exceptional divisor
E_new: the repeated roots of the curve restricted to E_new, and the root
t = 0 where a kept divisor meets E_new.  That restriction is the tangent
cone, the terms of least degree mu, read as a polynomial in t = y/x
(``form_coeffs``).  A monomial cone ``c x^(mu-j) y^j`` decides from j
alone: t = 0 is a center when j >= 2, or when j = 1 and a kept divisor
runs along ``y = 0``.  Any other cone is read from its Yun parts, and
only a repeated part of degree >= 2 is factored (``factor_univariate``).

Every old divisor through a center is a coordinate axis of the center's
chart, so a center carries at most two of them, one per axis.  Chart 1,
``(u, v) -> (u, u v)``, keeps the divisor along ``y = 0`` as ``y = 0``,
meeting E_new = {u = 0} at t = 0, and loses the one along ``x = 0``;
chart 2, ``(u, v) -> (u v, v)``, keeps the divisor along ``x = 0``,
meeting E_new = {v = 0} at t = infinity, and loses the one along
``y = 0``.  Chart 1, which holds every finite point of E_new, is built
only when E_new has a finite center; chart 2 only when t = infinity is a
center.  Centers are visited depth first, the points of each E_new in
the order rational t ascending, then infinity, so the divisor numbering
is the same in every process.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .errors import (
    IncompleteTree,
    IrrationalCenter,
    NotSquareFree,
    NotThroughOrigin,
    ResolutionCap,
    ZeroPolynomial,
)
from .factorize import factor_univariate, form_coeffs, squarefree_parts
from .localinv import is_square_free
from .poly import BPoly, _reduced

__all__ = [
    "ExcDivisor",
    "ChartPoint",
    "BlowupNode",
    "ResolutionTree",
    "resolve_over_origin",
    "lct_from_tree",
    "log_pullback_coefficients",
    "export_tree",
]

DEFAULT_CAP = 64
_ZERO = Fraction(0)  # shared by every center location


class ExcDivisor(NamedTuple):
    """One exceptional divisor with curve order m and discrepancy a."""

    id: int
    m: int
    a: int

    @property
    def candidate(self):
        return Fraction(self.a + 1, self.m)


class ChartPoint(NamedTuple):
    """A blowup center: local chart, location, incident divisors, and the
    local strict-transform equation (center translated to the origin).

    A center on E_k lies in chart ``("u<k>", "v<k>")`` at ``(0, t)`` for
    a finite t, or in chart ``("s<k>", "w<k>")`` at ``(0, 0)`` for
    t = infinity, so ``(chart, location)`` names one point of E_k."""

    chart: tuple
    location: tuple
    incident: frozenset
    local_equation: BPoly


class BlowupNode(NamedTuple):
    divisor: ExcDivisor
    parent: Optional[int]
    center: ChartPoint


class ResolutionTree(NamedTuple):
    """Ledger of all blowups performed over the origin; divisor k is
    ``nodes[k - 1]``."""

    input: BPoly
    nodes: Sequence = ()
    complete: bool = False

    def divisors(self):
        return [node.divisor for node in self.nodes]


def _strict(f, m, chart):
    """Strict transform of ``f``, of multiplicity ``m`` at the origin, in
    chart 1 or 2 of the point blowup.

    Each chart is an exponent relabelling that divides out the exceptional
    power ``m``: chart 1, ``(x, y) -> (x, x*y)`` with exceptional divisor
    ``x = 0``, sends ``x^i y^j`` to ``x^(i+j-m) y^j``; chart 2,
    ``(x, y) -> (x*y, y)`` with exceptional divisor ``y = 0``, sends it to
    ``x^i y^(i+j-m)``.  Both maps are injective on exponents, so the
    numerators over ``f._den`` stay in lowest terms with no gcd pass, and
    ``i + j >= m`` keeps exponents non-negative."""
    if chart == 1:
        return _reduced({(i + j - m, j): c for (i, j), c in f._terms.items()}, f._den)
    return _reduced({(i, i + j - m): c for (i, j), c in f._terms.items()}, f._den)


def _poly_text(coeffs):
    poly = BPoly({(i, 0): c for i, c in enumerate(coeffs) if c})
    return poly.render().replace("x", "t")


def _centers_on(ph, t0_kept):
    """The points t of E_new to blow up, from the curve ``ph`` restricted to
    E_new (an integer coefficient list in t): every repeated root, and t = 0
    if it is a root and ``t0_kept``.  A repeated irrational root raises
    ``IrrationalCenter`` naming its factor of least degree, then exponent."""
    centers = {_ZERO} if t0_kept and not ph[0] else set()
    irrational = []
    for part, exp in squarefree_parts(ph):
        if exp == 1:
            continue
        # a linear part is its own factor; only a longer one needs sympy
        factors = [(part, 1)] if len(part) == 2 else factor_univariate(part)[1]
        for q, _ in factors:
            if len(q) == 2:
                centers.add(Fraction(-q[0], q[1]))
            else:
                irrational.append((q, exp))
    if irrational:
        q, _ = min(irrational, key=lambda qe: (len(qe[0]), qe[1]))
        raise IrrationalCenter(_poly_text(q))
    return sorted(centers)


def resolve_over_origin(f, cap=DEFAULT_CAP):
    """Log resolution of the germ of f over the origin; returns the tree."""
    if f.is_zero:
        raise ZeroPolynomial("cannot resolve the zero polynomial")
    if f.coefficient(0, 0) != 0:
        raise NotThroughOrigin("curve does not pass through the origin")
    if not is_square_free(f):
        raise NotSquareFree("curve must be reduced")
    return ResolutionTree(f, _blowups(f, cap), True)


def _blowups(f, cap):
    """The ledger's nodes for the reduced f through the origin: the blowup
    loop of ``resolve_over_origin``, which checks its preconditions."""
    nodes = []
    if f.multiplicity() <= 1:
        return nodes  # smooth germ, nothing to do

    # each pending center is (curve, on_x, on_y, parent, chart, location):
    # the local strict transform with the center at the origin, the old
    # divisors through it along x = 0 and along y = 0 (or None), the id of
    # the divisor it lies on, and its place on that divisor
    stack = [(f, None, None, None, ("x", "y"), (0, 0))]

    while stack:
        if len(nodes) >= cap:
            raise ResolutionCap(f"more than {cap} blowups; cap exceeded")
        curve, on_x, on_y, parent, chart, location = stack.pop()
        mu = curve.multiplicity()
        m, a, incident = mu, 1, ()
        if on_x is not None:
            m, a, incident = m + on_x.m, a + on_x.a, (on_x.id,)
        if on_y is not None:
            m, a, incident = m + on_y.m, a + on_y.a, (*incident, on_y.id)
        k = len(nodes) + 1
        divisor = ExcDivisor(k, m, a)
        center = ChartPoint(chart, location, frozenset(incident), curve)
        nodes.append(BlowupNode(divisor, parent, center))

        # the curve on E_new, in the coordinate t of chart 1, is its tangent cone
        ph = form_coeffs(curve._terms, mu)
        j = len(ph) - 1
        if ph.count(0) == j:  # a monomial cone c t^j: t = 0 is the only root
            centers = [_ZERO] if j >= 2 or (j == 1 and on_y is not None) else []
        else:
            centers = _centers_on(ph, on_y is not None)
        # chart 1: (u, v) -> (u, u v), E_new = {u = 0}, on which v is the
        # coordinate t, built only for a finite center; chart 2:
        # (u, v) -> (u v, v), E_new = {v = 0}, whose origin is t = infinity
        strict1 = _strict(curve, mu, 1) if centers else None
        pending = [
            (
                strict1.translate((0, t0)) if t0 else strict1, divisor, None if t0 else on_y,
                k, (f"u{k}", f"v{k}"), (_ZERO, t0),
            )
            for t0 in centers
        ]
        inf_exp = mu - j  # curve multiplicity at t = infinity
        if inf_exp >= 2 or (inf_exp == 1 and on_x is not None):
            pending.append(
                (_strict(curve, mu, 2), on_x, divisor, k, (f"s{k}", f"w{k}"), (_ZERO, _ZERO))
            )
        stack.extend(reversed(pending))  # visit t ascending, infinity last

    return nodes


def lct_from_tree(tree):
    """lct at the origin: min(1, min over divisors of (a + 1) / m), the
    candidates compared as integer cross products."""
    if not tree.complete:
        raise IncompleteTree("resolution has pending centers")
    num, den = 1, 1
    for _, m, a in tree.divisors():
        if (a + 1) * den < num * m:
            num, den = a + 1, m
    return Fraction(num, den)


def _candidate_text(div):
    """``str(div.candidate)``, without building the ``Fraction``."""
    g = math.gcd(div.a + 1, div.m)
    return f"{(div.a + 1) // g}/{div.m // g}" if div.m != g else str((div.a + 1) // g)


def log_pullback_coefficients(tree, lam):
    """Coefficient of each exceptional divisor in the log pullback of
    lambda times the curve: lambda * m_E - a_E."""
    if not tree.complete:
        raise IncompleteTree("resolution has pending centers")
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("lambda must be positive")
    return {div.id: lam * div.m - div.a for div in tree.divisors()}


def export_tree(tree, fmt="json"):
    """Serialize the tree as DOT or JSON (rationals rendered 'p/q')."""
    if fmt == "json":
        payload = {
            "input": tree.input.render(),
            "divisors": [
                {
                    "id": node.divisor.id,
                    "parent": node.parent,
                    "m": node.divisor.m,
                    "a": node.divisor.a,
                    "candidate": _candidate_text(node.divisor),
                }
                for node in tree.nodes
            ],
            "lct": str(lct_from_tree(tree)),
        }
        return json.dumps(payload)
    if fmt == "dot":
        lines = ["digraph resolution {"]
        for node in tree.nodes:
            div = node.divisor
            lines.append(
                f'  E{div.id} [label="E{div.id} m={div.m} a={div.a} '
                f'cand={_candidate_text(div)}"];'
            )
        for node in tree.nodes:
            if node.parent is not None:
                lines.append(f"  E{node.parent} -> E{node.divisor.id};")
        lines.append("}")
        return "\n".join(lines)
    raise ValueError(f"unknown export format {fmt!r}")
