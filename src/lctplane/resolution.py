"""Embedded resolution of a plane curve germ by iterated point blowups.

Independent lct oracle: blow up every point over the origin where the
total transform of the curve plus the exceptional divisors fails to be
simple normal crossings, maintaining the standard recurrences

    m_new = mult(strict transform at center) + sum of incident m,
    a_new = 1 + sum of incident a,

and read off lct = min(1, min (a_E + 1) / m_E).  ``resolve_over_origin``
returns its tree only whole: a center past the cap raises
``ResolutionCap``.

All blowup centers must be rational points; a required center that is a
root of a nonlinear irreducible polynomial raises ``IrrationalCenter``
(first-class, documented failure, never silent).  After each blowup the
only points that can violate snc lie on the newest exceptional divisor
E_new: the repeated roots of the curve restricted to E_new, and the root
t = 0 where a kept divisor meets E_new.  That restriction is the tangent
cone, the terms of least degree mu, read as a polynomial in t = y/x.  A
monomial cone ``c x^(mu-j) y^j`` decides from j alone: t = 0 is a center
when j >= 2, or when j = 1 and a kept divisor runs along ``y = 0``.  Any
other cone is read from its Yun parts, and only a repeated part of
degree >= 2 is factored (``factor_univariate``).

Every old divisor through a center is a coordinate axis of the center's
chart, so a center carries at most two of them, one per axis.  Chart 1,
``(u, v) -> (u, u v)``, keeps the divisor along ``y = 0`` as ``y = 0``,
meeting E_new = {u = 0} at t = 0, and loses the one along ``x = 0``;
chart 2, ``(u, v) -> (u v, v)``, keeps the divisor along ``x = 0``,
meeting E_new = {v = 0} at t = infinity, and loses the one along
``y = 0``.  Each center records its place on the divisor it lies on as
``ChartPoint.t``, a rational t or ``INF``.  Centers are visited depth
first, the points of each E_new in the order rational t ascending, then
infinity, so the divisor numbering is the same in every process.

Both charts at a center on an axis only relabel exponents: chart 1 sends
``x^i y^j`` to ``x^(i+j-mu) y^j`` and chart 2 to ``x^i y^(i+j-mu)``.  So
a center's local equation is kept as a base polynomial, the last one the
loop built, and an affine exponent map ``(i, j) -> (p i + q j + b0,
r i + s j + b1)`` with ``[[p, q], [r, s]]`` in SL2(N) (``_relabel``);
both charts compose into the map, and only a center at t != 0, reached
by a Taylor shift, builds a new base.  Under the map the total degree of
a base term is ``(p + r) i + (q + s) j + b0 + b1``, with both weights
positive, so mu and the tangent cone lie on the Newton boundary of the
base, read once per base, when the base is built
(``poly._newton_boundary``): mu is least over its vertices, and the cone is
one vertex's term, or, when two vertices tie, every base term on their
edge (``poly._face``).  A local equation is built only when
``ChartPoint.local_equation`` is read.

A center whose cone is one vertex V = (i0, j0) of the base's boundary and
which has exactly one center after it, at t = 0 by chart 1 or at
t = infinity by chart 2, starts a run, a chain of satellite points
(Casas-Alvero, *Singularities of Plane Curves*, 2000).  Each further step
of that chart adds the same vector to the weights, ``(r, s)`` in chart 1
and ``(p, q)`` in chart 2, so with A = w.(N - V) and B = step.(N - V) for
each boundary neighbour N of V, V stays the whole cone of the next n
centers, n the least ``(A - 1) // -B`` over the neighbours with B < 0 (no
such neighbour: the cap ends the run).  That is Euclid's quotient: the
run and the center ending it are the ``b // a`` chart-2 centers after the
root of ``x^a + y^b``, the first partial quotient of the edge slope's
continued fraction, as in a toric modification (Oka, *Non-degenerate
complete intersection singularity*, 1997).  Along the run mu is constant,
``r i0 + s j0 + b1`` in chart 1 and ``p i0 + q j0 + b0`` in chart 2, and
one old divisor stays kept, so m and a are arithmetic progressions, each
step adding mu plus that divisor's m to m, and 1 plus its a to a; each
emap is the chart map of the one before it.  The loop writes the run's
nodes in one step, without reading a face or pushing a center, and the
center after the run goes back through the general step.  The cap still
counts nodes, one per blowup.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .errors import IrrationalCenter, NotSquareFree, PreconditionError, ResolutionCap
from .extended import INF
from .factorize import factor_univariate, form_coeffs, squarefree_parts
from .localinv import _check_germ, is_square_free
from .poly import BPoly, _face, _newton_boundary, _reduced

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
_ZERO = Fraction(0)  # the place t = 0 of every center there
_IDENTITY = (1, 0, 0, 1, 0, 0)  # the exponent map of a base just built
_new = tuple.__new__


class ExcDivisor(NamedTuple):
    """One exceptional divisor with curve order m and discrepancy a."""

    id: int
    m: int
    a: int


class ChartPoint(NamedTuple):
    """A blowup center: its place, incident divisors, and the local
    strict-transform equation (center translated to the origin).

    ``t`` is the center's coordinate on the divisor it lies on, its node's
    ``parent`` E_k: a ``Fraction`` t = y/x, or ``INF`` for t = infinity;
    ``None`` at the root, which lies on no divisor.

    The local equation is stored as ``base``, the polynomial last built on
    the way to this center (the input, or the strict transform shifted to
    the latest center at t != 0), and ``emap``, the exponent map
    ``(p, q, r, s, b0, b1)``, ``(i, j) -> (p i + q j + b0, r i + s j + b1)``,
    of the blowups at t = 0 and t = infinity since; reading
    ``local_equation`` builds it, each time it is read."""

    t: object
    incident: frozenset
    base: BPoly
    emap: tuple

    @property
    def local_equation(self):
        return _relabel(self.base, self.emap)


class BlowupNode(NamedTuple):
    divisor: ExcDivisor
    parent: Optional[int]
    center: ChartPoint


class ResolutionTree(NamedTuple):
    """Ledger of all blowups performed over the origin, the tree
    ``resolve_over_origin`` returns, always whole; a cap that is too small
    raises.  Divisor k is ``nodes[k - 1]``."""

    input: BPoly
    nodes: Sequence

    def divisors(self):
        return [node.divisor for node in self.nodes]


def _relabel(base, emap):
    """``base`` with each exponent ``(i, j)`` sent to ``emap``'s image
    ``(p i + q j + b0, r i + s j + b1)``.

    The map is injective on exponents (its matrix has determinant 1), so
    the numerators over ``base._den`` stay in lowest terms with no gcd
    pass; the charts keep every image exponent non-negative."""
    p, q, r, s, b0, b1 = emap
    return _reduced(
        {(p * i + q * j + b0, r * i + s * j + b1): c for (i, j), c in base._terms.items()},
        base._den,
    )


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
    """Log resolution of the germ of f over the origin: the tree whose
    nodes are every blowup the loop makes, at most ``cap`` of them.

    ``cap`` must be at least 0, checked first, and f nonzero, through the
    origin and reduced, each checked once, here; a smooth germ needs no
    blowup.  A center past the cap raises ``ResolutionCap``, and a repeated
    irrational root of a cone raises ``IrrationalCenter`` (``_centers_on``)."""
    if cap < 0:
        raise PreconditionError(f"cap must be at least 0, got {cap}")
    _check_germ(f, "cannot resolve the zero polynomial")
    if not is_square_free(f):
        raise NotSquareFree("curve must be reduced")
    nodes = []
    if f.multiplicity() <= 1:
        return ResolutionTree(f, nodes)  # smooth germ, nothing to do

    # each pending center is (base, hull, emap, on_x, on_y, parent, t): the
    # local strict transform with the center at the origin, as a base
    # polynomial, its Newton boundary, read when the base is built, and an
    # exponent map; the old divisors through it along x = 0 and along y = 0
    # (or None), the id of the divisor it lies on, and its place t there
    stack = [(f, _newton_boundary(f._terms), _IDENTITY, None, None, None, None)]

    while stack:
        if len(nodes) >= cap:
            raise ResolutionCap(f"more than {cap} blowups; cap exceeded")
        base, hull, emap, on_x, on_y, parent, t = stack.pop()
        p, q, r, s, b0, b1 = emap
        # a base term (i, j) has total degree w1 i + w2 j + b0 + b1 in the
        # local equation, so the tangent cone is the base's face of least w
        w1, w2 = p + r, q + s
        low, face = _face(base._terms, hull, w1, w2)
        mu = low + b0 + b1
        m, a, incident = mu, 1, ()
        if on_x is not None:
            m, a, incident = m + on_x.m, a + on_x.a, (on_x.id,)
        if on_y is not None:
            m, a, incident = m + on_y.m, a + on_y.a, (*incident, on_y.id)
        k = len(nodes) + 1
        divisor = ExcDivisor(k, m, a)
        center = ChartPoint(t, frozenset(incident), base, emap)
        nodes.append(BlowupNode(divisor, parent, center))

        # the curve on E_new, in the coordinate t of chart 1, is the cone:
        # base term (i, j) lands at x^(mu - e) y^e, e = r i + s j + b1
        if len(face) == 1:  # a monomial cone c t^e: t = 0 is the only root
            (i0, j0), = face
            e = r * i0 + s * j0 + b1
            at_zero = e >= 2 or (e == 1 and on_y is not None)
            centers = [_ZERO] if at_zero else []
        else:
            local = {(p * i + q * j + b0, r * i + s * j + b1): base._terms[i, j] for i, j in face}
            ph = form_coeffs(local, mu)
            e = len(ph) - 1
            centers = _centers_on(ph, on_y is not None)
        # the curve's multiplicity at t = infinity is mu - e
        at_inf = mu - e >= 2 or (mu - e == 1 and on_x is not None)
        if len(face) == 1 and at_zero is not at_inf:
            # a run (module docstring): V = (i0, j0) stays the whole cone at
            # the next n centers of this chart, each on the last one's
            # divisor; their nodes are written here in one step
            dw1, dw2 = (r, s) if at_zero else (p, q)
            n = cap  # no neighbour overtakes V: the cap ends the run
            vi = hull.index((i0, j0))
            for i, j in hull[max(vi - 1, 0):vi + 2]:
                di, dj = i - i0, j - j0
                step = dw1 * di + dw2 * dj
                if step < 0:
                    n = min(n, (w1 * di + w2 * dj - 1) // -step)
            fixed = on_y if at_zero else on_x
            # each step adds the run's mu plus the kept divisor's m to m
            dm, da, ids = (e if at_zero else mu - e), 1, ()
            if fixed is not None:
                dm, da, ids = dm + fixed.m, da + fixed.a, (fixed.id,)
            t = _ZERO if at_zero else INF
            stop = k + min(n, cap - k)  # cut by the cap: the next check raises
            while True:  # each center's emap is the chart map of the last
                if at_zero:
                    p, q = p + r, q + s
                    emap = (p, q, r, s, -p * i0 - q * j0, b1)
                else:
                    r, s = r + p, s + q
                    emap = (p, q, r, s, b0, -r * i0 - s * j0)
                if k == stop:
                    break
                k, m, a = k + 1, m + dm, a + da
                divisor = ExcDivisor(k, m, a)
                # the node and its center as the tuples their classes build,
                # without a Python-level __new__ call each
                center = _new(ChartPoint, (t, frozenset((k - 1,) + ids), base, emap))
                nodes.append(_new(BlowupNode, (divisor, k - 1, center)))
            # the center after the run goes through the general step
            entry = (divisor, on_y) if at_zero else (on_x, divisor)
            stack.append((base, hull, emap, *entry, k, t))
            continue
        # chart 1: (u, v) -> (u, u v), E_new = {u = 0}, on which v is the
        # coordinate t; chart 2: (u, v) -> (u v, v), E_new = {v = 0}, whose
        # origin is t = infinity.  Both compose with emap; only a center at
        # t != 0 builds its strict transform, shifted there, as a new base
        chart1 = (w1, w2, r, s, -low, b1)
        strict1 = None
        pending = []
        for t0 in centers:
            if t0:
                if strict1 is None:
                    strict1 = _relabel(base, chart1)
                shifted = strict1.translate((0, t0))
                entry = (shifted, _newton_boundary(shifted._terms), _IDENTITY, divisor, None)
            else:
                entry = (base, hull, chart1, divisor, on_y)
            pending.append((*entry, k, t0))
        if at_inf:
            pending.append((base, hull, (p, q, w1, w2, b0, -low), on_x, divisor, k, INF))
        stack.extend(reversed(pending))  # visit t ascending, infinity last

    return ResolutionTree(f, nodes)


def lct_from_tree(tree):
    """lct at the origin of a tree ``resolve_over_origin`` returned:
    min(1, min over divisors of (a + 1) / m), the candidates compared as
    integer cross products."""
    num, den = 1, 1
    for _, m, a in tree.divisors():
        if (a + 1) * den < num * m:
            num, den = a + 1, m
    return Fraction(num, den)


def _candidate_text(div):
    """The divisor's candidate (a + 1) / m as ``str`` writes its
    ``Fraction``, without building one."""
    g = math.gcd(div.a + 1, div.m)
    return f"{(div.a + 1) // g}/{div.m // g}" if div.m != g else str((div.a + 1) // g)


def log_pullback_coefficients(tree, lam):
    """Coefficient of each exceptional divisor in the log pullback of
    lambda times the curve: lambda * m_E - a_E."""
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("lambda must be positive")
    return {div.id: lam * div.m - div.a for div in tree.divisors()}


def export_tree(tree, fmt="json"):
    """Serialize the tree as text, DOT or JSON (rationals rendered 'p/q').

    The text is the ledger ``lctplane resolve`` prints: one line per
    divisor, in the order of the nodes, then the lct."""
    if fmt == "text":
        lines = [
            f"E{div.id} (over {'origin' if parent is None else f'E{parent}'}): "
            f"m = {div.m}, a = {div.a}, candidate = {_candidate_text(div)}"
            for div, parent, _ in tree.nodes
        ]
        lines.append(f"lct = {lct_from_tree(tree)}")
        return "\n".join(lines)
    if fmt == "json":
        # what json.dumps writes for the payload {"input", "divisors", "lct"},
        # one template per divisor: every value is an int, null, a "p/q"
        # string or the input's render, which writes only digits, x, y, ^, *,
        # /, +, - and spaces; JSON escapes none of these
        divisors = ", ".join(
            f'{{"id": {div.id}, "parent": {"null" if parent is None else parent}, '
            f'"m": {div.m}, "a": {div.a}, "candidate": "{_candidate_text(div)}"}}'
            for div, parent, _ in tree.nodes
        )
        return (
            f'{{"input": "{tree.input.render()}", "divisors": [{divisors}], '
            f'"lct": "{lct_from_tree(tree)}"}}'
        )
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
