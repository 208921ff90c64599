"""Degree <= 5 singularity classification and lct lookup.

The classification tables ship as a versioned JSON data file in the
package (``data/tables.json``), read by path beside this module, so the
package runs from a directory, not from a zip archive.  A singular germ
is classified by its resolution ledger: the blowup tree over the origin,
each divisor labelled by its (m, a) and by the divisors through its
center.  That tree with its proximity data is the germ's Enriques
diagram, which determines its topological type (Casas-Alvero,
*Singularities of Plane Curves*, 2000), so a match proves the row at any
degree.  Each row's ledger comes from one normal-form sample, built for a
multiplicity's rows on its first classification; the test suite asserts
that the rows' ledgers are distinct.  A ledger matching no row raises
``NotClassifiable`` rather than guessing.  A germ whose resolution needs
an irrational center falls back to the triple (multiplicity, tangent-cone
line pattern, Milnor number), which is injective on the table rows and
proves a row at every degree (``_classify_by_triple``).
"""

from __future__ import annotations

import functools
import json
import os
import re
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    DegreeOutOfRange,
    IrrationalCenter,
    NotClassifiable,
    NotSingular,
    ResolutionCap,
    ZeroPolynomial,
)
from .factorize import form_lines
from .localinv import milnor_number_origin, tangent_cone_pattern
from .parse import parse_poly
from .resolution import resolve_over_origin

__all__ = [
    "SingularityClass",
    "TABLES_RESOURCE",
    "all_symbols",
    "allowed_types",
    "classify_singularity",
    "table1_values",
    "sample_normal_form",
    "class_info",
]

TABLES_RESOURCE = "tables.json"


def _load_tables():
    path = os.path.join(os.path.dirname(__file__), "data", TABLES_RESOURCE)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


_TABLES = _load_tables()
_CLASSES = {row["symbol"]: row for row in _TABLES["classes"]}


class SingularityClass(NamedTuple):
    """One classified germ: table symbol plus its numeric invariants."""

    symbol: str
    mult: int
    mu: int
    lct: Fraction


def all_symbols():
    return tuple(_CLASSES)


def class_info(symbol):
    """The SingularityClass for a table symbol."""
    if symbol not in _CLASSES:
        raise KeyError(f"unknown singularity symbol {symbol!r}")
    row = _CLASSES[symbol]
    return SingularityClass(
        symbol=symbol,
        mult=row["mult"],
        mu=row["mu"],
        lct=Fraction(row["lct"]),
    )


def allowed_types(d):
    """The set of singularity types occurring on reduced degree-d curves."""
    if not 1 <= d <= 5:
        raise DegreeOutOfRange(f"classification covers degrees 1..5, got {d}")
    return frozenset(_TABLES["types_by_degree"][str(d)])


def classify_singularity(f):
    """Classify the singular germ of f at the origin.

    The germ is resolved over the origin and its ledger's signature
    (``_signature``) looked up among the rows of its multiplicity; the
    lookup covers every germ occurring on a reduced curve of degree at most
    5 (any polynomial realizing such a germ is accepted, e.g. the normal
    forms themselves, at any degree).  A ledger larger than every row's, or
    matching none, raises ``NotClassifiable``.  A germ whose resolution
    needs an irrational center is classified by the triple (multiplicity,
    tangent cone pattern, Milnor number) instead, which proves its row at
    every degree (``_classify_by_triple``).

    ``resolve_over_origin`` alone checks that f is reduced, so a
    non-reduced germ that is also not singular, or whose multiplicity no
    row has, is refused for that, not with ``NotSquareFree``.
    """
    if f.is_zero:
        raise ZeroPolynomial("cannot classify the zero polynomial")
    mult = f.multiplicity()
    if f.coefficient(0, 0) != 0 or mult < 2:
        raise NotSingular("origin is not a singular point of the curve")
    cap, by_signature = _ledger_rows(mult)
    if not by_signature:
        raise NotClassifiable(f"no table row has multiplicity {mult}")
    try:
        nodes = resolve_over_origin(f, cap).nodes
    except IrrationalCenter:
        return _classify_by_triple(f, mult)
    except ResolutionCap:
        raise NotClassifiable(
            f"the resolution ledger needs more than {cap} blowups, the most of "
            f"any table row of multiplicity {mult}"
        ) from None
    symbol = by_signature.get(_signature(nodes))
    if symbol is None:
        ledger = ", ".join(f"({node.divisor.m},{node.divisor.a})" for node in nodes)
        raise NotClassifiable(
            f"no table row of multiplicity {mult} has the resolution ledger "
            f"(m, a) = {ledger}"
        )
    return class_info(symbol)


def _signature(nodes):
    """The ledger as an unordered rooted tree, in canonical text: each node
    is its divisor's ``m,a``, the depths of its incident divisors (all of
    them its ancestors, the root at depth 0), and its children's texts in
    sorted order, in parentheses."""
    depth = {None: -1}
    for node in nodes:
        depth[node.divisor.id] = depth[node.parent] + 1
    texts = {}  # parent id -> the texts of its children seen so far
    for node in reversed(nodes):  # every child comes after its parent
        div = node.divisor
        incident = sorted(depth[k] for k in node.center.incident)
        children = "".join(sorted(texts.pop(div.id, ())))
        texts.setdefault(node.parent, []).append(f"{div.m},{div.a},{incident}({children})")
    return texts[None][0]


@functools.cache
def _ledger_rows(mult):
    """``(cap, {signature: symbol})`` for the table rows of multiplicity
    ``mult``, from each row's seed-0 normal-form sample; ``cap`` is the size
    of the largest of their ledgers."""
    cap, by_signature = 0, {}
    for symbol, row in _CLASSES.items():
        if row["mult"] == mult:
            nodes = resolve_over_origin(sample_normal_form(symbol, 0)).nodes
            signature = _signature(nodes)
            assert signature not in by_signature, f"ambiguous ledger {signature}"
            by_signature[signature] = symbol
            cap = max(cap, len(nodes))
    return cap, by_signature


def _classify_by_triple(f, mult):
    """The row of the triple (multiplicity, tangent cone pattern, Milnor
    number), for a germ whose resolution needs an irrational center, found
    by a scan of the table rows: the test suite asserts that no two rows
    share a triple.

    A matched row is proven at every degree, by the germ's Enriques diagram
    (Casas-Alvero 2000) and Milnor's mu = 2 delta - r + 1, with delta the
    sum of m_p (m_p - 1) / 2 over the infinitely near points p and r <= mult
    the number of branches.  ``resolve_over_origin`` raises
    ``IrrationalCenter`` only at a repeated irreducible factor of degree
    >= 2 of a cone, so at a point of multiplicity >= 4.  A 4-fold point
    infinitely near a 4- or 5-fold origin makes mu >= 21, above every row
    of multiplicity 4 or 5 (at most 13 and 16), and a 5-fold origin whose
    own cone has a square factor matches no row's pattern.  So a matched
    germ has multiplicity 4 and cone c q^2, q an irreducible quadratic,
    whose two conjugate points p on E1 are alike: mu = 13 + 2 (2 delta_p -
    r_p) = 11 + 2 mu_p, so only mu_p = 0 or 1 stays within the rows.  The strict transform meets
    E1 twice at p, so mu = 11 is a smooth branch of contact 2 with E1
    (``T(2,5,5)``) and mu = 13 a node transverse to E1 (``T(2,6,6)``), each
    one Enriques diagram, that of its row; mu = 12 (``T(2,5,6)``) cannot
    occur."""
    pattern = tangent_cone_pattern(f)
    mu = milnor_number_origin(f)  # finite: f is reduced, so the point is isolated
    key = (mult, list(pattern), mu)
    for symbol, row in _CLASSES.items():
        if (row["mult"], sorted(row["pattern"], reverse=True), row["mu"]) == key:
            return class_info(symbol)
    raise NotClassifiable(
        f"no table row matches mult={mult}, tangent cone pattern="
        f"{list(pattern)}, Milnor number={mu}"
    )


def table1_values(d):
    """All lct values on reduced degree-d curves: {1} plus the lct of
    every singularity type allowed at degree d.  Sorted ascending."""
    values = {Fraction(1)}
    for symbol in allowed_types(d):
        values.add(class_info(symbol).lct)
    return tuple(sorted(values))


def _substitute(text, params):
    """Parse ``text`` with each parameter's value, in parentheses, written
    in place of its name."""
    return parse_poly(re.sub(r"\b[abc]\b", lambda m: f"({params[m[0]]})", text))


def _restriction_holds(row, params, poly):
    restriction = row["restriction"]
    if restriction is None:
        return True
    if restriction["kind"] == "nonzero_poly":
        return not _substitute(restriction["poly"], params).is_zero
    if restriction["kind"] == "squarefree_top_degree":
        # a form is squarefree iff its lines are distinct
        return all(e == 1 for _, e in form_lines(poly._terms, restriction["degree"]))
    raise AssertionError(f"unknown restriction kind {restriction['kind']!r}")


def sample_normal_form(symbol, seed=0):
    """A member of the symbol's normal-form family with pseudo-random
    small rational parameters satisfying the row restriction.

    Deterministic for a given (symbol, seed)."""
    import random  # only sampling needs it; the cold CLI import skips it

    if symbol not in _CLASSES:
        raise KeyError(f"unknown singularity symbol {symbol!r}")
    row = _CLASSES[symbol]
    rng = random.Random(f"{symbol}#{seed}")
    while True:
        params = {
            name: Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            for name in row["parameters"]
        }
        poly = _substitute(row["normal_form"], params)
        if _restriction_holds(row, params, poly):
            return poly
