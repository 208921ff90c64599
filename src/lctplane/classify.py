"""Degree <= 5 singularity classification and lct lookup.

The classification tables ship as a versioned JSON data file embedded in
the package (``data/tables.json``).  A singular germ is classified by the
triple (multiplicity, tangent-cone line pattern, Milnor number), which is
injective on the table rows — this injectivity is asserted by the test
suite on the static data, and any triple outside the table raises
``NotClassifiable`` rather than guessing.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from importlib import resources
from typing import NamedTuple

from .errors import (
    DegreeOutOfRange,
    NotClassifiable,
    NotSingular,
    NotSquareFree,
    ZeroPolynomial,
)
from .localinv import (
    is_square_free,
    milnor_number_origin,
    tangent_cone_pattern,
    weighted_lct_upper_bound,
)
from .parse import parse_poly

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
    text = (
        resources.files("lctplane.data").joinpath(TABLES_RESOURCE).read_text()
    )
    return json.loads(text)


_TABLES = _load_tables()
_CLASSES = {row["symbol"]: row for row in _TABLES["classes"]}
_BY_TRIPLE = {}
for _row in _TABLES["classes"]:
    _key = (_row["mult"], tuple(sorted(_row["pattern"], reverse=True)), _row["mu"])
    assert _key not in _BY_TRIPLE, f"ambiguous classification key {_key}"
    _BY_TRIPLE[_key] = _row["symbol"]


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

    The lookup covers every germ occurring on a reduced curve of degree
    at most 5 (any polynomial realizing such a germ is accepted, e.g. the
    normal forms themselves, whose global degree can exceed 5); a triple
    outside the table raises ``NotClassifiable``.  Past degree 5 the triple
    no longer determines the type, so a row whose lct exceeds
    ``weighted_lct_upper_bound`` at a compact Newton edge's weights is
    refused too; that never refuses a correct row, nor proves a kept one.
    """
    if f.is_zero:
        raise ZeroPolynomial("cannot classify the zero polynomial")
    if not is_square_free(f):
        raise NotSquareFree("curve must be reduced")
    mult = f.multiplicity()
    if f.coefficient(0, 0) != 0 or mult < 2:
        raise NotSingular("origin is not a singular point of the curve")
    pattern = tangent_cone_pattern(f)
    mu = milnor_number_origin(f)  # finite: f is reduced, so the point is isolated
    symbol = _BY_TRIPLE.get((mult, pattern, mu))
    if symbol is None:
        raise NotClassifiable(
            f"no table row matches mult={mult}, tangent cone pattern="
            f"{list(pattern)}, Milnor number={mu}"
        )
    cls = class_info(symbol)
    for w in _newton_edge_weights(f) if f.degree > 5 else ():
        bound = weighted_lct_upper_bound(f, w).bound
        if cls.lct > bound:
            raise NotClassifiable(
                f"row {symbol} has lct {cls.lct}, above the bound {bound} at Newton "
                f"edge weights {list(w)}: degree {f.degree} is outside the table"
            )
    return cls


def _newton_edge_weights(f):
    """Normal weights ``(w1, w2)`` of the compact edges of f's Newton polygon."""
    hull = []  # the polygon's vertices so far, x-exponent ascending
    for i, j in sorted(f._terms):
        if hull and j >= hull[-1][1]:
            continue  # on or above a point already seen, so not a vertex
        while len(hull) > 1:
            (i0, j0), (i1, j1) = hull[-2:]
            if (i1 - i0) * (j - j0) > (j1 - j0) * (i - i0):
                break  # hull[-1] lies below the segment hull[-2] -> (i, j)
            hull.pop()
        hull.append((i, j))
    return [(j1 - j2, i2 - i1) for (i1, j1), (i2, j2) in zip(hull, hull[1:])]


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
        top = poly.homogeneous_part(restriction["degree"])
        return not top.is_zero and is_square_free(top)
    raise AssertionError(f"unknown restriction kind {restriction['kind']!r}")


def sample_normal_form(symbol, seed=0):
    """A member of the symbol's normal-form family with pseudo-random
    small rational parameters satisfying the row restriction.

    Deterministic for a given (symbol, seed)."""
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
