"""Seeded query corpora for the three benchmark workloads.

Every query is built here, without lctplane, from a germ whose lct is known
by construction, then moved to a random rational point by an invertible
affine change of coordinates (lct, degree and multiplicity are invariant, so
the dispatch outcome is too).  References therefore never come from the path
being timed:

* ``binomial`` germs ``c1 x^a y^al + c2 x^be y^b`` plus terms strictly above
  that Newton edge are Newton non-degenerate, so lct = min(1, 1/t) where
  ``(t, t)`` is the diagonal point of the Newton boundary.  This covers
  ``x^a + y^b`` (min(1, 1/a + 1/b)) and the ``A_k`` chains ``x^2 + y^(k+1)``
  (1/2 + 1/(k+1));
* ``ordinary`` germs whose tangent cone is m distinct rational lines have
  lct = min(1, 2/m) whatever the higher-order terms;
* ``special`` germs of degree d and multiplicity d-1 whose tangent cone is
  ``x^m`` times distinct lines, with 2m > d-1, follow the paper's closed form;
* ``random`` degree <= 5 curves get their reference from lctplane's
  resolution oracle after the timed loop (``reference is None``); they are
  only dispatched to the classifier, never to the oracle itself.

Curves are filtered with sympy's ``Poly(...).is_sqf``, never with lctplane.
A generator that lands outside the dispatch class it was asked for raises,
because that would silently change the workload mix.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import sympy

_SX, _SY = sympy.symbols("x y")

# Dispatch classes of ``lctplane lct``, in the order the CLI tries them.
TRIVIAL, HIGHMULT, CLASSIFIER, RESOLUTION = "trivial", "highmult", "classifier", "resolution"


@dataclass(frozen=True)
class Query:
    family: str
    dispatch: str  # class the germ belongs to by degree and multiplicity
    argv: tuple  # arguments to ``lctplane``
    text: str
    point: tuple
    reference: object  # Fraction, "inf", or None (resolution oracle after the loop)
    refusal_code: Optional[int] = None  # documented exit code accepted instead


# -- polynomials as {(i, j): Fraction} ---------------------------------------


def _mul(a, b):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _add(*polys):
    out = {}
    for p in polys:
        for k, c in p.items():
            out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def _affine(f, m, p):
    """``f(M (x - p))``: the germ of the result at ``p`` is that of f at 0."""
    (m11, m12), (m21, m22) = m
    u = _add({(1, 0): m11, (0, 1): m12, (0, 0): -(m11 * p[0] + m12 * p[1])})
    v = _add({(1, 0): m21, (0, 1): m22, (0, 0): -(m21 * p[0] + m22 * p[1])})
    upow, vpow = [{(0, 0): Fraction(1)}], [{(0, 0): Fraction(1)}]
    out = {}
    for (i, j), c in f.items():
        while len(upow) <= i:
            upow.append(_mul(upow[-1], u))
        while len(vpow) <= j:
            vpow.append(_mul(vpow[-1], v))
        out = _add(out, {k: c * w for k, w in _mul(upow[i], vpow[j]).items()})
    return out


def _degree(f):
    return max(i + j for i, j in f)


def _mult_at_origin(f):
    return min(i + j for i, j in f)


def _is_sqf(f):
    poly = sympy.Poly.from_dict(
        {k: sympy.Rational(c.numerator, c.denominator) for k, c in f.items()},
        _SX,
        _SY,
        domain=sympy.QQ,
    )
    return poly.is_sqf


def _render(f):
    """Parseable text, leading term positive (negating keeps the curve)."""
    keys = sorted(f, key=lambda e: (e[0] + e[1], e[0]), reverse=True)
    if f[keys[0]] < 0:
        f = {k: -c for k, c in f.items()}
    parts = []
    for i, j in keys:
        c = f[(i, j)]
        mono = "*".join(
            s for s in (_var("x", i), _var("y", j)) if s
        )
        mag = abs(c)
        body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
        parts.append(("-" if c < 0 else "+", body))
    return parts[0][1] + "".join(f"{s}{b}" for s, b in parts[1:])


def _var(name, e):
    return "" if e == 0 else name if e == 1 else f"{name}^{e}"


def dispatch_class(f_local):
    """The class ``lctplane lct`` dispatches a germ at the origin to."""
    if (0, 0) in f_local:
        return TRIVIAL
    d, mult = _degree(f_local), _mult_at_origin(f_local)
    if mult == 1:
        return TRIVIAL
    if mult == d - 1:
        return HIGHMULT
    return CLASSIFIER if d <= 5 else RESOLUTION


# -- random pieces -------------------------------------------------------------

_SMALL = [Fraction(n, q) for q in (1, 2) for n in range(-3, 4) if n]
_SLOPES = sorted({Fraction(n, q) for q in (1, 2, 3) for n in range(-4, 5)})
_INT_SLOPES = [Fraction(n) for n in range(-4, 5)]
_UNITS = (Fraction(1), Fraction(-1))
_POINT = (Fraction(-2), Fraction(-1), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1, 2))


def _coeff(rng):
    return rng.choice(_SMALL)


def _form(rng, deg, density=0.5, require=None):
    """Random binary form of degree ``deg``; ``require`` = exponent of x that
    must carry a nonzero coefficient (keeps the degree exact)."""
    out = {}
    for i in range(deg + 1):
        if i == require or rng.random() < density:
            out[(i, deg - i)] = _coeff(rng)
    if not out:
        out[(deg, 0)] = _coeff(rng)
    return out


def _lines(rng, n, exclude=(), pool=_SLOPES):
    """Product of n distinct lines x - r y (r != excluded slopes)."""
    slopes = rng.sample([s for s in pool if s not in exclude], n)
    out = {(0, 0): Fraction(1)}
    for r in slopes:
        out = _mul(out, {(1, 0): Fraction(1), (0, 1): -r})
    return out


def _place(rng, f, mode):
    """Apply the placement ``mode``: O origin, T translate, U translate by
    (+-1, +-1), S shear x -> x + s y (keeps pure powers of y sparse), L
    unimodular linear map.  Shear and map entries are +-1: their size, not
    their sign, sets the coefficient growth and so the cost of the query."""
    m = ((1, 0), (0, 1))
    if "S" in mode:
        m = ((1, rng.choice(_UNITS)), (0, 1))
    if "L" in mode:
        s, u = rng.choice(_UNITS), rng.choice(_UNITS)
        m = ((1, s), (u, 1 + s * u))
    p = (Fraction(0), Fraction(0))
    if "T" in mode:
        p = (rng.choice(_POINT), rng.choice(_POINT))
    if "U" in mode:
        p = (rng.choice(_UNITS), rng.choice(_UNITS))
    if m == ((1, 0), (0, 1)) and p == (0, 0):
        return dict(f), p
    return _affine(f, m, p), p


def _query(family, want, f_local, rng, mode, reference, command="lct", refusal_code=None):
    got = dispatch_class(f_local)
    if want is not None and got != want:
        raise AssertionError(f"{family}: built a {got} germ, wanted {want}")
    placed, point = _place(rng, f_local, mode)
    text = _render(placed)
    argv = [command, text, "--format", "json"]
    if point != (0, 0):
        argv.append(f"--point={point[0]},{point[1]}")
    return Query(family, got, tuple(argv), text, point, reference, refusal_code)


# -- germ families -------------------------------------------------------------


def newton_lct(p, q):
    """lct of a non-degenerate germ whose Newton boundary is the edge from
    ``p = (a, al)`` to ``q = (be, b)`` plus the two rays (al, be <= 1)."""
    (a, al), (be, b) = p, q
    s = Fraction(a - al, (a - al) + (b - be))
    t = a + s * (be - a)
    return min(Fraction(1), 1 / t)


def _binomial(rng, p, q, degree, n_extra, max_x=None):
    """``c1 x^a y^al + c2 x^be y^b`` plus terms strictly above the edge, with
    total degree exactly ``degree`` and x-degree of the extras <= ``max_x``."""
    (a, al), (be, b) = p, q
    w = (b - al, a - be)  # inner normal of the edge
    phi = w[0] * a + w[1] * al
    above = [
        (i, j)
        for i in range(be, (degree if max_x is None else max_x) + 1)
        for j in range(al, degree + 1 - i)
        if w[0] * i + w[1] * j > phi
    ]
    f = {p: _coeff(rng), q: _coeff(rng)}
    top = [e for e in above if e[0] + e[1] == degree]
    if max(a + al, be + b) < degree:
        if not top:
            return None
        f[rng.choice(top)] = _coeff(rng)
    for e in rng.sample(above, min(n_extra, len(above))):
        if e[0] + e[1] < degree or rng.random() < 0.5:
            f[e] = _coeff(rng)
    return f


def _sqf(make):
    """Draw from ``make`` until the curve is squarefree (sympy decides)."""
    while True:
        built = make()
        if _is_sqf(built[0]):
            return built


def binomial_germ(rng, want, degrees, a_range, b_range, edge_shapes=("00",)):
    """A binomial Newton germ landing in dispatch class ``want``."""
    while True:
        shape = rng.choice(edge_shapes)
        al, be = int(shape[0]), int(shape[1])
        a = rng.randint(*a_range)
        b = rng.randint(*b_range)
        if a <= be or b <= al:
            continue
        degree = rng.choice(degrees)
        if max(a + al, be + b) > degree:
            continue
        # extras of x-degree >= a make single sparse germs cost seconds in
        # the gcd layer, which would let one draw dominate a whole pass
        f = _binomial(rng, (a, al), (be, b), degree, rng.randint(0, 3), max_x=a - 1)
        if f is not None and dispatch_class(f) == want and _is_sqf(f):
            return f, newton_lct((a, al), (be, b))


def ordinary_germ(rng, m, degree, density=0.4, pool=_SLOPES):
    """m distinct rational lines plus higher-order terms up to ``degree``."""

    def make():
        f = _lines(rng, m, pool=pool)
        for k in range(m + 1, degree + 1):
            top = rng.randint(0, k) if k == degree else None
            f = _add(f, _form(rng, k, density, require=top))
        return f, min(Fraction(1), Fraction(2, m))

    return _sqf(make)


def special_germ(rng, d, component, k, pool=_SLOPES):
    """Degree d, multiplicity d-1, tangent cone ``x^m`` times d-1-m distinct
    lines with 2m > d-1, m chosen by slot k.  Closed form: (2m+1)/(dm), or
    (2m-1)/(d(m-1)+1) when the line x = 0 is a component."""
    low = (d - 1) // 2 + 1
    m = low + k % (d - low)

    def make():
        cone = _mul({(m, 0): Fraction(1)}, _lines(rng, d - 1 - m, exclude=(0,), pool=pool))
        if component:
            top = _mul({(1, 0): Fraction(1)}, _form(rng, d - 1, 0.4, require=0))
            ref = Fraction(2 * m - 1, d * (m - 1) + 1)
        else:
            top = _form(rng, d, 0.4, require=0)
            ref = Fraction(2 * m + 1, d * m)
        return _add(cone, top), min(Fraction(1), ref)

    return _sqf(make)


_PATTERNS = {2: ([1, 1], [2]), 3: ([2, 1], [3], [1, 1, 1])}


def random_low_degree(rng):
    """A singular degree <= 5 curve with a rational tangent cone and random
    higher terms; its lct is unknown here and checked against the oracle."""
    while True:
        mult = rng.choice((2, 2, 3))
        degree = 5 if mult == 3 else rng.choice((4, 5))
        pattern = rng.choice(_PATTERNS[mult])
        slopes = rng.sample(_SLOPES, len(pattern))
        f = {(0, 0): Fraction(1)}
        for r, e in zip(slopes, pattern):
            for _ in range(e):
                f = _mul(f, {(1, 0): Fraction(1), (0, 1): -r})
        for k in range(mult + 1, degree + 1):
            f = _add(f, _form(rng, k, 0.4, require=rng.randint(0, k) if k == degree else None))
        if _degree(f) == degree and _is_sqf(f):
            return f


def trivial_germ(rng, off_curve):
    """Off the curve (reference inf) or a smooth point (reference 1)."""

    def make():
        degree = rng.randint(2, 6)
        f = _form(rng, 1, 0.7) if not off_curve else {}
        for k in range(2, degree + 1):
            f = _add(f, _form(rng, k, 0.3))
        if off_curve:
            f[(0, 0)] = _coeff(rng)
        return f, ("inf" if off_curve else Fraction(1))

    return _sqf(make)


# -- workloads -----------------------------------------------------------------
#
# Each family is a fixed list of slots.  A slot fixes the structure that sets
# the cost of a query (degree, exponents, placement); the seed draws the
# coefficients, lines, shears, points and extra terms.  Every seed therefore
# gets the same mix of cheap and expensive queries, which keeps throughput
# comparable across seeds.

_MODES_LOW = ("O", "T", "S", "ST", "L", "LT")  # cheap enough in every placement
_MODES_HIGH = ("O", "U")  # chains: a shear of x^a + y^b makes the gcd layer blow up


def _family(rng, family, want, count, build, modes, **kw):
    """``count`` queries; slot k gets ``build(rng, k)`` and placement
    ``modes[k % len(modes)]``."""
    out = []
    for k in range(count):
        f, ref = build(rng, k)
        out.append(_query(family, want, f, rng, modes[k % len(modes)], ref, **kw))
    return out


def cli_cold(seed):
    """Cheap queries for cold CLI runs: import dominates."""
    rng = random.Random(f"cli-cold:{seed}")
    return (
        _family(rng, "offcurve", TRIVIAL, 2, lambda r, k: trivial_germ(r, True), ("T",))
        + _family(rng, "smooth", TRIVIAL, 2, lambda r, k: trivial_germ(r, False), ("T",))
        + _family(rng, "classifier-small", CLASSIFIER, 2,
                  lambda r, k: binomial_germ(r, CLASSIFIER, (4, 5), (2, 3), (3, 5)), ("O", "T"))
        + _family(rng, "highmult-small", HIGHMULT, 2,
                  lambda r, k: binomial_germ(r, HIGHMULT, (3, 4), (2, 3), (3, 4)), ("O", "T"))
    )


# Each in-process corpus draws its families' slots this many times.  One pass
# over twice the distinct queries varies less from seed to seed, in the median
# and in the tail percentile, than two passes over the same queries.
SLOT_SETS = 2


def lct_mixed(seed):
    """1200 queries (a few repeat by chance) covering every dispatch outcome, in chosen
    shares: the same number of slots for each degree of a class."""
    rng = random.Random(f"lct-mixed:{seed}")
    qs = []
    for _ in range(SLOT_SETS):
        qs += _family(rng, "offcurve", TRIVIAL, 48, lambda r, k: trivial_germ(r, True), _MODES_LOW)
        qs += _family(rng, "smooth", TRIVIAL, 48, lambda r, k: trivial_germ(r, False), _MODES_LOW)
        for d in range(3, 9):
            qs += _family(rng, f"highmult-ordinary-d{d}", HIGHMULT, 8,
                          lambda r, k: ordinary_germ(r, d - 1, d), _MODES_LOW)
            qs += _family(rng, f"highmult-special-d{d}", HIGHMULT, 8,
                          lambda r, k: special_germ(r, d, False, k), _MODES_LOW)
            qs += _family(rng, f"highmult-component-d{d}", HIGHMULT, 8,
                          lambda r, k: special_germ(r, d, True, k), _MODES_LOW)
            qs += _family(
                rng, f"highmult-newton-d{d}", HIGHMULT, 6,
                lambda r, k: binomial_germ(r, HIGHMULT, (d,), (2, d), (2, d), ("00", "01", "10")),
                _MODES_LOW,
            )
        qs += _family(
            rng, "classifier-newton", CLASSIFIER, 60,
            lambda r, k: binomial_germ(r, CLASSIFIER, (4, 5), (2, 5), (2, 5), ("00", "01", "10", "11")),
            _MODES_LOW,
        )
        qs += _family(rng, "classifier-ordinary", CLASSIFIER, 30,
                      lambda r, k: ordinary_germ(r, 2 + k % 2, 5), _MODES_LOW)
        qs += _family(rng, "classifier-random", CLASSIFIER, 90,
                      lambda r, k: (random_low_degree(r), None), _MODES_LOW)
        qs += _family(
            rng, "resolution-newton", RESOLUTION, 60,
            lambda r, k: binomial_germ(r, RESOLUTION, (6 + k % 3,), (2, 6), (3, 8), ("00", "01", "10")),
            ("O", "T"),
        )
        qs += _family(rng, "resolution-ordinary", RESOLUTION, 24,
                      lambda r, k: ordinary_germ(r, 2 + k % 3, 6, 0.15), ("O", "S", "T"))
        qs += _family(rng, "resolution-ak", RESOLUTION, 60,
                      lambda r, k: a_k_germ(r, 9 + (k * 48) // 60, k // 2), ("O", "S"))
    rng.shuffle(qs)
    return qs


def resolve_deep(seed):
    """Fewer, larger germs for ``lctplane resolve``."""
    rng = random.Random(f"resolve-deep:{seed}")
    qs = []

    def add(family, count, build, modes, **kw):
        qs.extend(_family(rng, family, None, count, build, modes, command="resolve", **kw))

    # The shares are chosen, not measured.  Integer lines and +-1 shears keep
    # the cost of the dense germs comparable across seeds.  The long chains
    # are over half of the corpus and the near-cap chains away from the origin
    # are its most expensive family, so the median and the tail percentile
    # each fall inside one family and do not jump between families of very
    # different cost from seed to seed.
    for copy in range(SLOT_SETS):
        add("deep-ordinary", 4, lambda r, k: ordinary_germ(r, 6 + k % 2, 7 + k % 2, pool=_INT_SLOPES),
            ("S", "S", "ST", "ST"))
        add("deep-special", 4, lambda r, k: special_germ(r, 7 + k % 3, False, k // 3, pool=_INT_SLOPES),
            ("S", "ST", "S"))
        add("deep-component", 4, lambda r, k: special_germ(r, 7 + k % 3, True, k // 3, pool=_INT_SLOPES),
            ("S", "ST", "S"))
        add("deep-newton-chain", 60, lambda r, k: long_chain(r, k), _MODES_HIGH)
        add("deep-ak-near-cap", 18, lambda r, k: a_k_germ(r, 96 + k * 3 // 2, k // 2), _MODES_HIGH)
        # at the origin, so the refused queries stay below the near-cap ones
        # and the tail percentile falls inside one family
        add("deep-refusal-cap", 6, lambda r, k: a_k_germ(r, 201 - 12 * k, k, bare=k == 0 and copy == 0),
            ("O",), refusal_code=5)
    rng.shuffle(qs)
    return qs


def a_k_germ(rng, n, k, bare=False):
    """``A_(n-1)``: x^2 + y^n plus k % 3 terms x y^j above the edge (j > n/2);
    lct 1/2 + 1/n.  The slot fixes the exponents j, which set the cost of
    the resolution; the seed draws the coefficients."""
    if bare:
        return {(2, 0): Fraction(1), (0, n): Fraction(1)}, Fraction(1, 2) + Fraction(1, n)
    f = {(2, 0): _coeff(rng), (0, n): _coeff(rng)}
    for e in range(k % 3):
        f[(1, n - 1 - e * (n // 6))] = _coeff(rng)
    return f, Fraction(1, 2) + Fraction(1, n)


def _euclid_length(a, b):
    steps = 0
    while a:
        steps += b // a
        a, b = b % a, a
    return steps


# (a, b) coprime, 3 <= a <= 7 < 20 <= b <= 45, Euclid chain of >= 8 steps
_CHAINS = [(a, b) for a in range(3, 8) for b in range(20, 46)
           if math.gcd(a, b) == 1 and _euclid_length(a, b) >= 8]


def long_chain(rng, k):
    """Slot k's x^a + y^b from _CHAINS plus terms x y^j above the edge."""
    a, b = _CHAINS[(k * 7) % len(_CHAINS)]
    f = _binomial(rng, (a, 0), (0, b), b, k % 3, max_x=1)
    return f, newton_lct((a, 0), (0, b))


WORKLOADS = {"cli-cold": cli_cold, "lct-mixed": lct_mixed, "resolve-deep": resolve_deep}


def fingerprint(queries):
    """Hash of every query and its construction reference."""
    h = hashlib.sha256()
    for q in queries:
        h.update(repr((q.family, q.argv, str(q.reference), q.refusal_code)).encode())
    return h.hexdigest()[:16]
