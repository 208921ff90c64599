"""Sparse bivariate polynomials with exact rational coefficients.

A polynomial in x, y is a map from exponent pairs ``(i, j)`` to nonzero
``int`` numerators over one positive ``int`` denominator, with no factor
common to all of them; the zero polynomial is the empty map over 1.  So
equal polynomials have equal representations, and every lct route, which
is invariant under scaling f, reads the integer numerators directly: only
building from rationals, rendering and the public ``Fraction`` view
``terms`` ever see the denominator.  All values are immutable and every
operation is pure, so everything here is safe to share between threads.

The term order used for rendering and leading-term extraction is graded
lexicographic (total degree first, then x-degree).

Bivariate gcds are delegated to sympy's exact dense gcd over ``ZZ[x, y]``
(a heuristic gcd with a PRS fallback, on the integer numerators); sympy
is imported on the first gcd, so code that never takes one never loads
it.  A yes/no question (coprime? squarefree?) is first put to
``certify_coprime`` or ``certify_squarefree``: integer gcds of values at
a few points, which prove the answer "yes" for reduced input without
sympy and leave every other case to the exact gcd.
``translate`` is an exact integer Taylor shift done one variable at a time
(``shift_terms``: running sums on long dense columns, Horner's rule on
shorter ones, the binomial theorem on sparse ones); everything else is the
term-dict kernel below, whose product and power (``mul_terms``,
``pow_terms``) the parser's grammar runs on too.

The part of least weight for positive integer weights (the blowup loop's
tangent cones, the weighted lct bound's leading part) is a face of the
Newton boundary (``_newton_boundary``, ``_face``).  A homogeneous part,
such as a tangent cone, is read off the integer numerators as a
coefficient list in t = y/x (``factorize.form_coeffs``), whose squarefree
parts are Yun's; the lct routes need no squarefree decomposition of a
whole bivariate polynomial (sympy's ``sqf_list`` gives one exactly), and a
linear change of coordinates is a ``substitute``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from operator import add, itemgetter
from types import MappingProxyType

from .errors import BothZero, DivisorZero, ZeroPolynomial
from .extended import INF, NEG_INF

__all__ = [
    "BPoly",
    "ZERO",
    "ONE",
    "X",
    "Y",
    "gcd_bivariate",
    "gcd_many",
    "certify_coprime",
    "certify_squarefree",
    "divides",
    "normalize_primitive",
    "restrict_coeffs",
]


def _grlex_key(exp):
    i, j = exp
    return (i + j, i)


# ---------------------------------------------------------------------------
# Term-dict kernels: the inner loops of all polynomial arithmetic.  Terms
# are plain dicts mapping exponent tuples to nonzero ``int`` coefficients:
# the numerators of a ``BPoly``, keyed ``(i, j)``, or of a parser value,
# keyed by one exponent per variable.  The sum, product, scaling and power
# take keys of any length.
# ---------------------------------------------------------------------------


def add_terms(first, *rest):
    """Sum of any number of term dicts, zero coefficients dropped.

    Only ``first`` is copied; the others are read once, in order.
    """
    out = dict(first)
    for b in rest:
        for key, coeff in b.items():
            acc = out.get(key)
            if acc is None:
                out[key] = coeff
            else:
                acc = acc + coeff
                if acc:
                    out[key] = acc
                else:
                    del out[key]
    return out


def mul_terms(a, b):
    """Product of two term dicts, zero coefficients dropped."""
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(map(add, e1, e2))
            acc = out.get(key)
            if acc is None:
                out[key] = c1 * c2
            else:
                acc = acc + c1 * c2
                if acc:
                    out[key] = acc
                else:
                    del out[key]
    return out


def pow_terms(a, n, one):
    """The ``n``-th power of a term dict, ``n >= 0``.  ``one`` is the term
    dict of 1 with keys as long as ``a``'s, where the repeated product
    starts: the zero base has no key to take the length from.

    A binomial is written out by the binomial theorem: each k gives its own
    exponent, so no two terms collide and none is zero.  Any other base, a
    monomial among them, is multiplied in ``n`` times: squaring a dense
    bivariate power costs more than the ``n - 1`` products it saves
    (Gentleman, "Optimal multiplication chains for computing a power of a
    symbolic polynomial", Math. Comp. 26, 1972).
    """
    if len(a) == 2:
        (e1, c1), (e2, c2) = a.items()
        c1pow = [1]
        for _ in range(n):
            c1pow.append(c1pow[-1] * c1)
        out, binom, c2pow = {}, 1, 1
        for k in range(n + 1):
            exp = tuple(i * (n - k) + j * k for i, j in zip(e1, e2))
            out[exp] = binom * c1pow[n - k] * c2pow
            binom = binom * (n - k) // (k + 1)
            c2pow *= c2
        return out
    out = one
    for _ in range(n):
        out = mul_terms(out, a)
    return out


def scale_terms(a, c):
    """Term dict multiplied by a nonzero scalar."""
    return {key: coeff * c for key, coeff in a.items()}


# Least degree of a dense column shifted by running sums rather than by
# Horner's rule: below it the list building costs more than the C sums save.
_PREFIX_SUM_DEGREE = 22


def shift_terms(a, var, s):
    """Integer term dict with variable ``var`` (0 for x, 1 for y) replaced
    by ``var + s``, for a nonzero rational ``s = p/q``, as ``(terms, q^n)``:
    the shifted polynomial is the integer ``terms`` over ``q^n``, where
    ``n`` is the degree in ``var``.

    Taylor shift one column at a time (the terms sharing the other
    variable's exponent).  Write ``v`` for ``var`` and ``P = sum N_e v^e``
    for a column of degree ``m``: ``q^n P(v + p/q) = R(q v)``, where
    ``R(w) = sum c_e (w + p)^e`` with ``c_e = N_e q^(n-e)`` is a shift by
    the integer ``p``, and ``v^k`` then takes ``q^k``.  A dense column is
    shifted by Horner's rule (repeated synthetic division,
    ``c[k] += p * c[k+1]``), ``m(m+1)/2`` products by the small ``p`` (von
    zur Gathen and Gerhard, "Fast algorithms for Taylor shifts and certain
    difference equations", ISSAC 1997).  From degree ``_PREFIX_SUM_DEGREE``
    on, the column is scaled to ``d_e = c_e p^e``, so each synthetic
    division is a running sum that ``itertools.accumulate`` takes in C,
    and the k-th result is divided exactly by ``p^k``.  A sparse column,
    where Horner's rule would be several times the ``e + 1`` products of
    expanding each ``(w + p)^e`` by the binomial theorem, is expanded term
    by term.
    """
    p, q = s.numerator, s.denominator
    columns = {}
    for exp, coeff in a.items():
        columns.setdefault(exp[1 - var], {})[exp[var]] = coeff
    n = max((exp[var] for exp in a), default=0)
    ppow, qpow = [1], [1]
    for _ in range(n):
        ppow.append(ppow[-1] * p)
        qpow.append(qpow[-1] * q)
    out = {}
    for other, column in columns.items():
        m = max(column)
        c = [0] * (m + 1)
        if m * (m + 1) > 5 * (sum(column) + len(column)):  # vs the sum of e + 1
            for e, num in column.items():
                num *= qpow[n - e]
                binom = 1
                for k in range(e, -1, -1):
                    c[k] += num * binom * ppow[e - k]
                    binom = binom * k // (e - k + 1)
        elif m >= _PREFIX_SUM_DEGREE:
            # with d_e = c_e p^e each synthetic division is a running sum,
            # taken from the top down: r[m - e] holds d_e
            r = [0] * (m + 1)
            for e, num in column.items():
                r[m - e] = num * qpow[n - e] * ppow[e]
            for k in range(m):
                r = list(accumulate(r))
                c[k] = r.pop() // ppow[k]
            c[m] = r[0] // ppow[m]
        else:
            for e, num in column.items():
                c[e] = num * qpow[n - e]
            for i in range(m):
                acc = c[m]
                for k in range(m - 1, i - 1, -1):
                    acc = c[k] + p * acc
                    c[k] = acc
        for k, v in enumerate(c):
            if v:
                out[(k, other) if var == 0 else (other, k)] = v * qpow[k]
    return out, qpow[n]


def _newton_boundary(terms):
    """The vertices of the Newton boundary of a nonempty term dict's
    support, x-exponent ascending: the corners of the lower-left convex
    hull of its exponents, from the one of least i (then least j) to the
    one of least j (then least i).  Points inside an edge are no vertices."""
    hull = []
    for i, j in sorted(terms):
        if hull and j >= hull[-1][1]:
            continue  # above and right of the last corner: inside the polygon
        while len(hull) >= 2:
            (i0, j0), (i1, j1) = hull[-2], hull[-1]
            if (i1 - i0) * (j - j0) > (j1 - j0) * (i - i0):
                break  # the last corner lies strictly below the new segment
            hull.pop()
        hull.append((i, j))
    return hull


def _face(terms, hull, w1, w2):
    """``(low, face)``: the least ``w1 i + w2 j``, for positive weights,
    over the exponents of ``terms``, and the exponents attaining it.

    ``hull`` is the Newton boundary of ``terms``, or None to scan the whole
    support, as a one-off reader does.  On the boundary the least value
    is taken at a vertex; when two vertices take it the face is their edge,
    and every exponent on it, inside points too, comes from one scan of
    ``terms``."""
    points = terms if hull is None else hull
    low = min(w1 * i + w2 * j for i, j in points)
    face = [(i, j) for i, j in points if w1 * i + w2 * j == low]
    if len(face) > 1 and hull is not None:
        face = [(i, j) for i, j in terms if w1 * i + w2 * j == low]
    return low, face


class BPoly:
    """Immutable sparse bivariate polynomial over the rationals: ``int``
    numerators ``_terms`` over the positive ``int`` denominator ``_den``,
    with no factor common to all of them."""

    __slots__ = ("_terms", "_den")

    def __init__(self, terms=None):
        """The polynomial with rational coefficients ``terms``, a map from
        ``(i, j)`` to anything ``Fraction`` accepts."""
        coeffs = {}
        for (i, j), c in (terms or {}).items():
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent in term {(i, j)}")
            exp = (int(i), int(j))
            if exp != (i, j):
                raise ValueError(f"non-integral exponent in term {(i, j)}")
            c = c if type(c) in (int, Fraction) else Fraction(c)
            if c:
                coeffs[exp] = c
        # over the lcm of the reduced denominators, the numerators share no
        # factor with it
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        object.__setattr__(
            self, "_terms",
            {exp: c.numerator * (den // c.denominator) for exp, c in coeffs.items()},
        )
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name, value):
        raise AttributeError("BPoly is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls):
        return ZERO

    @classmethod
    def constant(cls, c):
        return cls.monomial(0, 0, c)

    @classmethod
    def monomial(cls, i, j, c=1):
        return cls({(i, j): c})

    # -- basic structure -------------------------------------------------

    @property
    def terms(self):
        """The coefficients, as a read-only map to ``Fraction``."""
        den = self._den
        return MappingProxyType({exp: Fraction(c, den) for exp, c in self._terms.items()})

    @property
    def is_zero(self):
        return not self._terms

    @property
    def degree(self):
        """Total degree; ``NEG_INF`` for the zero polynomial."""
        if not self._terms:
            return NEG_INF
        return max(i + j for i, j in self._terms)

    def coefficient(self, i, j):
        return Fraction(self._terms.get((i, j), 0), self._den)

    def is_constant(self):
        return all(exp == (0, 0) for exp in self._terms)

    # -- equality, hashing, rendering ------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BPoly.constant(other)
        if isinstance(other, BPoly):
            return self._den == other._den and self._terms == other._terms
        return NotImplemented

    def __hash__(self):
        if self.is_constant():  # equal to its scalar, so hashed like it
            return hash(Fraction(self._terms.get((0, 0), 0), self._den))
        return hash((self._den, frozenset(self._terms.items())))

    def render(self):
        """Canonical text form, parseable back by ``parse_poly``."""
        if not self._terms:
            return "0"
        pieces = []
        for exp in sorted(self._terms, key=_grlex_key, reverse=True):
            i, j = exp
            c = Fraction(self._terms[exp], self._den)
            mono = []
            if i == 1:
                mono.append("x")
            elif i > 1:
                mono.append(f"x^{i}")
            if j == 1:
                mono.append("y")
            elif j > 1:
                mono.append(f"y^{j}")
            mono_text = "*".join(mono)
            mag = abs(c)
            if not mono_text:
                body = str(mag)
            elif mag == 1:
                body = mono_text
            else:
                body = f"{mag}*{mono_text}"
            pieces.append(("-" if c < 0 else "+", body))
        sign, body = pieces[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"BPoly({self.render()!r})"

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        den = math.lcm(self._den, other._den)
        a, b = (f._terms if f._den == den else scale_terms(f._terms, den // f._den)
                for f in (self, other))
        return _canonical(add_terms(a, b), den)

    __radd__ = __add__

    def __neg__(self):
        return _canonical(scale_terms(self._terms, -1), self._den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return ZERO
            return _canonical(scale_terms(self._terms, c.numerator), self._den * c.denominator)
        if isinstance(other, BPoly):
            return _canonical(mul_terms(self._terms, other._terms), self._den * other._den)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _canonical(pow_terms(self._terms, n, ONE._terms), self._den**n)

    def __bool__(self):
        return bool(self._terms)

    # -- order and derivatives -------------------------------------------

    def multiplicity(self):
        """Order of vanishing at the origin; ``INF`` for zero."""
        if not self._terms:
            return INF
        return min(i + j for i, j in self._terms)

    def derivative(self, var):
        """Partial derivative with respect to ``"x"`` or ``"y"``."""
        out = {}
        if var == "x":
            for (i, j), c in self._terms.items():
                if i:
                    out[(i - 1, j)] = c * i
        elif var == "y":
            for (i, j), c in self._terms.items():
                if j:
                    out[(i, j - 1)] = c * j
        else:
            raise ValueError(f"unknown variable {var!r}")
        return _canonical(out, self._den)

    # -- substitution ----------------------------------------------------

    def substitute(self, sx, sy):
        """Compose with ``x -> sx``, ``y -> sy`` (both ``BPoly``)."""
        max_i = max((i for i, _ in self._terms), default=0)
        max_j = max((j for _, j in self._terms), default=0)
        xpows = [ONE]
        for _ in range(max_i):
            xpows.append(xpows[-1] * sx)
        ypows = [ONE]
        for _ in range(max_j):
            ypows.append(ypows[-1] * sy)
        result = ZERO
        for (i, j), c in self._terms.items():
            result = result + xpows[i] * ypows[j] * c
        return result * Fraction(1, self._den)

    def translate(self, p):
        """``f(x + p1, y + p2)``; degree is preserved.

        An exact Taylor shift of the numerators, first in y and then in x
        (``shift_terms``): the same polynomial as
        ``substitute(X + p1, Y + p2)``, in integers only, at the cost
        ``shift_terms`` gives.
        """
        p1, p2 = Fraction(p[0]), Fraction(p[1])
        terms, den = self._terms, self._den
        if p2:
            terms, q = shift_terms(terms, 1, p2)
            den *= q
        if p1:
            terms, q = shift_terms(terms, 0, p1)
            den *= q
        return self if terms is self._terms else _canonical(terms, den)


def _quotient(f, g):
    """``f / g`` for ``BPoly`` operands, or None when ``g`` does not divide
    ``f``.

    Divides the integer numerators by the primitive part of ``g``'s: by
    Gauss's lemma the quotient is then integral whenever ``g`` divides
    ``f`` over the rationals, so every leading coefficient divides
    exactly, and a step that does not proves ``g`` is no divisor.
    """
    if g.is_zero:
        raise DivisorZero("division by the zero polynomial")
    if not f._terms:
        return ZERO
    content = math.gcd(*g._terms.values())
    g_terms = {exp: c // content for exp, c in g._terms.items()}
    g_exp = max(g_terms, key=_grlex_key)
    g_lead = g_terms[g_exp]
    rem = f._terms
    quot = {}
    while rem:
        r_exp = max(rem, key=_grlex_key)
        di, dj = r_exp[0] - g_exp[0], r_exp[1] - g_exp[1]
        c, r = divmod(rem[r_exp], g_lead)
        if di < 0 or dj < 0 or r:
            return None
        quot[(di, dj)] = c * g._den
        rem = add_terms(rem, {(i + di, j + dj): -c * cg for (i, j), cg in g_terms.items()})
    return _canonical(quot, f._den * content)


def _canonical(terms, den):
    """The ``BPoly`` of the integer term dict ``terms`` over the positive
    ``int`` ``den``, their common factor divided out."""
    g = math.gcd(den, *terms.values())
    if g != 1:
        terms = {exp: c // g for exp, c in terms.items()}
        den //= g
    return _reduced(terms, den)


def _reduced(terms, den):
    """The ``BPoly`` of the integer term dict ``terms`` over the positive
    ``int`` ``den``, which already share no common factor."""
    self = BPoly.__new__(BPoly)
    object.__setattr__(self, "_terms", terms)
    object.__setattr__(self, "_den", den)
    return self


ZERO = BPoly()
ONE = BPoly({(0, 0): 1})
X = BPoly({(1, 0): 1})
Y = BPoly({(0, 1): 1})


def _coerce(value):
    if isinstance(value, BPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return BPoly.constant(value)
    return NotImplemented


def normalize_primitive(f):
    """Split ``f = unit * primitive`` with integer primitive content-1 part
    whose graded-lex leading coefficient is positive."""
    if f.is_zero:
        raise ZeroPolynomial("cannot normalize the zero polynomial")
    content = math.gcd(*f._terms.values())
    if f._terms[max(f._terms, key=_grlex_key)] < 0:
        content = -content
    primitive = _canonical({exp: c // content for exp, c in f._terms.items()}, 1)
    return Fraction(content, f._den), primitive


def divides(g, f):
    """True iff the ``BPoly`` ``g`` divides ``f`` exactly (``g`` nonzero)."""
    return _quotient(f, g) is not None


# ---------------------------------------------------------------------------
# Univariate helpers over Z (coefficient lists, index = degree).
# ---------------------------------------------------------------------------


def restrict_coeffs(terms, v, a):
    """The polynomial with integer term dict ``terms`` at the integer
    ``w = a``, where ``w`` is the variable other than ``v`` (0 for x, 1 for
    y), as a coefficient list in ``v`` (index = degree) with no zero last
    entry: ``(terms, 1, 0)`` sets x = 0.  ``[]`` when ``w - a`` divides the
    polynomial."""
    coeffs = [0] * (max((exp[v] for exp in terms if a or not exp[1 - v]), default=-1) + 1)
    for exp, c in terms.items():
        k, w = exp[v], exp[1 - v]
        if w:
            if not a:
                continue  # the term vanishes at w = 0
            c *= a**w
        coeffs[k] += c
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


# ---------------------------------------------------------------------------
# Bivariate gcd, delegated to sympy's exact dense gcd over Z[x, y].
# ---------------------------------------------------------------------------


def _to_dense(f):
    """The numerators of ``f``, as a sympy dense polynomial in ``ZZ[x, y]``."""
    from sympy.polys.densebasic import dmp_from_dict
    from sympy.polys.domains import ZZ

    return dmp_from_dict({exp: ZZ(c) for exp, c in f._terms.items()}, 1, ZZ)


def gcd_bivariate(f, g):
    """A gcd of ``f`` and ``g``, primitive with positive leading coefficient.

    Raises ``BothZero`` when both inputs vanish identically.
    """
    if f.is_zero and g.is_zero:
        raise BothZero("gcd of two zero polynomials")
    from sympy.polys.densebasic import dmp_to_dict
    from sympy.polys.domains import ZZ
    from sympy.polys.euclidtools import dmp_gcd

    # Not PolyElement.gcd: over ZZ it runs heugcd with no PRS fallback and can fail.
    h = dmp_gcd(_to_dense(f), _to_dense(g), 1, ZZ)
    terms = dmp_to_dict(h, 1, ZZ)
    return normalize_primitive(_canonical({exp: int(c) for exp, c in terms.items()}, 1))[1]


def gcd_many(polys):
    """gcd of a sequence of polynomials, ignoring zero entries."""
    acc = None
    for p in polys:
        if p.is_zero:
            continue
        acc = p if acc is None else gcd_bivariate(acc, p)
        if acc.is_constant():
            return ONE
    if acc is None:
        raise BothZero("gcd of all-zero sequence")
    return normalize_primitive(acc)[1]


# ---------------------------------------------------------------------------
# Coprimality certificates: integer gcds of values decide "coprime" (True)
# or "undecided" (False), the evaluation idea of the heuristic gcd (Char,
# Geddes and Gonnet 1989) cut down to a yes/no answer.  Callers fall back
# to the exact gcd on False.
# ---------------------------------------------------------------------------

# Values of the other variable to restrict at; not 0, where a germ singular
# at the origin always has a repeated factor.
_POINTS = (1, -1, 2)


def _value(coeffs, k, s):
    """The integer polynomial ``coeffs`` at ``2^k + s``, ``s = 1 or -1``;
    Horner's rule in shifts and adds."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc << k) + (acc if s > 0 else -acc) + c
    return acc


def coprime_univariate(p, q):
    """True only if the integer polynomials ``p`` and ``q`` (coefficient
    lists, index = degree, no zero leading entry) are coprime over Q.

    Let ``p`` be the one of smaller degree ``n >= 1`` and
    ``B = 2^n |p|_1``.  A nonconstant primitive ``g`` dividing ``p`` has
    ``|g|_1 <= B`` (Mignotte), so ``|g(t)| > t / 2`` at every integer
    ``t >= 2B + 2``, and ``g(t)`` divides ``p(t)`` and ``q(t)``; so
    ``2 gcd(p(t), q(t)) < t`` rules every such ``g`` out.  The points are
    ``2^k + 1`` and, when the values there share a chance divisor,
    ``2^k - 1``, for the least ``2^k > 2B + 2``.
    """
    if len(q) < len(p):
        p, q = q, p
    if len(p) < 2:  # a zero or constant operand
        return len(p) == 1 or len(q) == 1
    k = ((sum(map(abs, p)) << len(p)) + 2).bit_length()
    return any(
        2 * math.gcd(_value(p, k, s), _value(q, k, s)) < (1 << k) + s for s in (1, -1)
    )


def _derivative(coeffs):
    return [k * c for k, c in enumerate(coeffs)][1:]


def _split(terms, v):
    """The coefficients of the powers of variable ``v`` (0 for x, 1 for y),
    as coefficient lists in the other variable."""
    cols = {}
    for exp, c in terms.items():
        col, e = cols.setdefault(exp[v], []), exp[1 - v]
        col.extend([0] * (e + 1 - len(col)))
        col[e] = c
    return list(cols.values())


def _certify(f, g):
    """Shared body of the two certificates; ``g is None`` asks whether
    ``f`` is squarefree, otherwise whether ``f`` and ``g`` are coprime.

    For squarefreeness, f is first divided by ``x^a y^b``, a and b its
    least exponents, and the cofactor h is certified instead: h has a term
    free of x and one free of y, so the irreducibles x and y do not divide
    it, and f = x^a y^b h is squarefree iff a, b <= 1 and h is.  With a or
    b at least 2, f is left undecided.
    """
    ft = f._terms
    if g is None:
        a, b = min(ft)[0], min(map(itemgetter(1), ft))
        if a > 1 or b > 1:
            return False
        if a or b:
            ft = {(i - a, j - b): c for (i, j), c in ft.items()}
    degs = max(ft)[0], max(map(itemgetter(1), ft))
    if not any(degs):
        return True
    # v: the variable of smaller positive degree, so restrictions are short
    v = 0 if degs[0] and (degs[0] <= degs[1] or not degs[1]) else 1
    gt = None if g is None else g._terms
    # (i) factors involving v survive, with their v-degree, every
    # restriction w = a that keeps the v-degree of f
    for a in _POINTS:
        p = restrict_coeffs(ft, v, a)
        if len(p) == degs[v] + 1:
            q = _derivative(p) if gt is None else restrict_coeffs(gt, v, a)
            if coprime_univariate(p, q):
                break
    else:
        return False
    # (ii) a factor in w alone divides every v-coefficient of f and of g,
    # so there is none when f's leading one is a constant; otherwise, for
    # squarefreeness its square divides those of f, so it divides the
    # shortest one's derivative too
    if all(not exp[1 - v] for exp in ft if exp[v] == degs[v]):
        return True
    cols = sorted(_split(ft, v) + ([] if gt is None else _split(gt, v)), key=len)
    first = cols[0]
    others = cols[1:] if gt is not None else [_derivative(first)] + cols[1:]
    return any(coprime_univariate(first, c) for c in others)


def certify_coprime(f, g):
    """True only if the nonzero ``f`` and ``g`` are proven coprime over Q;
    False means undecided (``gcd_bivariate`` decides)."""
    return _certify(f, g)


def certify_squarefree(f):
    """True only if the nonzero ``f`` is proven squarefree over Q; False
    means undecided (``gcd(f, f_x, f_y)`` decides)."""
    return _certify(f, None)
