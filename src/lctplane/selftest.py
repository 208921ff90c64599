"""Self-verification suite: cross-checks every computation path against
the others on seeded random instances and the shipped golden data.

Each of the paper's eight acceptance criteria (``lct``'s closed form vs
the resolution oracle, lambda-set realization, table reproduction,
normal form invariants, classifier round trips, bound properties,
intersection multiplicity identities, and the resolution ledger shape)
is one ``check_*`` function that takes its counts, and an ``rng`` where
it draws instances, and returns a ``CheckResult`` with its instance
count.  ``run_selftest`` runs the eight with the counts of its scope;
the acceptance tests run them with their own counts.  Deterministic for a
given seed.  A check raises ``SelfTestFailure`` on its first failing
instance, with the instance rendered verbatim; ``run_selftest`` records
that text in the criterion's ``CheckResult`` and runs the others, so its
report says which criteria failed.  A refusal of the library inside a
check (any other ``LctError``, such as ``TargetNotRealizable`` from
``construct_witness``) fails its criterion the same way, recorded as
``"<ErrorClass>: <message>"``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from .classify import (
    all_symbols,
    class_info,
    classify_singularity,
    sample_normal_form,
    table1_values,
)
from .dispatch import lct
from .errors import IrrationalCenter, LctError, NotSquareFree, SelfTestFailure
from .highmult import analyze_high_mult, construct_witness, lambda_set
from .localinv import (
    intersection_multiplicity_origin,
    milnor_number_origin,
    weighted_lct_upper_bound,
)
from .parse import parse_poly
from .poly import BPoly, X
from .resolution import lct_from_tree, log_pullback_coefficients, resolve_over_origin

__all__ = [
    "CheckResult",
    "SelfTestReport",
    "check_bounds",
    "check_fulton",
    "check_lambda_realization",
    "check_ledger",
    "check_normal_forms",
    "check_round_trip",
    "check_table1",
    "check_theorem_vs_oracle",
    "run_selftest",
]

# Table 1: all lct values occurring on reduced curves of each degree.
_TABLE1 = {
    1: ("1",),
    2: ("1",),
    3: ("2/3", "3/4", "5/6", "1"),
    4: (
        "1/2", "5/9", "7/12", "3/5", "5/8", "9/14", "2/3",
        "7/10", "3/4", "5/6", "1",
    ),
    5: (
        "2/5", "7/16", "9/20", "5/11", "7/15", "1/2", "8/15",
        "6/11", "11/20", "5/9", "9/16", "4/7", "15/26", "7/12",
        "13/22", "3/5", "11/18", "5/8", "9/14", "2/3", "7/10",
        "3/4", "5/6", "1",
    ),
}


class CheckResult(NamedTuple):
    name: str
    passed: bool
    checked: int
    failure: str = ""  # a failed check's instance, expected value and value got

    def line(self):
        if not self.passed:
            return f"[FAIL] {self.name}: {self.failure}"
        return f"[PASS] {self.name}: {self.checked} checks"


class SelfTestReport(NamedTuple):
    scope: str
    seed: int
    results: tuple

    @property
    def passed(self):
        return all(r.passed for r in self.results)

    @property
    def total_checked(self):
        return sum(r.checked for r in self.results)

    def lines(self):
        out = [r.line() for r in self.results]
        status = "PASS" if self.passed else "FAIL"
        out.append(
            f"selftest {status}: {self.total_checked} checks over "
            f"{len(self.results)} criteria"
        )
        return out


def _fail(name, instance, expected, got):
    raise SelfTestFailure(
        f"{name}: instance {instance}\n  expected: {expected}\n  got: {got}"
    )


def _random_rational(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 3))


def _random_high_mult_instance(d, rng):
    """A square-free degree-d curve with multiplicity d-1 at the origin
    whose resolution tower stays rational, from the two families that
    realize every multiplicity-(d-1) germ: a degree-(d-2) plus a
    degree-(d-1) part, times a line in the component case.  Draws with
    small random rational coefficients are rejected until both hold, so
    the resolution oracle can check each instance."""
    while True:
        component_case = rng.random() < 0.5
        e = d - 1 if component_case else d  # f is x * (low + high), or low + high
        k = rng.randint(1 if component_case else 2, e - 1)
        low = BPoly.zero()
        for i in range(k, e):
            c = Fraction(1) if i == k else _random_rational(rng)
            low = low + BPoly.monomial(i, e - 1 - i, c)
        high = BPoly.monomial(0, e, rng.choice([1, -1, 2]))
        for j in range(1, e + 1):
            if rng.random() < 0.5:
                high = high + BPoly.monomial(j, e - j, _random_rational(rng))
        # low has x^k y^(e-1-k) and high has y^e, so f has degree d and
        # multiplicity d-1 by construction
        f = X * (low + high) if component_case else low + high
        try:
            resolve_over_origin(f)
        except (NotSquareFree, IrrationalCenter):
            # not reduced, or a center left the rationals; draw again
            continue
        return f


def check_table1():
    """Criterion 1: ``table1_values(d)`` is Table 1 for d = 1..5, with 24
    values at d = 5."""
    for d, expected in _TABLE1.items():
        want = tuple(Fraction(v) for v in expected)
        got = table1_values(d)
        if got != want:
            _fail("table1", f"d={d}", list(map(str, want)), list(map(str, got)))
    if len(table1_values(5)) != 24:
        _fail("table1", "d=5 count", 24, len(table1_values(5)))
    return CheckResult("table1-reproduction", True, len(_TABLE1) + 1)


def check_theorem_vs_oracle(rng, per_degree):
    """Criterion 2: on ``per_degree`` random multiplicity-(d-1) curves of
    each degree 3..6 the dispatcher takes the closed form, whose lct equals
    the resolution oracle's and lies in ``lambda_set(d)``."""
    for d in (3, 4, 5, 6):
        for _ in range(per_degree):
            f = _random_high_mult_instance(d, rng)
            fast, method = lct(f)
            if method != "highmult":
                _fail("theorem-vs-oracle", f.render(), "method highmult", method)
            oracle = lct_from_tree(resolve_over_origin(f))
            if fast != oracle:
                _fail("theorem-vs-oracle", f.render(), fast, oracle)
            if fast not in lambda_set(d):
                _fail("lambda-membership", f.render(), f"in {lambda_set(d)}", fast)
    return CheckResult("theorem-vs-oracle", True, 4 * per_degree)


def check_lambda_realization(rng, max_degree, per_degree):
    """Criterion 3: each target of ``lambda_set(d)``, d = 3..max_degree, is
    the lct of its witness, a degree-d curve of multiplicity d-1; and the
    lct of ``per_degree`` random such curves of each degree 3..5 lies in
    ``lambda_set(d)``."""
    n = 0
    for d in range(3, max_degree + 1):
        for target in lambda_set(d):
            # raises TargetNotRealizable when the witness's lct misses target
            f = construct_witness(d, target)
            if (f.degree, f.multiplicity()) != (d, d - 1):
                _fail(
                    "lambda-witness",
                    f.render(),
                    f"degree {d}, multiplicity {d - 1}",
                    f"degree {f.degree}, multiplicity {f.multiplicity()}",
                )
            n += 1
    for d in (3, 4, 5):
        for _ in range(per_degree):
            f = _random_high_mult_instance(d, rng)
            got = analyze_high_mult(f).lct
            if got not in lambda_set(d):
                _fail("lambda-membership", f.render(), f"in {lambda_set(d)}", got)
    return CheckResult("lambda-realization", True, n + 3 * per_degree)


def check_normal_forms(per_symbol):
    """Criterion 4: (multiplicity, Milnor number) of ``per_symbol`` samples
    of each normal form match its table row."""
    for symbol in all_symbols():
        info = class_info(symbol)
        for seed in range(per_symbol):
            f = sample_normal_form(symbol, seed)
            mult = f.multiplicity()
            mu = milnor_number_origin(f)
            if (mult, mu) != (info.mult, info.mu):
                _fail(
                    "normal-form-invariants",
                    f"{symbol}#{seed}: {f.render()}",
                    (info.mult, info.mu),
                    (mult, mu),
                )
    return CheckResult("normal-form-invariants", True, len(all_symbols()) * per_symbol)


def check_round_trip(per_symbol):
    """Criterion 5: the classifier names the symbol of ``per_symbol``
    samples of each normal form, and two degenerate family boundaries
    stay out of the table."""
    for symbol in all_symbols():
        for seed in range(per_symbol):
            f = sample_normal_form(symbol, seed)
            got = classify_singularity(f).symbol
            if got != symbol:
                _fail("classifier-round-trip", f.render(), symbol, got)
    # the T(2,4,4) boundary a^2 = 4 degenerates to a square
    square = parse_poly("x^4 + 2*x^2*y^2 + y^4")
    try:
        got = classify_singularity(square).symbol
    except NotSquareFree:
        pass
    else:
        _fail("classifier-boundary", square.render(), "NotSquareFree", got)
    # the T(2,3,6) boundary 4a^3 + 27 = 0 has no root p/q, |p| <= 40, q <= 10
    roots = [
        a
        for a in (Fraction(p, q) for p in range(-40, 41) for q in range(1, 11))
        if 4 * a**3 + 27 == 0
    ]
    if roots:
        _fail("classifier-boundary", "4a^3 + 27 = 0", "no root p/q", roots)
    return CheckResult("classifier-round-trip", True, len(all_symbols()) * per_symbol + 2)


def check_bounds(rng, per_degree, weights_per_instance):
    """Criterion 6: 1/mult <= lct <= 2/mult and lct <= the weighted bound
    for ``weights_per_instance`` random weights in 1..9, on ``per_degree``
    random multiplicity-(d-1) curves of each degree 3..5, whose lct is also
    at most 2/(d-1), and on one sample of each normal form."""
    corpus = []
    for d in (3, 4, 5):
        for _ in range(per_degree):
            f = _random_high_mult_instance(d, rng)
            corpus.append((f, analyze_high_mult(f).lct, True))
    for symbol in all_symbols():
        corpus.append((sample_normal_form(symbol, 0), class_info(symbol).lct, False))
    for f, value, high_mult in corpus:
        mult = f.multiplicity()
        if not Fraction(1, mult) <= value <= Fraction(2, mult):
            _fail("mult-bounds", f.render(), f"in [1/{mult}, 2/{mult}]", value)
        if high_mult and value > Fraction(2, f.degree - 1):
            _fail("mult-bounds", f.render(), f"<= 2/{f.degree - 1}", value)
        for _ in range(weights_per_instance):
            w = (rng.randint(1, 9), rng.randint(1, 9))
            bound = weighted_lct_upper_bound(f, w).bound
            if value > bound:
                _fail("weighted-bound", f"{f.render()} w={w}", f"<= {bound}", value)
    return CheckResult("bound-properties", True, len(corpus) * (weights_per_instance + 1))


def _random_through_origin(rng):
    while True:
        f = BPoly.zero()
        d = rng.randint(1, 3)
        for i in range(d + 1):
            for j in range(d + 1 - i):
                if i == j == 0:
                    continue
                if rng.random() < 0.5:
                    f = f + BPoly.monomial(i, j, _random_rational(rng))
        if not f.is_zero:
            return f


_SMOOTH = ("x + y^2", "y + x^2", "x - y^3", "x + y")


def check_fulton(rng, n_pairs):
    """Criterion 7: the intersection multiplicity is symmetric and additive
    on ``n_pairs`` random curve triples; mu = 0 at smooth points and
    mu(A_k) = k."""
    for _ in range(n_pairs):
        f = _random_through_origin(rng)
        g = _random_through_origin(rng)
        h = _random_through_origin(rng)
        fg = intersection_multiplicity_origin(f, g)
        gf = intersection_multiplicity_origin(g, f)
        if fg != gf:
            _fail("imult-symmetry", f"({f.render()}; {g.render()})", fg, gf)
        gh = intersection_multiplicity_origin(f, g * h)
        parts = fg + intersection_multiplicity_origin(f, h)
        if gh != parts:
            _fail(
                "imult-additivity",
                f"({f.render()}; {g.render()}; {h.render()})",
                parts,
                gh,
            )
    for k in range(1, 13):
        f = parse_poly(f"x^2 + y^{k + 1}")
        mu = milnor_number_origin(f)
        if mu != k:
            _fail("milnor-Ak", f.render(), k, mu)
    for text in _SMOOTH:
        mu = milnor_number_origin(parse_poly(text))
        if mu != 0:
            _fail("milnor-smooth", text, 0, mu)
    return CheckResult("fulton-properties", True, n_pairs + 12 + len(_SMOOTH))


def check_ledger(max_degree):
    """Criterion 8: the cusp's ledger is (2,1), (3,2), (6,4) with lct 5/6;
    along the component-case chains of degree 3..max_degree, k_q = k and
    the j-th tower divisor has log-pullback coefficient lam*(j*d+1) - 2*j."""
    n = 1
    cusp = parse_poly("x^2 + y^3")
    tree = resolve_over_origin(cusp)
    got = sorted((d.m, d.a) for d in tree.divisors())
    if got != [(2, 1), (3, 2), (6, 4)]:
        _fail("cusp-ledger", cusp.render(), [(2, 1), (3, 2), (6, 4)], got)
    if lct_from_tree(tree) != Fraction(5, 6):
        _fail("cusp-ledger", cusp.render(), "5/6", lct_from_tree(tree))
    # component-case chains: the j-th tower divisor has (m, a) = (j*d + 1, 2*j)
    for d in range(3, max_degree + 1):
        for k in range((d - 1) // 2, d - 1):
            lam = Fraction(2 * k + 1, k * d + 1)
            f = construct_witness(d, lam)
            analysis = analyze_high_mult(f)
            got = (analysis.line_is_component, analysis.k_q, analysis.lct)
            if got != (True, k, lam):
                _fail(
                    "component-ledger",
                    f.render(),
                    f"line is component, k_q = {k}, lct = {lam}",
                    f"line is component: {got[0]}, k_q = {got[1]}, lct = {got[2]}",
                )
            tree = resolve_over_origin(f)
            coeffs = log_pullback_coefficients(tree, lam)
            chain = sorted(
                (div.m, div.a, div.id)
                for div in tree.divisors()
                if div.m % d == 1 and div.m > 1
            )
            if len(chain) != k:
                _fail("component-ledger", f.render(), f"{k} tower divisors", len(chain))
            for j, (m, a, div_id) in enumerate(chain, start=1):
                if (m, a) != (j * d + 1, 2 * j):
                    _fail(
                        "component-ledger",
                        f.render(),
                        f"divisor j={j}: (m,a)=({j * d + 1},{2 * j})",
                        (m, a),
                    )
                want = lam * (j * d + 1) - 2 * j
                if coeffs[div_id] != want:
                    _fail("component-ledger", f.render(), want, coeffs[div_id])
                n += 1
    return CheckResult("resolution-ledger", True, n)


def run_selftest(scope="fast", seed=1):
    """Run the cross-check suite; returns a SelfTestReport.

    ``scope`` is "fast" (a few seconds) or "full" (adds larger sample
    sizes and lambda-set realization up to degree 7).  A criterion that
    fails is reported with its first failing instance and no checks
    counted, and the remaining criteria still run; a library error raised
    inside a criterion fails it too, recorded with its class name.
    """
    if scope not in ("fast", "full"):
        raise ValueError(f"scope must be 'fast' or 'full', got {scope!r}")
    rng = random.Random(f"selftest#{seed}")
    if scope == "fast":
        per_degree, lam_max, lam_random, per_symbol = 12, 5, 4, 2
        bound_per_degree, fulton_pairs, ledger_max = 10, 60, 5
    else:
        per_degree, lam_max, lam_random, per_symbol = 40, 7, 10, 6
        bound_per_degree, fulton_pairs, ledger_max = 34, 200, 7
    criteria = (
        ("table1-reproduction", check_table1),
        ("theorem-vs-oracle", lambda: check_theorem_vs_oracle(rng, per_degree)),
        ("lambda-realization", lambda: check_lambda_realization(rng, lam_max, lam_random)),
        ("normal-form-invariants", lambda: check_normal_forms(per_symbol)),
        ("classifier-round-trip", lambda: check_round_trip(per_symbol)),
        ("bound-properties", lambda: check_bounds(rng, bound_per_degree, 20)),
        ("fulton-properties", lambda: check_fulton(rng, fulton_pairs)),
        ("resolution-ledger", lambda: check_ledger(ledger_max)),
    )
    results = []
    for name, check in criteria:
        try:
            results.append(check())
        except LctError as exc:  # a failed check, or a refusal of the library
            failure = exc if isinstance(exc, SelfTestFailure) else f"{type(exc).__name__}: {exc}"
            results.append(CheckResult(name, False, 0, str(failure)))
    return SelfTestReport(scope=scope, seed=seed, results=tuple(results))
