"""Self-verification suite: cross-checks every computation path against
the others on seeded random instances and the shipped golden data.

``run_selftest`` executes eight criteria (``lct``'s closed form vs the
resolution oracle, lambda-set realization, table reproduction, normal
form invariants, classifier round trips, bound properties, intersection
multiplicity identities, and the resolution ledger shape) and reports a
pass/fail line with instance counts for each.  Deterministic for a given
seed.  The first failing instance aborts the run via ``SelfTestFailure``
with the instance rendered verbatim.
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
from .corpus import random_high_mult_instance, random_rational
from .dispatch import lct
from .errors import SelfTestFailure
from .highmult import analyze_high_mult, construct_witness, lambda_set
from .localinv import (
    intersection_multiplicity_origin,
    milnor_number_origin,
    weighted_lct_upper_bound,
)
from .parse import parse_poly
from .poly import BPoly
from .resolution import lct_from_tree, log_pullback_coefficients, resolve_over_origin

__all__ = ["CheckResult", "SelfTestReport", "run_selftest"]

# Table 1: all lct values occurring on reduced curves of each degree.
_TABLE1 = {
    1: ["1"],
    2: ["1"],
    3: ["2/3", "3/4", "5/6", "1"],
    4: [
        "1/2", "5/9", "7/12", "3/5", "5/8", "9/14", "2/3",
        "7/10", "3/4", "5/6", "1",
    ],
    5: [
        "2/5", "7/16", "9/20", "5/11", "7/15", "1/2", "8/15",
        "6/11", "11/20", "5/9", "9/16", "4/7", "15/26", "7/12",
        "13/22", "3/5", "11/18", "5/8", "9/14", "2/3", "7/10",
        "3/4", "5/6", "1",
    ],
}


class CheckResult(NamedTuple):
    name: str
    passed: bool
    checked: int

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.checked} checks"


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


def _check_table1():
    n = 0
    for d, expected in _TABLE1.items():
        want = tuple(Fraction(v) for v in expected)
        got = table1_values(d)
        if got != want:
            _fail("table1", f"d={d}", list(map(str, want)), list(map(str, got)))
        n += 1
    if len(table1_values(5)) != 24:
        _fail("table1", "d=5 count", 24, len(table1_values(5)))
    return CheckResult("table1-reproduction", True, n + 1)


def _check_theorem_vs_oracle(rng, per_degree):
    n = 0
    for d in (3, 4, 5, 6):
        for _ in range(per_degree):
            f = random_high_mult_instance(d, rng)
            fast, method = lct(f)
            if method != "highmult":
                _fail("theorem-vs-oracle", f.render(), "method highmult", method)
            oracle = lct_from_tree(resolve_over_origin(f))
            if fast != oracle:
                _fail("theorem-vs-oracle", f.render(), fast, oracle)
            if fast not in lambda_set(d):
                _fail("lambda-membership", f.render(), f"in {lambda_set(d)}", fast)
            n += 1
    return CheckResult("theorem-vs-oracle", True, n)


def _check_lambda_realization(max_degree):
    n = 0
    for d in range(3, max_degree + 1):
        for target in lambda_set(d):
            f = construct_witness(d, target)
            got = analyze_high_mult(f).lct
            if got != target:
                _fail("lambda-realization", f.render(), target, got)
            n += 1
    return CheckResult("lambda-realization", True, n)


def _check_normal_forms(samples_per_symbol):
    n = 0
    for symbol in all_symbols():
        info = class_info(symbol)
        for seed in range(samples_per_symbol):
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
            n += 1
    return CheckResult("normal-form-invariants", True, n)


def _check_round_trip(samples_per_symbol):
    n = 0
    for symbol in all_symbols():
        for seed in range(samples_per_symbol):
            f = sample_normal_form(symbol, seed)
            got = classify_singularity(f).symbol
            if got != symbol:
                _fail("classifier-round-trip", f.render(), symbol, got)
            n += 1
    return CheckResult("classifier-round-trip", True, n)


def _check_bounds(rng, n_instances, weights_per_instance):
    n = 0
    for _ in range(n_instances):
        d = rng.choice([3, 4, 5])
        f = random_high_mult_instance(d, rng)
        lct = analyze_high_mult(f).lct
        mult = f.multiplicity()
        if not Fraction(1, mult) <= lct <= Fraction(2, mult):
            _fail("mult-bounds", f.render(), f"in [1/{mult}, 2/{mult}]", lct)
        if lct > Fraction(2, d - 1):
            _fail("mult-bounds", f.render(), f"<= 2/{d - 1}", lct)
        for _ in range(weights_per_instance):
            w = (rng.randint(1, 6), rng.randint(1, 6))
            bound = weighted_lct_upper_bound(f, w).bound
            if lct > bound:
                _fail("weighted-bound", f"{f.render()} w={w}", f"<= {bound}", lct)
            n += 1
        n += 1
    return CheckResult("bound-properties", True, n)


def _random_through_origin(rng):
    while True:
        f = BPoly.zero()
        d = rng.randint(1, 3)
        for i in range(d + 1):
            for j in range(d + 1 - i):
                if i == j == 0:
                    continue
                if rng.random() < 0.5:
                    f = f + BPoly.monomial(i, j, random_rational(rng))
        if not f.is_zero:
            return f


def _check_fulton(rng, n_pairs):
    n = 0
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
        n += 1
    # mu = 0 exactly at smooth points; mu(A_k) = k
    for k in range(1, 13):
        f = parse_poly(f"x^2 + y^{k + 1}")
        mu = milnor_number_origin(f)
        if mu != k:
            _fail("milnor-Ak", f.render(), k, mu)
        n += 1
    smooth = parse_poly("x + y^2")
    if milnor_number_origin(smooth) != 0:
        _fail("milnor-smooth", smooth.render(), 0, milnor_number_origin(smooth))
    n += 1
    return CheckResult("fulton-properties", True, n)


def _check_ledger(max_degree):
    n = 0
    cusp = parse_poly("x^2 + y^3")
    tree = resolve_over_origin(cusp)
    got = sorted((d.m, d.a) for d in tree.divisors())
    if got != [(2, 1), (3, 2), (6, 4)]:
        _fail("cusp-ledger", cusp.render(), [(2, 1), (3, 2), (6, 4)], got)
    if lct_from_tree(tree) != Fraction(5, 6):
        _fail("cusp-ledger", cusp.render(), "5/6", lct_from_tree(tree))
    n += 1
    # component-case chains: the j-th tower divisor has (m, a) =
    # (j*d + 1, 2*j), so its log-pullback coefficient is lam*(j*d+1) - 2*j
    for d in range(3, max_degree + 1):
        for k in range((d - 1) // 2, d - 1):
            target = Fraction(2 * k + 1, k * d + 1)
            f = construct_witness(d, target)
            analysis = analyze_high_mult(f)
            if not analysis.line_is_component:
                _fail("component-ledger", f.render(), "line is component", analysis)
            tree = resolve_over_origin(f)
            lam = analysis.lct
            coeffs = log_pullback_coefficients(tree, lam)
            chain = sorted(
                (div.m, div.a, div.id)
                for div in tree.divisors()
                if div.m % d == 1 and div.m > 1
            )
            if len(chain) != analysis.k_q:
                _fail(
                    "component-ledger",
                    f.render(),
                    f"{analysis.k_q} tower divisors",
                    len(chain),
                )
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
    sizes and lambda-set realization up to degree 7).  Raises
    ``SelfTestFailure`` on the first failing instance.
    """
    if scope not in ("fast", "full"):
        raise ValueError(f"scope must be 'fast' or 'full', got {scope!r}")
    rng = random.Random(f"selftest#{seed}")
    if scope == "fast":
        per_degree, lam_max, per_symbol = 12, 5, 2
        bound_instances, fulton_pairs, ledger_max = 30, 60, 5
    else:
        per_degree, lam_max, per_symbol = 40, 7, 6
        bound_instances, fulton_pairs, ledger_max = 100, 200, 7
    results = (
        _check_table1(),
        _check_theorem_vs_oracle(rng, per_degree),
        _check_lambda_realization(lam_max),
        _check_normal_forms(per_symbol),
        _check_round_trip(per_symbol),
        _check_bounds(rng, bound_instances, 20),
        _check_fulton(rng, fulton_pairs),
        _check_ledger(ledger_max),
    )
    return SelfTestReport(scope=scope, seed=seed, results=results)
