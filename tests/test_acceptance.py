"""Acceptance criteria, one test per criterion.

Each test runs the shipped check of its criterion from
``lctplane.selftest`` with its own counts and seed, larger than those of
``lctplane selftest fast``; a check raises ``SelfTestFailure`` on its
first bad instance.  All comparisons are exact rational equality — zero
tolerance throughout.  Each test's one-line verdict is printed in the
terminal summary (see conftest.py).
"""

import random
import time

from lctplane import selftest
from lctplane.classify import all_symbols

# The independent reference that the shipped copy of Table 1 must equal.
TABLE1 = {
    1: ("1",),
    2: ("1",),
    3: ("2/3", "3/4", "5/6", "1"),
    4: (
        "1/2", "5/9", "7/12", "3/5", "5/8", "9/14",
        "2/3", "7/10", "3/4", "5/6", "1",
    ),
    5: (
        "2/5", "7/16", "9/20", "5/11", "7/15", "1/2", "8/15",
        "6/11", "11/20", "5/9", "9/16", "4/7", "15/26", "7/12",
        "13/22", "3/5", "11/18", "5/8", "9/14", "2/3", "7/10",
        "3/4", "5/6", "1",
    ),
}

SAMPLES_PER_SYMBOL = 50


def test_criterion_1_table1_reproduction():
    """criterion 1: table1_values(d) equals Table 1 exactly for d=1..5 (24 values at d=5), < 1 s"""
    start = time.perf_counter()
    assert selftest.check_table1().checked == len(TABLE1) + 1
    assert selftest._TABLE1 == TABLE1
    assert time.perf_counter() - start < 1.0


def test_criterion_2_theorem_vs_oracle():
    """criterion 2: the dispatcher takes the closed form, whose lct equals resolution-oracle lct and lies in lambda_set(d), on >= 100 random instances per degree 3..6, < 60 s"""
    start = time.perf_counter()
    rng = random.Random("acceptance-criterion-2")
    assert selftest.check_theorem_vs_oracle(rng, 100).checked == 4 * 100
    assert time.perf_counter() - start < 60.0


def test_criterion_3_lambda_realization():
    """criterion 3: every lambda_set(d) target is realized by a degree-d, multiplicity-(d-1) witness for d=3..7, and random lcts stay in the set, < 10 s"""
    start = time.perf_counter()
    rng = random.Random("acceptance-criterion-3")
    # 27 lambda-set targets for d = 3..7, then 25 random curves per d = 3..5
    assert selftest.check_lambda_realization(rng, 7, 25).checked == 27 + 3 * 25
    assert time.perf_counter() - start < 10.0


def test_criterion_4_normal_form_invariants():
    """criterion 4: (mult, mu) of >= 50 samples per classification row match the table exactly, < 30 s"""
    start = time.perf_counter()
    result = selftest.check_normal_forms(SAMPLES_PER_SYMBOL)
    assert result.checked == len(all_symbols()) * SAMPLES_PER_SYMBOL
    assert time.perf_counter() - start < 30.0


def test_criterion_5_classifier_round_trip():
    """criterion 5: classify(sample(s)) == s for all symbols and 50 seeds; degenerate boundaries raise NotSquareFree"""
    result = selftest.check_round_trip(SAMPLES_PER_SYMBOL)
    assert result.checked == len(all_symbols()) * SAMPLES_PER_SYMBOL + 2


def test_criterion_6_bound_properties():
    """criterion 6: 1/mult <= lct <= 2/mult, lct <= 2/(d-1) at mult-(d-1) points, lct <= weighted bound for 20 random weights in 1..9, on 15 random instances per degree 3..5 and one sample per normal form"""
    rng = random.Random("acceptance-criterion-6")
    result = selftest.check_bounds(rng, 15, 20)
    assert result.checked == (3 * 15 + len(all_symbols())) * (20 + 1)


def test_criterion_7_fulton_properties():
    """criterion 7: I0 symmetry and additivity on >= 500 random pairs; mu = 0 at smooth points; mu(A_k) = k"""
    rng = random.Random("acceptance-criterion-7")
    # 500 triples, A_1..A_12 and four smooth germs
    assert selftest.check_fulton(rng, 500).checked == 500 + 12 + 4


def test_criterion_8_resolution_ledger():
    """criterion 8: cusp ledger is (2,1),(3,2),(6,4) with lct 5/6; component-case chains have k_q = k and coefficients lam*(j*d+1) - 2*j"""
    # the cusp, then the k tower divisors of each chain: k = 1 at d = 3,
    # 1..2 at d = 4, 2..3 at d = 5 and 2..4 at d = 6
    assert selftest.check_ledger(6).checked == 1 + 1 + 3 + 5 + 9
