"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every check here is exact (zero tolerance): the results being verified are
polynomial identities over Z[a,b,c] and exact rational/quadratic-irrational
values, so equality is literal canonical-form equality.  Runtime bounds are
asserted where the criterion states one.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from newtonpoly.closedform import (
    binomial,
    closed_p,
    closed_q,
    lemma1_check,
    lemma1_recurrence_check,
)
from newtonpoly.errors import DomainError
from newtonpoly.newton import (
    QuadraticCoeffs,
    coprimality_check,
    eval_pair,
    iterate_pair,
    iterate_value,
    sylvester_resultant,
)
from newtonpoly.polyring import ABCX, MultiPoly
from newtonpoly.qalgebra import (
    conjecture_check,
    nc_iterate,
    qbinomial,
    qbinomial_product_value,
    qbinomial_theorem_check,
)
from newtonpoly.quadfield import conjugacy_check, root_form_pair
from newtonpoly.smoothness import certify_pair

FIVE_TRIPLES = ((1, 0, -1), (1, -3, 2), (2, 1, -3), (1, 0, 1), (3, -2, -1))

SAMPLES = [Fraction(s) for s in
           ("2", "3", "4", "5", "7", "-2", "1/2", "1/3", "2/3", "5/4", "-5/3",
            "7/5", "9/7", "11/3", "-7/2")]


def report(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_criterion_1_three_way_equivalence():
    start = time.monotonic()
    ok = True
    for n in range(6):
        pair = iterate_pair(n)
        ok = ok and pair.p == closed_p(n) and pair.q == closed_q(n)
    for a, b, c in FIVE_TRIPLES:
        coeffs = QuadraticCoeffs(a, b, c)
        bindings = {"a": a, "b": b, "c": c}
        for n in range(5):
            rf_p, rf_q = root_form_pair(coeffs, n)
            ok = ok and rf_p == closed_p(n).substitute(bindings)
            ok = ok and rf_q == closed_q(n).substitute(bindings)
    ok = ok and (time.monotonic() - start) < 60
    report(1, "three-way equivalence", ok)


def test_criterion_2_smoothness_modes():
    start = time.monotonic()
    ok = all(certify_pair(iterate_pair(n), mode="inclusive").passed for n in range(1, 6))
    ok = ok and all(certify_pair(iterate_pair(n), mode="strict").passed
                    for n in range(2, 6))
    strict_n1 = certify_pair(iterate_pair(1), mode="strict")
    failures = strict_n1.failures()
    ok = ok and not strict_n1.passed and len(failures) == 1
    ok = ok and failures[0].poly == "Q" and failures[0].coefficient_abs == 2 \
        and failures[0].monomial == (1, 0, 0, 1)
    ok = ok and (time.monotonic() - start) < 30
    report(2, "smoothness inclusive 1..5, strict 2..5, strict n=1 names Q's 2", ok)


def test_criterion_3_most_coefficients_exceed_bound():
    expected = {3: (25, 37), 4: (126, 137), 5: (518, 529)}
    ok = True
    for n, (exceeding, total) in expected.items():
        summary = certify_pair(iterate_pair(n))
        ok = ok and summary.count_exceeding_bound == exceeding
        ok = ok and summary.total_coefficients == total
        ok = ok and 2 * summary.count_exceeding_bound > summary.total_coefficients
    report(3, "strict majority of coefficients exceed 2^n for n=3..5", ok)


def test_criterion_4_power_difference_identity():
    start = time.monotonic()
    ok = lemma1_check(64).passed and lemma1_recurrence_check(32).passed
    ok = ok and (time.monotonic() - start) < 10
    report(4, "power-difference identity to 64 plus recurrence to 32", ok)


def test_criterion_5_coprimality():
    ok = True
    a_times_disc = (MultiPoly.term(ABCX, 1, a=1, b=2) + MultiPoly.term(ABCX, -4, a=2, c=1))
    pair1 = iterate_pair(1)
    ok = ok and sylvester_resultant(pair1.p, pair1.q, "x") == a_times_disc
    for n in range(4):
        pair = iterate_pair(n)
        ok = ok and not sylvester_resultant(pair.p, pair.q, "x").is_zero
    for n in range(6):
        result = coprimality_check(iterate_pair(n), trials=10, seed=42)
        ok = ok and result.passed
        ok = ok and all(w.gcd_degree == 0 for w in result.witnesses)
    report(5, "coprimality: exact resultants n<=3, specializations n<=5", ok)


def test_criterion_6_conjugacy():
    ok = True
    for a, b, c in FIVE_TRIPLES:
        coeffs = QuadraticCoeffs(a, b, c)
        for n in range(1, 5):
            result = conjugacy_check(coeffs, n, SAMPLES)
            ok = ok and result.passed and result.checked >= 10
    report(6, "newton iterates equal squaring in phi-coordinates, n<=4", ok)


def test_criterion_7_q_analogue():
    start = time.monotonic()
    ok = conjecture_check(3).passed
    for n in range(5):
        nc_p, nc_q = nc_iterate(n)
        pair = iterate_pair(n)
        ok = ok and nc_p.substitute({"q": 1, "y": 1}) == pair.p
        ok = ok and nc_q.substitute({"q": 1, "y": 1}) == pair.q
    ok = ok and qbinomial_theorem_check(6).passed
    for n in range(13):
        for k in range(n + 1):
            gauss = qbinomial(n, k)
            ok = ok and gauss.evaluate({"q": 1}) == binomial(n, k)
            for q_value in (2, 3, 5):
                ok = ok and gauss.evaluate({"q": q_value}) == \
                    qbinomial_product_value(n, k, q_value)
    ok = ok and (time.monotonic() - start) < 120
    report(7, "q-analogue: conjecture n<=3, specialization n<=4, theorem n<=6", ok)


def test_criterion_8_numeric_consistency():
    rng = random.Random(20250810)
    ok = True
    for n in range(6):
        pair = iterate_pair(n)
        checked = 0
        while checked < 20:
            coeffs = QuadraticCoeffs(
                Fraction(rng.randint(1, 12), rng.randint(1, 6)),
                Fraction(rng.randint(-12, 12), rng.randint(1, 6)),
                Fraction(rng.randint(-12, 12), rng.randint(1, 6)))
            x0 = Fraction(rng.randint(-30, 30), rng.randint(1, 15))
            try:
                stepwise = iterate_value(coeffs, x0, n)
            except DomainError:
                continue
            ok = ok and eval_pair(pair, coeffs, x0) == stepwise
            checked += 1
    report(8, "symbolic pair equals stepwise newton at 20 points per n<=5", ok)


def test_criterion_9_interface_determinism():
    def generate(method, n):
        return subprocess.run(
            [sys.executable, "-m", "newtonpoly.cli", "generate", "--n", str(n),
             "--method", method],
            capture_output=True, text=True, check=True).stdout

    ok = True
    for n in range(4):
        first = generate("recurrence", n)
        ok = ok and first == generate("closed", n) == generate("recurrence", n)
        payload = json.loads(first)
        for key in ("p", "q"):
            ok = ok and MultiPoly.from_dict(payload[key]).to_dict() == payload[key]
    report(9, "byte-identical generation across methods and runs; round-trips", ok)
