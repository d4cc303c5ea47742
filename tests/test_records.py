"""The result records: immutable named tuples, compared by value, printed by field.

Each case builds one record twice, independently.  The reprs and dicts below
are the ones the records printed as frozen dataclasses; as tuples they must
read the same.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import newtonpoly
from newtonpoly.cli import canonical_json
from newtonpoly.closedform import AuditRecord, IdentityCheckReport, closed_audit, lemma1_check
from newtonpoly.errors import DomainError, StructuralError
from newtonpoly.newton import (CoprimalityReport, NewtonPair, QuadraticCoeffs, TrialWitness,
                               iterate_pair)
from newtonpoly.qalgebra import QConjectureReport, conjecture_check
from newtonpoly.quadfield import ConjugacyReport, SampleTrace, conjugacy_check
from newtonpoly.smoothness import (SmoothnessEntry, SmoothnessReport, SmoothPart, certify_pair,
                                   smooth_part)

_PAIR_0 = {"n": 0,
           "p": {"vars": ["a", "b", "c", "x"], "terms": [{"exp": [0, 0, 0, 1], "coeff": "1"}]},
           "q": {"vars": ["a", "b", "c", "x"], "terms": [{"exp": [0, 0, 0, 0], "coeff": "1"}]}}
_TRACE = ("SampleTrace(z=Fraction(2, 1), status='ok', reason=None, newton_value=Fraction(5, 4), "
          "conjugacy_value=(Fraction(5, 4), Fraction(0, 1), 4), match=True)")
_TRACE_DICT = {"z": "2", "status": "ok", "reason": None, "newton_value": "5/4",
               "conjugacy_value": {"u": "5/4", "v": "0", "d": 4}, "match": True}
_ENTRY = ("SmoothnessEntry(poly='P', monomial=(0, 0, 0, 1), coefficient_abs=1, smooth=True, "
          "residual=1, largest_prime_found=None, factorization={})")
_ENTRY_Q = ("SmoothnessEntry(poly='Q', monomial=(0, 0, 0, 0), coefficient_abs=1, smooth=True, "
            "residual=1, largest_prime_found=None, factorization={})")
_ENTRY_DICT = {"poly": "P", "monomial": [0, 0, 0, 1], "coefficient_abs": "1", "smooth": True,
               "residual": "1", "largest_prime_found": None, "factorization": {}}
_PER_N = {"n": 0, "match": True, "first_differing_word": None}


def _conjugacy():
    return conjugacy_check(QuadraticCoeffs(1, 0, -1), 1, [2])


# (type, build, field names in order, repr, to_dict() or None, hashable)
CASES = [
    (AuditRecord, lambda: closed_audit(1)[0],
     ("poly", "n", "k", "j", "coeff", "monomial"),
     "AuditRecord(poly='P', n=1, k=2, j=0, coeff=1, monomial=(1, 0, 0, 2))",
     {"poly": "P", "n": 1, "k": 2, "j": 0, "coeff": "1", "monomial": [1, 0, 0, 2]}, True),
    (IdentityCheckReport, lambda: lemma1_check(3),
     ("name", "max_n", "passed", "first_failure"),
     "IdentityCheckReport(name='power-difference identity', max_n=3, passed=True, "
     "first_failure=None)",
     {"name": "power-difference identity", "max_n": 3, "passed": True, "first_failure": None},
     True),
    (QuadraticCoeffs, lambda: QuadraticCoeffs(1, -3, 2),
     ("a", "b", "c"),
     "QuadraticCoeffs(a=Fraction(1, 1), b=Fraction(-3, 1), c=Fraction(2, 1))", None, True),
    (NewtonPair, lambda: iterate_pair(0),
     ("n", "p", "q"),
     "NewtonPair(n=0, p=MultiPoly(('a', 'b', 'c', 'x'), {(0, 0, 0, 1): 1}), "
     "q=MultiPoly(('a', 'b', 'c', 'x'), {(0, 0, 0, 0): 1}))", _PAIR_0, False),
    (TrialWitness, lambda: TrialWitness(3, 5, -2, 0),
     ("a", "b", "c", "gcd_degree"),
     "TrialWitness(a=3, b=5, c=-2, gcd_degree=0)",
     {"a": 3, "b": 5, "c": -2, "gcd_degree": 0}, True),
    (CoprimalityReport,
     lambda: CoprimalityReport(n=1, method="randomized-substitution", trials=1, seed=0,
                               witnesses=(TrialWitness(1, 0, -1, 0),), verdict="pass"),
     ("n", "method", "trials", "seed", "witnesses", "verdict", "resultant", "resultant_nonzero",
      "degenerate_probes"),
     "CoprimalityReport(n=1, method='randomized-substitution', trials=1, seed=0, "
     "witnesses=(TrialWitness(a=1, b=0, c=-1, gcd_degree=0),), verdict='pass', resultant=None, "
     "resultant_nonzero=None, degenerate_probes=())",
     {"n": 1, "method": "randomized-substitution", "trials": 1, "seed": 0,
      "witnesses": [{"a": 1, "b": 0, "c": -1, "gcd_degree": 0}], "verdict": "pass",
      "resultant": None, "resultant_nonzero": None, "degenerate_probes": []}, True),
    (QConjectureReport, lambda: conjecture_check(0),
     ("max_n", "per_n", "passed"),
     f"QConjectureReport(max_n=0, per_n=({_PER_N!r},), passed=True)",
     {"max_n": 0, "passed": True, "per_n": [_PER_N]}, False),
    (SampleTrace, lambda: _conjugacy().traces[0],
     ("z", "status", "reason", "newton_value", "conjugacy_value", "match"),
     _TRACE, _TRACE_DICT, True),
    (ConjugacyReport, _conjugacy,
     ("coeffs", "n", "traces", "checked", "skipped", "verdict"),
     f"ConjugacyReport(coeffs=(1, 0, -1), n=1, traces=({_TRACE},), checked=1, skipped=0, "
     "verdict='pass')",
     {"coeffs": {"a": 1, "b": 0, "c": -1}, "n": 1, "checked": 1, "skipped": 0, "verdict": "pass",
      "traces": [_TRACE_DICT]}, True),
    (SmoothPart, lambda: smooth_part(12, 4),
     ("smooth", "residual", "factorization"),
     "SmoothPart(smooth=True, residual=1, factorization={2: 2, 3: 1})", None, False),
    (SmoothnessEntry, lambda: certify_pair(iterate_pair(0)).entries[0],
     ("poly", "monomial", "coefficient_abs", "smooth", "residual", "largest_prime_found",
      "factorization"),
     _ENTRY, _ENTRY_DICT, False),
    (SmoothnessReport, lambda: certify_pair(iterate_pair(0)),
     ("n", "bound", "mode", "entries", "all_smooth", "max_abs_coefficient",
      "count_exceeding_bound", "total_coefficients"),
     f"SmoothnessReport(n=0, bound=1, mode='inclusive', entries=({_ENTRY}, {_ENTRY_Q}), "
     "all_smooth=True, max_abs_coefficient=1, count_exceeding_bound=0, total_coefficients=2)",
     {"n": 0, "bound": 1, "mode": "inclusive",
      "summary": {"all_smooth": True, "max_abs_coefficient": "1", "count_exceeding_bound": 0,
                  "total_coefficients": 2},
      "entries": [_ENTRY_DICT, {**_ENTRY_DICT, "poly": "Q", "monomial": [0, 0, 0, 0]}]}, False),
]


@pytest.mark.parametrize("kind, build, fields, text, data, hashable", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_record_semantics(kind, build, fields, text, data, hashable):
    record, again = build(), build()
    assert type(record) is kind and record._fields == fields
    for name in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert record == again
    if hashable:
        assert hash(record) == hash(again)
    else:
        with pytest.raises(TypeError):
            hash(record)
    assert repr(record) == text
    if data is not None:
        assert record.to_dict() == data


def test_records_are_tuples_of_their_fields():
    # What tuple records change: equality with a plain tuple, iteration, and a
    # bare record serialized as a JSON list (reports go through to_dict).
    witness = TrialWitness(1, 2, 3, 0)
    assert witness == (1, 2, 3, 0) and list(witness) == [1, 2, 3, 0]
    assert json.loads(canonical_json(witness)) == [1, 2, 3, 0]


def test_replace_and_make_rerun_the_checks():
    with pytest.raises(DomainError):
        QuadraticCoeffs(1, 2, 3)._replace(a=0)
    with pytest.raises(DomainError):
        QuadraticCoeffs._make([0, 1, 1])
    with pytest.raises(StructuralError):
        iterate_pair(2)._replace(n=3)
    with pytest.raises(StructuralError):
        NewtonPair._make([3, *iterate_pair(2)[1:]])
    coeffs = QuadraticCoeffs(1, 2, 3)._replace(b="1/2")
    assert coeffs == QuadraticCoeffs(1, Fraction(1, 2), 3) and type(coeffs.b) is Fraction
    assert iterate_pair(2)._replace(n=2) == iterate_pair(2)


def test_import_leaves_out_dataclasses_and_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize, and execs the methods
    # of every decorated class: a quarter of the package's import time.
    src = str(Path(newtonpoly.__file__).resolve().parents[1])
    code = ("import sys, newtonpoly, newtonpoly.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
