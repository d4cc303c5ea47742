"""Command-line interface: generation, evaluation, and the verification suites.

One binary, subcommand style.  All output is deterministic: reports are JSON
on stdout (or --out), randomness is always seeded through flags, and there is
no environment-variable configuration.

Exit codes: 0 pass, 1 verification failure or domain error, 2 usage error,
3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import closedform, newton, qalgebra, quadfield, smoothness
from .errors import DomainError, ResourceCapError, StructuralError
from .newton import DEFAULT_CAP, NewtonPair, QuadraticCoeffs

# Reference coefficient triples used by the equivalence and conjugacy suites.
REFERENCE_TRIPLES = ((1, 0, -1), (1, -3, 2), (2, 1, -3), (1, 0, 1), (3, -2, -1))

# Sample pool for pointwise conjugacy checks; poles are skipped per sample.
SAMPLE_POOL = tuple(Fraction(s) for s in (
    "2", "3", "4", "5", "7", "-2", "1/2", "1/3", "2/3", "5/4", "-5/3",
    "7/5", "9/7", "11/3", "-7/2"))

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def canonical_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _build_pair(n: int, method: str, cap: int) -> NewtonPair:
    if method == "recurrence":
        return newton.iterate_pair(n, cap=cap)
    return NewtonPair(n, closedform.closed_p(n, cap=cap), closedform.closed_q(n, cap=cap))


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.method == "rootform":
        if args.a is None or args.b is None or args.c is None:
            raise StructuralError("--method rootform requires --a, --b and --c")
        coeffs = QuadraticCoeffs(args.a, args.b, args.c)
        p, q = quadfield.root_form_pair(coeffs, args.n, cap=args.cap)
        payload = {
            "n": args.n,
            "coeffs": {"a": str(coeffs.a), "b": str(coeffs.b), "c": str(coeffs.c)},
            "p": p.to_dict(),
            "q": q.to_dict(),
        }
    else:
        pair = _build_pair(args.n, args.method, args.cap)
        p, q = pair.p, pair.q
        payload = pair.to_dict()

    if args.audit is not None:
        if args.method != "closed":
            raise StructuralError("--audit is only meaningful with --method closed")
        lines = [json.dumps(r.to_dict()) for r in closedform.closed_audit(args.n, cap=args.cap)]
        Path(args.audit).write_text("\n".join(lines) + "\n", encoding="utf-8")

    if args.format == "json":
        _emit(canonical_json(payload), args.out)
    elif args.format == "latex":
        _emit(p.latex() + "\n" + q.latex() + "\n", args.out)
    else:
        _emit(f"P = {p}\nQ = {q}\n", args.out)
    return EXIT_PASS


def _cmd_eval(args: argparse.Namespace) -> int:
    coeffs = QuadraticCoeffs(args.a, args.b, args.c)
    pair = newton.iterate_pair(args.n, cap=args.cap)
    symbolic = newton.eval_pair(pair, coeffs, args.x)
    stepwise = newton.iterate_value(coeffs, args.x, args.n)
    if symbolic != stepwise:
        print(f"mismatch: P_n/Q_n = {symbolic} but stepwise Newton = {stepwise}",
              file=sys.stderr)
        return EXIT_FAIL
    _emit(f"{symbolic}\n", args.out)
    return EXIT_PASS


# ---------------------------------------------------------------- verify suites

def _suite_equivalence(args) -> tuple[bool, dict]:
    per_n = []
    ok = True
    for n in range(args.max_n + 1):
        pair = newton.iterate_pair(n, cap=args.cap)
        match = (pair.p == closedform.closed_p(n, cap=args.cap)
                 and pair.q == closedform.closed_q(n, cap=args.cap))
        per_n.append({"n": n, "recurrence_equals_closed": match})
        ok = ok and match
    rootform_results = []
    for a, b, c in REFERENCE_TRIPLES:
        coeffs = QuadraticCoeffs(a, b, c)
        bindings = {"a": a, "b": b, "c": c}
        for n in range(min(args.max_n, args.rootform_max_n) + 1):
            try:
                rf_p, rf_q = quadfield.root_form_pair(coeffs, n, cap=args.cap)
            except DomainError:      # a coefficient kept a radical or fractional part
                match = False
            else:
                match = (rf_p == closedform.closed_p(n).substitute(bindings)
                         and rf_q == closedform.closed_q(n).substitute(bindings))
            rootform_results.append({"coeffs": [a, b, c], "n": n, "match": match})
            ok = ok and match
    report = {"suite": "equivalence", "max_n": args.max_n,
              "rootform_max_n": args.rootform_max_n, "per_n": per_n,
              "rootform": rootform_results, "passed": ok}
    return ok, report


def _suite_smoothness(args) -> tuple[bool, dict]:
    pair = newton.iterate_pair(args.n, cap=args.cap)
    result = smoothness.certify_pair(pair, mode=args.mode)
    report = {"suite": "smoothness", "passed": result.passed}
    report.update(result.to_dict())
    return result.passed, report


def _suite_lemma1(args) -> tuple[bool, dict]:
    identity = closedform.lemma1_check(args.max_n)
    recurrence = closedform.lemma1_recurrence_check(min(args.max_n, 32))
    ok = identity.passed and recurrence.passed
    report = {"suite": "lemma1", "identity": identity.to_dict(),
              "recurrence": recurrence.to_dict(), "passed": ok}
    return ok, report


def _suite_coprime(args) -> tuple[bool, dict]:
    reports = []
    ok = True
    for n in range(args.max_n + 1):
        pair = newton.iterate_pair(n, cap=args.cap)
        result = newton.coprimality_check(pair, trials=args.trials, seed=args.seed)
        reports.append(result.to_dict())
        ok = ok and result.passed
    report = {"suite": "coprime", "max_n": args.max_n, "trials": args.trials,
              "seed": args.seed, "reports": reports, "passed": ok}
    return ok, report


def _parse_samples(text: str | None):
    if text is None:
        return SAMPLE_POOL
    try:
        return tuple(Fraction(piece) for piece in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise StructuralError(f"bad --samples value: {exc}") from exc


def _suite_conjugacy(args) -> tuple[bool, dict]:
    samples = _parse_samples(args.samples)
    results = []
    ok = True
    for a, b, c in REFERENCE_TRIPLES:
        coeffs = QuadraticCoeffs(a, b, c)
        for n in range(1, args.max_n + 1):
            result = quadfield.conjugacy_check(coeffs, n, samples)
            enough = result.checked >= args.min_checked
            results.append({"report": result.to_dict(), "enough_samples": enough})
            ok = ok and result.passed and enough
    report = {"suite": "conjugacy", "max_n": args.max_n,
              "min_checked": args.min_checked, "results": results, "passed": ok}
    return ok, report


# q = 1, y = 1 maps the noncommutative pair onto the commutative one over (a, b, c, x).
_COMMUTATIVE = {"q": 1, "y": 1}


def _suite_qconjecture(args) -> tuple[bool, dict]:
    result = qalgebra.conjecture_check(args.max_n, cap=args.cap)
    commutative = []
    commutative_ok = True
    for n in range(args.commutative_max_n + 1):
        nc_p, nc_q = qalgebra.nc_iterate(n, cap=args.cap)
        pair = newton.iterate_pair(n)
        match = (nc_p.substitute(_COMMUTATIVE) == pair.p
                 and nc_q.substitute(_COMMUTATIVE) == pair.q)
        commutative.append({"n": n, "match": match})
        commutative_ok = commutative_ok and match
    ok = result.passed and commutative_ok
    report = {"suite": "qconjecture", "conjecture": result.to_dict(),
              "commutative_specialization": commutative, "passed": ok}
    return ok, report


def _suite_qbinom(args) -> tuple[bool, dict]:
    theorem = qalgebra.qbinomial_theorem_check(args.max_n)
    product_ok = True
    first_product_failure = None
    for n in range(args.product_max_n + 1):
        for k in range(n + 1):
            polynomial = qalgebra.qbinomial(n, k)
            for q_value in (2, 3, 5):
                expected = qalgebra.qbinomial_product_value(n, k, q_value)
                if polynomial.evaluate({"q": q_value}) != expected:
                    product_ok = False
                    first_product_failure = first_product_failure or [n, k, q_value]
    symmetry_ok = True
    specialization_ok = True
    for n in range(args.symmetry_max_n + 1):
        for k in range(n + 1):
            polynomial = qalgebra.qbinomial(n, k)
            if polynomial != qalgebra.qbinomial(n, n - k):
                symmetry_ok = False
            if polynomial.evaluate({"q": 1}) != closedform.binomial(n, k):
                specialization_ok = False
    ok = theorem.passed and product_ok and symmetry_ok and specialization_ok
    report = {"suite": "qbinom", "theorem": theorem.to_dict(),
              "product_formula": {"max_n": args.product_max_n, "q_values": [2, 3, 5],
                                  "passed": product_ok,
                                  "first_failure": first_product_failure},
              "symmetry": {"max_n": args.symmetry_max_n, "passed": symmetry_ok},
              "binomial_specialization": {"max_n": args.symmetry_max_n,
                                          "passed": specialization_ok},
              "passed": ok}
    return ok, report


_SUITES = {
    "equivalence": _suite_equivalence,
    "smoothness": _suite_smoothness,
    "lemma1": _suite_lemma1,
    "coprime": _suite_coprime,
    "conjugacy": _suite_conjugacy,
    "qconjecture": _suite_qconjecture,
    "qbinom": _suite_qbinom,
}


def _cmd_verify(args: argparse.Namespace) -> int:
    ok, report = _SUITES[args.suite](args)
    _emit(canonical_json(report), args.out)
    return EXIT_PASS if ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="newtonpoly",
        description="Exact construction and verification of Newton-iterate "
                    "polynomials for the general quadratic.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="construct the iterate pair (P_n, Q_n)")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--method", choices=("recurrence", "closed", "rootform"),
                     default="recurrence")
    gen.add_argument("--format", choices=("json", "latex", "text"), default="json")
    gen.add_argument("--out", help="write output to this path instead of stdout")
    gen.add_argument("--cap", type=int, default=DEFAULT_CAP)
    gen.add_argument("--audit", help="with --method closed: write provenance "
                                     "records (JSON lines) to this path")
    gen.add_argument("--a", type=int)
    gen.add_argument("--b", type=int)
    gen.add_argument("--c", type=int)
    gen.set_defaults(func=_cmd_generate)

    ev = sub.add_parser("eval", help="evaluate the n-th iterate at an exact point")
    ev.add_argument("--n", type=int, required=True)
    ev.add_argument("--a", type=Fraction, required=True)
    ev.add_argument("--b", type=Fraction, required=True)
    ev.add_argument("--c", type=Fraction, required=True)
    ev.add_argument("--x", type=Fraction, required=True)
    ev.add_argument("--out")
    ev.add_argument("--cap", type=int, default=DEFAULT_CAP)
    ev.set_defaults(func=_cmd_eval)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("suite", choices=sorted(_SUITES))
    ver.add_argument("--max-n", dest="max_n", type=int, default=None)
    ver.add_argument("--n", type=int, default=None)
    ver.add_argument("--mode", choices=smoothness.MODES, default="inclusive")
    ver.add_argument("--trials", type=int, default=10)
    ver.add_argument("--seed", type=int, default=42)
    ver.add_argument("--cap", type=int, default=None)
    ver.add_argument("--rootform-max-n", dest="rootform_max_n", type=int, default=4)
    ver.add_argument("--commutative-max-n", dest="commutative_max_n", type=int, default=4)
    ver.add_argument("--product-max-n", dest="product_max_n", type=int, default=12)
    ver.add_argument("--symmetry-max-n", dest="symmetry_max_n", type=int, default=16)
    ver.add_argument("--min-checked", dest="min_checked", type=int, default=10)
    ver.add_argument("--samples", help="comma-separated exact sample points "
                                       "for the conjugacy suite")
    ver.add_argument("--report", "--out", dest="out",
                     help="write the report JSON to this path instead of stdout")
    ver.set_defaults(func=_cmd_verify)
    return parser


_SUITE_DEFAULT_MAX_N = {
    "equivalence": 5, "lemma1": 64, "coprime": 5, "conjugacy": 4,
    "qconjecture": 3, "qbinom": 6,
}

# Smallest --max-n at which each of these suites checks anything at all
# (lemma1's induction-step recurrence starts at n = 2).
_SUITE_MIN_MAX_N = {
    "equivalence": 0, "coprime": 0, "qconjecture": 0, "conjugacy": 1, "lemma1": 2,
    "qbinom": 1,
}

# Sub-check ranges that start at 0; a negative one would check nothing.
_SUBCHECK_MAX_N = ("commutative_max_n", "product_max_n", "symmetry_max_n")


def _normalize(args: argparse.Namespace) -> None:
    if args.command == "verify":
        if args.max_n is None:
            args.max_n = _SUITE_DEFAULT_MAX_N.get(args.suite, 4)
        minimum = _SUITE_MIN_MAX_N.get(args.suite)
        if minimum is not None and args.max_n < minimum:
            raise StructuralError(f"verify {args.suite} needs --max-n >= {minimum}")
        for name in _SUBCHECK_MAX_N:
            if getattr(args, name) < 0:
                raise StructuralError(f"--{name.replace('_', '-')} must be >= 0")
        if args.suite == "smoothness":
            if args.n is None:
                raise StructuralError("verify smoothness requires --n")
        if args.cap is None:
            # The noncommutative pair is far denser; its own default cap applies.
            args.cap = qalgebra.DEFAULT_NC_CAP if args.suite == "qconjecture" else DEFAULT_CAP
    if args.command in ("generate", "eval") and args.n < 0:
        raise StructuralError("--n must be nonnegative")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _normalize(args)
        return args.func(args)
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except StructuralError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
