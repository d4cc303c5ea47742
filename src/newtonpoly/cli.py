"""Command-line interface: generation, evaluation, and the verification suites.

One binary, subcommand style.  All output is deterministic: reports are JSON
on stdout (or --out), randomness is always seeded through flags, and there is
no environment-variable configuration.

Exit codes: 0 pass, 1 verification failure or domain error, 2 usage error,
3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from itertools import islice
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path
from typing import Iterable, Iterator

from . import closedform, newton, qalgebra, quadfield, smoothness
from .errors import DEFAULT_CAP, DomainError, ResourceCapError, StructuralError, check_index
from .newton import NewtonPair, QuadraticCoeffs
from .polyring import ABCX, Monomial, MultiPoly

# Reference coefficient triples used by the equivalence and conjugacy suites.
REFERENCE_TRIPLES = ((1, 0, -1), (1, -3, 2), (2, 1, -3), (1, 0, 1), (3, -2, -1))

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3


_INT = frozenset((int,))   # _INT.issuperset(map(type, items)): each item is exactly an int
_TEXT_CAP = 4096           # the most texts one canonical_json call keeps


class _IntTexts(dict):
    """int -> its text, (key, int) -> '"key": int'; filled on first use,
    kept up to ``_TEXT_CAP`` entries."""

    __slots__ = ()

    def __missing__(self, item) -> str:
        if type(item) is tuple:
            key, value = item
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            text = _encode_str(key) + ": " + int.__repr__(value)
        else:
            text = int.__repr__(item)
        if len(self) < _TEXT_CAP:
            self[item] = text
        return text


class Terms:
    """A polynomial given as its variables and its (monomial, coefficient) terms in
    graded-lex order, highest first, as ``MultiPoly.sorted_terms`` gives them:
    canonical_json writes it as that polynomial's ``to_dict()``."""

    __slots__ = ("varset", "terms")

    def __init__(self, varset, terms: Iterable[tuple[Monomial, int]]):
        self.varset, self.terms = varset, terms


def canonical_json(obj) -> str:
    """The report layout, byte for byte ``json.dumps(obj, indent=2) + "\\n"``.

    With ``indent`` set, ``json.dumps`` runs its pure-Python encoder, so the
    reports are written here instead: each container is one join of its
    children's text, its brackets folded into the first and last part, a
    dict key's prefix into the first part of the key's value, and the final
    newline into the top container's last part, so the whole text exists at
    most twice at once.  Takes dicts with str keys, lists, tuples, str, int,
    bool, None, ``MultiPoly`` and ``Terms``; anything else raises TypeError,
    and a container that holds itself raises ValueError.

    A dict or list whose values are all exactly ``int`` (no ``bool``) is one
    ``map`` over a text table made for this call, so each distinct int of a
    list, or ``(key, int)`` item of a dict, is turned into text once: the
    smoothness report repeats a few dozen ``"prime": multiplicity`` lines in
    every entry.  The table keeps at most ``_TEXT_CAP`` (4096) texts, so it
    does not grow with the input.

    A ``MultiPoly`` is written as its ``to_dict()`` would be, without
    building that dict: one %-template, made from the depth and the number
    of variables, is applied to each term, and the term texts are joined
    once, the polynomial's brackets folded in as above.  So the text again
    exists at most twice, beside the term list of ``sorted_terms()``: for
    the n = 6 pair the ``tracemalloc`` peak is 2.0 times the text's length.
    A ``Terms`` is written the same way from its own terms.
    """
    breaks = ["\n"]        # breaks[d]: a newline and the indent of depth d
    prefixes = {}          # key -> its '"key": ' prefix
    texts = _IntTexts()    # int -> its text, (key, int) -> '"key": int'
    open_ids = set()       # ids of the containers being written

    def indent(depth: int) -> str:
        while len(breaks) <= depth:
            breaks.append(breaks[-1] + "  ")
        return breaks[depth]

    def write_poly(varset, terms, depth: int, head: str, tail: str) -> str:
        # The layout of a polynomial's to_dict() written at depth: the dict's keys
        # at depth + 1, each term at depth + 2, its fields at + 3, exponents at + 4.
        outer, keys, term, fields, items = (indent(depth + k) for k in range(5))
        width = len(varset)
        exp = "[" + items + ("," + items).join(["%d"] * width) + fields + "]" if width else "[]"
        head = write(list(varset), depth + 1, head + "{" + keys + '"vars": ')
        head += "," + keys + '"terms": '
        tail = outer + "}" + tail
        template = "{" + fields + '"exp": ' + exp + "," + fields + '"coeff": "%d"' + term + "}"
        parts = [template % (*mono, coeff) for mono, coeff in terms]
        if not parts:
            return head + "[]" + tail
        parts[0] = head + "[" + term + parts[0]
        parts[-1] += keys + "]" + tail
        return ("," + term).join(parts)

    def write(value, depth: int, head: str = "", tail: str = "") -> str:
        is_dict = isinstance(value, dict)
        if not (is_dict or isinstance(value, (list, tuple))):
            if isinstance(value, str):
                return head + _encode_str(value)
            if value is None:
                return head + "null"
            if value is True:
                return head + "true"
            if value is False:
                return head + "false"
            if isinstance(value, int):
                return head + int.__repr__(value)
            if isinstance(value, MultiPoly):
                return write_poly(value.varset, value.sorted_terms(), depth, head, tail)
            if isinstance(value, Terms):
                return write_poly(value.varset, value.terms, depth, head, tail)
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        if not value:
            return head + ("{}" if is_dict else "[]")
        marker = id(value)
        if marker in open_ids:
            raise ValueError("Circular reference detected")
        open_ids.add(marker)
        depth += 1
        inner = indent(depth)
        # An int-only container is one map over the text table; in the others
        # str, int, bool and None children, most of a report, are written
        # without a call.
        if is_dict:
            if _INT.issuperset(map(type, value.values())):
                parts = list(map(texts.__getitem__, value.items()))
            else:
                parts = []
                append = parts.append
                for key, item in value.items():
                    prefix = prefixes.get(key)
                    if prefix is None:
                        if not isinstance(key, str):
                            raise TypeError(f"keys must be str, not {type(key).__name__}")
                        prefix = prefixes[key] = _encode_str(key) + ": "
                    kind = type(item)
                    if kind is str:
                        append(prefix + _encode_str(item))
                    elif kind is int:
                        append(prefix + int.__repr__(item))
                    elif item is None:
                        append(prefix + "null")
                    elif kind is bool:
                        append(prefix + ("true" if item else "false"))
                    else:
                        append(write(item, depth, prefix))
            opener, closer = "{", "}"
        else:
            if _INT.issuperset(map(type, value)):
                parts = list(map(texts.__getitem__, value))
            else:
                parts = []
                append = parts.append
                for item in value:
                    kind = type(item)
                    if kind is str:
                        append(_encode_str(item))
                    elif kind is int:
                        append(int.__repr__(item))
                    else:
                        append(write(item, depth))
            opener, closer = "[", "]"
        parts[0] = head + opener + inner + parts[0]
        parts[-1] += breaks[depth - 1] + closer + tail
        open_ids.discard(marker)
        return ("," + inner).join(parts)

    if isinstance(obj, (dict, list, tuple, MultiPoly)) and obj:
        return write(obj, 0, tail="\n")
    return write(obj, 0) + "\n"        # a scalar or an empty container


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise StructuralError(f"cannot write {path}: {exc.strerror}") from exc


def _emit(text: str, out: str | None) -> None:
    if out:
        _write(out, text)
    else:
        sys.stdout.write(text)


def _build_pair(n: int, method: str, cap: int) -> NewtonPair:
    if method == "recurrence":
        return newton.iterate_pair(n, cap=cap)
    return NewtonPair(n, closedform.closed_p(n, cap=cap), closedform.closed_q(n, cap=cap))


def _cmd_generate(args: argparse.Namespace) -> int:
    given = [f"--{name}" for name in "abc" if getattr(args, name) is not None]
    if args.method == "rootform" and len(given) < 3:
        raise StructuralError("--method rootform requires --a, --b and --c")
    if args.method != "rootform" and given:
        raise StructuralError(f"{', '.join(given)}: only meaningful with --method rootform; "
                              f"--method {args.method} builds the symbolic pair")
    if args.audit is not None and args.method != "closed":
        raise StructuralError("--audit is only meaningful with --method closed")

    if args.method == "rootform":
        coeffs = QuadraticCoeffs(args.a, args.b, args.c)
        p, q = quadfield.root_form_pair(coeffs, args.n, cap=args.cap)
        payload = {
            "n": args.n,
            "coeffs": {"a": str(coeffs.a), "b": str(coeffs.b), "c": str(coeffs.c)},
            "p": p,
            "q": q,
        }
    elif args.method == "recurrence" and args.format == "json":
        # pair.to_dict(), written from the walk's grids without building the pair
        p, q = (Terms(ABCX, terms)
                for terms in newton.pair_terms(args.n, *newton.walk_to(args.n, args.cap)))
        payload = {"n": args.n, "p": p, "q": q}
    else:
        pair = _build_pair(args.n, args.method, args.cap)
        p, q = pair.p, pair.q
        payload = {"n": pair.n, "p": p, "q": q}     # pair.to_dict(), written without the dicts

    if args.audit is not None:
        # Each line is json.dumps(record.to_dict()), written through one template.
        line = ('{"poly": %s, "n": %d, "k": %d, "j": %d, "coeff": "%d", "monomial": ['
                + ", ".join(["%d"] * len(ABCX)) + "]}\n")
        _write(args.audit, "".join([line % (_encode_str(poly), n, k, j, coeff, *monomial)
                                    for poly, n, k, j, coeff, monomial
                                    in closedform.closed_audit(args.n, cap=args.cap)]))

    if args.format == "json":
        _emit(canonical_json(payload), args.out)
    elif args.format == "latex":
        _emit(p.latex() + "\n" + q.latex() + "\n", args.out)
    else:
        _emit(f"P = {p}\nQ = {q}\n", args.out)
    return EXIT_PASS


def _cmd_eval(args: argparse.Namespace) -> int:
    coeffs = QuadraticCoeffs(args.a, args.b, args.c)
    symbolic = newton.eval_grids(args.n, *newton.walk_to(args.n, args.cap), coeffs, args.x)
    stepwise = newton.iterate_value(coeffs, args.x, args.n)
    if symbolic != stepwise:
        print(f"mismatch: P_n/Q_n = {symbolic} but stepwise Newton = {stepwise}",
              file=sys.stderr)
        return EXIT_FAIL
    _emit(f"{symbolic}\n", args.out)
    return EXIT_PASS


# ---------------------------------------------------------------- verify suites

def _capped(walk: Iterator, max_n: int, cap: int) -> Iterator:
    """Items n = 0..max_n of an ascending walk; an n above ``cap`` is refused before its step."""
    for n in range(max_n + 1):
        check_index(n, cap)
        yield next(walk)


def _suite_equivalence(args) -> tuple[bool, dict]:
    per_n = []
    closed = []                      # closedform.closed_grids(n), built once per n
    ok = True
    for n, p, q in _capped(newton.walk(), args.max_n, args.cap):
        closed.append(closedform.closed_grids(n, cap=args.cap))
        match = (p, q) == closed[n]
        per_n.append({"n": n, "recurrence_equals_closed": match})
        ok = ok and match
    rootform_results = []
    rootform_max_n = min(args.max_n, args.rootform_max_n)   # the bound actually checked
    for a, b, c in REFERENCE_TRIPLES:
        coeffs = QuadraticCoeffs(a, b, c)
        for n in range(rootform_max_n + 1):
            try:
                rootform = quadfield.root_form_pair(coeffs, n, cap=args.cap)
            except DomainError:      # a coefficient kept a radical or fractional part
                match = False
            else:
                match = (None not in closed[n]
                         and rootform == newton.specialize(n, *closed[n], a, b, c))
            rootform_results.append({"coeffs": [a, b, c], "n": n, "match": match})
            ok = ok and match
    report = {"suite": "equivalence", "max_n": args.max_n,
              "rootform_max_n": rootform_max_n, "per_n": per_n,
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
    for pair in _capped(newton.iterates(), args.max_n, args.cap):
        result = newton.coprimality_check(pair, trials=args.trials, seed=args.seed)
        reports.append(result.to_dict())
        ok = ok and result.passed
    report = {"suite": "coprime", "max_n": args.max_n, "trials": args.trials,
              "seed": args.seed, "reports": reports, "passed": ok}
    return ok, report


def _suite_conjugacy(args) -> tuple[bool, dict]:
    results = []
    ok = True
    for a, b, c in REFERENCE_TRIPLES:
        coeffs = QuadraticCoeffs(a, b, c)
        for n in range(1, args.max_n + 1):
            result = quadfield.conjugacy_check(coeffs, n, args.samples, cap=args.cap)
            enough = result.checked >= args.min_checked
            results.append({"report": result.to_dict(), "enough_samples": enough})
            ok = ok and result.passed and enough
    report = {"suite": "conjugacy", "max_n": args.max_n,
              "min_checked": args.min_checked, "results": results, "passed": ok}
    return ok, report


def _suite_qconjecture(args) -> tuple[bool, dict]:
    for n in (args.max_n, args.commutative_max_n):
        check_index(n, args.cap)
    # One ascending walk builds each noncommutative pair once, for both checks.
    walk = list(_capped(qalgebra.nc_walk(), max(args.max_n, args.commutative_max_n), args.cap))
    result = qalgebra.conjecture_check(args.max_n, cap=args.cap, recurrence=walk)
    grids = _capped(newton.walk(), args.commutative_max_n, args.cap)
    commutative = [{"n": n, "match": [qalgebra.at_q_one(nc, 2 ** n) for nc in nc_pair] == [p, q]}
                   for nc_pair, (n, p, q) in zip(walk, grids)]
    ok = result.passed and all(entry["match"] for entry in commutative)
    report = {"suite": "qconjecture", "conjecture": result.to_dict(),
              "commutative_specialization": commutative, "passed": ok}
    return ok, report


def _suite_qbinom(args) -> tuple[bool, dict]:
    theorem = qalgebra.qbinomial_theorem_check(args.max_n)
    rows = list(islice(qalgebra.qbinomial_int_rows(),
                       max(args.product_max_n, args.symmetry_max_n) + 1))
    q_values = (2, 3, 5)
    product_ok = True
    first_product_failure = None
    for n, row in enumerate(rows[:args.product_max_n + 1]):
        for k, cells in enumerate(row):
            for q_value in q_values:
                value = 0
                for cell in reversed(cells):        # Horner's rule: [n, k] at q = q_value
                    value = value * q_value + cell
                if value != qalgebra.qbinomial_product_value(n, k, q_value):
                    product_ok = False
                    first_product_failure = first_product_failure or [n, k, q_value]
    symmetry_rows = rows[:args.symmetry_max_n + 1]
    symmetry_ok = all(row == row[::-1] for row in symmetry_rows)
    specialization_ok = all(sum(cells) == closedform.binomial(n, k)
                            for n, row in enumerate(symmetry_rows) for k, cells in enumerate(row))
    ok = theorem.passed and product_ok and symmetry_ok and specialization_ok
    report = {"suite": "qbinom", "theorem": theorem.to_dict(),
              "product_formula": {"max_n": args.product_max_n, "q_values": list(q_values),
                                  "passed": product_ok,
                                  "first_failure": first_product_failure},
              "symmetry": {"max_n": args.symmetry_max_n, "passed": symmetry_ok},
              "binomial_specialization": {"max_n": args.symmetry_max_n,
                                          "passed": specialization_ok},
              "passed": ok}
    return ok, report


def _cmd_verify(args: argparse.Namespace) -> int:
    ok, report = args.check(args)
    _emit(canonical_json(report), args.out)
    return EXIT_PASS if ok else EXIT_FAIL


class _Parser(argparse.ArgumentParser):
    """Raises a bad command line as a StructuralError (exit 2) instead of exiting."""

    def error(self, message: str):
        raise StructuralError(f"{self.prog}: {message}")


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    parse.__name__ = "int"      # argparse names the type in "invalid int value"
    return parse


# An integer, p/q, or a decimal with an optional exponent, in ASCII only:
# Fraction alone would also take spaces, "_" (3.11+) and non-ASCII digits.
_RATIONAL = re.compile(r"[+-]?(?:[0-9]+/[0-9]+"
                       r"|(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE](?P<exp>[+-]?[0-9]+))?)")

# Fraction turns a decimal exponent into an exact power of ten, so the
# 8-character value 1e300000 is a million-bit number that eval would iterate
# on for seconds.  4300 is CPython's default int/str digit limit, past which
# it refuses to convert a decimal integer of that many digits for the same
# reason.
MAX_DECIMAL_EXPONENT = 4300


def _rational(text: str) -> Fraction:
    """argparse type: one exact rational, such as 3, -1/2, 0.25 or 1e3."""
    match = _RATIONAL.fullmatch(text)
    if not match:
        raise argparse.ArgumentTypeError(
            f"bad value {text!r}: not an integer, p/q or decimal in ASCII digits")
    if match["exp"] and abs(int(match["exp"])) > MAX_DECIMAL_EXPONENT:
        raise argparse.ArgumentTypeError(
            f"bad value {text!r}: decimal exponent beyond +-{MAX_DECIMAL_EXPONENT}")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise argparse.ArgumentTypeError(f"bad value {text!r}: {exc}") from exc


def _samples(text: str) -> tuple[Fraction, ...]:
    """argparse type: comma-separated exact sample points, no two equal.

    A repeated point would count more than once toward --min-checked.
    """
    seen: dict[Fraction, str] = {}
    for piece in text.split(","):
        value = _rational(piece)
        if value in seen:
            raise argparse.ArgumentTypeError(
                f"repeated sample {piece!r}, the same point as {seen[value]!r}")
        seen[value] = piece
    return tuple(seen)


def build_parser() -> argparse.ArgumentParser:
    """The whole command line: one parser with a subparser per command and suite.

    It is built once, at import, as ``PARSER``, and ``main`` only reads it:
    nothing is filled in later, and ``parse_args`` assigns no attribute of a
    parser.  So ``set_defaults`` binds each command's handler and each
    suite's check at import, and patching ``_cmd_*`` or ``_suite_*`` after
    that does not reach ``main``.
    """
    parser = _Parser(
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
    ev.add_argument("--a", type=_rational, required=True)
    ev.add_argument("--b", type=_rational, required=True)
    ev.add_argument("--c", type=_rational, required=True)
    ev.add_argument("--x", type=_rational, required=True)
    ev.add_argument("--out")
    ev.add_argument("--cap", type=int, default=DEFAULT_CAP)
    ev.set_defaults(func=_cmd_eval)

    ver = sub.add_parser("verify", help="run a verification suite")
    suites = ver.add_subparsers(dest="suite", required=True, metavar="suite")

    def suite(name: str, check, summary: str) -> argparse.ArgumentParser:
        flags = suites.add_parser(name, help=summary)
        flags.add_argument("--report", "--out", dest="out",
                           help="write the report JSON to this path instead of stdout")
        flags.set_defaults(func=_cmd_verify, check=check)
        return flags

    # Each minimum is the smallest index at which that range checks anything,
    # so a range that would check nothing is a usage error, not a vacuous pass.
    s = suite("equivalence", _suite_equivalence, "recurrence = closed form = root form")
    s.add_argument("--max-n", type=_int_at_least(0), default=5)
    s.add_argument("--rootform-max-n", type=int, default=4)
    s.add_argument("--cap", type=int, default=DEFAULT_CAP)

    s = suite("smoothness", _suite_smoothness, "every coefficient is 2^n-smooth")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--mode", choices=smoothness.MODES, default="inclusive")
    s.add_argument("--cap", type=int, default=DEFAULT_CAP)

    s = suite("lemma1", _suite_lemma1, "Lemma 1 identity and its induction step")
    s.add_argument("--max-n", type=_int_at_least(2), default=64)

    s = suite("coprime", _suite_coprime, "P_n and Q_n are relatively prime")
    s.add_argument("--max-n", type=_int_at_least(0), default=5)
    s.add_argument("--trials", type=int, default=10)
    s.add_argument("--seed", type=int, default=42)
    s.add_argument("--cap", type=int, default=DEFAULT_CAP)

    s = suite("conjugacy", _suite_conjugacy, "Newton map is conjugate to squaring")
    s.add_argument("--max-n", type=_int_at_least(1), default=4)
    s.add_argument("--min-checked", type=_int_at_least(1), default=10)
    s.add_argument("--samples", type=_samples,
                   default="2,3,4,5,7,-2,1/2,1/3,2/3,5/4,-5/3,7/5,9/7,11/3,-7/2",
                   help="comma-separated exact sample points; a pole skips its sample")
    s.add_argument("--cap", type=int, default=DEFAULT_CAP)

    s = suite("qconjecture", _suite_qconjecture, "the q-analogue of the closed form")
    s.add_argument("--max-n", type=_int_at_least(0), default=3)
    s.add_argument("--commutative-max-n", type=_int_at_least(0), default=4)
    # The noncommutative pair is far denser; its own default cap applies.
    s.add_argument("--cap", type=int, default=qalgebra.DEFAULT_NC_CAP)

    s = suite("qbinom", _suite_qbinom, "q-binomial theorem, product formula, symmetry")
    s.add_argument("--max-n", type=_int_at_least(1), default=6)
    s.add_argument("--product-max-n", type=_int_at_least(0), default=12)
    s.add_argument("--symmetry-max-n", type=_int_at_least(0), default=16)
    return parser


PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    # Exact values may run past the interpreter's int/str digit limit, so lift
    # it for this call only; importing the library leaves it alone.
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = PARSER.parse_args(argv)
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
    finally:
        sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
