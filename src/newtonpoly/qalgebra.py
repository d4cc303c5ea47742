"""q-binomials and the noncommutative analogue of the iterate pair.

Two formal variables x, y obey yx = qxy, with q (and the quadratic's a, b, c)
commuting with everything.  A noncommutative polynomial is a MultiPoly over
(a, b, c, q, x, y) whose x^i y^j is read as the normal-ordered word;
polyring.nc_mul applies the commutation factor q^(jk) when multiplying, so
equality is plain MultiPoly equality.

The q-binomial coefficients are exact polynomials in q, walked row by row by
the Pascal-type recurrence

    [n, k] = [n-1, k-1] + q^k [n-1, k]

with the rational-function product formula used only as an integer-valued
cross-check at fixed q.  Nothing is cached: qbinomial(n, k) walks rows 0..n
afresh, so a caller that needs many entries iterates qbinomial_rows() once
instead of calling qbinomial(n, k) in a loop.

The noncommutative pair (P'_n, Q'_n) is grown by the recurrence

    P'_{n+1} = a P'^2 - c Q'^2
    Q'_{n+1} = a P' Q' + a Q' P' + b Q'^2      (P'_0, Q'_0) = (x, y)

and compared against the conjectured closed forms, which are the commutative
double sums of closedform with the outer binomial q-deformed and a trailing
y^(2^n - k).  Substituting q = 1, y = 1 collapses everything back to the
commutative pair over (a, b, c, x).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .closedform import IdentityCheckReport, p_contributions, q_contributions
from .errors import check_index
from .polyring import ABCQ, ABCQXY, MultiPoly, nc_mul

DEFAULT_NC_CAP = 4

Word = tuple[int, int]      # (i, j) for the normal-ordered word x^i y^j

_ZERO3 = MultiPoly.zero(ABCQ)
_ONE3 = MultiPoly.one(ABCQ)


def _q_power(exponent: int) -> MultiPoly:
    return MultiPoly.variable(ABCQ, "q", exponent) if exponent else _ONE3


def qbinomial_rows() -> Iterator[tuple[MultiPoly, ...]]:
    """Rows 0, 1, 2, ... of Gaussian polynomials; row n is ([n, 0], ..., [n, n])."""
    row = (_ONE3,)
    while True:
        yield row
        inner = (row[k - 1] + _q_power(k) * row[k] for k in range(1, len(row)))
        row = (_ONE3, *inner, _ONE3)


def _qbinomial_row(n: int) -> tuple[MultiPoly, ...]:
    return next(islice(qbinomial_rows(), n, None))


def qbinomial(n: int, k: int) -> MultiPoly:
    """The Gaussian polynomial [n, k]_q over (a, b, c, q); zero out of range."""
    if n < 0 or k < 0 or k > n:
        return _ZERO3
    return _qbinomial_row(n)[k]


def qbinomial_product_value(n: int, k: int, q_value: int) -> int:
    """The product formula prod_{i=1}^{n-k} (1 - q^(i+k))/(1 - q^i) at integer q.

    Exact integer arithmetic on both products; q = 1 is rejected since the
    formula degenerates there (use the plain binomial instead).
    """
    if not (0 <= k <= n):
        return 0
    if q_value == 1:
        raise ValueError("product formula degenerates at q = 1")
    numerator = 1
    denominator = 1
    for i in range(1, n - k + 1):
        numerator *= 1 - q_value ** (i + k)
        denominator *= 1 - q_value ** i
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(f"product formula did not divide exactly at ({n}, {k})")
    return quotient


_ONE = MultiPoly.one(ABCQXY)
_X = MultiPoly.variable(ABCQXY, "x")
_Y = MultiPoly.variable(ABCQXY, "y")
_A = MultiPoly.variable(ABCQXY, "a")
_B = MultiPoly.variable(ABCQXY, "b")
_C = MultiPoly.variable(ABCQXY, "c")
_X_INDEX = ABCQXY.index("x")
_Y_INDEX = ABCQXY.index("y")


def qbinomial_theorem_check(max_n: int) -> IdentityCheckReport:
    """Check (x + y)^n = sum_k [n, k]_q x^k y^(n-k) for 1 <= n <= max_n."""
    x_plus_y = _X + _Y
    power = _ONE
    for n, row in zip(range(1, max_n + 1), islice(qbinomial_rows(), 1, None)):
        power = nc_mul(power, x_plus_y)
        # [n, k] over (a, b, c, q) attached to the word x^k y^(n - k)
        expected = MultiPoly(ABCQXY, {(a, b, c, q, k, n - k): value
                                      for k, coeff in enumerate(row)
                                      for (a, b, c, q), value in coeff.sorted_terms()})
        if power != expected:
            return IdentityCheckReport("q-binomial theorem", max_n, False, n)
    return IdentityCheckReport("q-binomial theorem", max_n, True)


def nc_iterate(n: int, cap: int = DEFAULT_NC_CAP) -> tuple[MultiPoly, MultiPoly]:
    """(P'_n, Q'_n) by the noncommutative recurrence; homogeneous of degree 2^n in x, y."""
    check_index(n, cap)
    p, q = _X, _Y
    for _ in range(n):
        qq = nc_mul(q, q)
        p, q = _A * nc_mul(p, p) - _C * qq, _A * (nc_mul(p, q) + nc_mul(q, p)) + _B * qq
    return p, q


def _nc_sum(n: int, contributions) -> MultiPoly:
    # Each closed-form term of x^k becomes the word x^k y^(2^n - k), one word per
    # term of its coefficient; (k, j, q) name a word, so no two words coincide.
    size = 2 ** n
    return MultiPoly._raw(ABCQXY, {(a + ca, b + cb, c + cc, q, k, size - k): value
                                   for k, _j, coeff, (a, b, c, _x) in contributions
                                   for (ca, cb, cc, q), value in coeff._terms.items()})


def nc_closed(n: int, cap: int = DEFAULT_NC_CAP) -> tuple[MultiPoly, MultiPoly]:
    """The conjectured closed forms: q-deform the outer binomial, append y^(2^n - k)."""
    check_index(n, cap)
    row = _qbinomial_row(2 ** n)
    return _nc_sum(n, p_contributions(n, row)), _nc_sum(n, q_contributions(n, row))


@dataclass(frozen=True)
class QConjectureReport:
    """Per-n comparison of the noncommutative recurrence against the closed forms.

    A mismatch is an outcome, not an error: the closed forms are conjectural.
    """

    max_n: int
    per_n: tuple[dict, ...]
    passed: bool

    def to_dict(self) -> dict:
        return {"max_n": self.max_n, "passed": self.passed, "per_n": list(self.per_n)}


def _first_differing_word(left: MultiPoly, right: MultiPoly) -> Word | None:
    """The largest word x^i y^j, by (i + j, i), whose coefficients differ."""
    words = {(mono[_X_INDEX], mono[_Y_INDEX]) for mono, _ in (left - right).sorted_terms()}
    return max(words, key=lambda w: (w[0] + w[1], w[0]), default=None)


def conjecture_check(max_n: int, cap: int = DEFAULT_NC_CAP) -> QConjectureReport:
    """Compare nc_iterate(n) with nc_closed(n) for 0 <= n <= max_n."""
    check_index(max_n, cap)
    per_n: list[dict] = []
    for n in range(max_n + 1):
        word = None
        for poly, rec, closed in zip("PQ", nc_iterate(n, cap=cap), nc_closed(n, cap=cap)):
            if rec != closed:
                x, y = _first_differing_word(rec, closed)
                word = {"poly": poly, "x": x, "y": y}
                break
        per_n.append({"n": n, "match": word is None, "first_differing_word": word})
    return QConjectureReport(max_n=max_n, per_n=tuple(per_n),
                             passed=all(entry["match"] for entry in per_n))
