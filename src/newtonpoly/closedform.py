"""Closed-form construction of the Newton iterate pair via explicit double sums.

This is the second, independent route to (P_n, Q_n), never touching the
recurrence: each coefficient is an entry C(2^n, k) of an outer row times an
entry of the row of the power-difference identity (Lemma 1)

    x^m - y^m = (x - y) * sum_j (-1)^j C(m-j-1, j) (x+y)^(m-2j-1) (xy)^j

and each (k, j) contributes exactly one term.  In audit mode the same loops
emit one provenance record per monomial, so the binomial structure of every
coefficient (what bounds its prime factors) can be inspected downstream.

The machine checks of the identity itself live here too.  Every summand of
its right-hand side is homogeneous of degree m, so lemma1_rhs expands it on
one integer row of coefficients of x^e y^(m-e) and lemma1_check compares the
result with x^m - y^m.  lemma1_recurrence_check checks the induction step
T(m) = (x+y) T(m-1) - xy T(m-2) on those right-hand sides with MultiPoly
arithmetic, independently of the row expansion.
"""

from __future__ import annotations

import math
from operator import add, sub
from typing import Iterator, NamedTuple, Sequence, TypeVar

from .errors import DEFAULT_CAP, StructuralError, check_index
from .polyring import ABCX, XY, Monomial, MultiPoly

T = TypeVar("T")


def binomial(n: int, k: int) -> int:
    """Exact C(n, k), with C(n, k) = 0 outside 0 <= k <= n.

    lemma1_row does not call it: it walks its diagonal from C(m-1, 0) = 1.
    """
    if n < 0:
        raise ValueError(f"binomial row must be nonnegative, got {n}")
    return math.comb(n, k) if k >= 0 else 0


def lemma1_row(m: int) -> list[int]:
    """(-1)^j C(m-j-1, j) for 0 <= j <= m-j-1: Lemma 1's nonzero coefficients; empty at m = 0.

    Walks the diagonal by C(m-j-2, j+1) = C(m-j-1, j) (m-2j-1)(m-2j-2) / ((j+1)(m-j-1)),
    one exact division per entry.
    """
    row = [1] if m > 0 else []
    for j in range((m + 1) // 2 - 1):
        row.append(-row[-1] * (m - 2 * j - 1) * (m - 2 * j - 2) // ((j + 1) * (m - j - 1)))
    return row


class AuditRecord(NamedTuple):
    """Provenance of one closed-form contribution: which (k, j) produced it."""

    poly: str            # "P" or "Q"
    n: int
    k: int
    j: int
    coeff: int           # signed contribution, including the (-1)^j and any leading minus
    monomial: Monomial   # exponent vector over (a, b, c, x)

    def to_dict(self) -> dict:
        return {
            "poly": self.poly,
            "n": self.n,
            "k": self.k,
            "j": self.j,
            "coeff": str(self.coeff),
            "monomial": list(self.monomial),
        }


def p_contributions(n: int, row: Sequence[T]) -> Iterator[tuple[int, int, T, Monomial]]:
    """(k, j, coefficient, monomial) for each term of the P_n double sum.

    The coefficient is ``row[k] * -lemma1_row(2^n-k-1)[j]`` for an outer row k = 0..2^n:
    C(2^n, k) gives the commutative sum, ones the factor that qalgebra.nc_closed scales
    by [2^n, k].  The monomial a^(k+j) b^(2^n-k-2j-2) c^(j+1) x^k is over (a, b, c, x);
    the leading term a^(2^n-1) x^(2^n) comes first, as k = 2^n.

    One term per contribution: the exponents of x and c give back (k, j), and
    only the leading term has x^(2^n).  No coefficient is zero, since
    C(2^n, k) != 0 and lemma1_row holds no zeros.  The same holds for Q_n's
    monomials a^(k+j) b^(2^n-k-2j-1) c^j x^k.
    """
    size = 2 ** n
    yield (size, 0, row[size], (size - 1, 0, 0, size))
    for k in range(size - 1):
        for j, inner in enumerate(lemma1_row(size - k - 1)):
            yield (k, j, row[k] * -inner, (k + j, size - k - 2 * j - 2, j + 1, k))


def q_contributions(n: int, row: Sequence[T]) -> Iterator[tuple[int, int, T, Monomial]]:
    """(k, j, coefficient, monomial) for each term of the Q_n double sum; see p_contributions."""
    size = 2 ** n
    for k in range(size):
        for j, inner in enumerate(lemma1_row(size - k)):
            yield (k, j, row[k] * inner, (k + j, size - k - 2 * j - 1, j, k))


def _binomial_row(n: int) -> list[int]:
    size = 2 ** n
    return [binomial(size, k) for k in range(size + 1)]


def closed_p(n: int, cap: int = DEFAULT_CAP) -> MultiPoly:
    """Numerator P_n over (a, b, c, x), one term per contribution of the double sum."""
    check_index(n, cap)
    return MultiPoly._raw(ABCX, {mono: coeff for _k, _j, coeff, mono
                                 in p_contributions(n, _binomial_row(n))})


def closed_q(n: int, cap: int = DEFAULT_CAP) -> MultiPoly:
    """Denominator Q_n over (a, b, c, x), one term per contribution of the double sum."""
    check_index(n, cap)
    return MultiPoly._raw(ABCX, {mono: coeff for _k, _j, coeff, mono
                                 in q_contributions(n, _binomial_row(n))})


def closed_audit(n: int, cap: int = DEFAULT_CAP) -> list[AuditRecord]:
    """Provenance records for every closed-form contribution to P_n and Q_n.

    Each record is one term of closed_p(n) or closed_q(n), and each term has
    exactly one record.
    """
    check_index(n, cap)
    row = _binomial_row(n)
    records = [AuditRecord("P", n, k, j, coeff, mono)
               for k, j, coeff, mono in p_contributions(n, row)]
    records.extend(AuditRecord("Q", n, k, j, coeff, mono)
                   for k, j, coeff, mono in q_contributions(n, row))
    return records


# ---------------------------------------------------------------- power-difference identity

_PLUS = MultiPoly(XY, {(1, 0): 1, (0, 1): 1})


def power_difference(n: int) -> MultiPoly:
    """x^n - y^n over (x, y)."""
    return MultiPoly.variable(XY, "x", n) - MultiPoly.variable(XY, "y", n)


def _shift(op, row: list[int]) -> list[int]:
    # (x + y) or (x - y), for op add or sub, times a homogeneous row whose entry e
    # is the coefficient of x^e y^(d-e).
    return list(map(op, [0, *row], [*row, 0]))


def lemma1_rhs(n: int) -> MultiPoly:
    """Expanded (x - y) * sum_i (-1)^i C(n-i-1, i) (x+y)^(n-2i-1) (xy)^i, n >= 1,
    with the sum taken by Horner's rule in (x+y)^2 (times x+y when n is even).

    Each summand is homogeneous of degree n, so the expansion runs on one integer
    row: entry e holds the coefficient of x^e y^(degree-e), and (xy)^i is entry i
    of the degree-2i row.
    """
    if n < 1:
        raise ValueError(f"identity index must be positive, got {n}")
    coeffs = lemma1_row(n)
    row = coeffs[:1]
    for i in range(1, len(coeffs)):
        row = _shift(add, _shift(add, row))
        row[i] += coeffs[i]
    if n % 2 == 0:
        row = _shift(add, row)
    return MultiPoly._raw(XY, {(e, n - e): c for e, c in enumerate(_shift(sub, row)) if c})


class IdentityCheckReport(NamedTuple):
    """Outcome of checking an exact identity over a range of indices."""

    name: str
    max_n: int
    passed: bool
    first_failure: int | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "max_n": self.max_n,
            "passed": self.passed,
            "first_failure": self.first_failure,
        }


def lemma1_check(max_n: int) -> IdentityCheckReport:
    """Assert lemma1_rhs(n) == x^n - y^n as canonical polynomials for 1 <= n <= max_n."""
    if max_n < 1:
        raise StructuralError(f"max_n must be at least 1 to check anything, got {max_n}")
    for n in range(1, max_n + 1):
        if lemma1_rhs(n) != power_difference(n):
            return IdentityCheckReport("power-difference identity", max_n, False, n)
    return IdentityCheckReport("power-difference identity", max_n, True)


def lemma1_recurrence_check(max_n: int) -> IdentityCheckReport:
    """Structural check of the induction step T(n) = (x+y) T(n-1) - xy T(n-2).

    T is the generated right-hand side, with T(0) = 0; checked for 2 <= n <= max_n.
    The step is taken with MultiPoly arithmetic, so it tests lemma1_rhs's row
    expansion with an independent arithmetic.
    """
    if max_n < 2:
        raise StructuralError(f"max_n must be at least 2 to check anything, got {max_n}")
    xy = MultiPoly.term(XY, 1, x=1, y=1)
    prev2 = MultiPoly.zero(XY)
    prev1 = lemma1_rhs(1)
    for n in range(2, max_n + 1):
        current = lemma1_rhs(n)
        if current != _PLUS * prev1 - xy * prev2:
            return IdentityCheckReport("induction-step recurrence", max_n, False, n)
        prev2, prev1 = prev1, current
    return IdentityCheckReport("induction-step recurrence", max_n, True)
