"""Closed-form construction of the Newton iterate pair via explicit double sums.

This is the second, independent route to (P_n, Q_n): each coefficient is read
off directly as a signed product of two binomial coefficients, never touching
the recurrence.  The same loops can run in audit mode, which emits one
provenance record per contribution so the binomial structure of every
coefficient can be inspected downstream (that structure is what bounds the
prime factors of the coefficients).

Also houses the power-difference identity

    x^n - y^n = (x - y) * sum_i (-1)^i C(n-i-1, i) (x+y)^(n-2i-1) (xy)^i

and its machine checks, which the closed-form derivation leans on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, TypeVar

from .errors import check_index
from .newton import DEFAULT_CAP
from .polyring import ABCX, XY, Monomial, MultiPoly

T = TypeVar("T")


def binomial(n: int, k: int) -> int:
    """Exact C(n, k), with C(n, k) = 0 outside 0 <= k <= n.

    The zero convention is what lets the closed-form sums truncate themselves.
    """
    if n < 0:
        raise ValueError(f"binomial row must be nonnegative, got {n}")
    return math.comb(n, k) if k >= 0 else 0


@dataclass(frozen=True)
class AuditRecord:
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


def p_contributions(n: int, outer: Callable[[int, int], T]
                    ) -> Iterator[tuple[int, int, T, Monomial]]:
    """(k, j, coefficient, monomial) for each term of the P_n double sum.

    The coefficient is ``outer(2^n, k) * (+-C(2^n-k-j-2, j))``: ``binomial``
    gives the commutative sum, and a q-binomial the q-deformed one.  ``outer``
    is called once per k.
    The monomial is over (a, b, c, x), with x^k.  The leading term
    a^(2^n-1) x^(2^n) comes first, as k = 2^n with coefficient outer(2^n, 2^n).
    """
    size = 2 ** n
    yield (size, 0, outer(size, size), (size - 1, 0, 0, size))
    for k in range(size - 1):
        factor = outer(size, k)
        for j in range(size - k - 1):
            inner = binomial(size - k - j - 2, j)
            if inner == 0:
                continue
            yield (k, j, factor * (-((-1) ** j) * inner),
                   (k + j, size - k - 2 * j - 2, j + 1, k))


def q_contributions(n: int, outer: Callable[[int, int], T]
                    ) -> Iterator[tuple[int, int, T, Monomial]]:
    """(k, j, coefficient, monomial) for each term of the Q_n double sum; see p_contributions."""
    size = 2 ** n
    for k in range(size):
        factor = outer(size, k)
        for j in range(size - k):
            inner = binomial(size - k - j - 1, j)
            if inner == 0:
                continue
            yield (k, j, factor * (((-1) ** j) * inner),
                   (k + j, size - k - 2 * j - 1, j, k))


def closed_p(n: int, cap: int = DEFAULT_CAP) -> MultiPoly:
    """Numerator P_n over (a, b, c, x), built term-by-term from the double sum."""
    check_index(n, cap)
    terms: dict[Monomial, int] = {}
    for _k, _j, coeff, mono in p_contributions(n, binomial):
        terms[mono] = terms.get(mono, 0) + coeff
    return MultiPoly(ABCX, terms)


def closed_q(n: int, cap: int = DEFAULT_CAP) -> MultiPoly:
    """Denominator Q_n over (a, b, c, x), built term-by-term from the double sum."""
    check_index(n, cap)
    terms: dict[Monomial, int] = {}
    for _k, _j, coeff, mono in q_contributions(n, binomial):
        terms[mono] = terms.get(mono, 0) + coeff
    return MultiPoly(ABCX, terms)


def closed_audit(n: int, cap: int = DEFAULT_CAP) -> list[AuditRecord]:
    """Provenance records for every closed-form contribution to P_n and Q_n.

    The records reconstruct the polynomials exactly: summing the signed
    contributions per monomial gives back closed_p(n) / closed_q(n).
    """
    check_index(n, cap)
    records = [AuditRecord("P", n, k, j, coeff, mono)
               for k, j, coeff, mono in p_contributions(n, binomial)]
    records.extend(AuditRecord("Q", n, k, j, coeff, mono)
                   for k, j, coeff, mono in q_contributions(n, binomial))
    return records


# ---------------------------------------------------------------- power-difference identity

_X = MultiPoly.variable(XY, "x")
_Y = MultiPoly.variable(XY, "y")


def power_difference(n: int) -> MultiPoly:
    """x^n - y^n over (x, y)."""
    return MultiPoly.variable(XY, "x", n) - MultiPoly.variable(XY, "y", n)


def lemma1_rhs(n: int) -> MultiPoly:
    """Expanded (x - y) * sum_i (-1)^i C(n-i-1, i) (x+y)^(n-2i-1) (xy)^i, n >= 1."""
    if n < 1:
        raise ValueError(f"identity index must be positive, got {n}")
    plus = _X + _Y
    plus_powers = [MultiPoly.one(XY)]
    for _ in range(n - 1):
        plus_powers.append(plus_powers[-1] * plus)
    acc = MultiPoly.zero(XY)
    for i in range(n):
        coeff = binomial(n - i - 1, i)
        if coeff == 0:
            continue
        term = plus_powers[n - 2 * i - 1] * ((-1) ** i * coeff)
        acc = acc + term * MultiPoly.term(XY, 1, x=i, y=i)
    return (_X - _Y) * acc


@dataclass(frozen=True)
class IdentityCheckReport:
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
    for n in range(1, max_n + 1):
        if lemma1_rhs(n) != power_difference(n):
            return IdentityCheckReport("power-difference identity", max_n, False, n)
    return IdentityCheckReport("power-difference identity", max_n, True)


def lemma1_recurrence_check(max_n: int) -> IdentityCheckReport:
    """Structural check of the induction step T(n) = (x+y) T(n-1) - xy T(n-2).

    T is the generated right-hand side, with T(0) = 0; checked for 2 <= n <= max_n.
    """
    plus = _X + _Y
    xy = MultiPoly.term(XY, 1, x=1, y=1)
    prev2 = MultiPoly.zero(XY)
    prev1 = lemma1_rhs(1)
    for n in range(2, max_n + 1):
        current = lemma1_rhs(n)
        if current != plus * prev1 - xy * prev2:
            return IdentityCheckReport("induction-step recurrence", max_n, False, n)
        prev2, prev1 = prev1, current
    return IdentityCheckReport("induction-step recurrence", max_n, True)
