"""Smoothness certification for the iterate-pair coefficients.

The claim being certified: after n iterations every coefficient of P_n and
Q_n factors entirely over the primes up to 2^n, even though most of the
coefficients are far larger than 2^n.  Trial division below the bound is a
complete certificate here (a residual of 1 proves smoothness; a residual
greater than 1 exhibits the offending cofactor), so no general factorization
is ever attempted.

Two bound conventions exist in the source material and differ exactly at
n = 1, coefficient 2: inclusive (p <= 2^n) and strict (p < 2^n).  Both are
exposed; inclusive is the default.
"""

from __future__ import annotations

import math
from itertools import islice
from sys import intern
from typing import NamedTuple

from .newton import NewtonPair
from .polyring import Monomial

MODES = ("inclusive", "strict")


def sieve_primes(limit: int) -> list[int]:
    """All primes strictly below limit, ascending (Eratosthenes)."""
    if limit < 2:
        raise ValueError(f"sieve limit must be at least 2, got {limit}")
    flags = bytearray([1]) * limit
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit - 1) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, limit, p)))
    return [i for i in range(2, limit) if flags[i]]


def _admissible_primes(bound: int, mode: str) -> tuple[int, list[int]]:
    """The largest admissible prime, p <= bound or p < bound by mode (decided
    here only), and every prime up to it, ascending."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    top = bound if mode == "inclusive" else bound - 1
    return top, sieve_primes(top + 1) if top >= 2 else []


class SmoothPart(NamedTuple):
    """Result of dividing out every admissible prime to full multiplicity.

    ``factorization`` maps each prime of the smooth part to its multiplicity,
    keyed in ascending prime order.
    """

    smooth: bool
    residual: int
    factorization: dict[int, int]

    def reconstruct(self) -> int:
        value = self.residual
        for prime, multiplicity in self.factorization.items():
            value *= prime ** multiplicity
        return value


def smooth_part(value: int, bound: int, mode: str = "inclusive") -> SmoothPart:
    """Factor out all primes under the bound; smooth iff nothing is left over."""
    if value < 1:
        raise ValueError(f"value must be positive, got {value}")
    residual, factorization = _factor_over(value, *_admissible_primes(bound, mode))
    return SmoothPart(smooth=residual == 1, residual=residual, factorization=factorization)


def _factor_over(value: int, top: int, primes: list[int]) -> tuple[int, dict[int, int]]:
    """(residual, factorization) of ``value`` over the primes up to ``top``, ascending.

    The power of 2, when admissible, is read from the lowest set bit; each odd
    prime is tested once and divided out only if it divides.
    """
    remaining = value
    factorization: dict[int, int] = {}
    if top >= 2:
        twos = (remaining & -remaining).bit_length() - 1
        if twos:
            factorization[2] = twos
            remaining >>= twos
    for prime in islice(primes, 1, None):          # the odd primes
        if prime * prime > remaining:
            break
        if remaining % prime:
            continue
        remaining //= prime
        multiplicity = 1
        while remaining % prime == 0:
            remaining //= prime
            multiplicity += 1
        factorization[prime] = multiplicity
    # Once prime^2 exceeds it, what remains is 1 or a single prime, larger than
    # every prime divided out, so the keys stay ascending; it counts as part of
    # the smooth factorization only if it is admissible.
    if 1 < remaining <= top:
        factorization[remaining] = 1
        remaining = 1
    return remaining, factorization


class SmoothnessEntry(NamedTuple):
    poly: str                        # "P" or "Q"
    monomial: Monomial
    coefficient_abs: int
    smooth: bool
    residual: int
    largest_prime_found: int | None
    factorization: dict[int, int]

    def to_dict(self) -> dict:
        # One shared name per prime: a report repeats each one in most entries.
        return self._named({p: intern(str(p)) for p in self.factorization})

    def _named(self, names: dict[int, str]) -> dict:
        """to_dict() with each prime of the factorization named by ``names``."""
        factorization = self.factorization
        return {
            "poly": self.poly,
            "monomial": list(self.monomial),
            "coefficient_abs": str(self.coefficient_abs),
            "smooth": self.smooth,
            "residual": str(self.residual),
            "largest_prime_found": self.largest_prime_found,
            "factorization": dict(zip(map(names.__getitem__, factorization),
                                      factorization.values())),
        }


class SmoothnessReport(NamedTuple):
    """Per-coefficient smoothness verdicts for one iterate pair."""

    n: int
    bound: int
    mode: str
    entries: tuple[SmoothnessEntry, ...]
    all_smooth: bool
    max_abs_coefficient: int
    count_exceeding_bound: int
    total_coefficients: int

    @property
    def passed(self) -> bool:
        return self.all_smooth

    def failures(self) -> list[SmoothnessEntry]:
        return [e for e in self.entries if not e.smooth]

    def to_dict(self) -> dict:
        # One name per prime for the whole report, made from every prime it holds.
        primes = set().union(*[e.factorization for e in self.entries])
        names = {p: str(p) for p in primes}
        return {
            "n": self.n,
            "bound": self.bound,
            "mode": self.mode,
            "summary": {
                "all_smooth": self.all_smooth,
                "max_abs_coefficient": str(self.max_abs_coefficient),
                "count_exceeding_bound": self.count_exceeding_bound,
                "total_coefficients": self.total_coefficients,
            },
            "entries": [e._named(names) for e in self.entries],
        }


def certify_pair(pair: NewtonPair, mode: str = "inclusive") -> SmoothnessReport:
    """Run smooth_part on |coefficient| of every stored term of P_n and Q_n.

    The bound is 2^n.  Entries are ordered by (polynomial, graded-lex
    monomial), matching the serialization order of the polynomials.  The
    summary also counts coefficients with |coefficient| > 2^n, the machine
    witness that smoothness is not explained by the coefficients being small.
    """
    bound = 2 ** pair.n
    top, primes = _admissible_primes(bound, mode)     # sieved once for the pair
    entries: list[SmoothnessEntry] = []
    max_abs = 0
    exceeding = 0
    for name, poly in (("P", pair.p), ("Q", pair.q)):
        for monomial, coefficient in poly.sorted_terms():
            magnitude = abs(coefficient)
            residual, factorization = _factor_over(magnitude, top, primes)
            entries.append(SmoothnessEntry(name, monomial, magnitude, residual == 1, residual,
                                           next(reversed(factorization), None), factorization))
            max_abs = max(max_abs, magnitude)
            if magnitude > bound:
                exceeding += 1
    return SmoothnessReport(
        n=pair.n, bound=bound, mode=mode, entries=tuple(entries),
        all_smooth=all(e.smooth for e in entries),
        max_abs_coefficient=max_abs,
        count_exceeding_bound=exceeding,
        total_coefficients=len(entries))
