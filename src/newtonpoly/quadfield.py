"""Mobius conjugacy and the root form, both in Z[s]/(s^2 - d), s = sqrt(d).

The Newton map of a quadratic with distinct roots r1, r2 is conjugate to plain
squaring via the fractional linear map sending the roots to 0 and infinity:

    phi(t) = (t - r1) / (t - r2),      N = phi^-1 . (. ^2) . phi

Values are integer pairs (u, v) standing for u + v s, with d = b^2 - 4ac of
any sign.  The conjugacy check evaluates both sides at rational samples; there
a square d maps s to its principal root isqrt(d), a ring homomorphism, so
z = r2 is a real pole and a rational value has v = 0.

This module also supplies the third, independent construction of (P_n, Q_n):
the symmetric root-form expressions in r1, r2 = (-b +/- s)/(2a).
With N = 2^n, A = (2a x + b + s)^N and B = (2a x + b - s)^N, the powers of a
cancel and

    Q_n = (A - B) / (2^N s)        P_n = ((-b + s) A - (-b - s) B) / (2^(N+1) a s)

A and B are expanded separately.  Both identities above hold in
Z[a, b, c, x][s]/(s^2 - d), where 1, s is a basis, so specializing a, b, c
keeps every u part zero and every v part equal to its symbolic value, even
when d is a perfect square: s stays formal here and is never mapped to
isqrt(d).  The check that the radical parts cancel sits at the division by
s, where each numerator's u part must be 0, and runs for every input; one
exact divmod by the integer denominator follows.  Either failure raises
DomainError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DEFAULT_CAP, DomainError, StructuralError, check_index
from .newton import QuadraticCoeffs, iterate_value
from .polyring import X_ONLY, MultiPoly


def _times(left: tuple[int, int], right: tuple[int, int], d: int) -> tuple[int, int]:
    """(u + v s)(w + y s) = (u w + d v y) + (u y + v w) s."""
    (u, v), (w, y) = left, right
    return u * w + d * v * y, u * y + v * w


def _integer_radicand(coeffs: QuadraticCoeffs) -> int:
    """d = b^2 - 4ac, for integer coefficients with two distinct roots."""
    if not coeffs.is_integral():
        raise StructuralError("root construction requires integer coefficients")
    coeffs.require_distinct_roots()
    return int(coeffs.discriminant)


# ---------------------------------------------------------------- conjugacy check

@dataclass(frozen=True)
class SampleTrace:
    z: Fraction
    status: str                     # "ok" or "skipped"
    reason: str | None = None
    newton_value: Fraction | None = None
    conjugacy_value: tuple[Fraction, Fraction, int] | None = None     # u + v sqrt(d)
    match: bool | None = None

    def to_dict(self) -> dict:
        value = self.conjugacy_value
        return {
            "z": str(self.z),
            "status": self.status,
            "reason": self.reason,
            "newton_value": None if self.newton_value is None else str(self.newton_value),
            "conjugacy_value":
                None if value is None else {"u": str(value[0]), "v": str(value[1]), "d": value[2]},
            "match": self.match,
        }


@dataclass(frozen=True)
class ConjugacyReport:
    """Pointwise agreement of n-fold Newton steps with phi^-1(phi(z)^(2^n))."""

    coeffs: tuple[int, int, int]
    n: int
    traces: tuple[SampleTrace, ...]
    checked: int
    skipped: int
    verdict: str

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        a, b, c = self.coeffs
        return {
            "coeffs": {"a": a, "b": b, "c": c},
            "n": self.n,
            "checked": self.checked,
            "skipped": self.skipped,
            "verdict": self.verdict,
            "traces": [t.to_dict() for t in self.traces],
        }


def conjugacy_check(coeffs: QuadraticCoeffs, n: int, samples: Iterable[Fraction | int],
                    cap: int = DEFAULT_CAP) -> ConjugacyReport:
    """Check N^n(z) = phi^-1(phi(z)^(2^n)) exactly at each sample.

    For z = p/q and t = 2ap + bq, phi(z) = (t - q s) / (t + q s) = A / B, so
    phi(z)^(2^n) is A and B squared n times, and

        phi^-1(A / B) = ((-b + s) B - (-b - s) A) / (2a (B - A)),

    rationalized once by the conjugate of its denominator.  Samples that hit a
    pole on either route are skipped with the reason recorded; a skip is not a
    failure.  n above ``cap`` is a ResourceCapError.
    """
    if n < 1:
        raise ValueError(f"iteration count must be positive, got {n}")
    check_index(n, cap)
    d = _integer_radicand(coeffs)
    a, b = int(coeffs.a), int(coeffs.b)
    root = math.isqrt(d) if d > 0 else 0
    s0, s1 = (root, 0) if root * root == d else (0, 1)      # s, or isqrt(d) for a square d
    traces: list[SampleTrace] = []
    for raw in samples:
        z = Fraction(raw)
        try:
            newton_value = iterate_value(coeffs, z, n)
        except DomainError as exc:
            traces.append(SampleTrace(z, "skipped", f"newton route pole: {exc}"))
            continue
        t, q = 2 * a * z.numerator + b * z.denominator, z.denominator
        top, bottom = (t - q * s0, -q * s1), (t + q * s0, q * s1)      # phi(z) = top / bottom
        if bottom == (0, 0):
            traces.append(SampleTrace(z, "skipped", "z equals r2, the pole of phi"))
            continue
        for _ in range(n):
            top, bottom = _times(top, top, d), _times(bottom, bottom, d)
        # phi(w) = 1 only at w = infinity, so top = bottom would mean N^n(z) = infinity,
        # a pole iterate_value has already reported; hence norm below is nonzero.
        numerator = [x + y for x, y in zip(_times((s0 - b, s1), bottom, d),
                                           _times((s0 + b, s1), top, d))]
        conjugate = (2 * a * (bottom[0] - top[0]), 2 * a * (top[1] - bottom[1]))
        u, v = _times(numerator, conjugate, d)
        norm = conjugate[0] ** 2 - d * conjugate[1] ** 2
        value = (Fraction(u, norm), Fraction(v, norm), d)
        traces.append(SampleTrace(z, "ok", None, newton_value, value,
                                  v == 0 and value[0] == newton_value))
    checked = sum(1 for t in traces if t.status == "ok")
    ok = all(t.match for t in traces if t.status == "ok") and checked > 0
    return ConjugacyReport(
        coeffs=(int(coeffs.a), int(coeffs.b), int(coeffs.c)), n=n,
        traces=tuple(traces), checked=checked,
        skipped=len(traces) - checked, verdict="pass" if ok else "fail")


# ---------------------------------------------------------------- root form

def _expand(two_a: int, b: int, sign: int, d: int, size: int) -> list[tuple[int, int]]:
    """Ascending coefficients of (2a x + b + sign s)^size in Z[s]/(s^2 - d).

    The coefficient of x^k is C(size, k) (2a)^k (b + sign s)^(size - k), a
    pair (u, v) standing for u + v s.
    """
    scales = [1]                    # C(size, k) (2a)^k; each division below is exact
    for k in range(1, size + 1):
        scales.append(scales[-1] * (size - k + 1) * two_a // k)
    coeffs = []
    u, v = 1, 0
    for scale in reversed(scales):
        coeffs.append((scale * u, scale * v))
        u, v = _times((u, v), (b, sign), d)
    coeffs.reverse()
    return coeffs


def _integer_poly(numerators: Sequence[tuple[int, int]], denominator: int, d: int,
                  name: str) -> MultiPoly:
    """The polynomial over {x} whose x^k coefficient is numerators[k] / (s denominator).

    A numerator (u, v) stands for u + v s, and (u + v s) / s = v + (u/d) s:
    its u must be 0, or the coefficient keeps a radical part.  Every quotient
    v / denominator must then be exact.  Either failure means the root form
    did not reproduce an integer polynomial, and is reported.
    """
    terms = {}
    for power, (u, v) in enumerate(numerators):
        if u:
            raise DomainError(f"{name}: coefficient {Fraction(v, denominator)} + "
                              f"{Fraction(u, d * denominator)}*sqrt({d}) of x^{power} "
                              f"keeps a radical part")
        quotient, remainder = divmod(v, denominator)
        if remainder:
            raise DomainError(f"{name}: coefficient {Fraction(v, denominator)} "
                              f"of x^{power} is not an integer")
        if quotient:
            terms[(power,)] = quotient
    return MultiPoly._raw(X_ONLY, terms)


def root_form_pair(coeffs: QuadraticCoeffs, n: int,
                   cap: int = DEFAULT_CAP) -> tuple[MultiPoly, MultiPoly]:
    """The symmetric root-form pair, as integer polynomials over {x}:

        P_n = a^(N - 1) (r1 (x - r2)^N - r2 (x - r1)^N) / (r1 - r2)
        Q_n = a^(N - 1) ((x - r2)^N - (x - r1)^N) / (r1 - r2)

    with N = 2^n.  Writing s = sqrt(d), A = (2a x + b + s)^N and
    B = (2a x + b - s)^N, the powers of a cancel and

        Q_n = (A - B) / (2^N s)
        P_n = ((-b + s) A - (-b - s) B) / (2^(N+1) a s)

    A and B are expanded separately in Z[s]/(s^2 - d), for every d.  Dividing
    a numerator by s must leave no radical part, and dividing by the integer
    denominator must be exact, else DomainError names the coefficient.
    """
    check_index(n, cap)
    d = _integer_radicand(coeffs)
    a, b = int(coeffs.a), int(coeffs.b)
    size = 2 ** n
    plus = _expand(2 * a, b, 1, d, size)
    minus = _expand(2 * a, b, -1, d, size)
    # (u, v) and (w, y) stand for u + v s and w + y s
    p = [(d * (v + y) - b * (u - w), u + w - b * (v - y))
         for (u, v), (w, y) in zip(plus, minus)]
    q = [(u - w, v - y) for (u, v), (w, y) in zip(plus, minus)]
    return (_integer_poly(p, 2 ** (size + 1) * a, d, "P"),
            _integer_poly(q, 2 ** size, d, "Q"))
