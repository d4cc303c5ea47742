"""Mobius conjugacy and the root form, both in Z[s]/(s^2 - d), s = sqrt(d).

The Newton map of a quadratic with distinct roots r1, r2 is conjugate to plain
squaring via the fractional linear map sending the roots to 0 and infinity:

    phi(t) = (t - r1) / (t - r2),      N = phi^-1 . (. ^2) . phi

Values are integer pairs (u, v) standing for u + v s, with d = b^2 - 4ac of
any sign, and s stays formal for every d.  Both routes below take one power
A = u + v s and read its partner B = u - v s as sigma(A), where sigma maps s
to -s: sigma is a ring automorphism of Z[s]/(s^2 - d) for every d, so the
power of the conjugate is the conjugate of the power.

This module also supplies the third, independent construction of (P_n, Q_n):
the symmetric root-form expressions in r1, r2 = (-b +/- s)/(2a).
With N = 2^n, A = (2a x + b + s)^N = U + V s and B = sigma(A) = U - V s, the
powers of a and every s cancel:

    Q_n = (A - B) / (2^N s) = V / 2^(N-1)
    P_n = ((-b + s) A - (-b - s) B) / (2^(N+1) a s) = (U - b V) / (2^N a)

These identities hold in Z[a, b, c, x][s]/(s^2 - d), where 1, s is a basis,
so specializing a, b, c keeps them, even when d is a perfect square.  Each
integer numerator is then divided exactly by its integer denominator; a
remainder raises DomainError.
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

    For z = p/q and t = 2ap + bq, phi(z) = w / sigma(w) with w = t - q s, so
    phi(z)^(2^n) = A / sigma(A) for A = w^(2^n) = u + v s, w squared n times,
    and

        phi^-1(A / sigma(A)) = ((-b + s) sigma(A) - (-b - s) A) / (2a (sigma(A) - A))
                             = -(u + b v) / (2a v).

    s is formal for every d.  For a perfect-square d, isqrt(d) serves only to
    name z = r2 (t = -q isqrt(d)), the pole of phi.  Samples that hit a pole
    on either route are skipped with the reason recorded; a skip is not a
    failure.  n above ``cap`` is a ResourceCapError.
    """
    if n < 1:
        raise StructuralError(f"iteration count must be positive, got {n}")
    check_index(n, cap)
    d = _integer_radicand(coeffs)
    a, b = int(coeffs.a), int(coeffs.b)
    root = math.isqrt(d) if d > 0 else 0
    square = root * root == d       # d != 0: only a perfect-square d has a rational r2
    traces: list[SampleTrace] = []
    for raw in samples:
        z = Fraction(raw)
        try:
            newton_value = iterate_value(coeffs, z, n)
        except DomainError as exc:
            traces.append(SampleTrace(z, "skipped", f"newton route pole: {exc}"))
            continue
        t, q = 2 * a * z.numerator + b * z.denominator, z.denominator
        if square and t == -q * root:
            traces.append(SampleTrace(z, "skipped", "z equals r2, the pole of phi"))
            continue
        u, v = t, -q                # w = t - q s
        for _ in range(n):
            u, v = _times((u, v), (u, v), d)
        # v = 0 would mean A = sigma(A), phi(N^n(z)) = 1 and N^n(z) = infinity,
        # a pole iterate_value has already reported.
        value = Fraction(-(u + b * v), 2 * a * v)
        traces.append(SampleTrace(z, "ok", None, newton_value, (value, Fraction(0), d),
                                  value == newton_value))
    checked = sum(1 for t in traces if t.status == "ok")
    ok = all(t.match for t in traces if t.status == "ok") and checked > 0
    return ConjugacyReport(
        coeffs=(int(coeffs.a), int(coeffs.b), int(coeffs.c)), n=n,
        traces=tuple(traces), checked=checked,
        skipped=len(traces) - checked, verdict="pass" if ok else "fail")


# ---------------------------------------------------------------- root form

def _expand(two_a: int, b: int, d: int, size: int) -> list[tuple[int, int]]:
    """Ascending coefficients of (2a x + b + s)^size in Z[s]/(s^2 - d).

    The coefficient of x^k is C(size, k) (2a)^k (b + s)^(size - k), a pair
    (u, v) standing for u + v s.
    """
    scales = [1]                    # C(size, k) (2a)^k; each division below is exact
    for k in range(1, size + 1):
        scales.append(scales[-1] * (size - k + 1) * two_a // k)
    coeffs = []
    u, v = 1, 0
    for scale in reversed(scales):
        coeffs.append((scale * u, scale * v))
        u, v = _times((u, v), (b, 1), d)
    coeffs.reverse()
    return coeffs


def _integer_poly(numerators: Sequence[int], denominator: int, name: str) -> MultiPoly:
    """The polynomial over {x} whose x^k coefficient is numerators[k] / denominator.

    Every quotient must be exact; a remainder means the root form did not
    reproduce an integer polynomial, and is reported.
    """
    terms = {}
    for power, numerator in enumerate(numerators):
        quotient, remainder = divmod(numerator, denominator)
        if remainder:
            raise DomainError(f"{name}: coefficient {Fraction(numerator, denominator)} "
                              f"of x^{power} is not an integer")
        if quotient:
            terms[(power,)] = quotient
    return MultiPoly._raw(X_ONLY, terms)


def root_form_pair(coeffs: QuadraticCoeffs, n: int,
                   cap: int = DEFAULT_CAP) -> tuple[MultiPoly, MultiPoly]:
    """The symmetric root-form pair, as integer polynomials over {x}:

        P_n = a^(N - 1) (r1 (x - r2)^N - r2 (x - r1)^N) / (r1 - r2)
        Q_n = a^(N - 1) ((x - r2)^N - (x - r1)^N) / (r1 - r2)

    with N = 2^n.  Writing s = sqrt(d), A = (2a x + b + s)^N = U + V s and
    B = (2a x + b - s)^N = sigma(A) = U - V s, the powers of a cancel and

        Q_n = (A - B) / (2^N s) = V / 2^(N-1)
        P_n = ((-b + s) A - (-b - s) B) / (2^(N+1) a s) = (U - b V) / (2^N a)

    A alone is expanded, in Z[s]/(s^2 - d) with s formal for every d.  Each
    division by the integer denominator must be exact, else DomainError names
    the coefficient.
    """
    check_index(n, cap)
    d = _integer_radicand(coeffs)
    a, b = int(coeffs.a), int(coeffs.b)
    size = 2 ** n
    power = _expand(2 * a, b, d, size)
    return (_integer_poly([u - b * v for u, v in power], 2 ** size * a, "P"),
            _integer_poly([v for _, v in power], 2 ** (size - 1), "Q"))
