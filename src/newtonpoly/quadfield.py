"""Exact arithmetic in Q(sqrt(d)): roots, the Mobius conjugacy, and the root form.

The Newton map of a quadratic with distinct roots r1, r2 is conjugate to plain
squaring via the fractional linear map sending the roots to 0 and infinity:

    phi(t) = (t - r1) / (t - r2),      N = phi^-1 . (. ^2) . phi

Working in Q(sqrt(d)) with d = b^2 - 4ac keeps everything exact: values are
u + v sqrt(d) with rational u, v.  A perfect-square radicand is folded into
the rational part immediately (principal root), so rational values always
have v = 0 and compare canonically.  Negative d is allowed (complex roots).

This module supplies the third, independent construction of (P_n, Q_n): the
symmetric root-form expressions, whose sqrt(d)-components cancel exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DomainError, StructuralError, check_index
from .newton import DEFAULT_CAP, QuadraticCoeffs, iterate_value
from .polyring import X_ONLY, MultiPoly


def _fold_square(u: Fraction, v: Fraction, d: int) -> tuple[Fraction, Fraction]:
    if v and d >= 0:
        root = math.isqrt(d)
        if root * root == d:
            return u + v * root, Fraction(0)
    return u, v


class QuadExt:
    """u + v sqrt(d) with exact rational u, v and a fixed integer radicand d."""

    __slots__ = ("u", "v", "d")

    def __init__(self, u: Fraction | int, v: Fraction | int = 0, d: int = 0):
        if not isinstance(d, int):
            raise StructuralError(f"radicand must be an integer, got {d!r}")
        u, v = _fold_square(Fraction(u), Fraction(v), d)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt values are immutable")

    @classmethod
    def lift(cls, value: "QuadExt | Fraction | int", d: int) -> "QuadExt":
        if isinstance(value, QuadExt):
            return value
        return cls(Fraction(value), 0, d)

    # ------------------------------------------------------------------ structure

    @property
    def is_zero(self) -> bool:
        return self.u == 0 and self.v == 0

    @property
    def is_rational(self) -> bool:
        return self.v == 0

    def norm(self) -> Fraction:
        """u^2 - v^2 d, the product with the conjugate."""
        return self.u * self.u - self.v * self.v * self.d

    # ------------------------------------------------------------------ arithmetic

    def _coerce(self, other) -> "QuadExt | None":
        if isinstance(other, QuadExt):
            if self.v and other.v and self.d != other.d:
                raise StructuralError(f"mixed radicands: sqrt({self.d}) vs sqrt({other.d})")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(Fraction(other), 0, self.d)
        return None

    def _ambient_d(self, other: "QuadExt") -> int:
        return self.d if self.v else (other.d if other.v else self.d)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QuadExt(self.u + other.u, self.v + other.v, self._ambient_d(other))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QuadExt(self.u - other.u, self.v - other.v, self._ambient_d(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return QuadExt(-self.u, -self.v, self.d)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d = self._ambient_d(other)
        return QuadExt(
            self.u * other.u + self.v * other.v * d,
            self.u * other.v + self.v * other.u,
            d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        n = self.norm()
        if n == 0:
            raise DomainError(f"{self} is not invertible (norm 0)")
        return QuadExt(self.u / n, -self.v / n, self.d)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, exponent: int) -> "QuadExt":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = QuadExt(1, 0, self.d)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # ------------------------------------------------------------------ comparison

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.v == 0 and self.u == other
        if not isinstance(other, QuadExt):
            return NotImplemented
        if self.v == 0 and other.v == 0:
            return self.u == other.u
        return self.u == other.u and self.v == other.v and self.d == other.d

    def __hash__(self) -> int:
        if self.v == 0:
            return hash(self.u)
        return hash((self.u, self.v, self.d))

    # ------------------------------------------------------------------ io

    def to_dict(self) -> dict:
        return {"u": str(self.u), "v": str(self.v), "d": self.d}

    def __str__(self) -> str:
        if self.v == 0:
            return str(self.u)
        return f"{self.u} + {self.v}*sqrt({self.d})"

    def __repr__(self) -> str:
        return f"QuadExt({self.u!r}, {self.v!r}, {self.d})"


def roots(coeffs: QuadraticCoeffs) -> tuple[QuadExt, QuadExt]:
    """The two distinct roots (-b +/- sqrt(d))/(2a) as exact QuadExt values."""
    if not coeffs.is_integral():
        raise StructuralError("root construction requires integer coefficients")
    coeffs.require_distinct_roots()
    d = int(coeffs.discriminant)
    half = Fraction(1, 2) / coeffs.a
    center = -coeffs.b * half
    return QuadExt(center, half, d), QuadExt(center, -half, d)


def phi_apply(root_pair: Sequence[QuadExt], tau: QuadExt | Fraction | int) -> QuadExt:
    """(tau - r1)/(tau - r2); pole at tau = r2."""
    r1, r2 = root_pair
    tau = QuadExt.lift(tau, r1.d)
    denominator = tau - r2
    if denominator.is_zero:
        raise DomainError("phi has a pole at tau = r2")
    return (tau - r1) / denominator


def phi_inverse(root_pair: Sequence[QuadExt], w: QuadExt | Fraction | int) -> QuadExt:
    """(r1 - r2 w)/(1 - w); pole at w = 1, the image of infinity."""
    r1, r2 = root_pair
    w = QuadExt.lift(w, r1.d)
    denominator = QuadExt(1, 0, r1.d) - w
    if denominator.is_zero:
        raise DomainError("phi^-1 has a pole at w = 1 (the image of infinity)")
    return (r1 - r2 * w) / denominator


# ---------------------------------------------------------------- conjugacy check

@dataclass(frozen=True)
class SampleTrace:
    z: Fraction
    status: str                     # "ok" or "skipped"
    reason: str | None = None
    newton_value: Fraction | None = None
    conjugacy_value: QuadExt | None = None
    match: bool | None = None

    def to_dict(self) -> dict:
        return {
            "z": str(self.z),
            "status": self.status,
            "reason": self.reason,
            "newton_value": None if self.newton_value is None else str(self.newton_value),
            "conjugacy_value":
                None if self.conjugacy_value is None else self.conjugacy_value.to_dict(),
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

    Samples that hit a pole on either route are skipped with the reason
    recorded; a skip is not a failure.  n above ``cap`` is a ResourceCapError.
    """
    if n < 1:
        raise ValueError(f"iteration count must be positive, got {n}")
    check_index(n, cap)
    r = roots(coeffs)
    traces: list[SampleTrace] = []
    for raw in samples:
        z = Fraction(raw)
        try:
            newton_value = iterate_value(coeffs, z, n)
        except DomainError as exc:
            traces.append(SampleTrace(z, "skipped", f"newton route pole: {exc}"))
            continue
        if QuadExt.lift(z, r[0].d) == r[1]:
            traces.append(SampleTrace(z, "skipped", "z equals r2, the pole of phi"))
            continue
        w = phi_apply(r, z) ** (2 ** n)
        if w == 1:
            traces.append(SampleTrace(z, "skipped", "phi(z)^(2^n) = 1, the image of infinity"))
            continue
        value = phi_inverse(r, w)
        traces.append(SampleTrace(z, "ok", None, newton_value, value,
                                  value == newton_value))
    checked = sum(1 for t in traces if t.status == "ok")
    ok = all(t.match for t in traces if t.status == "ok") and checked > 0
    return ConjugacyReport(
        coeffs=(int(coeffs.a), int(coeffs.b), int(coeffs.c)), n=n,
        traces=tuple(traces), checked=checked,
        skipped=len(traces) - checked, verdict="pass" if ok else "fail")


# ---------------------------------------------------------------- root form

def _binomial_power(root: QuadExt, n: int, d: int) -> list[QuadExt]:
    """Ascending coefficients of (x - root)^n, by the binomial theorem."""
    minus = -root
    coeffs: list[QuadExt] = []
    power_of_root = QuadExt(1, 0, d)
    for k in range(n, -1, -1):
        coeffs.append(power_of_root * math.comb(n, k))
        if k:
            power_of_root = power_of_root * minus
    coeffs.reverse()
    return coeffs


def _integer_poly(values: Sequence[QuadExt], name: str) -> MultiPoly:
    """The polynomial over {x} with ascending coefficients ``values``.

    Each value must have cancelled to an integer; anything else means the
    root form did not reproduce an integer polynomial, and is reported.
    """
    terms = {}
    for power, value in enumerate(values):
        if not value.is_rational:
            raise DomainError(f"{name}: coefficient {value} of x^{power} keeps a radical part")
        if value.u.denominator != 1:
            raise DomainError(f"{name}: coefficient {value.u} of x^{power} is not an integer")
        terms[(power,)] = value.u.numerator
    return MultiPoly(X_ONLY, terms)


def root_form_pair(coeffs: QuadraticCoeffs, n: int,
                   cap: int = DEFAULT_CAP) -> tuple[MultiPoly, MultiPoly]:
    """The symmetric root-form pair, as integer polynomials over {x}:

        P_n = a^(2^n - 1) (r1 (x - r2)^(2^n) - r2 (x - r1)^(2^n)) / (r1 - r2)
        Q_n = a^(2^n - 1) ((x - r2)^(2^n) - (x - r1)^(2^n)) / (r1 - r2)

    The sums are formed in Q(sqrt(d)); their radical parts must cancel and
    their rational parts be integers, else DomainError names the coefficient.
    """
    check_index(n, cap)
    r1, r2 = roots(coeffs)
    d = r1.d
    size = 2 ** n
    around_r2 = _binomial_power(r2, size, d)
    around_r1 = _binomial_power(r1, size, d)
    lead = QuadExt.lift(coeffs.a ** (size - 1), d)
    scalar = lead / (r1 - r2)
    p = [(u * r1 - v * r2) * scalar for u, v in zip(around_r2, around_r1)]
    q = [(u - v) * scalar for u, v in zip(around_r2, around_r1)]
    return _integer_poly(p, "P"), _integer_poly(q, "Q")
