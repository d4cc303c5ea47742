"""Exact roots and Mobius conjugacy in Q(sqrt(d)); the root form over Z[s]/(s^2 - d).

The Newton map of a quadratic with distinct roots r1, r2 is conjugate to plain
squaring via the fractional linear map sending the roots to 0 and infinity:

    phi(t) = (t - r1) / (t - r2),      N = phi^-1 . (. ^2) . phi

Working in Q(sqrt(d)) with d = b^2 - 4ac keeps everything exact: values are
u + v sqrt(d) with rational u, v.  A perfect-square radicand is folded into
the rational part immediately (principal root), so rational values always
have v = 0 and compare canonically.  Negative d is allowed (complex roots).

This module also supplies the third, independent construction of (P_n, Q_n):
the symmetric root-form expressions in r1, r2 = (-b +/- s)/(2a), s = sqrt(d).
With N = 2^n, A = (2a x + b + s)^N and B = (2a x + b - s)^N, the powers of a
cancel and

    Q_n = (A - B) / (2^N s)        P_n = ((-b + s) A - (-b - s) B) / (2^(N+1) a s)

A and B are expanded separately, in integers over Z[s]/(s^2 - d): pairs (u, v)
standing for u + v s, for every d.  Both identities above hold in
Z[a, b, c, x][s]/(s^2 - d), where 1, s is a basis, so specializing a, b, c
keeps every u part zero and every v part equal to its symbolic value, even
when d is a perfect square: s stays formal there and is never folded into
isqrt(d).  The check that the radical parts cancel sits at the division by
s, where each numerator's u part must be 0, and runs for every input; one
exact divmod by the integer denominator follows.  Either failure raises
DomainError.

Only the conjugacy route (QuadExt) works in the field Q(sqrt(d)), where a
square d must fold: z = r2 is then a real pole at a rational root.
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
    """u + v sqrt(d) with the principal root folded into u when d is a perfect square."""
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


def _integer_radicand(coeffs: QuadraticCoeffs) -> int:
    """d = b^2 - 4ac, for integer coefficients with two distinct roots."""
    if not coeffs.is_integral():
        raise StructuralError("root construction requires integer coefficients")
    coeffs.require_distinct_roots()
    return int(coeffs.discriminant)


def roots(coeffs: QuadraticCoeffs) -> tuple[QuadExt, QuadExt]:
    """The two distinct roots (-b +/- sqrt(d))/(2a) as exact QuadExt values."""
    d = _integer_radicand(coeffs)
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

def _expand(two_a: int, b: int, sign: int, d: int, size: int) -> list[tuple[int, int]]:
    """Ascending coefficients of (2a x + b + sign s)^size in Z[s]/(s^2 - d).

    The coefficient of x^k is C(size, k) (2a)^k (b + sign s)^(size - k), a
    pair (u, v) standing for u + v s; the powers of b + sign s come from
    (u, v)(b, sign) = (b u + sign d v, sign u + b v).
    """
    scales = [1]                    # C(size, k) (2a)^k; each division below is exact
    for k in range(1, size + 1):
        scales.append(scales[-1] * (size - k + 1) * two_a // k)
    coeffs = []
    u, v = 1, 0
    for scale in reversed(scales):
        coeffs.append((scale * u, scale * v))
        u, v = b * u + sign * d * v, sign * u + b * v
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
