"""The benchmark's own arithmetic, used to check the program's outputs.

Nothing here imports newtonpoly: each check recomputes an expected value by a
route the program does not share (stepwise Newton in Fractions, Horner
evaluation of emitted JSON, the recurrence over GF(p)).
"""

from __future__ import annotations

from fractions import Fraction

# Primes for the modular gcd check; a witness is confirmed if any of them
# reduces the pair to coprime polynomials.
GCD_PRIMES = (2**61 - 1, 2**31 - 1, 1_000_000_007)


def newton_orbit(a, b, c, z, n: int) -> Fraction | None:
    """z after n exact Newton steps for a z^2 + b z + c, or None at a pole."""
    a, b, c, z = Fraction(a), Fraction(b), Fraction(c), Fraction(z)
    for _ in range(n):
        slope = 2 * a * z + b
        if slope == 0:
            return None
        z = z - (a * z * z + b * z + c) / slope
    return z


def usable_quadratic(a, b, c) -> bool:
    """a != 0 and a nonzero discriminant: every route is defined."""
    return a != 0 and b * b - 4 * a * c != 0


def eval_univariate(poly: dict, x: Fraction) -> Fraction:
    """Horner value of a polynomial in the program's JSON schema over ["x"]."""
    if poly["vars"] != ["x"]:
        raise ValueError(f"expected a polynomial over x, got {poly['vars']}")
    coeffs = {term["exp"][0]: int(term["coeff"]) for term in poly["terms"]}
    value = Fraction(0)
    for power in range(max(coeffs, default=0), -1, -1):
        value = value * x + coeffs.get(power, 0)
    return value


def _trim(u: list[int]) -> list[int]:
    while u and u[-1] == 0:
        u.pop()
    return u


def _mul_mod(u: list[int], v: list[int], p: int) -> list[int]:
    out = [0] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                out[i + j] += ui * vj
    return [x % p for x in out]


def _add_mod(u: list[int], v: list[int], p: int) -> list[int]:
    if len(u) < len(v):
        u, v = v, u
    out = list(u)
    for i, vi in enumerate(v):
        out[i] = (out[i] + vi) % p
    return out


def pair_mod_p(a: int, b: int, c: int, n: int, p: int) -> tuple[list[int], list[int]]:
    """(P_n, Q_n) at integer (a, b, c) over GF(p), ascending in x, by the recurrence."""
    P, Q = [0, 1], [1]
    for _ in range(n):
        pp, qq, pq = _mul_mod(P, P, p), _mul_mod(Q, Q, p), _mul_mod(P, Q, p)
        P = _add_mod([a * t for t in pp], [-c * t for t in qq], p)
        Q = _add_mod([2 * a * t for t in pq], [b * t for t in qq], p)
    return _trim(P), _trim(Q)


def gcd_degree_mod_p(u: list[int], v: list[int], p: int) -> int:
    """Degree of gcd(u, v) over GF(p) (Euclid); -1 if both are zero."""
    u, v = _trim(list(u)), _trim(list(v))
    while v:
        inverse = pow(v[-1], -1, p)
        while len(u) >= len(v):
            factor = u[-1] * inverse % p
            shift = len(u) - len(v)
            for i, coefficient in enumerate(v):
                u[i + shift] = (u[i + shift] - factor * coefficient) % p
            _trim(u)
        u, v = v, u
    return len(u) - 1


def coprime_witness_holds(a: int, b: int, c: int, n: int) -> bool:
    """True when some prime shows gcd_x(P_n, Q_n) = 1 at (a, b, c).

    The leading x-coefficients are a^(2^n-1) and 2^n a^(2^n-1); for an odd
    prime not dividing a, the degree of the gcd over Q is at most its degree
    mod p, so a coprime reduction proves gcd degree 0 over Q.
    """
    for p in GCD_PRIMES:
        if a % p == 0:
            continue
        P, Q = pair_mod_p(a % p, b % p, c % p, n, p)
        if len(P) == 2**n + 1 and len(Q) == 2**n and gcd_degree_mod_p(P, Q, p) == 0:
            return True
    return False
