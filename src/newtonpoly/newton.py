"""Newton iterate pair via the recurrence, the stepwise map, and coprimality certificates.

The pair (P_n, Q_n) is grown by the squaring recurrence

    P_{n+1} = a P_n^2 - c Q_n^2
    Q_{n+1} = 2a P_n Q_n + b Q_n^2        (P_0, Q_0) = (x, 1)

entirely in Z[a,b,c][x].  The pair is homogeneous: every monomial
a^i b^j c^k x^e of P_n has i + j + k = 2^n - 1 and j + 2k + e = 2^n, and
every monomial of Q_n has the same i + j + k and j + 2k + e = 2^n - 1.  So
(k, e), the exponents of c and x, name a term, and each polynomial is a
half-full 2-D grid of integers; NewtonPair refuses a term off it.  On that
grid multiplying by a or b is the identity (their exponents are implied) and
multiplying by c shifts one row.  Each step packs both grids into single
numbers by Kronecker substitution, takes three squarings, P^2, Q^2 and
(P + Q)^2, forms

    P' = P^2 - (Q^2 shifted one c-row)        Q' = (P + Q)^2 - P^2 = 2 PQ + Q^2

and unpacks the result.  packing.choose_radix picks the product: int below a
measured operand size, Decimal (libmpdec's transform) above it.  The
grading fixes the layout: at x-degree N a row holds N + 1 cells, packed at
stride 2N + 1, and P' has N + 1 rows, Q' N.
The grid becomes an (a, b, c, x) polynomial once, after the last step.  The
recurrence never consults the closed form.

The stepwise route (newton_step, iterate_value), which eval and the
conjugacy check compare with P_n/Q_n at exact points, runs the literal map
z - f(z)/f'(z) on an integer pair z = p/q, with one gcd per step.  It does
not use the simplified (a z^2 - c)/(2a z + b): that is the recurrence's own
step (a P^2 - c Q^2, 2a P Q + b Q^2), and a check built on it would not be
independent of the pair it checks.

Relative primality of the pair is certified two ways, each in a named ring:

* the Sylvester resultant Res_x(P_n, Q_n), exact over Z[a,b,c] and nonzero
  as a polynomial, for n <= EXACT_RESULTANT_MAX_N = 3.  It is one Sylvester
  determinant over Z, taken by Bareiss elimination at a = b = 1, c = 2^w:
  the two gradings above make every term of the resultant have the same
  total degree and the same weight j + 2k, so its c exponent k names it, and
  w is chosen from a proven bound on the coefficients (||P||_1^deg Q times
  ||Q||_1^deg P), so the signed base-2^w digits of the determinant are
  exactly the coefficients;
* for every n, seeded integer specializations of (a, b, c), each followed by
  Euclid on the two polynomials in x over GF(p), p = GCD_PRIME = 2^61 - 1.

A specialization witness whose gcd over GF(p) has degree 0 proves the
symbolic pair coprime over Q.  The leading x-coefficients are a^(2^n - 1)
and 2^n a^(2^n - 1) with 0 < |a| <= 50, which the odd prime p does not
divide, so reduction mod p keeps both degrees and can only raise the degree
of the gcd: a false pass is impossible, and the worst case is a false "fail".
The degenerate probes all have b^2 - 4ac = 0, where
P_n/Q_n = r + (x - r)/2^n; their gcd is all of Q_n in every field where the
leading coefficient of Q_n is nonzero, GF(p) included, so the recorded
probe degrees are those over Q.
"""

from __future__ import annotations

import math
import operator
import random
from collections import namedtuple
from fractions import Fraction
from itertools import count, islice, starmap
from typing import Iterator, NamedTuple

from .errors import DEFAULT_CAP, DomainError, StructuralError, check_index
from .packing import ByteSlots, choose_radix, slot_size
from .polyring import ABCX, MultiPoly, divexact

EXACT_RESULTANT_MAX_N = 3
GCD_PRIME = (1 << 61) - 1       # Mersenne prime; the specialized gcd runs over GF(GCD_PRIME)

# Degenerate discriminant triples probed (never asserted) by coprimality_check.
DEGENERATE_PROBES = ((1, 2, 1), (1, -2, 1), (4, 4, 1), (9, 6, 1), (1, 0, 0))


# typing.NamedTuple refuses a __new__, so the two records that check their
# fields subclass collections.namedtuple and check them in __new__.
class QuadraticCoeffs(namedtuple("QuadraticCoeffs", "a b c")):
    """Exact rational coefficients of f(x) = a x^2 + b x + c, with a != 0."""

    __slots__ = ()
    a: Fraction
    b: Fraction
    c: Fraction

    def __new__(cls, a, b, c) -> QuadraticCoeffs:
        self = super().__new__(cls, Fraction(a), Fraction(b), Fraction(c))
        if self.a == 0:
            raise DomainError("a = 0: not a quadratic")
        return self

    @classmethod
    def _make(cls, iterable) -> QuadraticCoeffs:
        # namedtuple's own _make, which _replace calls, would skip __new__.
        return cls(*iterable)

    @property
    def discriminant(self) -> Fraction:
        return self.b * self.b - 4 * self.a * self.c

    def require_distinct_roots(self) -> None:
        if self.discriminant == 0:
            raise DomainError("discriminant b^2 - 4ac = 0: double root")

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for v in (self.a, self.b, self.c))


class NewtonPair(namedtuple("NewtonPair", "n p q")):
    """(P_n, Q_n) on the grading grid, with the leading coefficients pinned down.

    Every term a^i b^j c^k x^e has i + j + k = 2^n - 1, and j + 2k + e is
    2^n in P and 2^n - 1 in Q.  So the only possible term of top x-degree
    is a^(2^n - 1) x^(2^n) in P and a^(2^n - 1) x^(2^n - 1) in Q, with
    coefficient 1 in P and 2^n in Q.
    """

    __slots__ = ()
    n: int
    p: MultiPoly
    q: MultiPoly

    def __new__(cls, n, p, q) -> NewtonPair:
        self = super().__new__(cls, n, p, q)
        if self.n < 0:
            raise StructuralError(f"iteration index must be nonnegative, got {self.n}")
        if self.p.varset != ABCX or self.q.varset != ABCX:
            raise StructuralError("pair polynomials must live over (a, b, c, x)")
        size = 2 ** self.n
        for name, poly, weight, lead in (("P", self.p, size, 1), ("Q", self.q, size - 1, size)):
            for i, j, k, e in poly._terms:
                if i + j + k != size - 1 or j + 2 * k + e != weight:
                    raise StructuralError(
                        f"{name}_{self.n} has the term a^{i} b^{j} c^{k} x^{e}, off the grid "
                        f"i + j + k = {size - 1}, j + 2k + e = {weight}")
            if poly._terms.get((size - 1, 0, 0, weight)) != lead:
                raise StructuralError(f"leading x-coefficient of {name} != {lead} a^{size - 1}")
        return self

    @classmethod
    def _make(cls, iterable) -> NewtonPair:
        # As in QuadraticCoeffs: _replace goes through here and runs the checks.
        return cls(*iterable)

    def to_dict(self) -> dict:
        return {"n": self.n, "p": self.p.to_dict(), "q": self.q.to_dict()}


def newton_step(coeffs: QuadraticCoeffs, z: Fraction | int) -> Fraction:
    """One exact Newton step z - f(z)/f'(z); pole at the critical point -b/2a."""
    return iterate_value(coeffs, z, 1)


def iterate_value(coeffs: QuadraticCoeffs, z0: Fraction | int, n: int) -> Fraction:
    """n-fold Newton step z - f(z)/f'(z) from z0; DomainError if a step meets the pole.

    z = p/q is stepped as a coprime integer pair with q > 0.  With f scaled
    to integer coefficients A, B, C by the lcm of the denominators,
    slope = 2Ap + Bq is scale q f'(z) and value = (Ap + Bq)p + Cq^2 is
    scale q^2 f(z), so z - f(z)/f'(z) = (p slope - value)/(q slope),
    reduced by one gcd.
    """
    if n < 0:
        raise StructuralError(f"iteration index must be nonnegative, got {n}")
    scale = math.lcm(coeffs.a.denominator, coeffs.b.denominator, coeffs.c.denominator)
    big_a, big_b, big_c = (v.numerator * (scale // v.denominator)
                           for v in (coeffs.a, coeffs.b, coeffs.c))
    z = Fraction(z0)
    p, q = z.numerator, z.denominator
    for _ in range(n):
        slope = 2 * big_a * p + big_b * q
        if slope == 0:
            critical = -coeffs.b / (2 * coeffs.a)
            raise DomainError(f"Newton step undefined at the critical point z = {critical}")
        value = (big_a * p + big_b * q) * p + big_c * q * q
        p, q = p * slope - value, q * slope
        divisor = math.gcd(p, q)
        if q < 0:
            divisor = -divisor
        p, q = p // divisor, q // divisor
    return Fraction(p, q)


# ---------------------------------------------------------------- packed recurrence
#
# A grid is a flat list of integers, row k (the c exponent) after row k - 1,
# size + 1 cells per row for x-degree size, cell e holding the coefficient of
# x^e.  Its Kronecker image (a packing kernel's ``pack``) puts cell (k, e) in
# slot k * stride + e of one number.


def _step(p: list[int], q: list[int], size: int) -> tuple[list[int], list[int]]:
    """One recurrence step on the (c, x) grids of (P, Q) at x-degree ``size``.

    The stride 2 size + 1 exceeds every x exponent of a product.  Since
    j = weight - 2k - e >= 0, P' has size + 1 rows and Q' has size rows.
    packing.choose_radix picks the product from the size of packed P.
    """
    stride = 2 * size + 1
    slot = slot_size(p, q)
    kernel = choose_radix(slot * stride * (size // 2 + 1))(slot)
    packed_p, packed_q = (kernel.pack(cells, size + 1, stride) for cells in (p, q))
    p_sq, p_plus_q = kernel.multiply(packed_p, packed_p), kernel.add(packed_p, packed_q)
    new_p = kernel.subtract(p_sq, kernel.shift(kernel.multiply(packed_q, packed_q), stride))
    new_q = kernel.subtract(kernel.multiply(p_plus_q, p_plus_q), p_sq)
    return (kernel.unpack(new_p, size + 1, stride, stride),
            kernel.unpack(new_q, size, stride, stride))


def _lift(cells: list[int], width: int, degree: int, weight: int) -> MultiPoly:
    """Grid to polynomial: i + j + k = degree and j + 2k + e = weight fix i and j.

    Zero cells are skipped and distinct cells give distinct monomials, so the
    terms are canonical as built.
    """
    terms = {}
    for index, coeff in enumerate(cells):
        if coeff:
            k, e = divmod(index, width)
            j = weight - 2 * k - e
            terms[(degree - j - k, j, k, e)] = coeff
    return MultiPoly._raw(ABCX, terms)


def walk() -> Iterator[tuple[int, list[int], list[int]]]:
    """(n, grid of P_n, grid of Q_n) for n = 0, 1, ...; n is yielded before the step to n + 1.

    Row k of a grid is the c exponent and cell e the x exponent, 2^n + 1 cells a row.
    """
    p, q = [0, 1], [1, 0]               # P_0 = x and Q_0 = 1, cells e = 0, 1
    for n in count():
        yield n, p, q
        p, q = _step(p, q, 2 ** n)


def _pair(n: int, p: list[int], q: list[int]) -> NewtonPair:
    size = 2 ** n
    return NewtonPair(n, _lift(p, size + 1, size - 1, size),
                      _lift(q, size + 1, size - 1, size - 1))


def iterates() -> Iterator[NewtonPair]:
    """The exact symbolic pairs (P_0, Q_0), (P_1, Q_1), ... grown by the squaring recurrence.

    Every monomial a^i b^j c^k x^e has i + j + k = 2^n - 1, and j + 2k + e
    is 2^n in P_n and 2^n - 1 in Q_n, so the recurrence runs on the grids of
    (c, x) exponents: for n >= 1, P_n fills half of a (2^(n-1) + 1) by
    (2^n + 1) grid.  Each step packs both grids by Kronecker substitution and takes three
    squarings, P^2, Q^2 and (P + Q)^2.  packing.slot_size bounds every
    coefficient of P' and Q', the only values unpacked, by Cauchy-Schwarz,
    so the result is exact for every n.  Pair n is built when it is asked
    for, and the step to n + 1 is taken only when that pair is.
    """
    return starmap(_pair, walk())


def iterate_pair(n: int, cap: int = DEFAULT_CAP) -> NewtonPair:
    """(P_n, Q_n) by the squaring recurrence (see ``iterates``); only the last grid is lifted."""
    check_index(n, cap)
    return _pair(*next(islice(walk(), n, None)))


def eval_pair(pair: NewtonPair, coeffs: QuadraticCoeffs, x0: Fraction | int) -> Fraction:
    """P_n(x0)/Q_n(x0) at the given coefficients, exactly."""
    point = {"a": coeffs.a, "b": coeffs.b, "c": coeffs.c, "x": Fraction(x0)}
    denominator = pair.q.evaluate(point)
    if denominator == 0:
        raise DomainError(f"Q_{pair.n} vanishes at x0 = {x0} for these coefficients")
    return pair.p.evaluate(point) / denominator


# ---------------------------------------------------------------- resultants

def _bareiss_determinant(matrix: list[list], one, divide):
    """Fraction-free determinant over an integral domain (Bareiss, 1968).

    ``one`` is the ring's unit and ``divide`` its exact division: ``//`` for
    int entries, ``divexact`` for MultiPoly entries.  Sylvester's identity
    makes every division exact.
    """
    size = len(matrix)
    if size == 0:
        return one
    m = [row[:] for row in matrix]
    sign = 1
    previous_pivot = one
    for k in range(size - 1):
        if not m[k][k]:
            for i in range(k + 1, size):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return m[k][k]          # column k is zero from the diagonal down: the det's zero
        pivot = m[k][k]
        for i in range(k + 1, size):
            row_i = m[i]
            head = row_i[k]
            for j in range(k + 1, size):
                row_i[j] = divide(row_i[j] * pivot - head * m[k][j], previous_pivot)
        previous_pivot = pivot
    return m[size - 1][size - 1] * sign


def _sylvester_matrix(p_coeffs: list, q_coeffs: list, zero) -> list[list]:
    """Sylvester matrix of two coefficient lists given leading coefficient first."""
    deg_p, deg_q = len(p_coeffs) - 1, len(q_coeffs) - 1
    return ([[zero] * i + p_coeffs + [zero] * (deg_q - 1 - i) for i in range(deg_q)]
            + [[zero] * i + q_coeffs + [zero] * (deg_p - 1 - i) for i in range(deg_p)])


def sylvester_resultant(p: MultiPoly, q: MultiPoly, var: str = "x") -> MultiPoly:
    """Res_var(p, q) as a polynomial in the remaining variables."""
    if p.is_zero or q.is_zero:
        raise ValueError("resultant of a zero polynomial is not defined here")
    p_coeffs = list(reversed(p.coefficients_in(var)))   # leading first
    q_coeffs = list(reversed(q.coefficients_in(var)))
    rows = _sylvester_matrix(p_coeffs, q_coeffs, MultiPoly.zero(p.varset))
    return _bareiss_determinant(rows, MultiPoly.one(p.varset), divexact)


def _grid_resultant(pair: NewtonPair) -> MultiPoly:
    """Res_x(P_n, Q_n) over Z[a,b,c], as one Sylvester determinant over Z.

    Give b weight 1 and c weight 2.  With N = 2^n, the x^e coefficient has
    weight N - e in P_n and N - 1 - e in Q_n, so the Sylvester entry in row
    r of its block and column col has weight col - r, and every term of the
    determinant has total degree T = (2N - 1)(N - 1) and weight
    W = sum(col) - sum(r) = N(N - 1).  Its c exponent k names it:
    j = W - 2k and i = T - j - k.  Each entry is the value at a = b = 1,
    c = 2^(8 slot), which is the ByteSlots image of its x-power's
    c-column; evaluation is a ring homomorphism, so the integer determinant
    is the resultant at that point, and its signed base-2^(8 slot) digits
    are the coefficients.  Their absolute values sum to at most the
    permanent of the entries' l1 norms, at most ||P||_1^(N-1) ||Q||_1^N, so
    bitlen(that) + 2 bits, rounded up to whole bytes, hold each digit in a
    slot, and each coefficient of P_n and Q_n, which that bound exceeds.
    """
    size = 2 ** pair.n
    bound = (sum(map(abs, pair.p._terms.values())) ** (size - 1)
             * sum(map(abs, pair.q._terms.values())) ** size)
    kernel = ByteSlots((bound.bit_length() + 2 + 7) // 8)

    def packed(poly: MultiPoly, degree: int) -> list[int]:     # leading x-coefficient first
        columns = [[0] * (size // 2 + 1) for _ in range(degree + 1)]
        for (_, _, k, e), coeff in poly._terms.items():
            columns[degree - e][k] = coeff
        return [kernel.pack(column, 1, 1) for column in columns]

    rows = _sylvester_matrix(packed(pair.p, size), packed(pair.q, size - 1), 0)
    value = _bareiss_determinant(rows, 1, operator.floordiv)
    total, weight = (2 * size - 1) * (size - 1), size * (size - 1)
    # One x^0 cell per power of c, k <= W/2 since j >= 0.
    return _lift(kernel.unpack(value, weight // 2 + 1, 1, 1), 1, total, weight)


# ---------------------------------------------------------------- specialization GCD

def _euclid_degree(u: list[int], v: list[int]) -> int:
    """Degree of gcd(u, v) over GF(GCD_PRIME) of ascending residue lists.

    Both leading residues must be nonzero; each remainder is trimmed as it is formed.
    """
    while v:
        inverse = pow(v[-1], -1, GCD_PRIME)
        while len(u) >= len(v):         # u <- u mod v, one leading term at a time
            factor = u[-1] * inverse % GCD_PRIME
            shift = len(u) - len(v)
            u[shift:] = [(x - factor * y) % GCD_PRIME for x, y in zip(u[shift:], v)]
            while u and not u[-1]:
                u.pop()
        u, v = v, u
    return len(u) - 1


def _specialized_gcd_degree(pair: NewtonPair, a: int, b: int, c: int) -> int:
    """deg gcd(P_n, Q_n) at (a, b, c) over GF(GCD_PRIME), for a not divisible by it.

    Each x-coefficient is read off the pair's terms through power tables of
    a, b and c modulo the prime.  GCD_PRIME divides neither leading
    x-coefficient, a^(2^n - 1) and 2^n a^(2^n - 1), so both reductions keep
    their degree and the result is at least the degree over Q: 0 proves the
    pair coprime over Q, and an unlucky prime could only turn a pass into a fail.
    """
    size = 2 ** pair.n                  # every exponent of a, b and c is below 2^n
    powers_a, powers_b, powers_c = ([pow(value, e, GCD_PRIME) for e in range(size)]
                                    for value in (a, b, c))
    residues = []
    for poly, degree in ((pair.p, size), (pair.q, size - 1)):
        out = [0] * (degree + 1)
        for (i, j, k, e), coeff in poly._terms.items():
            out[e] += coeff * powers_a[i] * powers_b[j] * powers_c[k]
        residues.append([v % GCD_PRIME for v in out])
    return _euclid_degree(*residues)


class TrialWitness(NamedTuple):
    a: int
    b: int
    c: int
    gcd_degree: int

    def to_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c, "gcd_degree": self.gcd_degree}


class CoprimalityReport(NamedTuple):
    """Certificate that P_n and Q_n share no factor, per the two routes."""

    n: int
    method: str                     # "exact-resultant" or "randomized-substitution"
    trials: int
    seed: int
    witnesses: tuple[TrialWitness, ...]
    verdict: str                    # "pass" or "fail"
    resultant: MultiPoly | None = None
    resultant_nonzero: bool | None = None
    degenerate_probes: tuple[TrialWitness, ...] = ()

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "method": self.method,
            "trials": self.trials,
            "seed": self.seed,
            "witnesses": [w.to_dict() for w in self.witnesses],
            "verdict": self.verdict,
            "resultant": None if self.resultant is None else self.resultant.to_dict(),
            "resultant_nonzero": self.resultant_nonzero,
            "degenerate_probes": [w.to_dict() for w in self.degenerate_probes],
        }


def coprimality_check(pair: NewtonPair, trials: int = 10, seed: int = 42) -> CoprimalityReport:
    """Certify gcd(P_n, Q_n) = 1 by specialization trials (+ exact resultant for small n).

    Random integer triples (a, b, c) are drawn from [-50, 50]; draws with a = 0
    or b^2 - 4ac = 0 are redrawn, since the zero-discriminant case is exactly
    the exception the theory allows.  A fixed set of degenerate triples is also
    probed and recorded for inspection, without affecting the verdict.
    """
    if trials < 1:
        raise StructuralError(f"at least one trial is required, got {trials}")
    rng = random.Random(seed)
    witnesses: list[TrialWitness] = []
    for _ in range(trials):
        while True:
            a = rng.randint(-50, 50)
            b = rng.randint(-50, 50)
            c = rng.randint(-50, 50)
            if a != 0 and b * b - 4 * a * c != 0:
                break
        witnesses.append(TrialWitness(a, b, c, _specialized_gcd_degree(pair, a, b, c)))

    resultant = None
    resultant_nonzero = None
    if pair.n <= EXACT_RESULTANT_MAX_N:
        resultant = _grid_resultant(pair)
        resultant_nonzero = not resultant.is_zero
        method = "exact-resultant"
    else:
        method = "randomized-substitution"

    probes = tuple(
        TrialWitness(a, b, c, _specialized_gcd_degree(pair, a, b, c))
        for a, b, c in DEGENERATE_PROBES)

    ok = all(w.gcd_degree == 0 for w in witnesses) and resultant_nonzero is not False
    return CoprimalityReport(
        n=pair.n, method=method, trials=trials, seed=seed,
        witnesses=tuple(witnesses), verdict="pass" if ok else "fail",
        resultant=resultant, resultant_nonzero=resultant_nonzero,
        degenerate_probes=probes)
