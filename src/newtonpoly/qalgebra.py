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

walked once in ascending n by nc_iterates(), and compared against the
conjectured closed forms, which are the commutative double sums of
closedform with the outer binomial q-deformed and a trailing y^(2^n - k).
Substituting q = 1, y = 1 collapses everything back to the commutative pair
over (a, b, c, x).

nc_iterates() never calls nc_mul, which stays the reference product.  With
N = 2^n every word a^i b^j c^k q^s x^e y^(N-e) of P'_n has i + j + k = N - 1
and j + 2k + e = W, the weight (N in P'_n, N - 1 in Q'_n), so (k, e, s)
names it.  For each e the (k, s) grid is one slice, packed into one integer
(packing.pack, row k at slot k * stride).  Words multiply by the twist
(Kassel, Quantum Groups, IV)

    (x^e1 y^(N-e1)) (x^e2 y^(N-e2)) = q^((N-e1) e2) x^(e1+e2) y^(2N-e1-e2)

so slice e1 times slice e2 is one big-integer product shifted (N - e1) e2
q-slots into slice e1 + e2; a and b are implied and c shifts one row.

The grading fixes every layout.  Slice e has (W - e) // 2 + 1 rows, since
j >= 0, of e (N - e) + 1 cells: its q-degree is at most e (N - e), at N = 1
and by induction, since e1 (N - e1) + e2 (N - e2) + (N - e1) e2 <= e (2N - e)
for e = e1 + e2.  So the q-stride N^2 + 1 exceeds every q exponent of a
product.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, islice
from typing import Iterable, Iterator

from .closedform import IdentityCheckReport, p_contributions, q_contributions
from .errors import StructuralError, check_index
from .packing import pack, slot_size, unpack
from .polyring import ABCQ, ABCQXY, MultiPoly, nc_mul

DEFAULT_NC_CAP = 4

Word = tuple[int, int]      # (i, j) for the normal-ordered word x^i y^j

_ZERO3 = MultiPoly.zero(ABCQ)
_ONE3 = MultiPoly.one(ABCQ)


def qbinomial_rows() -> Iterator[tuple[MultiPoly, ...]]:
    """Rows 0, 1, 2, ... of Gaussian polynomials; row n is ([n, 0], ..., [n, n])."""
    row = (_ONE3,)
    while True:
        yield row
        inner = (row[k - 1] + MultiPoly.variable(ABCQ, "q", k) * row[k]
                 for k in range(1, len(row)))
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

    Exact integer arithmetic on both products.  ValueError where the
    denominator vanishes, which is at q = 1 with k < n and at q = -1 with
    n - k >= 2 (use the Gaussian polynomial instead).
    """
    if not (0 <= k <= n):
        return 0
    numerator = 1
    denominator = 1
    for i in range(1, n - k + 1):
        numerator *= 1 - q_value ** (i + k)
        denominator *= 1 - q_value ** i
    if not denominator:
        raise ValueError(f"product formula degenerates at q = {q_value}: zero denominator")
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(f"product formula did not divide exactly at ({n}, {k})")
    return quotient


_ONE = MultiPoly.one(ABCQXY)
_X = MultiPoly.variable(ABCQXY, "x")
_Y = MultiPoly.variable(ABCQXY, "y")
_X_INDEX = ABCQXY.index("x")
_Y_INDEX = ABCQXY.index("y")


def qbinomial_theorem_check(max_n: int) -> IdentityCheckReport:
    """Check (x + y)^n = sum_k [n, k]_q x^k y^(n-k) for 1 <= n <= max_n."""
    if max_n < 1:
        raise StructuralError(f"max_n must be at least 1 to check anything, got {max_n}")
    x_plus_y = _X + _Y
    power = _ONE
    for n, row in zip(range(1, max_n + 1), islice(qbinomial_rows(), 1, None)):
        power = nc_mul(power, x_plus_y)
        # [n, k] over (a, b, c, q) attached to the word x^k y^(n - k): k and the power
        # of q name each term, so the terms are distinct.
        expected = MultiPoly._raw(ABCQXY, {(a, b, c, q, k, n - k): value
                                           for k, coeff in enumerate(row)
                                           for (a, b, c, q), value in coeff._terms.items()})
        if power != expected:
            return IdentityCheckReport("q-binomial theorem", max_n, False, n)
    return IdentityCheckReport("q-binomial theorem", max_n, True)


# ---------------------------------------------------------------- packed recurrence

def _twisted(left: list[int], right: list[int], size: int, slot_bits: int) -> list[int]:
    """Packed slices of L R + R L, or of L^2 when right is left, for x-degree ``size``.

    The product of slices e1 and e2 serves both orders: twisted by
    (size - e1) e2 in L R and by (size - e2) e1 in R L.  A square takes each
    unordered pair once.
    """
    square = right is left
    out = [0] * (2 * size + 1)
    for e1, packed_l in enumerate(left):
        for e2 in range(e1 if square else 0, size + 1):
            product = packed_l * right[e2]
            if product:
                twisted = product << (slot_bits * (size - e1) * e2)
                if e1 != e2 or not square:
                    twisted += product << (slot_bits * (size - e2) * e1)
                out[e1 + e2] += twisted
    return out


def _width(size: int, e: int) -> int:
    """Cells per row of slice e at x-degree ``size``: q-degree e (size - e), plus one."""
    return e * (size - e) + 1


def _nc_step(p: list[list[int]], q: list[list[int]],
             size: int) -> tuple[list[list[int]], list[list[int]]]:
    """One recurrence step on the slices of (P', Q'), each of x-degree ``size``.

    A slot of a twisted product, as of a grid product, pairs each cell of
    one operand with at most one cell of the other, so ``slot_size`` of the
    flattened slices sizes the slots.
    """
    stride = size * size + 1
    slot = slot_size(*([cell for cells in poly for cell in cells] for poly in (p, q)))
    packed_p, packed_q = ([pack(cells, _width(size, e), stride, slot)
                           for e, cells in enumerate(poly)] for poly in (p, q))
    slot_bits = 8 * slot
    pp, qq, pq_qp = (_twisted(left, right, size, slot_bits)
                     for left, right in ((packed_p, packed_p), (packed_q, packed_q),
                                         (packed_p, packed_q)))
    new_p = [v - (w << (slot_bits * stride)) for v, w in zip(pp, qq)]
    new_q = [v + w for v, w in zip(pq_qp, qq)]
    return tuple([unpack(value, (weight - e) // 2 + 1, _width(2 * size, e), stride, slot)
                  for e, value in enumerate(values)]
                 for values, weight in ((new_p, 2 * size), (new_q, 2 * size - 1)))


def _nc_lift(slices: list[list[int]], size: int, weight: int) -> MultiPoly:
    """Slices to polynomial: i + j + k = size - 1 and j + 2k + e = weight fix i and j."""
    terms = {}
    for e, cells in enumerate(slices):
        width = _width(size, e)
        for index in compress(range(len(cells)), cells):
            k, s = divmod(index, width)
            j = weight - 2 * k - e
            terms[(size - 1 - j - k, j, k, s, e, size - e)] = cells[index]
    return MultiPoly._raw(ABCQXY, terms)


def nc_iterates() -> Iterator[tuple[MultiPoly, MultiPoly]]:
    """(P'_0, Q'_0), (P'_1, Q'_1), ... by the noncommutative recurrence, on packed slices."""
    p, q, size = [[0], [1]], [[1], []], 1       # P'_0 = x, Q'_0 = y
    while True:
        yield _nc_lift(p, size, size), _nc_lift(q, size, size - 1)
        p, q = _nc_step(p, q, size)
        size *= 2


def nc_iterate(n: int, cap: int = DEFAULT_NC_CAP) -> tuple[MultiPoly, MultiPoly]:
    """(P'_n, Q'_n) by the noncommutative recurrence; homogeneous of degree 2^n in x, y."""
    check_index(n, cap)
    return next(islice(nc_iterates(), n, None))


def _nc_sum(n: int, contributions) -> MultiPoly:
    # Each closed-form term of x^k becomes the word x^k y^(2^n - k), one word per
    # term of its coefficient, a polynomial in q alone; (k, j, q) name a word, so
    # no two words coincide.
    size = 2 ** n
    return MultiPoly._raw(ABCQXY, {(a, b, c, q, k, size - k): value
                                   for k, _j, coeff, (a, b, c, _x) in contributions
                                   for (_a, _b, _c, q), value in coeff._terms.items()})


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
    words = ((mono[_X_INDEX], mono[_Y_INDEX]) for mono in (left - right)._terms)
    return max(words, key=lambda w: (w[0] + w[1], w[0]), default=None)


def conjecture_check(max_n: int, cap: int = DEFAULT_NC_CAP,
                     recurrence: Iterable[tuple[MultiPoly, MultiPoly]] | None = None,
                     ) -> QConjectureReport:
    """Compare (P'_n, Q'_n) with nc_closed(n) for 0 <= n <= max_n.

    ``recurrence`` yields the recurrence pairs from n = 0 up; by default a
    fresh ``nc_iterates()`` walk builds them.  A walk that ends before
    max_n raises StructuralError rather than report the n it never reached.
    """
    check_index(max_n, cap)
    if recurrence is None:
        recurrence = nc_iterates()
    per_n: list[dict] = []
    for n, pair in enumerate(islice(recurrence, max_n + 1)):
        word = None
        for poly, rec, closed in zip("PQ", pair, nc_closed(n, cap=cap)):
            if rec != closed:
                x, y = _first_differing_word(rec, closed)
                word = {"poly": poly, "x": x, "y": y}
                break
        per_n.append({"n": n, "match": word is None, "first_differing_word": word})
    if len(per_n) <= max_n:
        raise StructuralError(f"the recurrence walk yielded {len(per_n)} pairs, "
                              f"not the {max_n + 1} of n = 0..{max_n}")
    return QConjectureReport(max_n=max_n, per_n=tuple(per_n),
                             passed=all(entry["match"] for entry in per_n))
