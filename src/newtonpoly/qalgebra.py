"""q-binomials and the noncommutative analogue of the iterate pair.

Two formal variables x, y obey yx = qxy, with q (and the quadratic's a, b, c)
commuting with everything.  A noncommutative polynomial is a MultiPoly over
(a, b, c, q, x, y) whose x^i y^j is read as the normal-ordered word;
polyring.nc_mul applies the commutation factor q^(jk) when multiplying, so
equality is plain MultiPoly equality.

The q-binomial coefficients are exact polynomials in q, walked row by row by
the Pascal-type recurrence

    [n, k] = [n-1, k-1] + q^k [n-1, k]

in qbinomial_int_rows(), entry k of row n the k (n - k) + 1 q-coefficients of
[n, k] as integers; qbinomial(n, k) lifts one entry to MultiPoly.  Nothing is
cached: a caller that needs many entries walks the rows once, not qbinomial(n, k)
in a loop.  The product formula is only a cross-check at fixed integer q.

The noncommutative pair (P'_n, Q'_n) is grown by the recurrence

    P'_{n+1} = a P'^2 - c Q'^2
    Q'_{n+1} = a P' Q' + a Q' P' + b Q'^2      (P'_0, Q'_0) = (x, y)

walked once in ascending n by nc_walk(), and compared against the
conjectured closed forms, which are the commutative double sums of
closedform with the outer binomial q-deformed and a trailing y^(2^n - k).
Substituting q = 1, y = 1 collapses everything back to the commutative pair
over (a, b, c, x).

The walk never calls nc_mul, which stays the reference product.  With
N = 2^n every word a^i b^j c^k q^s x^e y^(N-e) of P'_n has i + j + k = N - 1
and j + 2k + e = W, the weight (N in P'_n, N - 1 in Q'_n), so (k, e, s)
names it.  For each e the (k, s) grid is one slice.  Each step packs its
slices on the radix packing.choose_radix picks and takes the commutative
walk's three squarings, P'^2, Q'^2 and (P' + Q')^2.  Words multiply by the
twist (Kassel, Quantum Groups, IV)

    (x^e1 y^(N-e1)) (x^e2 y^(N-e2)) = q^((N-e1) e2) x^(e1+e2) y^(2N-e1-e2)

so slice e1 times slice e2 is one kernel product shifted (N - e1) e2
q-slots into slice e1 + e2; a and b are implied and c shifts one row.

The grading fixes every layout.  Slice e has (W - e) // 2 + 1 rows, since
j >= 0, of e (N - e) + 1 cells: its q-degree is at most e (N - e), at N = 1
and by induction, since e1 (N - e1) + e2 (N - e2) + (N - e1) e2 <= e (2N - e)
for e = e1 + e2.  So the q-stride N^2 + 1 exceeds every q exponent of a
product.  nc_closed(n) writes the closed side in the same slices, so
conjecture_check compares integer lists; at_q_one() sums slices into the
grids of newton.walk(), and nc_iterate(n) lifts pair n alone.
"""

from __future__ import annotations

from itertools import compress, count, islice, repeat
from operator import add, mul
from typing import Iterable, Iterator, NamedTuple

from .closedform import IdentityCheckReport, p_contributions, q_contributions
from .errors import StructuralError, check_index
from .packing import choose_radix, slot_size
from .polyring import ABCQ, ABCQXY, MultiPoly, nc_mul

DEFAULT_NC_CAP = 4

Slices = list[list[int]]    # slice e: the (c, q) grid of the words x^e y^(N - e)


def qbinomial_int_rows() -> Iterator[list[list[int]]]:
    """Rows 0, 1, 2, ... of Gaussian polynomials, entry k of row n the q-coefficients of [n, k]."""
    row = [[1]]
    for n in count(1):
        yield row
        # [n-1, k-1] and q^k [n-1, k], each padded to the k (n - k) + 1 cells of [n, k].
        row = [[1], *(list(map(add, row[k - 1] + [0] * (n - k), [0] * k + row[k]))
                      for k in range(1, n)), [1]]


def qbinomial(n: int, k: int) -> MultiPoly:
    """The Gaussian polynomial [n, k]_q over (a, b, c, q); zero out of range."""
    if not 0 <= k <= n:
        return MultiPoly.zero(ABCQ)
    cells = next(islice(qbinomial_int_rows(), n, None))[k]
    # No q-coefficient of a Gaussian polynomial is 0, so the terms are canonical as built.
    return MultiPoly._raw(ABCQ, {(0, 0, 0, s): value for s, value in enumerate(cells)})


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


def qbinomial_theorem_check(max_n: int) -> IdentityCheckReport:
    """Check (x + y)^n = sum_k [n, k]_q x^k y^(n-k) for 1 <= n <= max_n."""
    if max_n < 1:
        raise StructuralError(f"max_n must be at least 1 to check anything, got {max_n}")
    x_plus_y = MultiPoly.variable(ABCQXY, "x") + MultiPoly.variable(ABCQXY, "y")
    power = MultiPoly.one(ABCQXY)
    for n, row in zip(range(1, max_n + 1), islice(qbinomial_int_rows(), 1, None)):
        power = nc_mul(power, x_plus_y)
        # [n, k] at the word x^k y^(n - k): k and the power of q name each term.
        expected = MultiPoly._raw(ABCQXY, {(0, 0, 0, s, k, n - k): value
                                           for k, cells in enumerate(row)
                                           for s, value in enumerate(cells)})
        if power != expected:
            return IdentityCheckReport("q-binomial theorem", max_n, False, n)
    return IdentityCheckReport("q-binomial theorem", max_n, True)


# ---------------------------------------------------------------- packed recurrence

def _square(slices: list, size: int, kernel) -> list:
    """Packed slices of L^2 for packed slices L of x-degree ``size``, on radix ``kernel``.

    Each unordered pair of slices is multiplied once: the product of e1 < e2
    serves both orders, twisted by (size - e1) e2 and by (size - e2) e1.
    """
    out = [kernel.pack([], 1, 1)] * (2 * size + 1)
    for e1, left in enumerate(slices):
        for e2 in range(e1, size + 1):
            product = kernel.multiply(left, slices[e2])
            if product:
                twisted = kernel.shift(product, (size - e1) * e2)
                if e1 != e2:
                    twisted = kernel.add(twisted, kernel.shift(product, (size - e2) * e1))
                out[e1 + e2] = kernel.add(out[e1 + e2], twisted)
    return out


def _width(size: int, e: int) -> int:
    """Cells per row of slice e at x-degree ``size``: q-degree e (size - e), plus one."""
    return e * (size - e) + 1


def _nc_step(p: Slices, q: Slices, size: int) -> tuple[Slices, Slices]:
    """One recurrence step on the slices of (P', Q'), each of x-degree ``size``.

    Three twisted squarings, as in newton._step: P' = PP - c QQ, and
    Q' = (P + Q)^2 - PP = PQ + QP + QQ, which holds in any ring, with P + Q
    added slice by slice.  A slot of a twisted product, as of a grid product,
    pairs each cell of one operand with at most one cell of the other, so the
    Cauchy-Schwarz bound of ``slot_size`` on the flattened slices sizes the
    slots.  packing.choose_radix picks the product from the size of the
    largest packed P slice, slice 0.
    """
    stride = size * size + 1
    slot = slot_size(*([cell for cells in poly for cell in cells] for poly in (p, q)))
    kernel = choose_radix(slot * stride * (size // 2 + 1))(slot)
    packed_p, packed_q = ([kernel.pack(cells, _width(size, e), stride)
                           for e, cells in enumerate(poly)] for poly in (p, q))
    pp, qq, sum_sq = (_square(slices, size, kernel) for slices in
                      (packed_p, packed_q, list(map(kernel.add, packed_p, packed_q))))
    new_p = [kernel.subtract(v, kernel.shift(w, stride)) for v, w in zip(pp, qq)]
    new_q = list(map(kernel.subtract, sum_sq, pp))
    return tuple([kernel.unpack(value, (weight - e) // 2 + 1, _width(2 * size, e), stride)
                  for e, value in enumerate(values)]
                 for values, weight in ((new_p, 2 * size), (new_q, 2 * size - 1)))


def _nc_lift(slices: Slices, size: int, weight: int) -> MultiPoly:
    """Slices to polynomial: i + j + k = size - 1 and j + 2k + e = weight fix i and j."""
    terms = {}
    for e, cells in enumerate(slices):
        width = _width(size, e)
        for index in compress(range(len(cells)), cells):
            k, s = divmod(index, width)
            j = weight - 2 * k - e
            terms[(size - 1 - j - k, j, k, s, e, size - e)] = cells[index]
    return MultiPoly._raw(ABCQXY, terms)


def nc_walk() -> Iterator[tuple[Slices, Slices]]:
    """Slices of (P'_0, Q'_0), (P'_1, Q'_1), ...; the step to n + 1 is taken when pair n + 1 is."""
    p, q = [[0], [1]], [[1], []]        # P'_0 = x, Q'_0 = y
    for n in count():
        yield p, q
        p, q = _nc_step(p, q, 2 ** n)


def nc_iterate(n: int, cap: int = DEFAULT_NC_CAP) -> tuple[MultiPoly, MultiPoly]:
    """(P'_n, Q'_n) by the noncommutative recurrence; homogeneous of degree 2^n in x, y."""
    check_index(n, cap)
    p, q = next(islice(nc_walk(), n, None))
    size = 2 ** n
    return _nc_lift(p, size, size), _nc_lift(q, size, size - 1)


def at_q_one(slices: Slices, size: int) -> list[int]:
    """Slices of x-degree ``size`` at q = y = 1 as a newton.walk() grid: cell (c, e) sums
    c-row c of slice e."""
    columns = [list(map(sum, zip(*[iter(cells)] * _width(size, e))))
               for e, cells in enumerate(slices)]
    # Slice 0 has every c-row of the grid; a slice of larger e may have fewer.
    return [column[c] if c < len(column) else 0 for c in range(len(columns[0]))
            for column in columns]


def nc_closed(n: int, cap: int = DEFAULT_NC_CAP) -> tuple[list, list]:
    """The conjectured closed forms as (P'_n, Q'_n) slices, in the layout of nc_walk().

    closedform's double sums, outer binomial q-deformed and y^(2^n - k) appended:
    term (k, j, t, (i, j, c, e)) adds t [2^n, k] to c-row c of slice k.  A term
    off the grading, or with e != k, makes slice e None, unequal to any walk slice.
    """
    check_index(n, cap)
    size = 2 ** n
    gauss = next(islice(qbinomial_int_rows(), size, None))
    ones = [1] * (size + 1)     # so each term's coefficient is its integer factor alone
    pair = []
    for terms, weight in ((p_contributions(n, ones), size), (q_contributions(n, ones), size - 1)):
        slices = [[0] * (((weight - e) // 2 + 1) * _width(size, e)) for e in range(size + 1)]
        for k, _j, coeff, (i, j, c, e) in terms:
            if not 0 <= e <= size:
                raise StructuralError(f"closed-form term a^{i} b^{j} c^{c} x^{e}: "
                                      f"no word of degree {size}")
            cells = slices[e]
            if (cells is None or k != e or i + j + c != size - 1 or j + 2 * c + e != weight
                    or i < 0 or j < 0 or c < 0):
                slices[e] = None
                continue
            row = slice(c * len(gauss[e]), (c + 1) * len(gauss[e]))
            cells[row] = map(add, cells[row], map(mul, gauss[e], repeat(coeff)))
        pair.append(slices)
    return tuple(pair)


class QConjectureReport(NamedTuple):
    """Per-n comparison of the noncommutative recurrence against the closed forms.

    A mismatch is an outcome, not an error: the closed forms are conjectural.
    """

    max_n: int
    per_n: tuple[dict, ...]
    passed: bool

    def to_dict(self) -> dict:
        return {"max_n": self.max_n, "passed": self.passed, "per_n": list(self.per_n)}


def conjecture_check(max_n: int, cap: int = DEFAULT_NC_CAP,
                     recurrence: Iterable[tuple[Slices, Slices]] | None = None,
                     ) -> QConjectureReport:
    """Compare the slices of (P'_n, Q'_n) with nc_closed(n) for 0 <= n <= max_n.

    ``recurrence`` yields slice pairs from n = 0 up, by default a fresh
    ``nc_walk()``.  Every word has degree 2^n, so the largest differing word
    by (i + j, i) is x^e y^(2^n - e) for the largest e whose slices differ,
    P before Q.  A walk that ends before max_n raises StructuralError.
    """
    check_index(max_n, cap)
    per_n: list[dict] = []
    for n, pair in enumerate(islice(nc_walk() if recurrence is None else recurrence, max_n + 1)):
        size, word = 2 ** n, None
        for poly, walk, closed in zip("PQ", pair, nc_closed(n, cap=cap)):
            e = next((e for e in range(size, -1, -1) if walk[e] != closed[e]), None)
            if e is not None:
                word = {"poly": poly, "x": e, "y": size - e}
                break
        per_n.append({"n": n, "match": word is None, "first_differing_word": word})
    if len(per_n) <= max_n:
        raise StructuralError(f"the recurrence walk yielded {len(per_n)} pairs, "
                              f"not the {max_n + 1} of n = 0..{max_n}")
    return QConjectureReport(max_n=max_n, per_n=tuple(per_n),
                             passed=all(entry["match"] for entry in per_n))
