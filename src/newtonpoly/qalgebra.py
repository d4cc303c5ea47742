"""q-binomials and the noncommutative analogue of the iterate pair.

Two formal variables x, y obey yx = qxy, with q (and the quadratic's a, b, c)
commuting with everything.  Words are stored normal-ordered as x^i y^j; the
commutation factor q^(jk) is applied at multiplication time, so equality of
noncommutative polynomials is a plain collection comparison.

The q-binomial coefficients are kept as exact polynomials in q via the
Pascal-type recurrence

    [n, k] = [n-1, k-1] + q^k [n-1, k]

with the rational-function product formula used only as an integer-valued
cross-check at fixed q.  The noncommutative pair (P'_n, Q'_n) is grown by the
recurrence

    P'_{n+1} = a P'^2 - c Q'^2
    Q'_{n+1} = a P' Q' + a Q' P' + b Q'^2      (P'_0, Q'_0) = (x, y)

and compared against the conjectured closed forms, which are the commutative
double sums with the outer binomial q-deformed and a trailing y^(2^n - k).
At q = 1, y = 1 everything collapses back to the commutative pair.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping

from .closedform import IdentityCheckReport, binomial
from .errors import StructuralError, check_index
from .polyring import ABCQ, ABCX, Monomial, MultiPoly

DEFAULT_NC_CAP = 4

Word = tuple[int, int]      # (i, j) for the normal-ordered word x^i y^j

_Q_INDEX = ABCQ.index("q")
_ZERO3 = MultiPoly.zero(ABCQ)
_ONE3 = MultiPoly.one(ABCQ)


def _q_power(exponent: int) -> MultiPoly:
    return MultiPoly.variable(ABCQ, "q", exponent) if exponent else _ONE3


@functools.lru_cache(maxsize=None)
def _qbinomial_row(n: int) -> tuple[MultiPoly, ...]:
    # Row n is built from the cached row n - 1; the cache never exposes a
    # partly built row, so concurrent callers at worst compute a row twice.
    if n == 0:
        return (_ONE3,)
    previous = _qbinomial_row(n - 1)
    inner = (previous[k - 1] + _q_power(k) * previous[k] for k in range(1, n))
    return (_ONE3, *inner, _ONE3)


def qbinomial(n: int, k: int) -> MultiPoly:
    """The Gaussian polynomial [n, k]_q over (a, b, c, q); zero out of range."""
    if n < 0 or k < 0 or k > n:
        return _ZERO3
    return _qbinomial_row(n)[k]


def qbinomial_product_value(n: int, k: int, q_value: int) -> int:
    """The product formula prod_{i=1}^{n-k} (1 - q^(i+k))/(1 - q^i) at integer q.

    Exact integer arithmetic on both products; q = 1 is rejected since the
    formula degenerates there (use the plain binomial instead).
    """
    if not (0 <= k <= n):
        return 0
    if q_value == 1:
        raise ValueError("product formula degenerates at q = 1")
    numerator = 1
    denominator = 1
    for i in range(1, n - k + 1):
        numerator *= 1 - q_value ** (i + k)
        denominator *= 1 - q_value ** i
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(f"product formula did not divide exactly at ({n}, {k})")
    return quotient


class NCPoly:
    """Noncommutative polynomial in normal-ordered words x^i y^j.

    Coefficients live in the commutative ring of integer polynomials in
    (a, b, c, q).  No zero coefficients are stored.
    """

    __slots__ = ("_words",)

    def __init__(self, words: Mapping[Word, MultiPoly] | None = None):
        clean: dict[Word, MultiPoly] = {}
        if words:
            for word, coeff in words.items():
                i, j = word
                if i < 0 or j < 0:
                    raise StructuralError(f"negative word exponents: {word}")
                if coeff.varset != ABCQ:
                    raise StructuralError("word coefficients must live over (a, b, c, q)")
                if not coeff.is_zero:
                    clean[(i, j)] = coeff
        self._words = clean

    # ------------------------------------------------------------------ factories

    @classmethod
    def _raw(cls, words: dict[Word, MultiPoly]) -> "NCPoly":
        poly = object.__new__(cls)
        poly._words = words
        return poly

    @classmethod
    def zero(cls) -> "NCPoly":
        return cls._raw({})

    @classmethod
    def one(cls) -> "NCPoly":
        return cls._raw({(0, 0): _ONE3})

    @classmethod
    def x_word(cls) -> "NCPoly":
        return cls._raw({(1, 0): _ONE3})

    @classmethod
    def y_word(cls) -> "NCPoly":
        return cls._raw({(0, 1): _ONE3})

    @classmethod
    def scalar(cls, coeff: MultiPoly) -> "NCPoly":
        return cls({(0, 0): coeff})

    # ------------------------------------------------------------------ structure

    def words(self) -> list[tuple[Word, MultiPoly]]:
        """Words in deterministic order: total degree, then x-exponent, descending."""
        return sorted(self._words.items(),
                      key=lambda kv: (kv[0][0] + kv[0][1], kv[0][0]), reverse=True)

    def coefficient(self, word: Word) -> MultiPoly:
        return self._words.get(word, _ZERO3)

    @property
    def is_zero(self) -> bool:
        return not self._words

    def degrees(self) -> set[int]:
        """Total degrees i + j present; a homogeneous polynomial has one."""
        return {i + j for i, j in self._words}

    def __len__(self) -> int:
        return len(self._words)

    def __eq__(self, other) -> bool:
        return isinstance(other, NCPoly) and self._words == other._words

    def __repr__(self) -> str:
        return f"NCPoly({self._words!r})"

    # ------------------------------------------------------------------ arithmetic

    def __add__(self, other: "NCPoly") -> "NCPoly":
        out = dict(self._words)
        for word, coeff in other._words.items():
            merged = out.get(word)
            merged = coeff if merged is None else merged + coeff
            if merged.is_zero:
                out.pop(word, None)
            else:
                out[word] = merged
        return NCPoly._raw(out)

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + (-other)

    def __neg__(self) -> "NCPoly":
        return NCPoly._raw({w: -c for w, c in self._words.items()})

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            other = NCPoly.scalar(other)
        elif isinstance(other, int):
            other = NCPoly.scalar(MultiPoly.constant(ABCQ, other))
        if not isinstance(other, NCPoly):
            return NotImplemented
        out: dict[Word, MultiPoly] = {}
        for (i1, j1), c1 in self._words.items():
            for (i2, j2), c2 in other._words.items():
                # Normal ordering: (x^i1 y^j1)(x^i2 y^j2) = q^(j1 i2) x^(i1+i2) y^(j1+j2)
                coeff = c1 * c2
                swap = j1 * i2
                if swap:
                    coeff = coeff * _q_power(swap)
                word = (i1 + i2, j1 + j2)
                merged = out.get(word)
                merged = coeff if merged is None else merged + coeff
                if merged.is_zero:
                    out.pop(word, None)
                else:
                    out[word] = merged
        return NCPoly._raw(out)

    def __rmul__(self, other):
        # Scalars commute with every word, so reuse the left product.
        if isinstance(other, (MultiPoly, int)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, exponent: int) -> "NCPoly":
        if exponent < 0:
            raise ValueError("negative powers are not defined")
        result = NCPoly.one()
        for _ in range(exponent):    # order matters: left-to-right products
            result = result * self
        return result

    # ------------------------------------------------------------------ io

    def to_dict(self) -> dict:
        return {"words": [{"x": i, "y": j, "coeff": coeff.to_dict()}
                          for (i, j), coeff in self.words()]}

    @classmethod
    def from_dict(cls, data: Mapping) -> "NCPoly":
        try:
            return cls({(int(w["x"]), int(w["y"])): MultiPoly.from_dict(w["coeff"])
                        for w in data["words"]})
        except (KeyError, TypeError, ValueError) as exc:
            raise StructuralError(f"malformed NCPoly JSON: {exc}") from exc


def specialize_commutative(poly: NCPoly) -> MultiPoly:
    """Set q = 1 and y = 1, mapping x^i y^j words into plain powers of x."""
    result = MultiPoly.zero(ABCX)
    for (i, _j), coeff in poly._words.items():
        flat = coeff.substitute({"q": 1}).lift_to(ABCX)
        result = result + flat * MultiPoly.variable(ABCX, "x", i)
    return result


def qbinomial_theorem_check(max_n: int) -> IdentityCheckReport:
    """Check (x + y)^n = sum_k [n, k]_q x^k y^(n-k) for 1 <= n <= max_n."""
    x_plus_y = NCPoly.x_word() + NCPoly.y_word()
    power = NCPoly.one()
    for n in range(1, max_n + 1):
        power = power * x_plus_y
        expected = NCPoly({(k, n - k): qbinomial(n, k) for k in range(n + 1)})
        if power != expected:
            return IdentityCheckReport("q-binomial theorem", max_n, False, n)
    return IdentityCheckReport("q-binomial theorem", max_n, True)


_A = MultiPoly.variable(ABCQ, "a")
_B = MultiPoly.variable(ABCQ, "b")
_C = MultiPoly.variable(ABCQ, "c")


def nc_iterate(n: int, cap: int = DEFAULT_NC_CAP) -> tuple[NCPoly, NCPoly]:
    """(P'_n, Q'_n) by the noncommutative recurrence; homogeneous of degree 2^n."""
    check_index(n, cap)
    p, q = NCPoly.x_word(), NCPoly.y_word()
    for _ in range(n):
        p, q = _A * p * p - _C * q * q, _A * p * q + _A * q * p + _B * q * q
    return p, q


def nc_closed(n: int, cap: int = DEFAULT_NC_CAP) -> tuple[NCPoly, NCPoly]:
    """The conjectured closed forms: q-deform the outer binomial, append y^(2^n - k)."""
    check_index(n, cap)
    size = 2 ** n
    p_words: dict[Word, MultiPoly] = {
        (size, 0): MultiPoly.term(ABCQ, 1, a=size - 1)}
    for k in range(size - 1):
        acc = _ZERO3
        for j in range(size - k - 1):
            inner = binomial(size - k - j - 2, j)
            if inner == 0:
                continue
            sign = -((-1) ** j)
            acc = acc + MultiPoly.term(
                ABCQ, sign * inner,
                a=k + j, b=size - k - 2 * j - 2, c=j + 1)
        coeff = qbinomial(size, k) * acc
        if not coeff.is_zero:
            p_words[(k, size - k)] = coeff
    q_words: dict[Word, MultiPoly] = {}
    for k in range(size):
        acc = _ZERO3
        for j in range(size - k):
            inner = binomial(size - k - j - 1, j)
            if inner == 0:
                continue
            acc = acc + MultiPoly.term(
                ABCQ, ((-1) ** j) * inner,
                a=k + j, b=size - k - 2 * j - 1, c=j)
        coeff = qbinomial(size, k) * acc
        if not coeff.is_zero:
            q_words[(k, size - k)] = coeff
    return NCPoly(p_words), NCPoly(q_words)


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


def _first_differing_word(left: NCPoly, right: NCPoly) -> Word | None:
    words = sorted(set(left._words) | set(right._words),
                   key=lambda w: (w[0] + w[1], w[0]), reverse=True)
    for word in words:
        if left.coefficient(word) != right.coefficient(word):
            return word
    return None


def conjecture_check(max_n: int, cap: int = DEFAULT_NC_CAP) -> QConjectureReport:
    """Compare nc_iterate(n) with nc_closed(n) for 0 <= n <= max_n."""
    per_n: list[dict] = []
    all_match = True
    for n in range(max_n + 1):
        rec_p, rec_q = nc_iterate(n, cap=cap)
        cl_p, cl_q = nc_closed(n, cap=cap)
        mismatch: Word | None = None
        if rec_p != cl_p:
            mismatch = _first_differing_word(rec_p, cl_p)
            entry_poly = "P"
        elif rec_q != cl_q:
            mismatch = _first_differing_word(rec_q, cl_q)
            entry_poly = "Q"
        match = mismatch is None
        per_n.append({
            "n": n,
            "match": match,
            "first_differing_word":
                None if match else {"poly": entry_poly, "x": mismatch[0], "y": mismatch[1]},
        })
        all_match = all_match and match
    return QConjectureReport(max_n=max_n, per_n=tuple(per_n), passed=all_match)
