"""Exact sparse multivariate polynomial arithmetic over big integers.

A polynomial is a sparse mapping from exponent tuples to arbitrary-precision
integer coefficients, over a fixed ordered variable set.  Values are immutable
after construction and every operation is a pure function, so sharing across
threads is safe.

The variable universe is fixed: a < b < c < q < x < y.  Any ``VariableSet``
is a subset of these names in that order, which keeps canonical forms (and
the JSON emitted from them) stable across runs.

JSON schema used by every module::

    { "vars": ["a","b","c","x"],
      "terms": [ { "exp": [1,0,0,2], "coeff": "1" },
                 { "exp": [0,0,1,0], "coeff": "-1" } ] }

Coefficients are decimal strings (arbitrary precision), exponent arrays are
parallel to ``vars`` and terms are listed in graded-lex order, highest first.

A term map is built one of two ways.  Records that are distinct by
construction go straight to ``MultiPoly._raw``.  Everything else is summed
into one dict with no per-item zero test, then cleaned once with
``{m: c for m, c in out.items() if c}``.  Two loops clean per item instead:
``_combine``, which adds a small map into a copy of a large one, and
``divexact``, which must see each cancellation to find the next leading term.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import compress
from operator import add
from typing import Iterable, Iterator, Mapping

from .errors import StructuralError

CANONICAL_ORDER = ("a", "b", "c", "q", "x", "y")
_RANK = {name: i for i, name in enumerate(CANONICAL_ORDER)}

Monomial = tuple[int, ...]


class VariableSet:
    """An ordered set of variable names in the global order a < b < c < q < x < y."""

    __slots__ = ("names", "_positions")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        for name in names:
            if name not in _RANK:
                raise StructuralError(f"unknown variable {name!r}; allowed: {CANONICAL_ORDER}")
        if len(set(names)) != len(names):
            raise StructuralError(f"duplicate variable in {names!r}")
        self.names = tuple(sorted(names, key=_RANK.__getitem__))
        self._positions = {name: i for i, name in enumerate(self.names)}

    def index(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise StructuralError(f"variable {name!r} not in {self.names}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._positions

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VariableSet) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VariableSet({list(self.names)!r})"


# Variable sets used throughout the package.
ABCX = VariableSet("abcx")
XY = VariableSet("xy")
ABCQ = VariableSet("abcq")
X_ONLY = VariableSet("x")
ABCQXY = VariableSet("abcqxy")


def _power_table(num: int, den: int, top: int) -> list[int]:
    """num^e den^(top - e) for e = 0..top: the powers of num/den over den^top."""
    return [num ** e * den ** (top - e) for e in range(top + 1)]


def _grlex_key(monomial: Monomial) -> tuple[int, Monomial]:
    return (sum(monomial), monomial)


class MultiPoly:
    """Sparse multivariate polynomial with exact integer coefficients.

    Canonical form: no zero coefficients are stored and each monomial appears
    at most once, so two polynomials over the same variable set are equal iff
    their term dictionaries are equal.
    """

    __slots__ = ("varset", "_terms")

    def __init__(self, varset: VariableSet, terms: Mapping[Monomial, int] | None = None):
        self.varset = varset
        width = len(varset)
        out: dict[Monomial, int] = {}
        for mono, coeff in (terms or {}).items():
            if len(mono) != width:
                raise StructuralError(
                    f"exponent tuple {mono!r} does not match variables {varset.names}")
            # type(), not isinstance(): a bool (JSON true/false) is not a number.
            if not all(type(e) is int and e >= 0 for e in mono):
                raise StructuralError(f"exponents must be nonnegative integers: {mono!r}")
            if type(coeff) is not int:
                raise StructuralError(f"coefficient {coeff!r} is not an integer")
            mono = tuple(mono)
            out[mono] = out.get(mono, 0) + coeff
        self._terms = {m: c for m, c in out.items() if c}

    @classmethod
    def _raw(cls, varset: VariableSet, terms: dict[Monomial, int]) -> "MultiPoly":
        # Internal fast path: caller guarantees canonical, well-shaped terms.
        poly = object.__new__(cls)
        poly.varset = varset
        poly._terms = terms
        return poly

    # ------------------------------------------------------------------ factories

    @classmethod
    def zero(cls, varset: VariableSet) -> "MultiPoly":
        return cls._raw(varset, {})

    @classmethod
    def constant(cls, varset: VariableSet, value: int) -> "MultiPoly":
        if value == 0:
            return cls.zero(varset)
        return cls._raw(varset, {(0,) * len(varset): value})

    @classmethod
    def one(cls, varset: VariableSet) -> "MultiPoly":
        return cls.constant(varset, 1)

    @classmethod
    def variable(cls, varset: VariableSet, name: str, power: int = 1) -> "MultiPoly":
        exps = [0] * len(varset)
        exps[varset.index(name)] = power
        return cls._raw(varset, {tuple(exps): 1})

    @classmethod
    def term(cls, varset: VariableSet, coeff: int, **powers: int) -> "MultiPoly":
        """Single term, e.g. ``MultiPoly.term(ABCX, -6, a=2, c=1, x=2)``."""
        if coeff == 0:
            return cls.zero(varset)
        exps = [0] * len(varset)
        for name, power in powers.items():
            exps[varset.index(name)] = power
        return cls._raw(varset, {tuple(exps): coeff})

    # ------------------------------------------------------------------ inspection

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    @property
    def total_degree(self) -> int:
        """Maximum total degree over all terms; 0 for the zero polynomial."""
        return max((sum(m) for m in self._terms), default=0)

    def degree_in(self, name: str) -> int:
        i = self.varset.index(name)
        return max((m[i] for m in self._terms), default=0)

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Terms in graded-lex order, highest first (the serialization order)."""
        return sorted(self._terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def coefficients_in(self, name: str) -> list["MultiPoly"]:
        """Coefficients of powers of one variable; index k holds the x^k coefficient.

        Each coefficient is a polynomial over the same variable set with the
        extracted variable's exponent zeroed.  Returns [] for the zero polynomial.
        """
        if self.is_zero:
            return []
        i = self.varset.index(name)
        buckets: list[dict[Monomial, int]] = [{} for _ in range(self.degree_in(name) + 1)]
        for mono, coeff in self._terms.items():
            stripped = mono[:i] + (0,) + mono[i + 1:]
            buckets[mono[i]][stripped] = coeff
        return [MultiPoly._raw(self.varset, b) for b in buckets]

    # ------------------------------------------------------------------ arithmetic

    def _check_varset(self, other: "MultiPoly") -> None:
        if self.varset != other.varset:
            raise StructuralError(
                f"variable sets differ: {self.varset.names} vs {other.varset.names}")

    def _combine(self, other: "MultiPoly", sign: int) -> "MultiPoly":
        """self + sign * other, for sign in {1, -1}."""
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_varset(other)
        out = dict(self._terms)
        # Cleaned per item: a final pass would walk all of the (often much larger) copy.
        for mono, coeff in other._terms.items():
            held = out.get(mono, 0)
            # A branch, not sign * coeff: multiplying big coefficients costs more.
            s = held + coeff if sign > 0 else held - coeff
            if s:
                out[mono] = s
            elif mono in out:
                del out[mono]
        return MultiPoly._raw(self.varset, out)

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self._combine(other, -1)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._raw(self.varset, {m: -c for m, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return MultiPoly.zero(self.varset)
            return MultiPoly._raw(self.varset, {m: c * other for m, c in self._terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_varset(other)
        if self.is_zero or other.is_zero:
            return MultiPoly.zero(self.varset)
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[Monomial, int] = {}
        get = out.get
        for mono_a, coeff_a in a.items():
            for mono_b, coeff_b in b.items():
                mono = tuple(map(add, mono_a, mono_b))
                out[mono] = get(mono, 0) + coeff_a * coeff_b
        return MultiPoly._raw(self.varset, {m: c for m, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "MultiPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {exponent!r}")
        result = MultiPoly.one(self.varset)
        base = self
        e = exponent
        while e:                      # repeated squaring
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # ------------------------------------------------------------------ evaluation

    def evaluate(self, assignment: Mapping[str, Fraction | int]) -> Fraction:
        """Exact rational value at a point; every used variable must be assigned.

        The sum runs over integers only.  With variable i at num_i/den_i and
        top_i its largest exponent, each term is scaled to the common
        denominator prod den_i^top_i through the table num_i^e den_i^(top_i - e),
        so the one Fraction is built at the end.
        """
        point: list[Fraction | None] = [None] * len(self.varset)
        for name, value in assignment.items():
            point[self.varset.index(name)] = Fraction(value)
        if not self._terms:
            return Fraction(0)
        tables: list[tuple[int, list[int]]] = []
        denominator = 1
        for i, top in enumerate(map(max, zip(*self._terms))):
            if top == 0:
                continue
            if point[i] is None:
                raise StructuralError(f"no value assigned for variable {self.varset.names[i]!r}")
            num, den = point[i].numerator, point[i].denominator
            tables.append((i, _power_table(num, den, top)))
            denominator *= den ** top
        total = 0
        for mono, coeff in self._terms.items():
            for i, table in tables:
                coeff *= table[mono[i]]
            total += coeff
        return Fraction(total, denominator)

    def substitute(self, bindings: Mapping[str, int]) -> "MultiPoly":
        """Bind a subset of variables to exact integers; the rest stay symbolic.

        The result lives over the remaining variables (exponent columns of the
        bound variables are dropped).
        """
        if not bindings:
            return self
        for name, value in bindings.items():
            if name not in self.varset:
                raise StructuralError(f"cannot bind {name!r}: not in {self.varset.names}")
            if not isinstance(value, int):
                raise StructuralError(f"binding for {name!r} must be an integer")
        bound = {self.varset.index(name): value for name, value in bindings.items()}
        kept = [i not in bound for i in range(len(self.varset))]
        remaining = VariableSet(compress(self.varset.names, kept))
        if not self._terms:
            return MultiPoly.zero(remaining)
        tops = [max(column) for column in zip(*self._terms)]
        tables = [(i, _power_table(value, 1, tops[i])) for i, value in bound.items() if tops[i]]
        out: dict[Monomial, int] = {}
        for mono, coeff in self._terms.items():
            for i, table in tables:
                coeff *= table[mono[i]]
            new_mono = tuple(compress(mono, kept))
            out[new_mono] = out.get(new_mono, 0) + coeff
        return MultiPoly._raw(remaining, {m: c for m, c in out.items() if c})

    # ------------------------------------------------------------------ comparison

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.varset == other.varset and self._terms == other._terms

    # ------------------------------------------------------------------ serialization

    def to_dict(self) -> dict:
        """JSON-ready form; terms in graded-lex order, coefficients as strings."""
        return {
            "vars": list(self.varset.names),
            "terms": [
                {"exp": list(mono), "coeff": str(coeff)}
                for mono, coeff in self.sorted_terms()
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "MultiPoly":
        try:
            varset = VariableSet(data["vars"])
            terms = {}
            for t in data["terms"]:
                mono, coeff = tuple(t["exp"]), t["coeff"]
                if mono in terms:
                    raise ValueError(f"exponent {list(mono)} listed twice")
                # A decimal string is parsed; anything else is left for the constructor to check.
                if isinstance(coeff, str) and not re.fullmatch("-?[0-9]+", coeff):
                    raise ValueError(f"coefficient {coeff!r} is not a decimal integer")
                terms[mono] = int(coeff) if isinstance(coeff, str) else coeff
        except (KeyError, TypeError, ValueError) as exc:
            raise StructuralError(f"malformed polynomial JSON: {exc}") from exc
        return cls(varset, terms)

    def _render(self, power_fmt: str) -> str:
        if self.is_zero:
            return "0"
        pieces: list[str] = []
        for mono, coeff in self.sorted_terms():
            factors = []
            for name, exp in zip(self.varset.names, mono):
                if exp == 1:
                    factors.append(name)
                elif exp > 1:
                    factors.append(name + power_fmt.format(exp))
            magnitude = abs(coeff)
            if magnitude != 1 or not factors:
                factors.insert(0, str(magnitude))
            body = " ".join(factors)
            if not pieces:
                pieces.append(body if coeff > 0 else "-" + body)
            else:
                pieces.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(pieces)

    def __str__(self) -> str:
        return self._render("^{}")

    def latex(self) -> str:
        return self._render("^{{{}}}")

    def __repr__(self) -> str:
        return f"MultiPoly({self.varset.names}, {self._terms!r})"


def nc_mul(left: MultiPoly, right: MultiPoly) -> MultiPoly:
    """Product over (a, b, c, q, x, y) in the algebra where yx = qxy.

    a, b, c and q commute with everything.  Terms are stored normal-ordered
    as x^i y^j, so moving y^j1 past x^i2 costs a factor q^(j1 i2):

        (x^i1 y^j1)(x^i2 y^j2) = q^(j1 i2) x^(i1+i2) y^(j1+j2)
    """
    if left.varset != ABCQXY or right.varset != ABCQXY:
        raise StructuralError(
            f"nc_mul needs polynomials over {ABCQXY.names}, "
            f"got {left.varset.names} and {right.varset.names}")
    out: dict[Monomial, int] = {}
    get = out.get
    for (a1, b1, c1, q1, i1, j1), coeff_l in left._terms.items():
        for (a2, b2, c2, q2, i2, j2), coeff_r in right._terms.items():
            mono = (a1 + a2, b1 + b2, c1 + c2, q1 + q2 + j1 * i2, i1 + i2, j1 + j2)
            out[mono] = get(mono, 0) + coeff_l * coeff_r
    return MultiPoly._raw(ABCQXY, {m: c for m, c in out.items() if c})


def divexact(numerator: MultiPoly, divisor: MultiPoly) -> MultiPoly:
    """Exact polynomial division; raises ArithmeticError if not divisible.

    Works by eliminating the graded-lex leading term at each step, which is
    complete whenever the division is exact (leading terms multiply in an
    integral domain).  Used by the fraction-free determinant routine.
    """
    numerator._check_varset(divisor)
    if divisor.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if numerator.is_zero:
        return MultiPoly.zero(numerator.varset)
    div_mono, div_coeff = max(divisor._terms.items(), key=lambda kv: _grlex_key(kv[0]))
    remainder = dict(numerator._terms)
    quotient: dict[Monomial, int] = {}
    div_terms = divisor._terms
    while remainder:
        lead_mono, lead_coeff = max(remainder.items(), key=lambda kv: _grlex_key(kv[0]))
        q, r = divmod(lead_coeff, div_coeff)
        step = tuple(e - d for e, d in zip(lead_mono, div_mono))
        if r != 0 or any(e < 0 for e in step):
            raise ArithmeticError("inexact polynomial division")
        quotient[step] = q
        # Cleaned per item: the next leading term must come from nonzero terms.
        for mono, coeff in div_terms.items():
            target = tuple(e + s for e, s in zip(mono, step))
            s = remainder.get(target, 0) - q * coeff
            if s:
                remainder[target] = s
            elif target in remainder:
                del remainder[target]
    return MultiPoly._raw(numerator.varset, quotient)
