import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from newtonpoly.errors import StructuralError
from newtonpoly.polyring import (ABCQXY, ABCX, XY, MultiPoly, VariableSet, _grlex_key, divexact,
                                 nc_mul)

from conftest import random_poly


def poly(varset=ABCX, **term):
    return MultiPoly.term(varset, term.pop("coeff", 1), **term)


class TestVariableSet:
    def test_canonical_order_is_enforced(self):
        assert VariableSet("xca").names == ("a", "c", "x")
        assert VariableSet(["y", "q", "b"]).names == ("b", "q", "y")

    def test_unknown_name_rejected(self):
        with pytest.raises(StructuralError):
            VariableSet(["z"])

    def test_duplicates_rejected(self):
        with pytest.raises(StructuralError):
            VariableSet("aa")

    def test_index(self):
        assert ABCX.index("x") == 3
        with pytest.raises(StructuralError):
            ABCX.index("y")


class TestArithmetic:
    def test_additive_identity(self):
        p = poly(coeff=2, a=1, x=1) + poly(coeff=1, b=1)
        assert p + MultiPoly.zero(ABCX) == p

    def test_cancellation_removes_term(self):
        c = MultiPoly.variable(ABCX, "c")
        p = poly(x=2) + c
        assert p + (-c) == poly(x=2)
        assert len(p + (-c)) == 1

    def test_newton_step_denominator(self):
        # f'(x) = 2ax + b assembled from pieces
        assert poly(coeff=2, a=1, x=1) + poly(b=1) == \
            MultiPoly(ABCX, {(1, 0, 0, 1): 2, (0, 1, 0, 0): 1})

    def test_difference_of_squares(self):
        x, b = MultiPoly.variable(ABCX, "x"), MultiPoly.variable(ABCX, "b")
        assert (x + b) * (x - b) == poly(x=2) - poly(b=2)

    def test_square_of_derivative(self):
        d = poly(coeff=2, a=1, x=1) + poly(b=1)
        assert d * d == (poly(coeff=4, a=2, x=2) + poly(coeff=4, a=1, b=1, x=1)
                         + poly(b=2))

    def test_square_of_p1(self):
        p1 = poly(a=1, x=2) - poly(c=1)
        assert p1 * p1 == (poly(a=2, x=4) - poly(coeff=2, a=1, c=1, x=2) + poly(c=2))

    def test_pow_zero_is_one(self):
        p = poly(coeff=5, a=1, b=2)
        assert p ** 0 == MultiPoly.one(ABCX)

    def test_binomial_square(self):
        x, y = MultiPoly.variable(XY, "x"), MultiPoly.variable(XY, "y")
        assert (x + y) ** 2 == \
            MultiPoly(XY, {(2, 0): 1, (1, 1): 2, (0, 2): 1})

    def test_binomial_fourth_power(self):
        x, y = MultiPoly.variable(XY, "x"), MultiPoly.variable(XY, "y")
        assert (x + y) ** 4 == MultiPoly(
            XY, {(4, 0): 1, (3, 1): 4, (2, 2): 6, (1, 3): 4, (0, 4): 1})

    def test_varset_mismatch_raises(self):
        with pytest.raises(StructuralError):
            MultiPoly.one(ABCX) + MultiPoly.one(XY)
        with pytest.raises(StructuralError):
            MultiPoly.one(ABCX) * MultiPoly.one(XY)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            poly(x=1) ** -1


class TestRingAxioms:
    def test_axioms_on_random_triples(self):
        rng = random.Random(20240817)
        for _ in range(1000):
            p = random_poly(rng, ABCX)
            r = random_poly(rng, ABCX)
            s = random_poly(rng, ABCX)
            assert p + r == r + p
            assert (p + r) + s == p + (r + s)
            assert p * r == r * p
            assert (p * r) * s == p * (r * s)
            assert p * (r + s) == p * r + p * s

    def test_degree_additive_for_nonzero(self):
        rng = random.Random(7)
        for _ in range(200):
            p = random_poly(rng, XY)
            r = random_poly(rng, XY)
            if p.is_zero or r.is_zero:
                continue
            assert (p * r).total_degree == p.total_degree + r.total_degree

    def test_canonical_form_idempotent(self):
        rng = random.Random(11)
        for _ in range(100):
            p = random_poly(rng, ABCX) * random_poly(rng, ABCX)
            assert MultiPoly(p.varset, dict(p.sorted_terms())) == p

    def test_pow_matches_repeated_mul(self):
        rng = random.Random(13)
        for _ in range(25):
            p = random_poly(rng, XY, max_terms=3)
            acc = MultiPoly.one(XY)
            for e in range(9):
                assert p ** e == acc
                acc = acc * p


def pairwise_product(p: MultiPoly, r: MultiPoly) -> dict:
    """The product's terms by the slow loop: a zero test per term pair."""
    out = {}
    for mono_a, coeff_a in p.sorted_terms():
        for mono_b, coeff_b in r.sorted_terms():
            mono = tuple(ea + eb for ea, eb in zip(mono_a, mono_b))
            s = out.get(mono, 0) + coeff_a * coeff_b
            if s:
                out[mono] = s
            elif mono in out:
                del out[mono]
    return out


def polynomials(varset, max_exps=None):
    """Polynomials over ``varset`` with coefficients in +-3, so sums cancel.

    Each exponent is at most 2, or its entry of ``max_exps``.
    """
    mono = st.tuples(*[st.integers(0, top) for top in max_exps or [2] * len(varset)])
    coeff = st.integers(-3, 3).filter(bool)
    return st.dictionaries(mono, coeff, max_size=8).map(lambda terms: MultiPoly(varset, terms))


@st.composite
def operands(draw):
    """Two polynomials over one variable set, with coefficients in +-3 so sums cancel."""
    varset = draw(st.sampled_from([XY, ABCX, ABCQXY]))
    return draw(polynomials(varset)), draw(polynomials(varset))


@given(st.sampled_from([XY, ABCX, ABCQXY]).flatmap(polynomials))
def test_sorted_terms_matches_the_two_call_grlex_key(p):
    # The key sorted_terms() used before it built (degree, monomial) in one call.
    assert p.sorted_terms() == sorted(p._terms.items(), key=lambda kv: _grlex_key(kv[0]),
                                      reverse=True)


class TestMulDifferential:
    """``__mul__`` against the slow loop, on operands whose products cancel."""

    @staticmethod
    def check(p: MultiPoly, r: MultiPoly) -> None:
        product = p * r
        assert dict(product.sorted_terms()) == pairwise_product(p, r)
        assert all(coeff for _, coeff in product.sorted_terms())

    @given(operands())
    def test_matches_the_pairwise_loop(self, pair):
        self.check(*pair)

    def test_middle_terms_cancel(self):
        x, y = MultiPoly.variable(XY, "x"), MultiPoly.variable(XY, "y")
        self.check(x + y, x - y)
        self.check(x * x + x * y + y * y, x - y)
        assert len((x + y) * (x - y)) == len((x * x + x * y + y * y) * (x - y)) == 2


def per_term_substitute(p: MultiPoly, bindings: dict) -> dict:
    """The substitution's terms by the slow loop: a zero test per term."""
    bound = {p.varset.index(name): value for name, value in bindings.items()}
    keep = [i for i in range(len(p.varset)) if i not in bound]
    out = {}
    for mono, coeff in p.sorted_terms():
        for i, value in bound.items():
            coeff *= value ** mono[i]
        if coeff == 0:
            continue
        new_mono = tuple(mono[i] for i in keep)
        s = out.get(new_mono, 0) + coeff
        if s:
            out[new_mono] = s
        elif new_mono in out:
            del out[new_mono]
    return out


@st.composite
def substitutions(draw):
    """A polynomial and values in -2..2 for a nonempty subset of its variables."""
    varset = draw(st.sampled_from([ABCX, ABCQXY]))
    names = draw(st.lists(st.sampled_from(varset.names), min_size=1, unique=True))
    return draw(polynomials(varset)), {name: draw(st.integers(-2, 2)) for name in names}


class TestSubstituteDifferential:
    """``substitute`` against the slow loop; 0 and 1 make terms vanish and sums cancel."""

    @given(substitutions())
    @example((MultiPoly(ABCX, {(1, 0, 0, 1): 1, (0, 0, 0, 1): -1, (0, 1, 0, 0): 2}),
              {"a": 1, "b": 0}))
    def test_matches_the_per_term_loop(self, case):
        p, bindings = case
        result = p.substitute(bindings)
        assert result.varset.names == tuple(n for n in p.varset if n not in bindings)
        assert dict(result.sorted_terms()) == per_term_substitute(p, bindings)
        assert all(coeff for _, coeff in result.sorted_terms())


def pairwise_nc_product(p: MultiPoly, r: MultiPoly) -> dict:
    """The q-algebra product's terms by the slow loop: a zero test per term pair."""
    out = {}
    for (a1, b1, c1, q1, i1, j1), coeff_l in p.sorted_terms():
        for (a2, b2, c2, q2, i2, j2), coeff_r in r.sorted_terms():
            mono = (a1 + a2, b1 + b2, c1 + c2, q1 + q2 + j1 * i2, i1 + i2, j1 + j2)
            s = out.get(mono, 0) + coeff_l * coeff_r
            if s:
                out[mono] = s
            elif mono in out:
                del out[mono]
    return out


class TestNcMulDifferential:
    """``nc_mul`` against the slow loop, on operands whose products cancel."""

    @staticmethod
    def check(p: MultiPoly, r: MultiPoly) -> None:
        product = nc_mul(p, r)
        assert dict(product.sorted_terms()) == pairwise_nc_product(p, r)
        assert all(coeff for _, coeff in product.sorted_terms())

    # a and b add like c, so only c, q, x, y vary, each up to 1: with few
    # monomials, products collide and cancel often.
    @given(*[polynomials(ABCQXY, max_exps=(0, 0, 1, 1, 1, 1))] * 2)
    def test_matches_the_pairwise_loop(self, p, r):
        self.check(p, r)

    def test_twisted_terms_cancel(self):
        x, y = MultiPoly.variable(ABCQXY, "x"), MultiPoly.variable(ABCQXY, "y")
        q = MultiPoly.variable(ABCQXY, "q")
        # (x + y)(x - q y) = x^2 - q xy + yx - q y^2, and yx = q xy.
        self.check(x + y, x - q * y)
        assert nc_mul(x + y, x - q * y) == x * x - q * y * y


class TestEvaluate:
    def test_simple(self):
        p = poly(x=2) - poly(coeff=2)
        assert p.evaluate({"x": 3}) == 7

    def test_derivative_at_point(self):
        d = poly(coeff=2, a=1, x=1) + poly(b=1)
        assert d.evaluate({"a": 1, "b": -3, "x": 3}) == 3

    def test_p2_at_point(self):
        p2 = (poly(a=3, x=4) - poly(coeff=6, a=2, c=1, x=2)
              - poly(coeff=4, a=1, b=1, c=1, x=1) + poly(a=1, c=2) - poly(b=2, c=1))
        assert p2.evaluate({"a": 1, "b": 0, "c": -1, "x": 2}) == 41

    def test_missing_assignment_raises(self):
        with pytest.raises(StructuralError):
            poly(a=1, x=1).evaluate({"x": 2})

    def test_rational_points(self):
        p = poly(a=1, x=2) - poly(c=1)
        assert p.evaluate({"a": Fraction(1, 2), "c": Fraction(-1, 3), "x": Fraction(2, 5)}) \
            == Fraction(1, 2) * Fraction(4, 25) + Fraction(1, 3)

    @given(st.integers(-30, 30), st.integers(-30, 30), st.integers(1, 9),
           st.integers(-30, 30), st.integers(1, 9))
    def test_eval_is_a_ring_homomorphism(self, seed, xn, xd, yn, yd):
        rng = random.Random(seed)
        p = random_poly(rng, XY, max_terms=4)
        r = random_poly(rng, XY, max_terms=4)
        point = {"x": Fraction(xn, xd), "y": Fraction(yn, yd)}
        assert (p + r).evaluate(point) == p.evaluate(point) + r.evaluate(point)
        assert (p * r).evaluate(point) == p.evaluate(point) * r.evaluate(point)

    @staticmethod
    def _per_term_reference(p, point):
        """Sum of Fraction terms, one power at a time: the textbook evaluation."""
        total = Fraction(0)
        for mono, coeff in p.sorted_terms():
            term = Fraction(coeff)
            for name, exp in zip(p.varset.names, mono):
                term *= Fraction(point[name]) ** exp
            total += term
        return total

    def test_matches_per_term_fractions(self):
        rng = random.Random(20)
        values = [0, 1, -1, 7, -12, Fraction(1, 2), Fraction(-5, 3), Fraction(22, 7),
                  Fraction(-1, 9)]
        for _ in range(300):
            p = random_poly(rng, ABCX, max_terms=8, max_exp=5, coeff_bound=10 ** 6)
            point = {name: rng.choice(values) for name in ABCX}
            result = p.evaluate(point)
            assert isinstance(result, Fraction)
            assert result == self._per_term_reference(p, point)

    def test_unassigned_variable_raises_only_when_used(self):
        rng = random.Random(21)
        checked = 0
        for _ in range(200):
            p = random_poly(rng, ABCX, max_terms=4, max_exp=2)
            point = {"a": Fraction(3, 4), "b": -2, "c": 0, "x": Fraction(-1, 5)}
            missing = rng.choice(ABCX.names)
            del point[missing]
            if p.degree_in(missing) > 0:
                with pytest.raises(StructuralError, match=repr(missing)):
                    p.evaluate(point)
                checked += 1
            else:
                assert p.evaluate(point) == self._per_term_reference(p, {**point, missing: 0})
        assert checked > 50

    def test_zero_polynomial_needs_no_values(self):
        assert MultiPoly.zero(ABCX).evaluate({}) == 0
        assert MultiPoly.one(ABCX).evaluate({}) == 1


class TestSubstitute:
    def test_specializes_p1(self):
        p1 = poly(a=1, x=2) - poly(c=1)
        assert p1.substitute({"a": 1, "c": -1}) == \
            MultiPoly(VariableSet("bx"), {(0, 2): 1, (0, 0): 1})

    def test_empty_binding_is_identity(self):
        p = poly(coeff=3, a=1, b=1)
        assert p.substitute({}) == p

    def test_specializes_derivative(self):
        d = poly(coeff=2, a=1, x=1) + poly(b=1)
        out = d.substitute({"a": 1, "b": 0})
        assert out == MultiPoly(VariableSet("cx"), {(0, 1): 2})

    def test_unknown_binding_rejected(self):
        with pytest.raises(StructuralError):
            poly(x=1).substitute({"y": 1})

    def test_substitution_commutes_with_evaluation(self):
        rng = random.Random(3)
        for _ in range(50):
            p = random_poly(rng, ABCX)
            a, b = rng.randint(-9, 9), rng.randint(-9, 9)
            c, x = rng.randint(-9, 9), rng.randint(-9, 9)
            assert p.substitute({"a": a, "b": b}).evaluate({"c": c, "x": x}) \
                == p.evaluate({"a": a, "b": b, "c": c, "x": x})


class TestSerialization:
    def test_schema_example(self):
        p1 = poly(a=1, x=2) - poly(c=1)
        assert p1.to_dict() == {
            "vars": ["a", "b", "c", "x"],
            "terms": [
                {"exp": [1, 0, 0, 2], "coeff": "1"},
                {"exp": [0, 0, 1, 0], "coeff": "-1"},
            ],
        }

    def test_terms_are_graded_lex_descending(self):
        rng = random.Random(5)
        for _ in range(50):
            p = random_poly(rng, ABCX, max_terms=10)
            monos = [tuple(t["exp"]) for t in p.to_dict()["terms"]]
            keys = [(sum(m), m) for m in monos]
            assert keys == sorted(keys, reverse=True)

    def test_round_trip(self):
        rng = random.Random(9)
        for _ in range(50):
            p = random_poly(rng, ABCX, max_terms=8, coeff_bound=10 ** 40)
            again = MultiPoly.from_dict(json.loads(json.dumps(p.to_dict())))
            assert again == p

    def test_malformed_json_rejected(self):
        with pytest.raises(StructuralError):
            MultiPoly.from_dict({"vars": ["a"], "terms": [{"exp": [1]}]})

    @pytest.mark.parametrize("terms", [
        [{"exp": ["1"], "coeff": "2"}],   # once a TypeError from comparing "1" < 0
        [{"exp": [True], "coeff": "2"}],  # once read as x^1 and written back as true
        [{"exp": [1], "coeff": 1.9}],     # once truncated to 1
        [{"exp": [1], "coeff": True}],    # once read as 1
        # once loaded as 2 a, the last term silently winning
        [{"exp": [1], "coeff": "1"}, {"exp": [1], "coeff": "2"}],
        # int() spellings that are not a decimal string; once read as 1000, 7, 5 and 7
        [{"exp": [1], "coeff": "1_000"}],
        [{"exp": [1], "coeff": " 7 "}],
        [{"exp": [1], "coeff": "+5"}],
        [{"exp": [1], "coeff": "\u0667"}],
        # refused all along; the decimal pattern must still ask for a digit
        [{"exp": [1], "coeff": ""}],
        [{"exp": [1], "coeff": "-"}],
    ], ids=["string-exponent", "bool-exponent", "float-coeff", "bool-coeff",
            "repeated-exponent", "underscore-coeff", "padded-coeff", "plus-coeff",
            "arabic-indic-coeff", "empty-coeff", "bare-minus-coeff"])
    def test_malformed_term_rejected(self, terms):
        with pytest.raises(StructuralError):
            MultiPoly.from_dict({"vars": ["a"], "terms": terms})

    def test_rendering(self):
        p1 = poly(a=1, x=2) - poly(c=1)
        assert str(p1) == "a x^2 - c"
        assert p1.latex() == "a x^{2} - c"
        q1 = poly(coeff=2, a=1, x=1) + poly(b=1)
        assert q1.latex() == "2 a x + b"
        assert str(MultiPoly.zero(ABCX)) == "0"


class TestDivexact:
    def test_product_divides(self):
        rng = random.Random(17)
        for _ in range(100):
            p = random_poly(rng, ABCX, max_terms=4)
            g = random_poly(rng, ABCX, max_terms=4)
            if g.is_zero:
                continue
            assert divexact(p * g, g) == p

    def test_inexact_raises(self):
        x = MultiPoly.variable(XY, "x")
        y = MultiPoly.variable(XY, "y")
        with pytest.raises(ArithmeticError):
            divexact(x * x + y, x)
        with pytest.raises(ArithmeticError):
            divexact(MultiPoly.constant(XY, 3), MultiPoly.constant(XY, 2))
