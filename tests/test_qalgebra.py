import random

import pytest

from newtonpoly import qalgebra
from newtonpoly.closedform import binomial
from newtonpoly.errors import ResourceCapError, StructuralError
from newtonpoly.newton import iterate_pair
from newtonpoly.polyring import ABCQ, ABCQXY, ABCX, MultiPoly, nc_mul
from newtonpoly.qalgebra import (
    _first_differing_word,
    conjecture_check,
    nc_closed,
    nc_iterate,
    qbinomial,
    qbinomial_product_value,
    qbinomial_rows,
    qbinomial_theorem_check,
)


def qpoly(*coeffs):
    """Polynomial in q alone from ascending coefficients, over (a, b, c, q)."""
    return MultiPoly(ABCQ, {(0, 0, 0, i): c for i, c in enumerate(coeffs)})


def scalar(coeff, **powers):
    return MultiPoly.term(ABCQ, coeff, **powers)


def nc(coeff=1, **powers):
    """One term over (a, b, c, q, x, y); its x^i y^j is the normal-ordered word."""
    return MultiPoly.term(ABCQXY, coeff, **powers)


X, Y = nc(x=1), nc(y=1)


def word_coefficient(poly, i, j):
    """The coefficient over (a, b, c, q) of the word x^i y^j."""
    return MultiPoly(ABCQ, {mono[:4]: c for mono, c in poly.sorted_terms()
                            if mono[4:] == (i, j)})


def words(poly):
    return {mono[4:] for mono, _ in poly.sorted_terms()}


class TestQBinomial:
    def test_edge_column(self):
        for n in range(8):
            assert qbinomial(n, 0) == qpoly(1)
            assert qbinomial(n, n) == qpoly(1)

    def test_2_choose_1(self):
        assert qbinomial(2, 1) == qpoly(1, 1)

    def test_4_choose_2(self):
        assert qbinomial(4, 2) == qpoly(1, 1, 2, 1, 1)

    def test_rows_walk_the_pascal_recurrence(self):
        rows = qbinomial_rows()
        assert [next(rows) for _ in range(3)] == [
            (qpoly(1),), (qpoly(1), qpoly(1)), (qpoly(1), qpoly(1, 1), qpoly(1))]
        # each walk starts afresh at row 0
        assert next(qbinomial_rows()) == (qpoly(1),)

    def test_out_of_range_is_zero(self):
        assert qbinomial(3, 5).is_zero
        assert qbinomial(3, -1).is_zero
        assert qbinomial(-2, 0).is_zero

    def test_symmetry_and_q1_specialization(self):
        for n in range(17):
            for k in range(n + 1):
                gauss = qbinomial(n, k)
                assert gauss == qbinomial(n, n - k)
                assert gauss.evaluate({"q": 1}) == binomial(n, k)

    def test_degree_is_k_times_n_minus_k(self):
        for n in range(13):
            for k in range(n + 1):
                assert qbinomial(n, k).degree_in("q") == k * (n - k)

    @pytest.mark.parametrize("q_value", [2, 3, 5])
    def test_product_formula_cross_check(self, q_value):
        for n in range(13):
            for k in range(n + 1):
                assert qbinomial(n, k).evaluate({"q": q_value}) == \
                    qbinomial_product_value(n, k, q_value)

    def test_product_formula_rejects_q1(self):
        with pytest.raises(ValueError):
            qbinomial_product_value(4, 2, 1)


class TestNCPoly:
    """Noncommutative polynomials are MultiPolys over ABCQXY multiplied by nc_mul."""

    def test_commutation_rule(self):
        assert nc_mul(Y, X) == nc(1, q=1, x=1, y=1)

    def test_square_of_x_plus_y(self):
        s = X + Y
        assert nc_mul(s, s) == nc(x=2) + nc(x=1, y=1) + nc(q=1, x=1, y=1) + nc(y=2)

    def test_multiplicative_identity(self):
        u = nc(3, a=1, x=2, y=1) + nc(-1, b=1, q=2, y=2)
        one = MultiPoly.one(ABCQXY)
        assert nc_mul(u, one) == u
        assert nc_mul(one, u) == u

    def test_associativity_on_random_polys(self):
        rng = random.Random(40)

        def random_nc():
            total = MultiPoly.zero(ABCQXY)
            for _ in range(rng.randint(1, 4)):
                total = total + nc(rng.randint(-5, 5), a=rng.randint(0, 2),
                                   q=rng.randint(0, 2), x=rng.randint(0, 3),
                                   y=rng.randint(0, 3))
            return total

        for _ in range(60):
            u, v, w = random_nc(), random_nc(), random_nc()
            assert nc_mul(nc_mul(u, v), w) == nc_mul(u, nc_mul(v, w))

    def test_noncommutative_in_general(self):
        assert nc_mul(X, Y) != nc_mul(Y, X)

    def test_rejects_other_variable_sets(self):
        with pytest.raises(StructuralError):
            nc_mul(MultiPoly.variable(ABCX, "x"), MultiPoly.variable(ABCX, "x"))
        with pytest.raises(StructuralError):
            nc_mul(X, MultiPoly.variable(ABCQ, "q"))


class TestSchutzenberger:
    def test_theorem_up_to_6(self):
        report = qbinomial_theorem_check(6)
        assert report.passed
        assert report.first_failure is None


class TestNCIterate:
    def test_seeds(self):
        p, q = nc_iterate(0)
        assert p == X
        assert q == Y

    def test_first_iterate_by_hand(self):
        p, q = nc_iterate(1)
        assert p == nc(1, a=1, x=2) + nc(-1, c=1, y=2)
        # a xy + a q xy from the reordered product, plus b y^2
        assert q == nc(1, a=1, x=1, y=1) + nc(1, a=1, q=1, x=1, y=1) + nc(1, b=1, y=2)

    @pytest.mark.parametrize("n", range(4))
    def test_homogeneous_of_degree_2n(self, n):
        p, q = nc_iterate(n)
        assert {i + j for i, j in words(p)} == {2 ** n}
        assert {i + j for i, j in words(q)} == {2 ** n}

    @pytest.mark.parametrize("n", range(5))
    def test_commutative_specialization(self, n):
        p, q = nc_iterate(n, cap=4)
        pair = iterate_pair(n)
        assert p.substitute({"q": 1, "y": 1}) == pair.p
        assert q.substitute({"q": 1, "y": 1}) == pair.q

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            nc_iterate(5)


class TestNCClosed:
    def test_seeds(self):
        p, q = nc_closed(0)
        assert p == X
        assert q == Y

    def test_first_iterate(self):
        assert nc_closed(1) == nc_iterate(1)

    def test_xy3_coefficient_of_q2(self):
        # [4,1]_q (a b^2 - a^2 c), the k = 1 column of the closed form
        _, q = nc_closed(2)
        gauss41 = qpoly(1, 1, 1, 1)
        expected = gauss41 * (scalar(1, a=1, b=2) - scalar(1, a=2, c=1))
        assert word_coefficient(q, 1, 3) == expected

    def test_leading_word_of_p(self):
        p, _ = nc_closed(2)
        assert word_coefficient(p, 4, 0) == scalar(1, a=3)


class TestConjecture:
    def test_passes_to_n3(self):
        report = conjecture_check(3)
        assert report.passed
        assert [entry["match"] for entry in report.per_n] == [True] * 4
        assert report.to_dict()["passed"] is True

    def test_mismatch_is_reported_not_raised(self):
        report = conjecture_check(1)
        for entry in report.per_n:
            assert entry["first_differing_word"] is None

    def test_mismatch_names_the_polynomial_and_its_largest_word(self, monkeypatch):
        honest = nc_closed

        def perturbed(n, cap):
            p, q = honest(n, cap)
            if n == 1:       # P and Q both differ; P is named
                return p + nc(2, b=1, x=1, y=1), q - nc(1, c=1, y=2)
            return (p, q + nc(1, c=1, x=1, y=3)) if n == 2 else (p, q)
        monkeypatch.setattr(qalgebra, "nc_closed", perturbed)
        report = conjecture_check(2)
        assert report.passed is False
        assert [entry["match"] for entry in report.per_n] == [True, False, False]
        assert [entry["first_differing_word"] for entry in report.per_n] == [
            None, {"poly": "P", "x": 1, "y": 1}, {"poly": "Q", "x": 1, "y": 3}]

    def test_cap_refused_before_any_construction(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("built a pair before checking the cap")
        monkeypatch.setattr(qalgebra, "nc_iterate", unreachable)
        monkeypatch.setattr(qalgebra, "qbinomial_rows", unreachable)
        with pytest.raises(ResourceCapError, match="n = 7 exceeds the cap 4"):
            conjecture_check(7)

    def test_first_differing_word_is_the_largest(self):
        left = nc(1, x=2, y=1) + nc(2, a=1, x=1, y=2) + nc(1, y=3)
        right = nc(1, x=2, y=1) + nc(1, a=1, x=1, y=2) + nc(5, b=1, x=0, y=1)
        # x^2 y agrees; x y^2 is the largest word of degree 3 that differs
        assert _first_differing_word(left, right) == (1, 2)
        assert _first_differing_word(left, left) is None
