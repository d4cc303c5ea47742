import random
from itertools import islice, starmap

import pytest
from hypothesis import given, strategies as st

from newtonpoly import qalgebra
from newtonpoly.closedform import binomial
from newtonpoly.errors import ResourceCapError, StructuralError
from newtonpoly.newton import iterate_pair
from newtonpoly.packing import ByteSlots, DigitSlots, slot_size
from newtonpoly.polyring import ABCQ, ABCQXY, ABCX, MultiPoly, nc_mul
from newtonpoly.qalgebra import (
    _nc_lift,
    conjecture_check,
    nc_closed,
    nc_iterate,
    nc_walk,
    qbinomial,
    qbinomial_int_rows,
    qbinomial_product_value,
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


def lifted(n, slices):
    """A slice pair of nc_walk() or nc_closed(n), lifted through _nc_lift."""
    size = 2 ** n
    return _nc_lift(slices[0], size, size), _nc_lift(slices[1], size, size - 1)


def pascal_oracle():
    """Rows of Gaussian polynomials by the Pascal recurrence in MultiPoly arithmetic."""
    one = MultiPoly.one(ABCQ)
    row = (one,)
    while True:
        yield row
        row = (one, *(row[k - 1] + MultiPoly.variable(ABCQ, "q", k) * row[k]
                      for k in range(1, len(row))), one)


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
        rows = qbinomial_int_rows()
        assert [next(rows) for _ in range(4)] == [
            [[1]], [[1], [1]], [[1], [1, 1], [1]], [[1], [1, 1, 1], [1, 1, 1], [1]]]
        # each walk starts afresh at row 0
        assert next(qbinomial_int_rows()) == [[1]]

    def test_rows_equal_the_multipoly_pascal_oracle(self):
        assert [tuple(qbinomial(n, k) for k in range(n + 1)) for n in range(25)] == \
            list(islice(pascal_oracle(), 25))
        # The integer rows have the layout of a slice row: k (n - k) + 1 cells for [n, k].
        for n, row in enumerate(islice(qbinomial_int_rows(), 25)):
            assert [len(cells) for cells in row] == [k * (n - k) + 1 for k in range(n + 1)]

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

    @pytest.mark.parametrize("n, k, q_value", [(4, 2, 1), (4, 1, -1)])
    def test_product_formula_rejects_q1(self, n, k, q_value):
        with pytest.raises(ValueError):
            qbinomial_product_value(n, k, q_value)


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

    @pytest.mark.parametrize("radix", [ByteSlots, DigitSlots])
    def test_packed_walk_matches_nc_mul_walk(self, radix, monkeypatch):
        monkeypatch.setattr(qalgebra, "choose_radix", lambda operand_bytes: radix)
        a, b, c = (MultiPoly.variable(ABCQXY, name) for name in "abc")
        p, q = X, Y
        expected = [(p, q)]
        for _ in range(4):                  # the recurrence one nc_mul product at a time
            qq = nc_mul(q, q)
            p, q = a * nc_mul(p, p) - c * qq, a * (nc_mul(p, q) + nc_mul(q, p)) + b * qq
            expected.append((p, q))
        assert [nc_iterate(n) for n in range(5)] == expected

    def test_n5_matches_closed_form(self):
        assert nc_iterate(5, cap=5) == lifted(5, nc_closed(5, cap=5))

    def test_walk_to_five_stays_on_byte_slots(self, monkeypatch):
        chosen = []

        def spy(operand_bytes):
            chosen.append(radix := choose(operand_bytes))
            return radix

        choose = qalgebra.choose_radix
        monkeypatch.setattr(qalgebra, "choose_radix", spy)
        nc_iterate(5, cap=5)
        # The largest packed P slice, 13878 bytes at the N = 16 step, is under the crossover.
        assert chosen == [ByteSlots] * 5

    def test_step_takes_three_squarings(self, monkeypatch):
        products = []

        class Counting(ByteSlots):
            def multiply(self, left, right):
                products.append(1)
                return left * right

        p, q = [[0], [1]], [[1], []]
        for size in (1, 2, 4):
            p, q = qalgebra._nc_step(p, q, size)
        expected = qalgebra._nc_step(p, q, 8)
        monkeypatch.setattr(qalgebra, "choose_radix", lambda operand_bytes: Counting)
        assert qalgebra._nc_step(p, q, 8) == expected
        # A twisted square of the N + 1 slices multiplies each unordered pair once,
        # (N + 1)(N + 2) / 2 products, so P^2, Q^2 and (P + Q)^2 take 135 at N = 8.
        assert len(products) == 3 * 9 * 10 // 2


def homogeneous(size, terms):
    """A polynomial over (c, q, x, y) of x, y-degree ``size`` from (k, s, e, coeff) terms."""
    return MultiPoly(ABCQXY, {(0, 0, k, s, e, size - e): coeff for k, s, e, coeff in terms})


ROWS, WIDTH = 4, 5          # operand terms have c^k q^s with k < ROWS, s < WIDTH
TERMS = st.lists(st.tuples(st.integers(0, ROWS - 1), st.integers(0, WIDTH - 1),
                           st.integers(0, 4), st.integers(-2 ** 100, 2 ** 100)), max_size=12)


@pytest.mark.parametrize("radix", [ByteSlots, DigitSlots])
@given(st.integers(1, 4), TERMS, TERMS)
def test_twisted_slice_square_matches_nc_mul(radix, size, left_terms, right_terms):
    left, right = (homogeneous(size, [t for t in terms if t[2] <= size])
                   for terms in (left_terms, right_terms))
    stride = 2 * WIDTH - 1 + size * size    # every twist (size - e1) e2 is at most size^2
    kernel = radix(slot_size(list(left._terms.values()), list(right._terms.values())))

    def packed(poly):
        cells = [[0] * (ROWS * WIDTH) for _ in range(size + 1)]
        for (_, _, k, s, e, _), coeff in poly._terms.items():
            cells[e][k * WIDTH + s] = coeff
        return [kernel.pack(grid, WIDTH, stride) for grid in cells]

    def unpacked(slices):
        product = {}
        for e, value in enumerate(slices):
            for index, coeff in enumerate(kernel.unpack(value, 2 * ROWS - 1, stride, stride)):
                k, s = divmod(index, stride)
                product[0, 0, k, s, e, 2 * size - e] = coeff
        return MultiPoly(ABCQXY, product)

    def square(slices):
        return qalgebra._square(slices, size, kernel)

    packed_left, packed_right = packed(left), packed(right)
    assert unpacked(square(packed_left)) == nc_mul(left, left)
    # (L + R)^2 - L^2 - R^2 = L R + R L in any ring; subtracted packed, before
    # unpacking, as _nc_step forms Q' from (P + Q)^2 - P^2.
    cross = map(kernel.subtract, square(list(map(kernel.add, packed_left, packed_right))),
                map(kernel.add, square(packed_left), square(packed_right)))
    assert unpacked(cross) == nc_mul(left, right) + nc_mul(right, left)


class TestNCClosed:
    def test_seeds(self):
        assert nc_closed(0) == ([[0], [1]], [[1], []])
        p, q = lifted(0, nc_closed(0))
        assert p == X
        assert q == Y

    def test_first_iterate(self):
        assert lifted(1, nc_closed(1)) == nc_iterate(1)

    def test_xy3_coefficient_of_q2(self):
        # [4,1]_q (a b^2 - a^2 c), the k = 1 column of the closed form
        _, q = lifted(2, nc_closed(2))
        gauss41 = qpoly(1, 1, 1, 1)
        expected = gauss41 * (scalar(1, a=1, b=2) - scalar(1, a=2, c=1))
        assert word_coefficient(q, 1, 3) == expected

    def test_leading_word_of_p(self):
        p, _ = lifted(2, nc_closed(2))
        assert word_coefficient(p, 4, 0) == scalar(1, a=3)

    @pytest.mark.parametrize("n", range(6))
    def test_slices_have_the_layout_of_the_walk(self, n):
        size = 2 ** n
        walk = next(islice(nc_walk(), n, None))
        for closed, recurrence, weight in zip(nc_closed(n, cap=5), walk, (size, size - 1)):
            assert [len(cells) for cells in closed] == [len(cells) for cells in recurrence] == [
                ((weight - e) // 2 + 1) * (e * (size - e) + 1) for e in range(size + 1)]

    def test_word_outside_the_degree_is_refused(self, monkeypatch):
        honest = qalgebra.q_contributions

        def shifted(n, row):
            for k, j, coeff, (i, b, c, e) in honest(n, row):
                yield k, j, coeff, (i, b, c, e + 2 * (n == 1 and k == 1))
        monkeypatch.setattr(qalgebra, "q_contributions", shifted)
        nc_closed(0)
        with pytest.raises(StructuralError, match="a\\^1 b\\^0 c\\^0 x\\^3: no word of degree 2"):
            nc_closed(1)


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
                p[1][0] += 2                # + 2 b x y: slice 1, c-row 0, q^0
                q[0][0] -= 1                # - b y^2: slice 0, c-row 0, q^0
            if n == 2:
                q[1][4] += 1                # + a^2 c x y^3: slice 1, c-row 1, q^0
            return p, q
        monkeypatch.setattr(qalgebra, "nc_closed", perturbed)
        report = conjecture_check(2)
        assert report.passed is False
        assert [entry["match"] for entry in report.per_n] == [True, False, False]
        assert [entry["first_differing_word"] for entry in report.per_n] == [
            None, {"poly": "P", "x": 1, "y": 1}, {"poly": "Q", "x": 1, "y": 3}]

    def test_cap_refused_before_any_construction(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("built a pair before checking the cap")
        for name in ("nc_walk", "qbinomial_int_rows"):
            monkeypatch.setattr(qalgebra, name, unreachable)
        with pytest.raises(ResourceCapError, match="n = 7 exceeds the cap 4"):
            conjecture_check(7)

    def test_short_walk_is_refused(self):
        with pytest.raises(StructuralError, match="yielded 2 pairs, not the 5 of n = 0..4"):
            conjecture_check(4, recurrence=list(islice(nc_walk(), 2)))

    def test_first_differing_word_is_the_largest(self, monkeypatch):
        honest = nc_closed

        def perturbed(n, cap):
            p, q = honest(n, cap)
            if n == 2:       # P differs at x^0 y^4 only; it is named before Q's x^3 y
                p[0][0] += 1
                q[3][0] += 1
            if n == 3:       # Q differs at x^2 y^6 and x^5 y^3; the larger word is named
                q[2][0] += 1
                q[5][-1] -= 1
            return p, q
        monkeypatch.setattr(qalgebra, "nc_closed", perturbed)
        assert [entry["first_differing_word"] for entry in conjecture_check(3).per_n] == [
            None, None, {"poly": "P", "x": 0, "y": 4}, {"poly": "Q", "x": 5, "y": 3}]


# ---------------------------------------------------------------- slices against MultiPolys

def multipoly_check(max_n, recurrence):
    """per_n of the conjecture check on lifted MultiPolys, as it ran before it compared slices.

    The closed side is built term by term from the q-binomial rows over
    (a, b, c, q), and the first differing word is the largest word x^i y^j
    of the difference by (i + j, i).
    """
    per_n = []
    for n, pair in zip(range(max_n + 1), recurrence):
        size = 2 ** n
        row = [qbinomial(size, k) for k in range(size + 1)]
        word = None
        for poly, rec, contributions in zip("PQ", pair, (qalgebra.p_contributions,
                                                         qalgebra.q_contributions)):
            closed = MultiPoly._raw(ABCQXY, {
                (a, b, c, q, k, size - k): value
                for k, _j, coeff, (a, b, c, _x) in contributions(n, row)
                for (_a, _b, _c, q), value in coeff._terms.items()})
            if rec != closed:
                differing = ((mono[4], mono[5]) for mono in (rec - closed)._terms)
                x, y = max(differing, key=lambda w: (w[0] + w[1], w[0]))
                word = {"poly": poly, "x": x, "y": y}
                break
        per_n.append({"n": n, "match": word is None, "first_differing_word": word})
    return per_n


@pytest.fixture(scope="module")
def walk_to_five():
    return list(islice(nc_walk(), 6))


def _changed_closed_cell(monkeypatch, walk):
    honest = qbinomial_int_rows

    def rows():                 # [4, 1] and [16, 5] each change in one q-coefficient
        for m, row in enumerate(honest()):
            if m in (4, 16):
                row = [list(cells) for cells in row]
                row[1 if m == 4 else 5][1 if m == 4 else 3] += 7
            yield row
    monkeypatch.setattr(qalgebra, "qbinomial_int_rows", rows)
    return walk


def _wrong_b_exponent(monkeypatch, walk):
    honest = qalgebra.p_contributions

    def terms(n, row):
        for k, j, coeff, (a, b, c, x) in honest(n, row):
            yield k, j, coeff, (a, b + (n == 3 and (k, j) == (2, 0)), c, x)
    monkeypatch.setattr(qalgebra, "p_contributions", terms)
    return walk


def _missing_closed_word(monkeypatch, walk):
    honest = qalgebra.p_contributions
    monkeypatch.setattr(qalgebra, "p_contributions", lambda n, row: (
        term for term in honest(n, row) if n != 5 or term[0] != 3))
    return walk


def _changed_walk_cell(monkeypatch, walk):
    walk = [([list(cells) for cells in p], q) for p, q in walk]
    walk[4][0][6][10] += 1
    return walk


def _q_only(monkeypatch, walk):
    honest = qalgebra.q_contributions

    def terms(n, row):
        for k, j, coeff, mono in honest(n, row):
            yield k, j, coeff + coeff if n == 5 and (k, j) == (7, 1) else coeff, mono
    monkeypatch.setattr(qalgebra, "q_contributions", terms)
    return walk


@pytest.mark.parametrize("mutate, mismatched", [
    (lambda monkeypatch, walk: walk, []),
    (_changed_closed_cell, [2, 4]),
    (_wrong_b_exponent, [3]),
    (_missing_closed_word, [5]),
    (_changed_walk_cell, [4]),
    (_q_only, [5]),
], ids=["honest", "changed-closed-cell", "wrong-b-exponent", "missing-closed-word",
        "changed-walk-cell", "q-only"])
def test_slice_check_agrees_with_the_multipoly_check(monkeypatch, walk_to_five, mutate,
                                                     mismatched):
    walk = mutate(monkeypatch, walk_to_five)
    report = conjecture_check(5, cap=5, recurrence=walk)
    assert list(report.per_n) == multipoly_check(5, starmap(lifted, enumerate(walk)))
    assert [entry["n"] for entry in report.per_n if not entry["match"]] == mismatched
