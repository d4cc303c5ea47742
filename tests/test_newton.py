import random
from fractions import Fraction
from itertools import islice
from math import comb

import pytest
from hypothesis import example, given, strategies as st

from newtonpoly.closedform import closed_p, closed_q
from newtonpoly.errors import DomainError, ResourceCapError, StructuralError
from newtonpoly.newton import (
    CoprimalityReport,
    NewtonPair,
    QuadraticCoeffs,
    _grid_resultant,
    coprimality_check,
    eval_pair,
    iterate_pair,
    iterate_value,
    iterates,
    newton_step,
    sylvester_resultant,
)
from newtonpoly.packing import ByteSlots
from newtonpoly.polyring import ABCX, MultiPoly


def term(coeff, **powers):
    return MultiPoly.term(ABCX, coeff, **powers)


def schoolbook_pair(n):
    """The recurrence on sparse term dictionaries, one MultiPoly product at a time."""
    a, b, c = (MultiPoly.variable(ABCX, name) for name in "abc")
    p, q = MultiPoly.variable(ABCX, "x"), MultiPoly.one(ABCX)
    for _ in range(n):
        p, q = a * p * p - c * q * q, 2 * a * p * q + b * q * q
    return p, q


def rational_gcd_degree(pair, a, b, c):
    """deg gcd(P_n, Q_n) at (a, b, c) over Q: Euclid on Fraction coefficient lists."""
    def dense(poly):
        out = [Fraction(0)] * (poly.total_degree + 1)
        for (e,), coeff in poly.sorted_terms():
            out[e] = Fraction(coeff)
        return strip(out)

    def strip(coeffs):
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return coeffs

    bindings = {"a": a, "b": b, "c": c}
    u, v = dense(pair.p.substitute(bindings)), dense(pair.q.substitute(bindings))
    while v:
        while len(u) >= len(v):         # u <- u mod v by long division
            factor = u[-1] / v[-1]
            shift = len(u) - len(v)
            for i, coefficient in enumerate(v):
                u[i + shift] -= factor * coefficient
            strip(u)
        u, v = v, u
    return len(u) - 1 if u else -1


def fraction_iterate_value(coeffs, z0, n):
    """The stepwise Newton map z - f(z)/f'(z) in Fraction arithmetic, one step at a time."""
    z = Fraction(z0)
    for _ in range(n):
        denominator = 2 * coeffs.a * z + coeffs.b
        if denominator == 0:
            critical = -coeffs.b / (2 * coeffs.a)
            raise DomainError(f"Newton step undefined at the critical point z = {critical}")
        z = z - (coeffs.a * z * z + coeffs.b * z + coeffs.c) / denominator
    return z


def outcome(step, *args):
    """The value of ``step(*args)``, or the text of the DomainError it raises."""
    try:
        return step(*args)
    except DomainError as exc:
        return f"DomainError: {exc}"


# Denominators of either sign, so a, b and c scale by different lcms.
rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(-12, 12).filter(bool))
nonzero_rationals = rationals.filter(bool)
huge_rationals = st.builds(Fraction, st.integers(-2**200, 2**200),
                          st.integers(-2**100, 2**100).filter(bool))


class TestQuadraticCoeffs:
    def test_coerces_to_fractions(self):
        coeffs = QuadraticCoeffs(1, -3, 2)
        assert coeffs.a == Fraction(1)
        assert coeffs.discriminant == 1

    def test_rejects_zero_leading(self):
        with pytest.raises(DomainError):
            QuadraticCoeffs(0, 1, 1)

    def test_distinct_root_guard(self):
        QuadraticCoeffs(1, 0, -1).require_distinct_roots()
        with pytest.raises(DomainError):
            QuadraticCoeffs(1, 2, 1).require_distinct_roots()


class TestNewtonStep:
    def test_worked_sample(self):
        assert newton_step(QuadraticCoeffs(1, -3, 2), 3) == Fraction(7, 3)

    def test_roots_are_fixed_points(self):
        assert newton_step(QuadraticCoeffs(1, 0, -1), 1) == 1
        assert newton_step(QuadraticCoeffs(1, 0, -1), -1) == -1

    def test_one_step_from_two(self):
        assert newton_step(QuadraticCoeffs(1, 0, -1), 2) == Fraction(5, 4)

    def test_pole_names_critical_point(self):
        with pytest.raises(DomainError) as err:
            newton_step(QuadraticCoeffs(1, -3, 2), Fraction(3, 2))
        assert "3/2" in str(err.value)

    def test_negative_step_count_is_structural_error(self):
        with pytest.raises(StructuralError, match="must be nonnegative, got -3"):
            iterate_value(QuadraticCoeffs(1, 0, -1), 2, -3)


class TestIntegerOrbit:
    """iterate_value on integer pairs against the Fraction loop, pole messages included."""

    @given(nonzero_rationals, rationals, rationals,
           st.one_of(rationals, st.just(Fraction(0)), huge_rationals), st.integers(0, 8))
    @example(Fraction(3, 2), Fraction(-7, 3), Fraction(1, 5), Fraction(4, 3), 8)
    @example(Fraction(1, -4), Fraction(5, 6), Fraction(-7, 10), Fraction(0), 8)
    @example(Fraction(2), Fraction(-6), Fraction(1), Fraction(3, 2), 1)      # z = -b/2a
    @example(Fraction(1), Fraction(0), Fraction(-1), Fraction(10**301 + 1, 7), 4)
    def test_matches_the_fraction_loop(self, a, b, c, z, n):
        coeffs = QuadraticCoeffs(a, b, c)
        stepped = outcome(iterate_value, coeffs, z, n)
        assert stepped == outcome(fraction_iterate_value, coeffs, z, n)
        assert isinstance(stepped, (Fraction, str))
        assert outcome(newton_step, coeffs, z) == outcome(iterate_value, coeffs, z, 1)

    @given(nonzero_rationals, rationals, rationals, st.integers(0, 8))
    @example(Fraction(-2, 3), Fraction(1, 2), Fraction(5, -4), 8)
    def test_a_root_is_a_fixed_point(self, a, r1, r2, n):
        # f = a (x - r1)(x - r2); a double root is the critical point, a pole.
        coeffs = QuadraticCoeffs(a, -a * (r1 + r2), a * r1 * r2)
        stepped = outcome(iterate_value, coeffs, r1, n)
        assert stepped == outcome(fraction_iterate_value, coeffs, r1, n)
        if r1 != r2:
            assert stepped == r1

    @given(nonzero_rationals, rationals, nonzero_rationals, st.integers(2, 8))
    @example(Fraction(1), Fraction(0), Fraction(1), 2)
    def test_pole_first_met_at_step_two(self, a, h, m, n):
        # f = a ((x - h)^2 + m^2): the step from h + m lands on h = -b/2a, so
        # step 2 poles.  No rational orbit meets the pole later than step 2:
        # phi(z)^(2^(k-1)) = -1 needs a 2^k-th root of unity in Q(sqrt d).
        coeffs = QuadraticCoeffs(a, -2 * a * h, a * (h * h + m * m))
        assert newton_step(coeffs, h + m) == h
        with pytest.raises(DomainError) as err:
            iterate_value(coeffs, h + m, n)
        assert f"DomainError: {err.value}" == outcome(fraction_iterate_value, coeffs, h + m, n)
        assert str(err.value).endswith(f"z = {h}")


class TestIteratePair:
    def test_seed_pair(self):
        pair = iterate_pair(0)
        assert pair.p == MultiPoly.variable(ABCX, "x")
        assert pair.q == MultiPoly.one(ABCX)

    def test_first_iterate(self):
        pair = iterate_pair(1)
        assert pair.p == term(1, a=1, x=2) + term(-1, c=1)
        assert pair.q == term(2, a=1, x=1) + term(1, b=1)

    def test_second_iterate_hand_expansion(self):
        pair = iterate_pair(2)
        assert pair.p == (term(1, a=3, x=4) + term(-6, a=2, c=1, x=2)
                          + term(-4, a=1, b=1, c=1, x=1) + term(1, a=1, c=2)
                          + term(-1, b=2, c=1))
        assert pair.q == (term(4, a=3, x=3) + term(6, a=2, b=1, x=2)
                          + term(4, a=1, b=2, x=1) + term(-4, a=2, c=1, x=1)
                          + term(1, b=3) + term(-2, a=1, b=1, c=1))

    @pytest.mark.parametrize("n", range(6))
    def test_degree_and_leading_coefficients(self, n):
        pair = iterate_pair(n)
        size = 2 ** n
        assert pair.p.degree_in("x") == size
        assert pair.q.degree_in("x") == size - 1
        assert pair.p.coefficients_in("x")[size] == term(1, a=size - 1)
        assert pair.q.coefficients_in("x")[size - 1] == term(size, a=size - 1)

    @pytest.mark.parametrize("n", range(7))
    def test_matches_schoolbook_recurrence(self, n):
        pair = iterate_pair(n)
        assert (pair.p, pair.q) == schoolbook_pair(n)

    def test_matches_closed_form_at_n7(self):
        pair = iterate_pair(7)
        assert (pair.p, pair.q) == (closed_p(7), closed_q(7))

    @pytest.mark.parametrize("n", range(7))
    def test_homogeneity_invariant(self, n):
        pair = iterate_pair(n)
        size = 2 ** n
        for poly, weight in ((pair.p, size), (pair.q, size - 1)):
            for (i, j, k, e), _ in poly.sorted_terms():
                assert (i + j + k, j + 2 * k + e) == (size - 1, weight)

    def test_one_walk_yields_every_pair(self):
        assert list(islice(iterates(), 6)) == [iterate_pair(n) for n in range(6)]

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            iterate_pair(9)
        with pytest.raises(ResourceCapError):
            iterate_pair(3, cap=2)

    def test_invariant_violations_rejected(self):
        good = iterate_pair(1)
        with pytest.raises(StructuralError):
            NewtonPair(1, good.q, good.q)
        with pytest.raises(StructuralError):
            NewtonPair(0, good.p, good.q)
        # a^16 keeps deg_x and the leading coefficient of P_4, but an a-exponent
        # of 2^4 overran the power tables of coprimality_check (IndexError).
        fourth = iterate_pair(4)
        with pytest.raises(StructuralError):
            NewtonPair(4, fourth.p + term(1, a=16), fourth.q)

    @pytest.mark.parametrize("poly, extra", [("p", {"b": 1, "x": 2}), ("q", {"c": 1, "x": 1})])
    def test_leading_coefficient_with_extra_term_rejected(self, poly, extra):
        # The expected leading monomial keeps its coefficient; the second term
        # at the top x-power is off the grid, so a single lookup suffices.
        good = iterate_pair(1)
        polys = {"p": good.p, "q": good.q}
        polys[poly] = polys[poly] + MultiPoly.term(ABCX, 1, **extra)
        with pytest.raises(StructuralError, match="off the grid"):
            NewtonPair(1, polys["p"], polys["q"])


class TestPacking:
    @staticmethod
    def round_trip(cells, width, stride, size):
        rows, kernel = len(cells) // width, ByteSlots(size)
        assert kernel.unpack(kernel.pack(cells, width, stride), rows, width, stride) == cells

    @pytest.mark.parametrize("size", [1, 2, 5])
    def test_slot_extremes(self, size):
        low, high = -(1 << (8 * size - 1)), (1 << (8 * size - 1)) - 1
        self.round_trip([low, high, 0, high, low, -1], 3, 5, size)
        self.round_trip([high] * 4, 2, 2, size)
        self.round_trip([low] * 4, 2, 3, size)

    def test_random_signed_grids(self):
        rng = random.Random(11)
        for _ in range(200):
            size = rng.randint(1, 6)
            width, rows = rng.randint(1, 6), rng.randint(1, 5)
            bound = 1 << (8 * size - 1)
            cells = [rng.randrange(-bound, bound) for _ in range(width * rows)]
            self.round_trip(cells, width, width + rng.randint(0, 4), size)


class TestEvalPair:
    def test_matches_single_step(self):
        assert eval_pair(iterate_pair(1), QuadraticCoeffs(1, -3, 2), 3) == Fraction(7, 3)

    def test_identity_iterate(self):
        assert eval_pair(iterate_pair(0), QuadraticCoeffs(3, 2, 1), 5) == 5

    def test_two_steps(self):
        assert eval_pair(iterate_pair(2), QuadraticCoeffs(1, 0, -1), 2) == Fraction(41, 40)
        assert iterate_value(QuadraticCoeffs(1, 0, -1), 2, 2) == Fraction(41, 40)

    def test_zero_denominator_raises(self):
        # x0 = 0 is the critical point of x^2 - 1
        with pytest.raises(DomainError):
            eval_pair(iterate_pair(1), QuadraticCoeffs(1, 0, -1), 0)

    @pytest.mark.parametrize("n", range(6))
    def test_agrees_with_stepwise_composition(self, n):
        rng = random.Random(1000 + n)
        checked = 0
        while checked < 20:
            coeffs = QuadraticCoeffs(
                Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            x0 = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
            try:
                stepwise = iterate_value(coeffs, x0, n)
            except DomainError:
                continue
            assert eval_pair(iterate_pair(n), coeffs, x0) == stepwise
            checked += 1


class TestResultant:
    def test_n1_sylvester_by_hand(self):
        pair = iterate_pair(1)
        a_times_discriminant = (term(1, a=1, b=2) + term(-4, a=2, c=1))
        assert sylvester_resultant(pair.p, pair.q, "x") == a_times_discriminant

    def test_n2_and_n3_closed_forms(self):
        # Res(P_n, Q_n) = a^(2 e - 2^n + 1) (b^2 - 4ac)^e with e = (4^n - 2^n)/2,
        # checked against an independently assembled power product.
        a = MultiPoly.variable(ABCX, "a")
        disc = term(1, b=2) + term(-4, a=1, c=1)
        for n in (2, 3):
            e = (4 ** n - 2 ** n) // 2
            pair = iterate_pair(n)
            assert sylvester_resultant(pair.p, pair.q, "x") == \
                a ** (2 * e - 2 ** n + 1) * disc ** e

    # coprimality_check takes the resultant on the packed (c, x) grid; it must
    # equal the generic Bareiss determinant over Z[a,b,c].  n = 3 has
    # coefficients of both signs, so the signed digits are read back too.
    @pytest.mark.parametrize("route", ["recurrence", "closed"])
    @pytest.mark.parametrize("n", range(4))
    def test_grid_resultant_matches_sylvester(self, n, route):
        pair = iterate_pair(n) if route == "recurrence" else NewtonPair(n, closed_p(n), closed_q(n))
        report = coprimality_check(pair, trials=1, seed=0)
        assert report.method == "exact-resultant"
        assert report.resultant == sylvester_resultant(pair.p, pair.q, "x")

    def test_grid_resultant_n4_closed_form(self):
        # Res_x(P_n, Q_n) = a^((2^n - 1)^2) (b^2 - 4ac)^(2^(n-1) (2^n - 1)), the power
        # expanded by the binomial theorem, independently of MultiPoly arithmetic.
        n = 4
        size, e = 2 ** n, 2 ** (n - 1) * (2 ** n - 1)
        expected = MultiPoly(ABCX, {((size - 1) ** 2 + k, 2 * (e - k), k, 0):
                                    comb(e, k) * (-4) ** k for k in range(e + 1)})
        assert _grid_resultant(iterate_pair(n)) == expected

    def test_grid_resultant_refuses_a_term_off_the_grid(self):
        # b x^0 keeps deg_x and the leading coefficient of P_2, but its a, b, c
        # degree is 1, not 3: it would share a grid slot, so the pair is refused.
        pair = iterate_pair(2)
        with pytest.raises(StructuralError, match=r"P_2 has the term a\^0 b\^1 c\^0 x\^0"):
            NewtonPair(2, pair.p + term(1, b=1), pair.q)

    def test_resultant_detects_common_factor(self):
        x = MultiPoly.variable(ABCX, "x")
        b = MultiPoly.variable(ABCX, "b")
        common = x - b
        assert sylvester_resultant(common * (x + b), common * x, "x").is_zero

    # The first elimination step leaves a zero on the diagonal of each
    # Sylvester matrix, so the determinant must swap in a later row.
    @pytest.mark.parametrize("p, q", [
        (term(1, x=2) + term(1, x=1) + term(1), term(1, x=1) + term(1)),
        (term(1, x=2) + term(1, a=1, x=1) + term(1), term(1, x=1) + term(1, a=1)),
    ], ids=["x^2+x+1, x+1", "x^2+ax+1, x+a"])
    def test_zero_pivot_swaps_rows(self, p, q):
        assert sylvester_resultant(p, q, "x") == term(1)

    def test_matches_sympy_on_seeded_pairs(self):
        # The oracle is sympy's own Sylvester matrix, expanded by Berkowitz's
        # method rather than by Bareiss elimination.  (sympy.resultant itself
        # flips the sign for x-degrees (1, 3) in sympy 1.14.)
        sympy = pytest.importorskip("sympy")
        from sympy.polys.subresultants_qq_zz import sylvester
        symbols = sympy.symbols("a b c x")

        def to_sympy(poly):
            return sum((coeff * sympy.prod(s ** e for s, e in zip(symbols, mono))
                        for mono, coeff in poly.sorted_terms()), sympy.Integer(0))

        def random_in_x(rng):
            # x-degree 1..3 with a nonzero leading coefficient; the lower
            # coefficients in Z[a, b, c] are often zero, so pivots vanish.
            degree = rng.randint(1, 3)
            poly = term(rng.choice([-2, -1, 1, 3]), x=degree)
            for power in range(degree):
                if rng.random() < 0.6:
                    for _ in range(2):
                        poly = poly + term(rng.randint(-3, 3), x=power,
                                           **{name: rng.randint(0, 1) for name in "abc"})
            return poly

        rng = random.Random(2004)
        for _ in range(40):
            p, q = random_in_x(rng), random_in_x(rng)
            expected = sylvester(to_sympy(p), to_sympy(q), symbols[3]).det(method="berkowitz")
            assert sympy.expand(to_sympy(sylvester_resultant(p, q, "x")) - expected) == 0


class TestCoprimality:
    def test_passes_for_small_n(self):
        for n in range(4):
            report = coprimality_check(iterate_pair(n), trials=10, seed=42)
            assert report.passed
            assert report.method == "exact-resultant"
            assert report.resultant_nonzero is True

    def test_randomized_only_above_resultant_cutoff(self):
        report = coprimality_check(iterate_pair(4), trials=5, seed=42)
        assert report.passed
        assert report.method == "randomized-substitution"
        assert report.resultant is None

    def test_witnesses_avoid_degenerate_triples(self):
        report = coprimality_check(iterate_pair(2), trials=50, seed=7)
        for w in report.witnesses:
            assert w.a != 0
            assert w.b * w.b - 4 * w.a * w.c != 0
            assert w.gcd_degree == 0

    def test_unit_gcd_for_x_squared_minus_one(self):
        # gcd(x^2 + 1, 2x) over Q has degree 0
        report = coprimality_check(iterate_pair(1), trials=1, seed=0)
        assert all(w.gcd_degree == 0 for w in report.witnesses)

    def test_degenerate_probes_recorded_not_asserted(self):
        report = coprimality_check(iterate_pair(1), trials=1, seed=0)
        probed = {(w.a, w.b, w.c) for w in report.degenerate_probes}
        assert (1, 2, 1) in probed
        for w in report.degenerate_probes:
            assert w.b * w.b - 4 * w.a * w.c == 0
        # the verdict ignores the probes entirely
        assert report.passed

    def test_report_round_trip_fields(self):
        report = coprimality_check(iterate_pair(1), trials=3, seed=5)
        data = report.to_dict()
        assert data["verdict"] == "pass"
        assert data["seed"] == 5
        assert len(data["witnesses"]) == 3
        assert data["resultant"] is not None

    def test_determinism(self):
        first = coprimality_check(iterate_pair(2), trials=8, seed=42)
        second = coprimality_check(iterate_pair(2), trials=8, seed=42)
        assert first.to_dict() == second.to_dict()

    @pytest.mark.parametrize("n", range(8))
    def test_modular_gcd_matches_rational_euclid(self, n):
        # Every seed-42 witness and every degenerate probe: the GF(2^61 - 1)
        # degree the report prints equals the degree over Q.
        pair = iterate_pair(n)
        report = coprimality_check(pair, trials=10, seed=42)
        for w in report.witnesses + report.degenerate_probes:
            assert w.gcd_degree == rational_gcd_degree(pair, w.a, w.b, w.c), (w.a, w.b, w.c)

    def test_modular_gcd_matches_rational_euclid_on_probes_at_n8(self):
        pair = NewtonPair(8, closed_p(8), closed_q(8))
        report = coprimality_check(pair, trials=1, seed=42)
        for w in report.degenerate_probes:
            assert w.gcd_degree == rational_gcd_degree(pair, w.a, w.b, w.c), (w.a, w.b, w.c)

    def test_requires_a_trial(self):
        with pytest.raises(ValueError):
            coprimality_check(iterate_pair(1), trials=0)
