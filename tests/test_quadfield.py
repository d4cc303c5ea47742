import math
import random
from fractions import Fraction

import pytest

from newtonpoly.cli import REFERENCE_TRIPLES
from newtonpoly.closedform import closed_p, closed_q
from newtonpoly.errors import DomainError, ResourceCapError, StructuralError
from newtonpoly import quadfield
from newtonpoly.newton import QuadraticCoeffs, iterate_value
from newtonpoly.polyring import X_ONLY, MultiPoly
from newtonpoly.quadfield import ConjugacyReport, SampleTrace, conjugacy_check, root_form_pair

FIVE_TRIPLES = ((1, 0, -1), (1, -3, 2), (2, 1, -3), (1, 0, 1), (3, -2, -1))
# discriminants: 4, 1, 25, -4, 16 — add non-square ones so the radical
# arithmetic is actually exercised
IRRATIONAL_TRIPLES = ((1, 1, -1), (1, 0, 2), (2, -3, -4))
# a < 0 with d = 5 and d = 64: the reference triples have square or negative d
AGREEMENT_TRIPLES = FIVE_TRIPLES + IRRATIONAL_TRIPLES + ((-1, 1, 1), (-3, 2, 5))


def fold(u, v, d):
    """u + v sqrt(d) as a pair of Fractions, a square d's principal root folded into u."""
    root = math.isqrt(d) if d > 0 else 0
    if root * root == d:
        return Fraction(u + v * root), Fraction(0)
    return Fraction(u), Fraction(v)


def field_mul(x, y, d):
    return fold(x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0], d)


def field_sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def quadext_binomial_power(root, n, d):
    """Ascending coefficients of (x - root)^n in Q(sqrt(d)), by the binomial theorem."""
    minus = (-root[0], -root[1])
    coeffs = []
    power_of_root = fold(1, 0, d)
    for k in range(n, -1, -1):
        coeffs.append(field_mul(power_of_root, (math.comb(n, k), 0), d))
        if k:
            power_of_root = field_mul(power_of_root, minus, d)
    coeffs.reverse()
    return coeffs


def quadext_root_form_pair(coeffs, n):
    """The root form summed in the quadratic extension Q(sqrt(d)), the slow route.

    Returns None when a coefficient keeps a radical or fractional part.
    """
    a, b, c = (int(value) for value in (coeffs.a, coeffs.b, coeffs.c))
    d = b * b - 4 * a * c
    r1 = fold(Fraction(-b, 2 * a), Fraction(1, 2 * a), d)
    r2 = fold(Fraction(-b, 2 * a), Fraction(-1, 2 * a), d)
    size = 2 ** n
    around_r2 = quadext_binomial_power(r2, size, d)
    around_r1 = quadext_binomial_power(r1, size, d)
    du, dv = field_sub(r1, r2)
    norm = du * du - d * dv * dv
    scalar = field_mul((a ** (size - 1), 0), (du / norm, -dv / norm), d)   # a^(N-1) / (r1 - r2)
    p = [field_mul(field_sub(field_mul(u, r1, d), field_mul(v, r2, d)), scalar, d)
         for u, v in zip(around_r2, around_r1)]
    q = [field_mul(field_sub(u, v), scalar, d) for u, v in zip(around_r2, around_r1)]
    pair = []
    for values in (p, q):
        if any(v or u.denominator != 1 for u, v in values):
            return None
        pair.append(MultiPoly(X_ONLY, {(k,): int(u) for k, (u, _) in enumerate(values)}))
    return tuple(pair)


def differential_triples():
    """Hand-picked triples, then 40 seeded ones with a != 0 and b^2 - 4ac != 0."""
    # REFERENCE_TRIPLES holds (1, -3, 2) with d = 1 and (1, 0, 1) with d = -4.
    hand_picked = list(REFERENCE_TRIPLES) + [
        (4, 4, -3),                      # perfect-square d = 64
        (2, 1, 3),                       # d = -23
        (-1, 1, 1), (-3, 2, 5),          # a < 0: d = 5, 64
        (1, 1, -1), (5, -7, 1),          # non-square d > 0: 5, 29
    ]
    seeded = []
    rng = random.Random(61)
    while len(seeded) < 40:
        a = rng.choice([i for i in range(-6, 7) if i])
        b, c = rng.randint(-9, 9), rng.randint(-9, 9)
        if b * b != 4 * a * c:
            seeded.append((a, b, c))
    return hand_picked + seeded


def two_power_conjugacy(coeffs, n, samples):
    """conjugacy_check(coeffs, n, samples).to_dict() by the two-power route.

    phi(z) = top / bottom squares top and bottom separately; a perfect-square
    d maps s to isqrt(d), and phi^-1 is rationalized by the conjugate of its
    denominator.
    """
    d = int(coeffs.discriminant)
    a, b = int(coeffs.a), int(coeffs.b)
    root = math.isqrt(d) if d > 0 else 0
    s0, s1 = (root, 0) if root * root == d else (0, 1)      # s, or isqrt(d) for a square d
    traces = []
    for raw in samples:
        z = Fraction(raw)
        try:
            newton_value = iterate_value(coeffs, z, n)
        except DomainError as exc:
            traces.append(SampleTrace(z, "skipped", f"newton route pole: {exc}"))
            continue
        t, q = 2 * a * z.numerator + b * z.denominator, z.denominator
        top, bottom = (t - q * s0, -q * s1), (t + q * s0, q * s1)      # phi(z) = top / bottom
        if bottom == (0, 0):
            traces.append(SampleTrace(z, "skipped", "z equals r2, the pole of phi"))
            continue
        for _ in range(n):
            top, bottom = quadfield._times(top, top, d), quadfield._times(bottom, bottom, d)
        numerator = [x + y for x, y in zip(quadfield._times((s0 - b, s1), bottom, d),
                                           quadfield._times((s0 + b, s1), top, d))]
        conjugate = (2 * a * (bottom[0] - top[0]), 2 * a * (top[1] - bottom[1]))
        u, v = quadfield._times(numerator, conjugate, d)
        norm = conjugate[0] ** 2 - d * conjugate[1] ** 2
        value = (Fraction(u, norm), Fraction(v, norm), d)
        traces.append(SampleTrace(z, "ok", None, newton_value, value,
                                  v == 0 and value[0] == newton_value))
    checked = sum(1 for t in traces if t.status == "ok")
    ok = all(t.match for t in traces if t.status == "ok") and checked > 0
    return ConjugacyReport(
        coeffs=(a, b, int(coeffs.c)), n=n, traces=tuple(traces), checked=checked,
        skipped=len(traces) - checked, verdict="pass" if ok else "fail").to_dict()


class TestTimes:
    def test_multiplication_rule(self):
        # (1 + 2 sqrt5)(3 - sqrt5) = 3 - sqrt5 + 6 sqrt5 - 2*5 = -7 + 5 sqrt5
        assert quadfield._times((1, 2), (3, -1), 5) == (-7, 5)


class TestRoots:
    """The conjugacy check needs two distinct roots of an integer quadratic."""

    def test_double_root_rejected(self):
        with pytest.raises(DomainError):
            conjugacy_check(QuadraticCoeffs(1, 2, 1), 1, [2])

    def test_non_integer_coefficients_rejected(self):
        with pytest.raises(StructuralError):
            conjugacy_check(QuadraticCoeffs(Fraction(1, 2), 0, -1), 1, [2])


class TestConjugacy:
    def test_single_step_samples(self):
        report = conjugacy_check(QuadraticCoeffs(1, 0, -1), 1, [2])
        assert report.passed
        trace = report.traces[0]
        assert trace.newton_value == Fraction(5, 4)
        assert trace.conjugacy_value == (Fraction(5, 4), 0, 4)

    def test_worked_sample_135(self):
        report = conjugacy_check(QuadraticCoeffs(1, -3, 2), 1, [3])
        assert report.passed
        assert report.traces[0].newton_value == Fraction(7, 3)

    def test_fixed_point_sample(self):
        report = conjugacy_check(QuadraticCoeffs(1, -3, 2), 2, [2])
        assert report.passed
        assert report.traces[0].newton_value == 2

    def test_pole_samples_are_skipped_with_reason(self):
        # z = 0 is the critical point of x^2 - 1: the Newton route poles
        report = conjugacy_check(QuadraticCoeffs(1, 0, -1), 1, [0, 2])
        skipped = [t for t in report.traces if t.status == "skipped"]
        assert len(skipped) == 1
        assert "pole" in skipped[0].reason
        assert report.passed
        assert report.checked == 1

    def test_r2_sample_skipped(self):
        report = conjugacy_check(QuadraticCoeffs(1, 0, -1), 1, [-1])
        assert report.traces[0].status == "skipped"
        assert not report.passed      # nothing was actually checked

    @staticmethod
    def assert_agreement(triple, ns):
        samples = [Fraction(s) for s in
                   ("2", "3", "4", "5", "7", "-2", "1/2", "1/3", "2/3", "5/4",
                    "-5/3", "7/5", "9/7", "11/3", "-7/2")]
        for n in ns:
            report = conjugacy_check(QuadraticCoeffs(*triple), n, samples)
            assert report.passed
            assert report.checked >= 10

    @pytest.mark.parametrize("triple", AGREEMENT_TRIPLES)
    def test_agreement_up_to_n4(self, triple):
        self.assert_agreement(triple, range(1, 5))

    @pytest.mark.parametrize("triple", AGREEMENT_TRIPLES)
    def test_agreement_n5_to_n8(self, triple):
        self.assert_agreement(triple, range(5, 9))    # up to the default cap

    @pytest.mark.parametrize("triple", differential_triples())
    def test_matches_two_power_route_up_to_n5(self, triple):
        a, b, c = triple
        d = b * b - 4 * a * c
        root = math.isqrt(d) if d > 0 else 0
        samples = sorted({Fraction(p, q) for p in range(-6, 7) for q in range(1, 4)})
        samples.append(Fraction(-b, 2 * a))
        if root * root == d:
            samples += [Fraction(-b + root, 2 * a), Fraction(-b - root, 2 * a)]   # r1, r2
        elif d > 0:
            samples.append(Fraction(-b - root, 2 * a))    # t = -q isqrt(d), yet not r2
        coeffs = QuadraticCoeffs(*triple)
        for n in range(1, 6):
            report = conjugacy_check(coeffs, n, samples).to_dict()
            assert report == two_power_conjugacy(coeffs, n, samples)
            if d > 0 and root * root != d:
                assert report["traces"][-1]["status"] == "ok"

    def test_cap(self):
        coeffs = QuadraticCoeffs(1, 0, -1)
        with pytest.raises(ResourceCapError):
            conjugacy_check(coeffs, 9, [2])
        with pytest.raises(ResourceCapError):
            conjugacy_check(coeffs, 3, [2], cap=2)
        assert conjugacy_check(coeffs, 2, [2], cap=2).passed

    def test_report_dict(self):
        report = conjugacy_check(QuadraticCoeffs(1, 0, -1), 1, [2, 0])
        data = report.to_dict()
        assert data["verdict"] == "pass"
        assert data["checked"] == 1
        assert len(data["traces"]) == 2


class TestRootForm:
    def test_n0_collapses(self):
        p, q = root_form_pair(QuadraticCoeffs(1, 1, -1), 0)
        assert p == closed_p(0).substitute({"a": 1, "b": 1, "c": -1})
        assert q == closed_q(0).substitute({"a": 1, "b": 1, "c": -1})

    def test_n1_worked_examples(self):
        p, q = root_form_pair(QuadraticCoeffs(1, 0, -1), 1)
        assert p == closed_p(1).substitute({"a": 1, "b": 0, "c": -1})
        assert [c for _, c in p.sorted_terms()] == [1, 1]
        p, q = root_form_pair(QuadraticCoeffs(1, -3, 2), 1)
        assert [c for _, c in q.sorted_terms()] == [2, -3]

    @pytest.mark.parametrize("triple", FIVE_TRIPLES + IRRATIONAL_TRIPLES)
    def test_matches_substituted_closed_forms(self, triple):
        a, b, c = triple
        coeffs = QuadraticCoeffs(a, b, c)
        bindings = {"a": a, "b": b, "c": c}
        for n in range(5):
            p, q = root_form_pair(coeffs, n)
            assert p.varset == q.varset == X_ONLY
            assert p == closed_p(n).substitute(bindings)
            assert q == closed_q(n).substitute(bindings)

    def test_degenerate_discriminant_rejected(self):
        with pytest.raises(DomainError):
            root_form_pair(QuadraticCoeffs(1, 2, 1), 1)

    @pytest.mark.parametrize("triple", differential_triples())
    def test_matches_quadext_route_up_to_n7(self, triple):
        coeffs = QuadraticCoeffs(*triple)
        for n in range(8):
            assert root_form_pair(coeffs, n) == quadext_root_form_pair(coeffs, n)

    @pytest.mark.parametrize("n", [9, 10])
    def test_matches_closed_forms_above_the_default_cap(self, n):
        # The symbolic closed pair at n = 10 takes seconds to build: once per n.
        closed = closed_p(n, cap=10), closed_q(n, cap=10)
        for a, b, c in ((2, 1, -3), (-3, 5, 1)):
            bindings = {"a": a, "b": b, "c": c}
            pair = root_form_pair(QuadraticCoeffs(a, b, c), n, cap=10)
            assert pair == tuple(poly.substitute(bindings) for poly in closed)

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            root_form_pair(QuadraticCoeffs(1, 0, -1), 9)
        with pytest.raises(ResourceCapError):
            root_form_pair(QuadraticCoeffs(1, 0, -1), 3, cap=2)

    def test_non_integer_coefficients_rejected(self):
        with pytest.raises(StructuralError):
            root_form_pair(QuadraticCoeffs(Fraction(1, 2), 0, -1), 1)

    @pytest.mark.parametrize("triple, extra, message", [
        ((1, 1, -1), (1, 0), "P: coefficient 33/16 of x\\^0 is not an integer"),
        ((1, 0, -1), (0, 1), "Q: coefficient 1/8 of x\\^0 is not an integer"),
    ], ids=["fraction", "fraction-q"])
    def test_coefficient_guard(self, monkeypatch, triple, extra, message):
        # Shift the constant coefficient of A = U + V s by e = u + v s: P's
        # constant coefficient gains (u - b v) / (2^N a) and Q's gains
        # v / 2^(N-1), fractions the guard must refuse to round away.
        expand = quadfield._expand

        def shifted(two_a, b, d, size):
            coeffs = expand(two_a, b, d, size)
            u, v = coeffs[0]
            coeffs[0] = (u + extra[0], v + extra[1])
            return coeffs

        monkeypatch.setattr(quadfield, "_expand", shifted)
        with pytest.raises(DomainError, match=message):
            root_form_pair(QuadraticCoeffs(*triple), 2)


class TestCrossRouteValue:
    def test_rootform_evaluates_like_newton_composition(self):
        coeffs = QuadraticCoeffs(1, 1, -1)
        p, q = root_form_pair(coeffs, 3)
        z = Fraction(5, 7)
        numerator = sum(c * z ** power for (power,), c in p.sorted_terms())
        denominator = sum(c * z ** power for (power,), c in q.sorted_terms())
        assert numerator / denominator == iterate_value(coeffs, z, 3)
