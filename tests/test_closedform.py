import ast
import inspect
import json
import math
from pathlib import Path

import pytest

from newtonpoly import cli, closedform
from newtonpoly.closedform import (
    binomial,
    closed_audit,
    closed_grids,
    closed_p,
    closed_q,
    lemma1_check,
    lemma1_recurrence_check,
    lemma1_rhs,
    lemma1_row,
    power_difference,
)
from newtonpoly.errors import ResourceCapError
from newtonpoly.newton import _lift, iterate_pair, pair_terms, walk
from newtonpoly.polyring import ABCX, XY, MultiPoly


def term(coeff, **powers):
    return MultiPoly.term(ABCX, coeff, **powers)


P2_EXPECTED = (term(1, a=3, x=4) + term(-6, a=2, c=1, x=2)
               + term(-4, a=1, b=1, c=1, x=1) + term(1, a=1, c=2) + term(-1, b=2, c=1))
Q2_EXPECTED = (term(4, a=3, x=3) + term(6, a=2, b=1, x=2) + term(4, a=1, b=2, x=1)
               + term(-4, a=2, c=1, x=1) + term(1, b=3) + term(-2, a=1, b=1, c=1))


class TestBinomial:
    def test_small_values(self):
        assert binomial(4, 2) == 6
        assert binomial(8, 3) == 56

    def test_out_of_range_is_zero(self):
        assert binomial(0, 1) == 0
        assert binomial(5, -1) == 0
        assert binomial(3, 7) == 0

    def test_negative_row_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    @pytest.mark.parametrize("m", range(65))
    def test_lemma1_row_is_the_nonzero_range(self, m):
        # The loop that ran over every i < m and skipped the zero entries.
        skipping = [(-1) ** i * binomial(m - i - 1, i) for i in range(m)
                    if binomial(m - i - 1, i) != 0]
        assert lemma1_row(m) == skipping
        assert 0 not in lemma1_row(m)

    def test_diagonal_walk_equals_math_comb(self):
        for m in [*range(513), 1023, 1024, 1025]:
            expected = [(-1) ** j * math.comb(m - j - 1, j) for j in range((m + 1) // 2)]
            assert lemma1_row(m) == expected, m

    def test_pascal_identity(self):
        for n in range(1, 21):
            for k in range(n + 1):
                assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


class TestClosedForms:
    def test_n0(self):
        assert closed_p(0) == MultiPoly.variable(ABCX, "x")
        assert closed_q(0) == MultiPoly.one(ABCX)

    def test_n1(self):
        assert closed_p(1) == term(1, a=1, x=2) + term(-1, c=1)
        assert closed_q(1) == term(2, a=1, x=1) + term(1, b=1)

    def test_n2_hand_expansion(self):
        assert closed_p(2) == P2_EXPECTED
        assert closed_q(2) == Q2_EXPECTED

    @pytest.mark.parametrize("n", range(6))
    def test_matches_recurrence(self, n):
        pair = iterate_pair(n)
        assert closed_p(n) == pair.p
        assert closed_q(n) == pair.q

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            closed_p(9)
        with pytest.raises(ResourceCapError):
            closed_q(6, cap=5)
        with pytest.raises(ResourceCapError):
            closed_grids(9)

    def test_grids_equal_the_walk_grids(self):
        for (n, p, q), _ in zip(walk(), range(9)):
            assert closed_grids(n) == (p, q)

    @pytest.mark.parametrize("n", range(9))
    def test_grids_lift_to_the_polynomials(self, n):
        assert tuple(map(_lift, pair_terms(n, *closed_grids(n)))) == (closed_p(n), closed_q(n))


class TestAudit:
    def test_records_rebuild_the_polynomials(self):
        for n in range(4):
            acc = {"P": MultiPoly.zero(ABCX), "Q": MultiPoly.zero(ABCX)}
            for record in closed_audit(n):
                acc[record.poly] = acc[record.poly] + MultiPoly(
                    ABCX, {record.monomial: record.coeff})
            assert acc["P"] == closed_p(n)
            assert acc["Q"] == closed_q(n)

    @pytest.mark.parametrize("n", range(9))
    def test_one_record_per_monomial(self, n):
        records = closed_audit(n)
        assert len({(r.poly, r.monomial) for r in records}) == len(records)
        assert len(records) == len(closed_p(n)) + len(closed_q(n))

    def test_every_record_is_a_product_of_two_binomials(self):
        for n in range(4):
            size = 2 ** n
            for r in closed_audit(n):
                if r.poly == "P" and r.k == size:
                    assert r.coeff == 1    # leading a^(2^n - 1) x^(2^n)
                    continue
                inner_top = size - r.k - r.j - (2 if r.poly == "P" else 1)
                assert inner_top < size
                assert abs(r.coeff) == binomial(size, r.k) * binomial(inner_top, r.j)

    def test_known_record_n3(self):
        # k = 1, j = 2 contribution to P_3: -C(8,1) C(3,2) a^3 b c^3 x
        records = [r for r in closed_audit(3) if r.poly == "P" and r.k == 1 and r.j == 2]
        assert len(records) == 1
        assert records[0].coeff == -24
        assert records[0].monomial == (3, 1, 3, 1)

    def test_record_dict_shape(self):
        record = closed_audit(2)[0].to_dict()
        assert set(record) == {"poly", "n", "k", "j", "coeff", "monomial"}
        assert isinstance(record["coeff"], str)


class TestPowerDifferenceIdentity:
    def test_n1_and_n2(self):
        x, y = MultiPoly.variable(XY, "x"), MultiPoly.variable(XY, "y")
        assert lemma1_rhs(1) == x - y
        assert lemma1_rhs(2) == x * x - y * y

    def test_n5_inner_structure(self):
        # rhs(5) = (x - y)(x^4 + x^3 y + x^2 y^2 + x y^3 + y^4) = x^5 - y^5
        x, y = MultiPoly.variable(XY, "x"), MultiPoly.variable(XY, "y")
        geometric = MultiPoly(XY, {(4 - i, i): 1 for i in range(5)})
        assert lemma1_rhs(5) == (x - y) * geometric
        assert lemma1_rhs(5) == power_difference(5)

    def test_identity_up_to_64(self):
        report = lemma1_check(64)
        assert report.passed
        assert report.first_failure is None

    def test_recurrence_up_to_32(self):
        assert lemma1_recurrence_check(32).passed

    def test_rejects_n0(self):
        with pytest.raises(ValueError):
            lemma1_rhs(0)

    def test_row_expansion_equals_multipoly_horner(self):
        for n in range(1, 101):
            assert lemma1_rhs(n) == horner_lemma1_rhs(n), n


def horner_lemma1_rhs(n):
    """The right-hand side by Horner's rule in MultiPoly products, as lemma1_rhs took it
    before it expanded on a coefficient row; the row is taken with math.comb."""
    x, y = MultiPoly.variable(XY, "x"), MultiPoly.variable(XY, "y")
    plus = x + y
    acc = MultiPoly.zero(XY)
    for i in range((n + 1) // 2):
        acc = acc * (plus * plus) + MultiPoly.term(XY, (-1) ** i * math.comb(n - i - 1, i), x=i, y=i)
    return (x - y) * (acc if n % 2 else acc * plus)


ORIGINAL_LEMMA1_ROW = closedform.lemma1_row


def flip_entry_one(m):
    """lemma1_row with the sign of entry j = 1 flipped; the first such row is m = 3."""
    row = ORIGINAL_LEMMA1_ROW(m)
    if len(row) > 1:
        row[1] = -row[1]
    return row


class DropEvenFactor(ast.NodeTransformer):
    """Drops lemma1_rhs's trailing x + y for even n: the statement ``if n % 2 == 0: ...``."""

    dropped = 0

    def visit_If(self, node):
        if ast.unparse(node.test) == "n % 2 == 0":
            self.dropped += 1
            return None
        return node


def even_factor_mutant():
    tree = ast.parse(inspect.getsource(closedform.lemma1_rhs))
    transformer = DropEvenFactor()
    tree = ast.fix_missing_locations(transformer.visit(tree))
    assert transformer.dropped == 1
    namespace = {}
    exec(compile(tree, "<lemma1_rhs mutant>", "exec"), vars(closedform), namespace)
    return namespace["lemma1_rhs"]


class TestLemma1Mutants:
    """A pass means something only if a wrong row or a wrong expansion fails."""

    def test_row_sign_flip_fails_the_identity_at_3(self, monkeypatch):
        monkeypatch.setattr(closedform, "lemma1_row", flip_entry_one)
        report = lemma1_check(16)
        assert not report.passed
        assert report.first_failure == 3

    def test_row_sign_flip_fails_the_induction_step(self, monkeypatch):
        monkeypatch.setattr(closedform, "lemma1_row", flip_entry_one)
        report = lemma1_recurrence_check(16)
        assert not report.passed
        assert report.first_failure == 3

    def test_row_sign_flip_fails_the_cli_suite(self, monkeypatch, capsys):
        monkeypatch.setattr(closedform, "lemma1_row", flip_entry_one)
        assert cli.main(["verify", "lemma1", "--max-n", "16"]) == 1
        assert json.loads(capsys.readouterr().out)["passed"] is False

    def test_dropped_even_factor_fails_at_2(self, monkeypatch):
        mutant = even_factor_mutant()
        assert mutant(3) == lemma1_rhs(3)    # odd n is untouched
        monkeypatch.setattr(closedform, "lemma1_rhs", mutant)
        report = lemma1_check(16)
        assert not report.passed
        assert report.first_failure == 2
        assert lemma1_recurrence_check(16).first_failure == 2


def test_closed_form_imports_no_other_route():
    # The closed form is checked against the recurrence (newton) and the root
    # form (quadfield); it must not lean on either.
    tree = ast.parse(Path(closedform.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)    # from . import newton
    assert not {part for name in names for part in name.split(".")} & {"newton", "quadfield"}
