import argparse
import contextlib
import json
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from newtonpoly import cli, closedform, newton, qalgebra, quadfield
from newtonpoly.errors import StructuralError
from newtonpoly.newton import QuadraticCoeffs, iterate_value
from newtonpoly.polyring import ABCX, CANONICAL_ORDER, MultiPoly, VariableSet

# 1, 300 zeros, 1, over 7: from the 4th Newton iterate on, numerator and
# denominator run past Python's default 4300-digit int/str limit.
HUGE_SAMPLE = "1" + "0" * 300 + "1/7"


def run_cli(*args, **kwargs):
    return subprocess.run([sys.executable, "-m", "newtonpoly.cli", *args],
                          capture_output=True, text=True, **kwargs)


class TestGenerate:
    def test_latex_n1(self):
        result = run_cli("generate", "--n", "1", "--method", "closed", "--format", "latex")
        assert result.returncode == 0
        assert result.stdout == "a x^{2} - c\n2 a x + b\n"

    def test_text_n0(self):
        result = run_cli("generate", "--n", "0", "--method", "recurrence", "--format", "text")
        assert result.returncode == 0
        assert result.stdout == "P = x\nQ = 1\n"

    def test_json_n2_term_counts(self):
        result = run_cli("generate", "--n", "2", "--method", "recurrence", "--format", "json")
        payload = json.loads(result.stdout)
        assert payload["n"] == 2
        assert len(payload["p"]["terms"]) == 5
        assert len(payload["q"]["terms"]) == 6

    @pytest.mark.parametrize("n", range(4))
    def test_methods_emit_identical_bytes(self, n):
        recurrence = run_cli("generate", "--n", str(n), "--method", "recurrence")
        closed = run_cli("generate", "--n", str(n), "--method", "closed")
        assert recurrence.stdout == closed.stdout
        again = run_cli("generate", "--n", str(n), "--method", "recurrence")
        assert again.stdout == recurrence.stdout

    def test_round_trip_of_emitted_polynomials(self):
        result = run_cli("generate", "--n", "3")
        payload = json.loads(result.stdout)
        for key in ("p", "q"):
            poly = MultiPoly.from_dict(payload[key])
            assert poly.to_dict() == payload[key]

    def test_rootform_requires_coefficients(self):
        result = run_cli("generate", "--n", "1", "--method", "rootform")
        assert result.returncode == 2

    def test_rootform_output(self):
        result = run_cli("generate", "--n", "1", "--method", "rootform",
                         "--a", "1", "--b", "0", "--c", "-1")
        payload = json.loads(result.stdout)
        assert payload["coeffs"] == {"a": "1", "b": "0", "c": "-1"}
        assert payload["p"]["terms"] == [{"exp": [2], "coeff": "1"},
                                         {"exp": [0], "coeff": "1"}]

    def test_rootform_degenerate_exits_1(self):
        result = run_cli("generate", "--n", "1", "--method", "rootform",
                         "--a", "1", "--b", "2", "--c", "1")
        assert result.returncode == 1

    def test_cap_exit_code(self):
        result = run_cli("generate", "--n", "12")
        assert result.returncode == 3
        result = run_cli("generate", "--n", "4", "--cap", "3")
        assert result.returncode == 3
        result = run_cli("generate", "--n", "4", "--cap", "4", "--format", "text")
        assert result.returncode == 0

    def test_out_file(self, tmp_path):
        target = tmp_path / "pair.json"
        result = run_cli("generate", "--n", "1", "--out", str(target))
        assert result.returncode == 0
        assert result.stdout == ""
        assert json.loads(target.read_text())["n"] == 1

    def test_audit_records(self, tmp_path):
        target = tmp_path / "audit.jsonl"
        run_cli("generate", "--n", "2", "--method", "closed", "--audit", str(target))
        records = [json.loads(line) for line in target.read_text().splitlines()]
        assert {r["poly"] for r in records} == {"P", "Q"}
        assert all(set(r) == {"poly", "n", "k", "j", "coeff", "monomial"}
                   for r in records)

    @pytest.mark.parametrize("n", range(7))
    def test_audit_lines_are_json_dumps_of_each_record(self, capsys, tmp_path, n):
        target = tmp_path / "audit.jsonl"
        assert cli.main(["generate", "--n", str(n), "--method", "closed",
                         "--audit", str(target)]) == 0
        capsys.readouterr()
        expected = [json.dumps(r.to_dict()) + "\n" for r in closedform.closed_audit(n)]
        assert target.read_text(encoding="utf-8").splitlines(keepends=True) == expected

    def test_audit_requires_closed_method(self, tmp_path):
        result = run_cli("generate", "--n", "2", "--audit", str(tmp_path / "a.jsonl"))
        assert result.returncode == 2

    @pytest.mark.parametrize("method", ["recurrence", "rootform"])
    def test_audit_refused_before_any_construction(self, monkeypatch, capsys, tmp_path,
                                                   method):
        def refuse(*args, **kwargs):
            raise AssertionError("a pair was built before the usage error")
        monkeypatch.setattr(cli.newton, "iterate_pair", refuse)
        monkeypatch.setattr(cli.newton, "walk_to", refuse)
        monkeypatch.setattr(cli.quadfield, "root_form_pair", refuse)
        target = tmp_path / "a.jsonl"
        argv = ["generate", "--n", "8", "--method", method, "--audit", str(target)]
        if method == "rootform":
            argv += ["--a", "2", "--b", "1", "--c=-3"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("usage error: --audit")
        assert not target.exists()

    @pytest.mark.parametrize("method", ["recurrence", "closed"])
    @pytest.mark.parametrize("given", [["--a", "5", "--b", "7", "--c", "9"], ["--c", "9"]])
    def test_coefficients_refused_without_rootform(self, method, given):
        result = run_cli("generate", "--n", "1", "--method", method, *given)
        assert result.returncode == 2
        assert result.stderr.startswith("usage error:")
        assert "only meaningful with --method rootform" in result.stderr
        assert result.stdout == ""


@pytest.mark.parametrize("argv", [
    ("generate", "--n", "1", "--out"),
    ("generate", "--n", "1", "--method", "closed", "--audit"),
    ("eval", "--n", "1", "--a", "1", "--b", "0", "--c=-1", "--x", "2", "--out"),
    ("verify", "lemma1", "--max-n", "2", "--report"),
], ids=lambda argv: " ".join(argv[:1] + argv[-1:]))
def test_unwritable_output_path_is_usage_error(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "out.json"
    assert cli.main([*argv, str(target)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"usage error: cannot write {target}: No such file or directory\n"


class TestEval:
    def test_worked_sample(self):
        result = run_cli("eval", "--n", "1", "--a", "1", "--b", "-3", "--c", "2", "--x", "3")
        assert result.returncode == 0
        assert result.stdout == "7/3\n"

    def test_identity_iterate(self):
        result = run_cli("eval", "--n", "0", "--a", "1", "--b", "0", "--c", "-1", "--x", "5")
        assert result.stdout == "5\n"

    def test_two_steps(self):
        result = run_cli("eval", "--n", "2", "--a", "1", "--b", "0", "--c", "-1", "--x", "2")
        assert result.stdout == "41/40\n"

    def test_fraction_arguments(self):
        # negative fractions need the --opt=value form (argparse quirk)
        result = run_cli("eval", "--n", "1", "--a", "1/2", "--b", "0", "--c=-1/2", "--x", "3")
        assert result.returncode == 0
        assert result.stdout == "5/3\n"

    def test_pole_exits_1(self):
        result = run_cli("eval", "--n", "1", "--a", "1", "--b", "0", "--c", "-1", "--x", "0")
        assert result.returncode == 1
        assert result.stderr == "domain error: Q_1 vanishes at x0 = 0 for these coefficients\n"

    # eval refuses in this order: the quadratic (a = 0 before the cap), then
    # the index, before any recurrence step is taken.
    @pytest.mark.parametrize("n, a, code, line", [
        ("9", "0", 1, "domain error: a = 0: not a quadratic"),
        ("9", "1", 3, "resource cap: n = 9 exceeds the cap 8; raise the cap explicitly"),
        ("-1", "1", 2, "usage error: iteration index must be nonnegative, got -1"),
    ])
    def test_refusals_come_before_any_step(self, monkeypatch, capsys, n, a, code, line):
        sizes = []
        original = newton._step
        monkeypatch.setattr(newton, "_step",
                            lambda p, q, size: sizes.append(size) or original(p, q, size))
        argv = ["eval", "--n", n, "--a", a, "--b", "0", "--c=-1", "--x", "0"]
        assert cli.main(argv) == code
        assert capsys.readouterr() == ("", line + "\n")
        assert sizes == []

    # Every rational flag goes through the parser --samples uses, so a bad
    # value is one usage line, never a ZeroDivisionError traceback.
    # Fraction alone takes each of the six from "1_0" on at least one supported
    # Python; the grammar is ASCII with no spaces or separators on all.  The
    # last two are refused before Fraction would spend seconds expanding them.
    @pytest.mark.parametrize("flag, value", [
        ("x", "1/0"), ("a", "1/0"), ("b", "1/0"), ("c", "1/0"), ("x", "abc"),
        ("x", "1_0"), ("a", "\u0663"), ("x", "\uff13/4"), ("b", " 3"), ("c", "3 "),
        ("x", "1 / 2"), ("x", "1e300000"), ("x", "1e-300000"),
    ], ids=lambda v: v.encode("ascii", "backslashreplace").decode())
    def test_bad_rational_is_usage_error(self, flag, value):
        given = {"a": "1", "b": "0", "c": "-1", "x": "2", flag: value}
        result = run_cli("eval", "--n", "1", *(f"--{name}={v}" for name, v in given.items()))
        assert result.returncode == 2
        assert result.stderr.startswith("usage error:")
        assert result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("text, value", [
        ("3", Fraction(3)), ("-1/2", Fraction(-1, 2)), ("0.25", Fraction(1, 4)),
        ("1e3", Fraction(1000)), ("1e4300", Fraction(10**4300)),
        (HUGE_SAMPLE, Fraction(10**301 + 1, 7)),
    ], ids=["3", "-1/2", "0.25", "1e3", "1e4300", "HUGE_SAMPLE"])
    def test_rational_grammar_accepts(self, text, value):
        assert cli._rational(text) == value


class TestVerify:
    def test_lemma1_passes(self):
        result = run_cli("verify", "lemma1", "--max-n", "64")
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["passed"] is True
        assert report["identity"]["max_n"] == 64

    def test_equivalence_passes(self):
        result = run_cli("verify", "equivalence", "--max-n", "5")
        assert result.returncode == 0
        assert json.loads(result.stdout)["passed"] is True

    def test_smoothness_strict_n1_fails_and_names_the_coefficient(self):
        result = run_cli("verify", "smoothness", "--n", "1", "--mode", "strict")
        assert result.returncode == 1
        report = json.loads(result.stdout)
        bad = [e for e in report["entries"] if not e["smooth"]]
        assert len(bad) == 1
        assert bad[0]["poly"] == "Q"
        assert bad[0]["coefficient_abs"] == "2"

    def test_smoothness_inclusive_n1_passes(self):
        result = run_cli("verify", "smoothness", "--n", "1", "--mode", "inclusive")
        assert result.returncode == 0

    def test_smoothness_requires_n(self):
        result = run_cli("verify", "smoothness")
        assert result.returncode == 2

    def test_coprime_passes(self):
        result = run_cli("verify", "coprime", "--max-n", "3", "--trials", "5", "--seed", "42")
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["seed"] == 42
        assert all(r["verdict"] == "pass" for r in report["reports"])

    def test_conjugacy_passes(self):
        result = run_cli("verify", "conjugacy", "--max-n", "2")
        assert result.returncode == 0

    def test_qconjecture_passes(self):
        result = run_cli("verify", "qconjecture", "--max-n", "2")
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["conjecture"]["passed"] is True

    def test_qbinom_passes(self):
        result = run_cli("verify", "qbinom", "--max-n", "5", "--product-max-n", "8",
                         "--symmetry-max-n", "8")
        assert result.returncode == 0

    @pytest.mark.parametrize("changes, first_failure, sums_and_symmetry_hold", [
        # Weight moved between two q-cells of the middle entries [6, 3] and [4, 2]
        # keeps the q = 1 sum and the symmetry; the product formula fails, first at [4, 2].
        ({6: (3, 4, 5), 4: (2, 1, 2)}, [4, 2, 2], True),
        # One changed cell of [5, 1] breaks all three: [5, 4] is unchanged.
        ({5: (1, 0, None)}, [5, 1, 2], False),
    ], ids=["moved-weight", "changed-cell"])
    def test_qbinom_names_the_first_product_failure(self, monkeypatch, capsys, changes,
                                                    first_failure, sums_and_symmetry_hold):
        honest = qalgebra.qbinomial_int_rows

        def rows():         # only rows above --max-n 3 change, so the theorem still holds
            for n, row in enumerate(honest()):
                if n in changes:
                    k, raised, lowered = changes[n]
                    row = [list(cells) for cells in row]
                    row[k][raised] += 1
                    if lowered is not None:
                        row[k][lowered] -= 1
                yield row
        monkeypatch.setattr(qalgebra, "qbinomial_int_rows", rows)
        argv = ["verify", "qbinom", "--max-n", "3", "--product-max-n", "8",
                "--symmetry-max-n", "8"]
        assert cli.main(argv) == cli.EXIT_FAIL
        report = json.loads(capsys.readouterr().out)
        assert report["theorem"]["passed"] is True
        assert report["product_formula"]["passed"] is False
        assert report["product_formula"]["first_failure"] == first_failure
        assert report["symmetry"]["passed"] is sums_and_symmetry_hold
        assert report["binomial_specialization"]["passed"] is sums_and_symmetry_hold
        assert report["passed"] is False

    def test_report_file_and_determinism(self, tmp_path):
        first = tmp_path / "r1.json"
        second = tmp_path / "r2.json"
        run_cli("verify", "coprime", "--max-n", "2", "--report", str(first))
        run_cli("verify", "coprime", "--max-n", "2", "--report", str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_unknown_suite_is_usage_error(self):
        result = run_cli("verify", "nonsense")
        assert result.returncode == 2

    @pytest.mark.parametrize("argv", [
        ("smoothness", "--n", "-1"),
        ("coprime", "--trials", "0"),
        # a range that would check nothing must not report "passed": true
        ("equivalence", "--max-n", "-1"),
        ("coprime", "--max-n", "-1"),
        ("qconjecture", "--max-n", "-3"),
        ("conjugacy", "--max-n", "0"),
        ("conjugacy", "--min-checked", "0"),
        ("conjugacy", "--min-checked", "-5"),
        ("lemma1", "--max-n", "0"),
        ("lemma1", "--max-n", "1"),
        ("qbinom", "--max-n", "0"),
        ("qbinom", "--max-n", "-1"),
        ("qconjecture", "--commutative-max-n", "-1"),
        ("qbinom", "--product-max-n", "-1"),
        ("qbinom", "--symmetry-max-n", "-1"),
        ("conjugacy", "--samples", "1/0"),
        # a flag the suite does not take must not be silently ignored
        ("smoothness", "--n", "2", "--max-n", "3"),
        ("lemma1", "--cap", "2"),
        ("equivalence", "--trials", "3"),
        ("qbinom", "--samples", "2"),
    ], ids=" ".join)
    def test_bad_range_is_usage_error(self, argv):
        result = run_cli("verify", *argv)
        assert result.returncode == 2
        assert result.stderr.startswith("usage error:")
        assert "Traceback" not in result.stderr
        assert result.stdout == ""

    # One point listed twice would count twice toward --min-checked.
    @pytest.mark.parametrize("samples, message", [
        ("2,2,2,2,2,4/2,2,2,2,2", "repeated sample '2', the same point as '2'"),
        ("1/2,3,-7/2,0.5", "repeated sample '0.5', the same point as '1/2'"),
        ("-1/3,4,-2/6", "repeated sample '-2/6', the same point as '-1/3'"),
    ])
    def test_repeated_sample_is_usage_error(self, samples, message):
        result = run_cli("verify", "conjugacy", "--max-n", "1", "--min-checked", "10",
                         f"--samples={samples}")
        assert result.returncode == 2
        assert result.stderr == ("usage error: newtonpoly verify conjugacy: "
                                 f"argument --samples: {message}\n")
        assert result.stdout == ""

    def test_distinct_samples_keep_their_order(self):
        assert cli._samples("3,-1/2,0.25,1e1") == (3, Fraction(-1, 2), Fraction(1, 4), 10)

    @pytest.mark.parametrize("check", [
        lambda: closedform.lemma1_check(0),
        lambda: closedform.lemma1_check(-3),
        lambda: closedform.lemma1_recurrence_check(1),
        lambda: closedform.lemma1_recurrence_check(0),
        lambda: qalgebra.qbinomial_theorem_check(0),
        lambda: qalgebra.qbinomial_theorem_check(-1),
        lambda: quadfield.conjugacy_check(QuadraticCoeffs(1, 0, -2), 0, [1]),
    ], ids=["lemma1-0", "lemma1--3", "recurrence-1", "recurrence-0", "qbinom-0", "qbinom--1",
            "conjugacy-0"])
    def test_library_check_refuses_a_range_that_checks_nothing(self, check):
        # The library, like the CLI's minimums above, refuses rather than pass vacuously.
        with pytest.raises(StructuralError, match="must be"):
            check()

    def test_qconjecture_cap_bounds_commutative_range(self):
        result = run_cli("verify", "qconjecture", "--max-n", "0", "--commutative-max-n", "5")
        assert result.returncode == 3
        assert result.stderr.startswith("resource cap:")
        assert "Traceback" not in result.stderr

    def test_conjugacy_honours_cap(self):
        result = run_cli("verify", "conjugacy", "--max-n", "3", "--cap", "2")
        assert result.returncode == 3
        assert result.stderr.startswith("resource cap:")
        assert "Traceback" not in result.stderr
        assert result.stdout == ""

    def test_equivalence_builds_one_closed_pair_per_n(self, monkeypatch, capsys):
        calls = []
        original = closedform.closed_grids
        monkeypatch.setattr(closedform, "closed_grids",
                            lambda n, **kw: calls.append((n, kw.get("cap"))) or original(n, **kw))
        assert cli.main(["verify", "equivalence", "--cap", "6"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True
        assert calls == [(n, 6) for n in range(6)]

    # A closed-form term off the grading, outside the grid, or on a cell
    # already filled makes that n a mismatch: no IndexError, no overwrite.
    # At n = 2 P has 3 rows; the leading term moved to row 3 keeps both
    # grading sums, with a negative b exponent.
    @pytest.mark.parametrize("mutate", [
        lambda terms: [(k, j, t, (i, b + 1, c, e)) for k, j, t, (i, b, c, e) in terms[:1]]
        + terms[1:],
        lambda terms: [(k, j, t, (i + 3, b - 6, c + 3, e)) for k, j, t, (i, b, c, e) in terms[:1]]
        + terms[1:],
        lambda terms: terms + terms[-1:],
    ], ids=["b-exponent-plus-one", "c-past-the-last-row", "two-on-one-cell"])
    def test_closed_grid_mutation_is_a_mismatch(self, monkeypatch, capsys, mutate):
        original = closedform.p_contributions
        monkeypatch.setattr(closedform, "p_contributions",
                            lambda n, row: mutate(list(original(n, row))) if n == 2
                            else original(n, row))
        assert cli.main(["verify", "equivalence", "--max-n", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        assert [entry["recurrence_equals_closed"] for entry in report["per_n"]] == [
            True, True, False, True]
        assert [entry["match"] for entry in report["rootform"] if entry["n"] == 2] == [False] * 5

    def test_grid_paths_build_no_polynomial(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a polynomial was built")

        for target, name in ((newton, "_lift"), (MultiPoly, "evaluate"),
                             (closedform, "closed_p"), (closedform, "closed_q")):
            monkeypatch.setattr(target, name, refuse)
        assert cli.main(["eval", "--n", "6", "--a=3/2", "--b=-7/3", "--c=1/5", "--x=4/3"]) == 0
        capsys.readouterr()
        assert cli.main(["verify", "equivalence", "--max-n", "6", "--rootform-max-n=-1"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True
        assert cli.main(["generate", "--n", "6"]) == 0

    def test_qconjecture_builds_each_pair_once(self, monkeypatch, capsys):
        # --commutative-max-n 3 needs the pairs n = 0..3, so three packed
        # recurrence steps, shared with the conjecture check.
        calls = []
        original = qalgebra._nc_step
        monkeypatch.setattr(qalgebra, "_nc_step",
                            lambda *args: calls.append(1) or original(*args))
        argv = ["verify", "qconjecture", "--max-n", "2", "--commutative-max-n", "3"]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True
        assert len(calls) == 3

    def test_qconjecture_specializes_each_c_row_at_q_1(self, monkeypatch, capsys):
        # At q = y = 1 a c-row of a slice sums into one cell of the commutative grid:
        # weight moved between two q-cells of the row keeps the specialization and
        # breaks the conjecture; one changed cell breaks both.
        honest = qalgebra.nc_walk

        def walk():
            for n, (p, q) in enumerate(honest()):
                if n == 2:
                    p = [list(cells) for cells in p]
                    p[2][0] += 1        # slice 2 at N = 4: c-rows of 5 q-cells
                    p[2][1] -= 1
                if n == 3:
                    q = [list(cells) for cells in q]
                    q[1][0] += 1
                yield p, q
        monkeypatch.setattr(qalgebra, "nc_walk", walk)
        argv = ["verify", "qconjecture", "--max-n", "3", "--commutative-max-n", "3"]
        assert cli.main(argv) == cli.EXIT_FAIL
        report = json.loads(capsys.readouterr().out)
        assert [entry["match"] for entry in report["conjecture"]["per_n"]] == [
            True, True, False, False]
        assert [entry["match"] for entry in report["commutative_specialization"]] == [
            True, True, True, False]

    @pytest.mark.parametrize("argv, steps", [
        (["verify", "equivalence", "--max-n", "5", "--rootform-max-n", "0"], 5),
        (["verify", "coprime", "--max-n", "3", "--trials", "1"], 3),
        (["verify", "qconjecture", "--max-n", "1", "--commutative-max-n", "3"], 3),
    ])
    def test_each_suite_walks_the_commutative_pairs_once(self, monkeypatch, capsys, argv,
                                                          steps):
        sizes = []
        original = newton._step
        monkeypatch.setattr(newton, "_step",
                            lambda p, q, size: sizes.append(size) or original(p, q, size))
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True
        assert sizes == [2 ** k for k in range(steps)]

    @pytest.mark.parametrize("suite", ["equivalence", "coprime"])
    def test_cap_is_refused_before_the_walk_takes_the_step(self, monkeypatch, capsys, suite):
        sizes = []
        original = newton._step
        monkeypatch.setattr(newton, "_step",
                            lambda p, q, size: sizes.append(size) or original(p, q, size))
        assert cli.main(["verify", suite, "--max-n", "5", "--cap", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "resource cap: n = 3 exceeds the cap 2; raise the cap explicitly\n"
        assert sizes == [1, 2]

    def test_rootform_range_may_be_empty(self):
        result = run_cli("verify", "equivalence", "--max-n", "1", "--rootform-max-n=-1")
        assert result.returncode == 0
        assert json.loads(result.stdout)["rootform"] == []

    @pytest.mark.parametrize("max_n, rootform_max_n, checked", [(1, 4, 1), (3, 2, 2)])
    def test_equivalence_reports_the_rootform_bound_it_checked(self, max_n, rootform_max_n,
                                                               checked):
        result = run_cli("verify", "equivalence", "--max-n", str(max_n),
                         "--rootform-max-n", str(rootform_max_n))
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["rootform_max_n"] == checked
        assert {entry["n"] for entry in report["rootform"]} == set(range(checked + 1))


# Every report the package writes, at small n: its bytes must be the layout
# json.dumps(indent=2) gives, since only some reports have a golden.  eval
# prints a bare rational, which is JSON when it is an integer, as here.
@pytest.mark.parametrize("argv, code", [
    (["generate", "--n", "2", "--method", "recurrence"], 0),
    (["generate", "--n", "2", "--method", "closed"], 0),
    (["generate", "--n", "2", "--method", "rootform", "--a", "2", "--b", "1", "--c=-3"], 0),
    (["eval", "--n", "2", "--a", "1", "--b", "0", "--c=-1", "--x", "1"], 0),
    (["verify", "equivalence", "--max-n", "2", "--rootform-max-n", "1"], 0),
    (["verify", "smoothness", "--n", "2"], 0),
    (["verify", "smoothness", "--n", "1", "--mode", "strict"], 1),
    (["verify", "lemma1", "--max-n", "4"], 0),
    (["verify", "coprime", "--max-n", "2", "--trials", "2"], 0),
    (["verify", "conjugacy", "--max-n", "1", "--min-checked", "1"], 0),
    (["verify", "qconjecture", "--max-n", "1", "--commutative-max-n", "1"], 0),
    (["verify", "qbinom", "--max-n", "2", "--product-max-n", "2", "--symmetry-max-n", "2"], 0),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_output_has_the_standard_layout(capsys, argv, code):
    assert cli.main(argv) == code
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


# Lone surrogates, control characters, quotes and backslashes, with any
# other code point, as strings and as keys.
JSON_TEXT = st.text(st.characters(exclude_categories=())
                    | st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028\ud800\udfff\xe9\U0001f600'))
BIG_INTS = st.integers(10**999, 10**1000) | st.integers(-10**1000, -10**999)
JSON_SCALARS = st.none() | st.booleans() | st.integers() | JSON_TEXT | BIG_INTS


def json_containers(children):
    return (st.lists(children) | st.lists(children).map(tuple)
            | st.dictionaries(JSON_TEXT, children))


JSON_VALUES = st.recursive(JSON_SCALARS, json_containers, max_leaves=40)


@st.composite
def polynomials(draw) -> MultiPoly:
    """0-4 variables, up to 6 terms, coefficients past the int/str digit limit too."""
    varset = VariableSet(draw(st.sets(st.sampled_from(CANONICAL_ORDER), max_size=4)))
    monomials = st.tuples(*[st.integers(0, 12)] * len(varset))
    coeffs = (st.integers() | BIG_INTS
              | st.integers(10**4300, 10**4301) | st.integers(-10**4301, -10**4300))
    return MultiPoly(varset, draw(st.dictionaries(monomials, coeffs, max_size=6)))


# Report-shaped trees with polynomial leaves at any depth.
POLY_TREES = st.recursive(JSON_SCALARS | polynomials(), json_containers, max_leaves=12)


def plain(obj):
    """obj with each MultiPoly replaced by its to_dict()."""
    if isinstance(obj, MultiPoly):
        return obj.to_dict()
    if isinstance(obj, dict):
        return {key: plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(value) for value in obj]
    return obj


@contextlib.contextmanager
def digit_limit(limit: int):
    """sys.set_int_max_str_digits(limit) for the block; 0 lifts the limit."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


class ReprInt(int):
    """An int subclass whose own repr json.dumps must not use."""

    def __repr__(self) -> str:
        return "ReprInt"


class TestCanonicalJson:
    """canonical_json against the layout it reproduces, json.dumps(indent=2)."""

    @staticmethod
    def reference(obj) -> str:
        return json.dumps(obj, indent=2) + "\n"

    @given(JSON_VALUES)
    @example([])
    @example({})
    @example([[], {}, [[{}]], {"a": {"b": [[]], "c": {}}}, ()])
    @example({"": [True, False, None, 0, -1]})
    @example([1, True])
    @example({"a": 1, "b": False, "c": None, "d": True})
    @example([ReprInt(5), 5, -5, ReprInt(5)])
    @example({"a": ReprInt(-7), "b": -7})
    @example([-1, -2, -1, 0, -10 ** 40, {"a": -3, "b": -3}, {"a": -3, "b": -3}])
    def test_matches_json_dumps(self, obj):
        assert cli.canonical_json(obj) == self.reference(obj)

    @given(JSON_VALUES)
    def test_shared_subobject(self, value):
        shared = [value, {"k": value}]
        obj = {"left": shared, "right": [shared, (shared,)]}
        assert cli.canonical_json(obj) == self.reference(obj)

    def test_cycle_is_value_error(self):
        looped = [1]
        looped.append({"back": looped})
        with pytest.raises(ValueError, match="Circular reference"):
            cli.canonical_json({"top": looped})

    @pytest.mark.parametrize("obj", [0.5, [1, 2.0], {"a": {"b": 1e3}}, {1: "a"}, {1: 2},
                                     [{"a": 1, 2: 3}], {"a": [{(1,): 2}]}, {"a": {1, 2}},
                                     Fraction(1, 2)],
                             ids=repr)
    def test_unsupported_type_is_type_error(self, obj):
        with pytest.raises(TypeError):
            cli.canonical_json(obj)

    @pytest.mark.parametrize("obj", [[1, 10 ** 4300], {"a": 1, "b": -10 ** 4300}],
                             ids=["list", "dict"])
    def test_int_past_the_digit_limit_is_value_error(self, obj):
        with digit_limit(4300):
            with pytest.raises(ValueError, match="digits"):
                cli.canonical_json(obj)

    def test_int_text_table_is_bounded(self):
        # Every item is distinct, so a table that kept them all would hold
        # one tuple and one text per item beside the output.
        obj = [{"v": i, "w": -i} for i in range(20000)]
        tracemalloc.start()
        try:
            text = cli.canonical_json(obj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == self.reference(obj)
        assert peak < 5 * len(text)

    @given(POLY_TREES)
    @example(MultiPoly.zero(VariableSet("")))
    @example(MultiPoly.constant(VariableSet(""), -7))
    @example({"vars": [MultiPoly.zero(ABCX)], "terms": {"": [[MultiPoly.one(ABCX)]]}})
    @example([[[[[MultiPoly(ABCX, {(1, 2, 3, 4): 5, (0, 0, 0, 0): -6})]]]]])
    def test_polynomial_is_written_as_its_dict(self, obj):
        with digit_limit(0):
            text = cli.canonical_json(obj)
            assert text == cli.canonical_json(plain(obj))
            assert text == self.reference(plain(obj))

    @pytest.mark.parametrize("method", ["recurrence", "closed"])
    def test_generate_writes_the_pair_dict(self, capsys, method):
        for n in range(9):
            pair = cli._build_pair(n, method, n)
            assert cli.main(["generate", "--n", str(n), "--method", method]) == 0
            assert capsys.readouterr().out == cli.canonical_json(pair.to_dict())

    @pytest.mark.parametrize("a, b, c", cli.REFERENCE_TRIPLES)
    def test_generate_rootform_writes_the_polynomial_dicts(self, capsys, a, b, c):
        p, q = quadfield.root_form_pair(QuadraticCoeffs(a, b, c), 8)
        assert cli.main(["generate", "--method", "rootform", "--n", "8",
                         f"--a={a}", f"--b={b}", f"--c={c}"]) == 0
        expected = {"n": 8, "coeffs": {"a": str(a), "b": str(b), "c": str(c)},
                    "p": p.to_dict(), "q": q.to_dict()}
        assert capsys.readouterr().out == cli.canonical_json(expected)

    def test_pair_json_peaks_below_two_and_a_half_texts(self):
        pair = newton.iterate_pair(6)
        tracemalloc.start()
        try:
            text = cli.canonical_json({"n": pair.n, "p": pair.p, "q": pair.q})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * len(text)

    def test_bare_pair_is_a_list(self):
        pair = newton.iterate_pair(2)
        assert cli.canonical_json(pair) == self.reference([2, pair.p.to_dict(), pair.q.to_dict()])

    def test_coefficient_past_the_digit_limit_is_value_error(self):
        huge = 10 ** 4300
        with digit_limit(4300):
            with pytest.raises(ValueError, match="digits"):
                str(huge)
            with pytest.raises(ValueError, match="digits"):
                cli.canonical_json({"p": MultiPoly(ABCX, {(0, 0, 0, 1): huge})})


class TestDigitLimit:
    def test_eval_prints_past_the_limit(self):
        result = run_cli("eval", "--n", "4", "--a", "1", "--b", "0", "--c=-1",
                         "--x", HUGE_SAMPLE)
        assert result.returncode == 0, result.stderr
        with digit_limit(0):
            stepwise = iterate_value(QuadraticCoeffs(1, 0, -1), Fraction(HUGE_SAMPLE), 4)
            assert result.stdout == f"{stepwise}\n"

    def test_conjugacy_reports_past_the_limit(self):
        result = run_cli("verify", "conjugacy", "--max-n", "4", "--samples", HUGE_SAMPLE,
                         "--min-checked", "1")
        assert result.returncode == 0, result.stderr
        with digit_limit(0):
            for entry in json.loads(result.stdout)["results"]:
                report = entry["report"]
                coeffs = QuadraticCoeffs(*(report["coeffs"][k] for k in "abc"))
                stepwise = iterate_value(coeffs, Fraction(HUGE_SAMPLE), report["n"])
                assert [t["newton_value"] for t in report["traces"]] == [str(stepwise)]

    def test_main_restores_the_limit(self, capsys):
        before = sys.get_int_max_str_digits()
        assert cli.main(["eval", "--n", "4", "--a", "1", "--b", "0", "--c=-1",
                         "--x", HUGE_SAMPLE]) == 0
        assert sys.get_int_max_str_digits() == before
        assert len(capsys.readouterr().out) > 4300


def all_parsers(parser):
    """The parser and every subparser below it, top first."""
    found = [parser]
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                found += all_parsers(child)
    return found


EVAL_ARGV = ["eval", "--n", "2", "--a", "1", "--b", "0", "--c=-1", "--x", "2"]


class TestPrebuiltParser:
    """``main`` parses with ``cli.PARSER``, built at import and only read."""

    def test_parsing_leaves_the_parser_unchanged(self, capsys):
        parsers = all_parsers(cli.PARSER)
        assert len(parsers) == 11
        before = [parser.format_help() for parser in parsers]
        assert cli.main(EVAL_ARGV) == 0                                          # pass
        assert cli.main(["eval", "--n", "1", "--a", "1", "--b", "0", "--c=-1",
                         "--x", "1/0"]) == 2                                     # bad rational
        assert cli.main(["generate", "--n", "12"]) == 3                         # cap refusal
        assert cli.main(["eval", "--n", "1", "--a", "1", "--b", "0", "--c=-1",
                         "--x", "0"]) == 1                                       # domain error
        capsys.readouterr()
        assert [parser.format_help() for parser in parsers] == before

    @pytest.mark.parametrize("argv", [EVAL_ARGV, ["verify", "conjugacy"],
                                      ["generate", "--n", "3", "--method", "closed"]],
                             ids=" ".join)
    def test_same_argv_same_namespace(self, argv):
        assert vars(cli.PARSER.parse_args(argv)) == vars(cli.PARSER.parse_args(argv))

    def test_main_builds_no_parser(self, monkeypatch, capsys):
        def refuse():
            raise AssertionError("main built a parser")
        monkeypatch.setattr(cli, "build_parser", refuse)
        assert cli.main(EVAL_ARGV) == 0
        assert capsys.readouterr().out == "41/40\n"
