import pytest
from hypothesis import given, strategies as st

from newtonpoly.newton import iterate_pair
from newtonpoly import smoothness
from newtonpoly.smoothness import certify_pair, sieve_primes, smooth_part


class TestSieve:
    def test_small_limits(self):
        assert sieve_primes(10) == [2, 3, 5, 7]
        assert sieve_primes(4) == [2, 3]
        assert sieve_primes(2) == []

    def test_limit_below_two_rejected(self):
        with pytest.raises(ValueError):
            sieve_primes(1)

    def test_against_trial_division(self):
        def is_prime(n):
            return n > 1 and all(n % i for i in range(2, int(n ** 0.5) + 1))
        assert sieve_primes(500) == [n for n in range(2, 500) if is_prime(n)]


class TestSmoothPart:
    def test_binomial_56(self):
        part = smooth_part(56, 8, "inclusive")
        assert part.smooth
        assert part.residual == 1
        assert part.factorization == {2: 3, 7: 1}

    def test_prime_above_bound(self):
        part = smooth_part(7, 4)
        assert not part.smooth
        assert part.residual == 7

    def test_unit(self):
        part = smooth_part(1, 100)
        assert part.smooth
        assert part.factorization == {}

    def test_strict_vs_inclusive_boundary(self):
        assert smooth_part(2, 2, "inclusive").smooth
        assert not smooth_part(2, 2, "strict").smooth

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            smooth_part(0, 8)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            smooth_part(6, 8, "fuzzy")

    @given(st.integers(1, 10 ** 9), st.integers(2, 64))
    def test_reconstruction_invariant(self, value, bound):
        part = smooth_part(value, bound)
        assert part.reconstruct() == value
        if part.smooth:
            assert part.residual == 1
            assert all(p <= bound for p in part.factorization)
        else:
            assert part.residual > bound

    @given(st.integers(1, 10 ** 9), st.integers(2, 64), st.sampled_from(smoothness.MODES))
    def test_factorization_keys_ascending(self, value, bound, mode):
        # The report serializes the factorization in key order, unsorted.
        primes = list(smooth_part(value, bound, mode).factorization)
        assert all(p < q for p, q in zip(primes, primes[1:]))


class TestCertifyPair:
    def test_n2_all_smooth(self):
        report = certify_pair(iterate_pair(2))
        assert report.passed
        assert report.bound == 4
        six = [e for e in report.entries if e.coefficient_abs == 6]
        assert six and six[0].factorization == {2: 1, 3: 1}

    def test_n1_inclusive_passes(self):
        report = certify_pair(iterate_pair(1), mode="inclusive")
        assert report.passed

    def test_n1_strict_fails_exactly_on_q_coefficient_two(self):
        report = certify_pair(iterate_pair(1), mode="strict")
        assert not report.passed
        failures = report.failures()
        assert len(failures) == 1
        only = failures[0]
        assert only.poly == "Q"
        assert only.coefficient_abs == 2
        assert only.residual == 2
        assert only.monomial == (1, 0, 0, 1)    # the 2ax term

    @pytest.mark.parametrize("n", range(1, 6))
    def test_inclusive_passes_up_to_n5(self, n):
        assert certify_pair(iterate_pair(n), mode="inclusive").passed

    @pytest.mark.parametrize("n", range(2, 6))
    def test_strict_passes_from_n2(self, n):
        assert certify_pair(iterate_pair(n), mode="strict").passed

    @pytest.mark.parametrize("n,total,exceeding", [(3, 37, 25), (4, 137, 126), (5, 529, 518)])
    def test_most_coefficients_exceed_the_bound(self, n, total, exceeding):
        report = certify_pair(iterate_pair(n))
        assert report.total_coefficients == total
        assert report.count_exceeding_bound == exceeding
        assert report.count_exceeding_bound * 2 > report.total_coefficients

    @pytest.mark.parametrize("mode", ["inclusive", "strict"])
    @pytest.mark.parametrize("n", range(7))
    def test_largest_prime_is_the_largest_factor(self, n, mode):
        for entry in certify_pair(iterate_pair(n), mode).entries:
            assert entry.largest_prime_found == max(entry.factorization, default=None)

    def test_entry_order_p_before_q_graded_lex(self):
        report = certify_pair(iterate_pair(2))
        names = [e.poly for e in report.entries]
        assert names == sorted(names)   # all P entries precede all Q entries
        p_monos = [e.monomial for e in report.entries if e.poly == "P"]
        keys = [(sum(m), m) for m in p_monos]
        assert keys == sorted(keys, reverse=True)

    def test_entries_reconstruct_coefficients(self):
        report = certify_pair(iterate_pair(3))
        for entry in report.entries:
            value = entry.residual
            for prime, mult in entry.factorization.items():
                value *= prime ** mult
            assert value == entry.coefficient_abs

    @pytest.mark.parametrize("mode", ["inclusive", "strict"])
    def test_sieves_once_and_matches_smooth_part(self, monkeypatch, mode):
        pair = iterate_pair(4)
        limits = []

        def counting_sieve(limit):
            limits.append(limit)
            return sieve_primes(limit)

        monkeypatch.setattr(smoothness, "sieve_primes", counting_sieve)
        report = certify_pair(pair, mode=mode)
        assert limits == [17 if mode == "inclusive" else 16]
        for entry in report.entries:
            part = smooth_part(entry.coefficient_abs, 16, mode)
            assert (entry.smooth, entry.residual, entry.factorization) == (
                part.smooth, part.residual, part.factorization)

    def test_report_dict_shape(self):
        data = certify_pair(iterate_pair(1), mode="strict").to_dict()
        assert data["mode"] == "strict"
        assert data["summary"]["all_smooth"] is False
        assert any(not e["smooth"] and e["poly"] == "Q" for e in data["entries"])
