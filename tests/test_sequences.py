from fractions import Fraction
from math import factorial

import pytest

from fdpb import fps
from fdpb.ring import LAM, ONE, X, ZERO, BiPoly
from fdpb.sequences import (
    IndexOutOfRange,
    bernoulli,
    bernoulli_second_kind,
    gen_falling,
    polylog_series,
    stirling1,
    stirling2,
)


def count_partitions(n, blocks):
    """Brute-force count of set partitions of an n-set into `blocks` blocks."""

    def rec(elements, parts):
        if not elements:
            return 1 if len(parts) == blocks else 0
        if len(parts) > blocks:
            return 0
        head, rest = elements[0], elements[1:]
        total = 0
        for i in range(len(parts)):
            total += rec(rest, parts[:i] + [parts[i] + [head]] + parts[i + 1:])
        total += rec(rest, parts + [[head]])
        return total

    return rec(list(range(n)), [])


class TestStirling:
    def test_first_kind_small_values(self):
        # (x)_3 = x^3 - 3x^2 + 2x
        assert stirling1(3, 1) == 2
        assert stirling1(3, 2) == -3

    def test_second_kind_against_partition_count(self):
        for n in range(6):
            for l in range(n + 1):
                assert stirling2(n, l) == count_partitions(n, l)

    def test_diagonal_and_edges(self):
        for n in range(10):
            assert stirling1(n, n) == 1
            assert stirling2(n, n) == 1
        for n in range(1, 10):
            assert stirling1(n, 0) == 0
            assert stirling2(n, 0) == 0

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            stirling1(2, 3)
        with pytest.raises(IndexOutOfRange):
            stirling2(3, -1)

    def test_first_kind_from_falling_factorial(self):
        # coefficients of (x)_n = x(x-1)...(x-n+1) expanded in powers of x
        for n in range(13):
            poly = gen_falling(X, n).eval_at(lam=1)
            for l in range(n + 1):
                assert poly.coeff(0, l) == stirling1(n, l)

    def test_second_kind_from_exponential_powers(self):
        # EGF coefficients of (e^t - 1)^m / m!
        order = 12
        expm1 = fps.series_exp(fps.Series.t(order)) - fps.Series.constant(ONE, order)
        for m in range(7):
            pw = fps.Series.constant(ONE, order)
            for _ in range(m):
                pw = pw * expm1
            for n in range(m, order + 1):
                expected = fps.egf_coeff(pw, n).constant() / factorial(m)
                assert expected == stirling2(n, m)

    def test_orthogonality(self):
        for n in range(11):
            for m in range(11):
                total = sum(
                    stirling1(n, l) * stirling2(l, m) for l in range(m, n + 1)
                )
                assert total == (1 if n == m else 0)

    def test_power_reconstruction(self):
        # x^n = sum_l S2(n, l) (x)_l
        for n in range(9):
            acc = ZERO
            for l in range(n + 1):
                acc = acc + stirling2(n, l) * gen_falling(X, l).eval_at(lam=1)
            assert acc == X ** n


class TestBernoulli:
    def test_first_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)

    def test_odd_vanish(self):
        for n in range(3, 13, 2):
            assert bernoulli(n) == 0

    def test_second_kind_values(self):
        assert bernoulli_second_kind(0) == 1
        assert bernoulli_second_kind(1) == Fraction(1, 2)
        assert bernoulli_second_kind(2) == Fraction(-1, 6)

    def test_second_kind_against_the_series_t_over_log(self):
        # b_n is read from the S1 rows; the series t / log(1 + t) is the oracle
        order = 64
        t = fps.Series.t(order)
        quotient = fps.series_div(t, fps.series_log(fps.Series.constant(ONE, order) + t))
        for n in range(64):
            assert bernoulli_second_kind(n) == fps.egf_coeff(quotient, n).constant(), n

    def test_negative_index_rejected(self):
        with pytest.raises(IndexOutOfRange):
            bernoulli(-1)


class TestGenFalling:
    def test_two_factors(self):
        assert gen_falling(X, 2) == X * X - LAM * X

    def test_unit_base_three_factors(self):
        expected = 2 * LAM * LAM - 3 * LAM + ONE
        assert gen_falling(ONE, 3) == expected

    def test_empty_product(self):
        assert gen_falling(X + LAM, 0) == ONE

    def test_agrees_with_degenerate_pow(self):
        f = fps.degenerate_pow(X, 10)
        for n in range(11):
            assert gen_falling(X, n) == fps.egf_coeff(f, n)


class TestPolylog:
    def test_harmonic_weights(self):
        f = polylog_series(1, fps.Series.t(8))
        for n in range(1, 9):
            assert f.coeff(n) == BiPoly.const(Fraction(1, n))

    def test_geometric(self):
        f = polylog_series(0, fps.Series.t(8))
        for n in range(1, 9):
            assert f.coeff(n) == ONE

    def test_negative_order_weights(self):
        f = polylog_series(-1, fps.Series.t(8))
        for n in range(1, 9):
            assert f.coeff(n) == BiPoly.const(n)

    def test_rejects_nonzero_constant(self):
        with pytest.raises(fps.NonzeroConstantTerm):
            polylog_series(2, fps.Series.constant(ONE, 4))
