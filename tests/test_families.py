from fractions import Fraction

import pytest

from fdpb import families, fps, sequences, umbral
from fdpb.ring import LAM, ONE, X, ZERO, BiPoly
from fdpb.families import (
    bernoulli_poly,
    carlitz_beta,
    carlitz_numbers,
    carlitz_rows,
    carlitz_value,
    classical_poly_bernoulli,
    daehee_numbers,
    daehee_rows,
    daehee_type_b,
    daehee_value,
    fdpb_closed,
    fdpb_gf,
    fdpb_iterated_integral,
    fdpb_numbers,
    fdpb_poly,
    fdpb_rows,
    fdpb_value,
    fdpb_x_derivative,
    integral_unit_interval,
)
from fdpb.identities import _negative_route
from fdpb.sequences import bernoulli, stirling2
from fdpb.umbral import RouteMismatch

HALF = Fraction(1, 2)
K_RANGE = range(-3, 4)


def two_pow(k):
    return BiPoly.const(Fraction(2) ** (-k))


class TestCarlitz:
    def test_index_zero(self):
        assert carlitz_beta(0) == ONE

    def test_index_one_number(self):
        assert carlitz_beta(1) == (LAM - ONE) / 2

    def test_index_one_at_one(self):
        assert carlitz_beta(1, 1) == (LAM + ONE) / 2

    def test_delta_identity(self):
        for n in range(1, 13):
            delta = ONE if n == 1 else ZERO
            assert carlitz_beta(n, 1) - carlitz_beta(n) == delta

    def test_lambda_zero_gives_bernoulli(self):
        for n in range(13):
            assert carlitz_beta(n).eval_at(lam=0) == BiPoly.const(bernoulli(n))
            assert carlitz_beta(n, X).eval_at(lam=0) == bernoulli_poly(n)


class TestDaehee:
    def test_index_zero(self):
        assert daehee_type_b(0) == ONE

    def test_index_one_polynomial(self):
        assert daehee_type_b(1, X) == X - HALF

    def test_index_one_at_minus_lambda(self):
        assert daehee_type_b(1, -LAM) == -LAM - BiPoly.const(HALF)

    def test_lambda_zero_gives_bernoulli(self):
        for n in range(13):
            assert daehee_type_b(n, X).eval_at(lam=0) == bernoulli_poly(n)


class TestClosedSums:
    @pytest.mark.parametrize(
        "arg", (0, X, HALF, -1, X + LAM), ids=("0", "x", "1/2", "-1", "x+L")
    )
    def test_match_series(self, arg):
        # the CLI's routes against their series
        for n in range(21):
            assert carlitz_value(n, arg) == carlitz_beta(n, arg), n
            assert daehee_value(n, arg) == daehee_type_b(n, arg), n
            assert daehee_value(n, arg, 0) == bernoulli_poly(n, arg), n
            for k in (-2, 2):
                assert fdpb_value(n, k, arg) == fdpb_gf(n, k, arg), (n, k)

    @pytest.mark.parametrize("value", (carlitz_value, daehee_value, fdpb_value))
    def test_lambda_must_be_one_term(self, value):
        args = (3, 0) if value is fdpb_value else (3,)
        with pytest.raises(ValueError, match="single term"):
            value(*args, 0, lam=LAM + 1)

    @pytest.mark.parametrize("read, args", [
        # the closed sums at each lambda: Kaneko's row checks n
        *(pytest.param(read, (*args, lam), id=f"{read.__name__}-{name}")
          for read, args in (
              (carlitz_value, (-1, 0)), (daehee_value, (-1, 0)), (fdpb_value, (-1, 2, 0)))
          for lam, name in ((LAM, "L"), (0, "0"), (HALF, "1/2"))),
        # a table's rows, each id named for the table: in L by its rows
        # reader, at a constant lambda by its numbers reader
        *(pytest.param(read, (*args, *lam), id=f"{rows.__name__}-{name}")
          for rows, numbers, args in (
              (fdpb_rows, fdpb_numbers, (2, -1)), (daehee_rows, daehee_numbers, (-1,)),
              (carlitz_rows, carlitz_numbers, (-1,)))
          for read, lam, name in (
              (rows, (), "L"), (numbers, (0,), "0"), (numbers, (HALF,), "1/2"))),
        # the generating functions: fps.longest checks n
        *(pytest.param(read, args, id=read.__name__) for read, args in (
            (carlitz_beta, (-2,)), (bernoulli_poly, (-1,)), (daehee_type_b, (-1,)),
            (fdpb_gf, (-1, 2)), (classical_poly_bernoulli, (-1, 2)),
            (fdpb_iterated_integral, (2, -1)))),
        # the right sides of THM8 and EQ60, sums over range(n + 1)
        *(pytest.param(read, (-1, 2), id=read.__name__)
          for read in (integral_unit_interval, umbral.eq60_connection)),
    ])
    def test_negative_index_is_a_value_error(self, read, args):
        index = next(a for a in args if isinstance(a, int) and a < 0)
        with pytest.raises(ValueError, match=f"no index {index}$"):
            read(*args)

    def test_classical_values_build_no_weight_row(self, monkeypatch):
        # at lam = 0 only w_n = 1 is left: no S1 row grows, and Carlitz's
        # weight row is never built
        monkeypatch.setattr(sequences, "_STIRLING1", [(1,)])

        def no_row(n):
            raise AssertionError(f"the weight row of n = {n} was built at lam = 0")

        monkeypatch.setattr(families, "_carlitz_row", no_row)
        values = fdpb_value(40, 2, X, 0), daehee_value(40, X, 0), carlitz_value(40, X, 0)
        assert len(sequences._STIRLING1) == 1
        expected = classical_poly_bernoulli(40, 2, X), bernoulli_poly(40), bernoulli_poly(40)
        assert values == expected

    def test_values_do_not_depend_on_call_order(self):
        # a Kaneko row asked for one n at a time is built anew over each
        # larger denominator; it must give the values of a row built at once
        def take(ns):
            families._KANEKO.clear()
            fdpb_closed.cache_clear()
            return {
                n: (fdpb_closed(n, 2), fdpb_value(n, -2, X, 0), carlitz_value(n))
                for n in ns
            }

        assert take(range(25)) == take(range(24, -1, -1))

    def test_first_values(self):
        assert carlitz_value(1) == (LAM - ONE) / 2
        assert daehee_value(1, X) == X - HALF
        assert daehee_value(2, X, 0) == X * X - X + BiPoly.const(Fraction(1, 6))

    def test_equal_values_by_two_routes_hash_equal(self):
        # the hash is kept per instance, and an equal value built by another
        # route must find the first in a memo
        for closed, series in (
            (fdpb_poly(12, 2), fdpb_gf(12, 2, X)),
            (carlitz_value(9, X), carlitz_beta(9, X)),
        ):
            assert closed is not series
            assert hash(closed) == hash(series) == hash(closed)
            assert {closed: True}[series]


class TestClassicalPolyBernoulli:
    def test_index_zero(self):
        for k in K_RANGE:
            assert classical_poly_bernoulli(0, k) == ONE

    def test_index_one_closed_form(self):
        for k in K_RANGE:
            assert classical_poly_bernoulli(1, k) == two_pow(k)

    def test_k_one_is_shifted_bernoulli(self):
        for n in range(13):
            shifted = bernoulli_poly(n).subst_x(X + ONE)
            assert classical_poly_bernoulli(n, 1, X) == shifted

    def test_lambda_free(self):
        for n in range(8):
            assert classical_poly_bernoulli(n, 2, X).is_lambda_free()

    @pytest.mark.parametrize(
        "arg", (0, X, HALF, -1, X + LAM), ids=("0", "x", "1/2", "-1", "x+L")
    )
    def test_kaneko_route_matches_series(self, arg):
        # the CLI's route, sum_l C(n, l) B_l^(k) x^(n-l), against the series
        for k in K_RANGE:
            for n in range(31):
                expected = classical_poly_bernoulli(n, k, arg)
                assert fdpb_value(n, k, arg, 0) == expected, (n, k)


class TestFdpbNumbers:
    def test_index_zero(self):
        for k in K_RANGE:
            assert fdpb_gf(0, k) == ONE
            assert fdpb_closed(0, k) == ONE

    def test_index_one_is_power_of_two(self):
        for k in K_RANGE:
            assert fdpb_closed(1, k) == two_pow(k)
            assert fdpb_gf(1, k) == two_pow(k)

    def test_worked_value_n2_k1(self):
        expected = BiPoly.const(Fraction(1, 6)) - LAM / 2
        assert fdpb_closed(2, 1) == expected
        assert fdpb_gf(2, 1) == expected

    def test_dual_route_equality(self):
        for k in K_RANGE:
            for n in range(13):
                assert fdpb_gf(n, k) == fdpb_closed(n, k)

    def test_lambda_zero_specialization(self):
        for k in K_RANGE:
            for n in range(13):
                assert fdpb_closed(n, k).eval_at(lam=0) == classical_poly_bernoulli(n, k)


class TestNegativeClosed:
    # the S2 route of THM6 and the closed sum at negated index
    def test_index_zero_and_one(self):
        for k in K_RANGE:
            assert fdpb_closed(0, -k) == ONE
            assert fdpb_closed(1, -k) == BiPoly.const(Fraction(2) ** k)
        for k in range(4):
            assert _negative_route(0, k) == ONE
            assert _negative_route(1, k) == X + 2**k

    def test_matches_negated_index(self):
        for k in range(6):
            for n in range(13):
                assert _negative_route(n, k) == fdpb_poly(n, -k)

    def test_lambda_zero_single_sum(self):
        from math import factorial

        for k in K_RANGE:
            for n in range(10):
                expected = sum(
                    (
                        Fraction((-1) ** (j + n) * factorial(j) * stirling2(n, j))
                        * Fraction(j + 1) ** k
                    )
                    for j in range(n + 1)
                )
                assert fdpb_closed(n, -k).eval_at(lam=0) == BiPoly.const(expected)


class TestFdpbPolynomials:
    def test_monic_of_exact_degree(self):
        for k in (-2, 1, 3):
            for n in range(13):
                poly = fdpb_poly(n, k)
                assert poly.x_degree() == n
                assert poly.x_coeff(n) == ONE

    def test_expansion_matches_generating_function(self):
        for k in (-2, 1, 2):
            for n in range(9):
                assert fdpb_poly(n, k) == fdpb_gf(n, k, X)

    def test_value_dispatch(self):
        assert fdpb_value(2, 1) == fdpb_closed(2, 1)
        assert fdpb_value(2, 1, X) == fdpb_poly(2, 1)
        assert fdpb_value(2, 1, 1) == fdpb_poly(2, 1).subst_x(1)


class TestIteratedIntegral:
    def test_k2_first_coefficients(self):
        series = fdpb_iterated_integral(2, 6)
        assert fps.egf_coeff(series, 0) == ONE
        assert fps.egf_coeff(series, 1) == BiPoly.const(Fraction(1, 4))

    def test_k2_matches_thm3_sum(self):
        # the n=1 value also equals (1/2) b_{1}(-L) + carlitz(1, 1)
        rhs = daehee_type_b(1, -LAM) / 2 + carlitz_beta(1, 1)
        assert rhs == BiPoly.const(Fraction(1, 4))

    def test_k3_matches_closed_route(self):
        series = fdpb_iterated_integral(3, 8)
        for n in range(9):
            assert fps.egf_coeff(series, n) == fdpb_closed(n, 3)

    def test_requires_k_at_least_two(self):
        with pytest.raises(ValueError):
            fdpb_iterated_integral(1, 4)


class TestXDerivative:
    def test_degree_zero_and_one(self):
        assert fdpb_x_derivative(0, 2) == ZERO
        assert fdpb_x_derivative(1, 2) == ONE

    def test_worked_value_n2_k1(self):
        assert fdpb_x_derivative(2, 1) == 2 * X - LAM + ONE


class TestUnitIntervalIntegral:
    def test_index_zero(self):
        assert integral_unit_interval(0, 3) == ONE

    def test_index_one_closed_form(self):
        for k in K_RANGE:
            expected = BiPoly.const(Fraction(2) ** (-k) + HALF)
            assert integral_unit_interval(1, k) == expected

    def test_route_mismatch_carries_both_values(self):
        exc = RouteMismatch("boom", ONE, ZERO)
        assert exc.lhs == ONE and exc.rhs == ZERO


class TestSeriesMemo:
    """fps.longest keeps one series per builder and key, the longest built."""

    @pytest.fixture(autouse=True)
    def fresh(self):
        fps._longest.clear()
        yield
        fps._longest.clear()

    @staticmethod
    def counted(monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def build(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, name, build)
        return calls

    def test_longest_series_serves_smaller_n(self, monkeypatch):
        quotients = self.counted(monkeypatch, families, "_polylog_over_z")
        arguments = self.counted(monkeypatch, families, "_argument")
        values = [fdpb_gf(n, 2, X) for n in (7, 20)]
        assert (len(quotients), len(arguments)) == (2, 2)
        assert fdpb_gf(7, 2, X) == values[0]
        assert fdpb_gf(24, 2, X) == fdpb_value(24, 2, X)
        assert (len(quotients), len(arguments)) == (2, 2)
        # one entry per key, at work_order(20) = 24
        assert [s.order for s in fps._longest.values()] == [24, 24]
        assert fdpb_gf(25, 2, X) == fdpb_value(25, 2, X)
        assert (len(quotients), len(arguments)) == (3, 3)
        assert [s.order for s in fps._longest.values()] == [32, 32]

    def test_every_quotient_reads_one_table_grown_in_place(self, monkeypatch):
        monkeypatch.setattr(families, "_Z_TABLE", [[[1]]])
        columns = self.counted(monkeypatch, families, "_z_column")
        for k in K_RANGE:
            for n in (7, 20):  # orders 16, then 24
                fdpb_gf(n, k, X)
                classical_poly_bernoulli(n, k, X)
        # 14 keys, each built at order 16 and at 24, made each column once
        assert [n for _, n in columns] == list(range(1, 25))
        assert fdpb_gf(25, 2, X) == fdpb_value(25, 2, X)
        assert [n for _, n in columns] == list(range(1, 33))
        assert len(families._Z_TABLE) == 33
        assert classical_poly_bernoulli(12, -3, X) == fdpb_value(12, -3, X, 0)
        assert len(columns) == 32

    def test_sheffer_functional_shares_the_classical_quotient(self, monkeypatch):
        # one counting builder under both names, so one memo key serves both
        quotients = self.counted(monkeypatch, families, "_polylog_over_z")
        monkeypatch.setattr(umbral, "_polylog_over_z", families._polylog_over_z)
        classical_poly_bernoulli(10, 2, X)
        p = X**8 + LAM * X**3 - ONE
        assert umbral.sheffer_expand(p, 2).reconstruct() == p
        assert len(quotients) == 1

    def test_bernoulli_numbers_share_the_polynomials_series(self, monkeypatch):
        # t/(e^t - 1) is Carlitz's quotient at lam = 0: one counting builder
        # under both names, so one memo key serves the polynomials and numbers
        quotients = self.counted(monkeypatch, sequences, "carlitz_quotient")
        monkeypatch.setattr(families, "carlitz_quotient", sequences.carlitz_quotient)
        exps = self.counted(monkeypatch, fps, "series_exp")
        assert bernoulli_poly(20) == daehee_value(20, X, 0)
        assert quotients == [(ZERO, 24)]
        assert bernoulli(5) == 0 and bernoulli(20) == Fraction(-174611, 330)
        assert quotients == [(ZERO, 24)]
        # and no series goes through series_exp
        assert exps == []
        assert len(fps._longest) == 2  # t/(e^t - 1) and e^(xt)
