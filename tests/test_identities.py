import json
from fractions import Fraction

import pytest

import closed_reference
from fdpb import families as fam
from fdpb import cli, fps, identities, sequences, umbral
from fdpb.fps import Series
from fdpb.ring import LAM, ONE, X, ZERO, falling_product, parse_poly, sum_of_products
from fdpb.identities import (
    Counterexample,
    EmptyRange,
    IdentityId,
    Report,
    UnknownIdentity,
    check,
    check_all,
)
from fdpb.sequences import stirling1_row, stirling2

SMOKE = dict(n_max=2, k_range=(-1, 2))


class TestSingleChecks:
    @pytest.mark.parametrize("identity", list(IdentityId))
    def test_smoke_ranges_pass(self, identity):
        report = check(identity, **SMOKE)
        assert report.passed, report.to_dict()

    def test_hand_checked_difference(self):
        # at n = 1 both sides of the difference identity equal 1
        report = check(IdentityId.THM2_DIFFERENCE, n_max=1, k_range=(-3, 3))
        assert report.passed

    def test_hand_checked_shift_quotient(self):
        report = check(IdentityId.THM7_DIFFERENCE_QUOTIENT, n_max=1, k_range=(-3, 3))
        assert report.passed

    def test_hand_checked_recurrence(self):
        # 2^{-k} = (1/2) 2^{-(k-1)}
        report = check(IdentityId.THM5_RECURRENCE, n_max=1, k_range=(-3, 3))
        assert report.passed

    def test_string_identity_names_accepted(self):
        assert check("EQ9_DELTA", n_max=3, k_range=(1, 1)).passed

    def test_unknown_identity(self):
        with pytest.raises(UnknownIdentity):
            check("NO_SUCH_IDENTITY")

    def test_addition_has_no_cell_at_n_zero(self):
        # the addition formula is compared from the power y^1 up
        with pytest.raises(EmptyRange):
            check("THM1_ADDITION", n_max=0)

    def test_iterated_integral_reaches_n_max(self, monkeypatch):
        # the cells run to n = n_max, and k = 2, 3, 4 are checked whatever the k range
        monkeypatch.setattr(fam, "fdpb_closed", _perturbed(fam.fdpb_closed, (12, 2)))
        report = check("ITERATED_INTEGRAL", n_max=12, k_range=(0, 0))
        assert (report.counterexample.n, report.counterexample.k) == (12, 2)

    def test_negative_index_needs_a_nonnegative_k(self):
        with pytest.raises(EmptyRange, match=r"n <= 3, k in \[-3, -1\]"):
            check("THM6_NEGATIVE", n_max=3, k_range=(-3, -1))


class TestCheckAll:
    def test_fast_smoke_case(self):
        reports = check_all(n_max=1, k_range=(1, 1))
        assert len(reports) == len(IdentityId)
        assert all(r.passed for r in reports)

    def test_report_order_is_declaration_order(self):
        reports = check_all(n_max=1, k_range=(1, 1))
        assert [r.identity for r in reports] == list(IdentityId)

    def test_cell_counts(self):
        # n <= 12, k in [-3, 3]: THM1_ADDITION has one cell per k, n >= 1 and
        # power e = 1..n of y (7 * 78); THM4_CLOSED three per k and n and five
        # per n (7 * 39 + 65); THM3_K2 checks k = 2 alone, the EQ
        # identities no k, and ITERATED_INTEGRAL k = 2, 3, 4 whatever the range
        counts = {r.identity.value: r.cells for r in check_all(n_max=12, k_range=(-3, 3))}
        assert counts == {
            "THM1_ADDITION": 546, "THM1_LIMIT": 117, "THM2_DIFFERENCE": 84,
            "THM3_K2": 13, "THM4_CLOSED": 338, "THM5_RECURRENCE": 84,
            "THM6_NEGATIVE": 104, "THM7_DIFFERENCE_QUOTIENT": 84, "THM8_INTEGRAL": 91,
            "EQ9_DELTA": 12, "EQ14_SHIFT": 13, "EQ38_FALLING_INTEGRAL": 13,
            "DERIV_FORMULA": 91, "EQ60_BASIS": 91, "ITERATED_INTEGRAL": 39,
        }


def _perturbed(fn, at, by=ONE):
    """fn, plus ``by`` (one by default) at the arguments ``at``."""
    return lambda *args: fn(*args) + by if args == at else fn(*args)


@pytest.fixture
def patch_kaneko(monkeypatch):
    """Patch a name in families, with the values built on the Kaneko rows
    cleared before the patch and after the test, so that no value computed
    before it hides the patch and none computed under it outlives it."""

    def clear():
        fam._KANEKO.clear()
        fam.fdpb_closed.cache_clear()
        fam.fdpb_poly.cache_clear()

    def patch(name, value):
        clear()
        monkeypatch.setattr(fam, name, value)

    yield patch
    clear()


def _perturbed_row(row_of, l, change):
    """row_of with its number b_l changed to change(b_l), in the row's numerators."""

    def perturbed(*args):
        nums, den = row_of(*args)
        nums = list(nums)
        if len(nums) > l:
            nums[l] = change(nums[l], den)
        return nums, den

    return perturbed


def _perturbed_sweep(numbers):
    """families.falling_poly, plus one where it sweeps at lam = 0 over
    numbers of the same values as the given ones, over any denominator."""
    sweep = fam.falling_poly

    def values(nums):
        return [Fraction(a, nums[1]) for a in nums[0]]

    target = values(numbers)

    def perturbed(nums, lam):
        poly = sweep(nums, lam)
        return poly + ONE if lam == 0 and values(nums) == target else poly

    return perturbed


def _perturbed_quotient(build, key, coefficient):
    """build, with one added to the given coefficient of its series at key."""

    def perturbed(*args):
        series = build(*args)
        if args[:-1] != key or series.order < coefficient:
            return series
        coeffs = list(series.coeffs)
        coeffs[coefficient] += ONE
        return Series(coeffs)

    return perturbed


@pytest.fixture
def patch_quotient(monkeypatch):
    """Patch the polylogarithm quotient of families at one lambda, with the
    series memo cleared before the patch and after the test."""

    def patch(lam, coefficient, k):
        fps._longest.clear()
        perturbed = _perturbed_quotient(fam._polylog_over_z, (k, lam), coefficient)
        monkeypatch.setattr(fam, "_polylog_over_z", perturbed)

    yield patch
    fps._longest.clear()


@pytest.fixture
def patch_carlitz(monkeypatch):
    """Patch Carlitz's quotient at one lambda under both its names, the one
    sequences builds and the one families reads, with the series memo
    cleared before the patch and after the test."""

    def patch(lam, coefficient):
        fps._longest.clear()
        perturbed = _perturbed_quotient(sequences.carlitz_quotient, (lam,), coefficient)
        monkeypatch.setattr(sequences, "carlitz_quotient", perturbed)
        monkeypatch.setattr(fam, "carlitz_quotient", perturbed)

    yield patch
    fps._longest.clear()


class TestPerturbationIsCaught:
    def test_kaneko_sign_flip(self, patch_kaneko):
        # B_3^(2) = -1/24, so the flip moves every fdpb_closed(n, 2), n >= 3
        original = fam._kaneko_row
        flipped = _perturbed_row(original, 3, lambda c, den: -c)
        patch_kaneko("_kaneko_row", lambda k, n: (flipped if k == 2 else original)(k, n))
        report = check("THM4_CLOSED", n_max=5, k_range=(2, 2))
        assert not report.passed
        assert report.counterexample.n == 3

    def test_kaneko_polynomial(self, patch_kaneko):
        # B_4^(2) + 1 moves the constant term of every fdpb_poly(n, 2), n >= 4
        original = fam._kaneko_row
        plus_one = _perturbed_row(original, 4, lambda c, den: c + den)
        patch_kaneko("_kaneko_row", lambda k, n: (plus_one if k == 2 else original)(k, n))
        report = check("THM1_LIMIT", n_max=6, k_range=(2, 2))
        assert not report.passed
        assert (report.counterexample.n, report.counterexample.k) == (4, 2)

    def test_carlitz_weight(self, monkeypatch):
        # w_1 + 1 in the row of beta_3(x|L) adds L^2 B_1(x) to its closed sum
        original = fam._carlitz_row
        plus_one = _perturbed_row(original, 1, lambda c, den: c + den)
        monkeypatch.setattr(
            fam, "_carlitz_row", lambda n: (plus_one if n == 3 else original)(n)
        )
        report = check("THM4_CLOSED", n_max=5, k_range=(1, 1))
        assert not report.passed
        assert (report.counterexample.n, report.counterexample.k) == (3, None)

    def test_bernoulli_sign(self, monkeypatch):
        # B_l^(1) without the sign (-1)^l reads B_1 = 1/2
        monkeypatch.setattr(fam, "_bernoulli_row", lambda n: fam._kaneko_row(1, n))
        report = check("THM4_CLOSED", n_max=5, k_range=(1, 1))
        assert not report.passed
        assert (report.counterexample.n, report.counterexample.k) == (1, None)

    def test_fdpb_quotient(self, patch_quotient):
        patch_quotient(LAM, 3, 2)
        report = check("THM4_CLOSED", n_max=5, k_range=(1, 3))
        assert not report.passed
        assert (report.counterexample.n, report.counterexample.k) == (3, 2)

    def test_poly_bernoulli_quotient(self, patch_quotient):
        patch_quotient(ZERO, 4, -1)
        report = check("THM1_LIMIT", n_max=6, k_range=(-2, 0))
        assert not report.passed
        assert (report.counterexample.n, report.counterexample.k) == (4, -1)

    def test_carlitz_quotient_at_zero(self, patch_carlitz):
        # Carlitz's quotient at lam = 0 is t/(e^t - 1): THM4 compares B_n(x)
        # with the sweep over Daehee's numbers at 0, Kaneko's k = 1 row, EQ14
        # with the classical polylogarithm quotient; carlitz_beta, at L, does
        # not move
        patch_carlitz(ZERO, 3)
        report = check("THM4_CLOSED", n_max=5, k_range=(1, 1))
        assert not report.passed
        ce = report.counterexample
        assert (ce.n, ce.k) == (3, None)
        assert ce.rhs == fam.daehee_value(3, X, 0)
        report = check("EQ14_SHIFT", n_max=5, k_range=(1, 1))
        assert not report.passed
        assert (report.counterexample.n, report.counterexample.k) == (3, 1)

    def test_carlitz_quotient_at_l(self, patch_carlitz):
        # at L the same builder serves carlitz_beta alone, which THM4
        # compares with the closed sum over Carlitz's weight row
        patch_carlitz(LAM, 3)
        report = check("THM4_CLOSED", n_max=5, k_range=(1, 1))
        assert not report.passed
        ce = report.counterexample
        assert (ce.n, ce.k) == (3, None)
        assert ce.rhs == fam.carlitz_value(3, X)

    def test_poly_bernoulli_value(self, monkeypatch):
        # THM4 compares the classical polynomial, the sweep over fdpb's
        # numbers at lam = 0 that the CLI reads, with its series, in x
        monkeypatch.setattr(fam, "falling_poly", _perturbed_sweep(fam.fdpb_numbers(-2, 4, 0)))
        report = check("THM4_CLOSED", n_max=6, k_range=(-3, 2))
        assert not report.passed
        assert (report.counterexample.n, report.counterexample.k) == (4, -2)

    def test_bernoulli_value(self, monkeypatch):
        # and B_n(x), the sweep over Daehee's numbers at lam = 0, with its series
        monkeypatch.setattr(fam, "falling_poly", _perturbed_sweep(fam.daehee_numbers(3, 0)))
        report = check("THM4_CLOSED", n_max=5, k_range=(-1, 1))
        assert not report.passed
        ce = report.counterexample
        assert (ce.n, ce.k) == (3, None)
        assert ce.lhs == fam.bernoulli_poly(3) and ce.rhs == ce.lhs + ONE

    def test_addition(self, monkeypatch):
        monkeypatch.setattr(fam, "fdpb_poly", _perturbed(fam.fdpb_poly, (5, 1)))
        report = check("THM1_ADDITION", n_max=6, k_range=(1, 1))
        assert not report.passed
        assert report.counterexample.n == 6

    def test_addition_across_k(self, monkeypatch):
        # beta_1^(0) + 1 enters the right side of the k = 0 cells from n = 2 on
        monkeypatch.setattr(fam, "fdpb_poly", _perturbed(fam.fdpb_poly, (1, 0)))
        ce = check("THM1_ADDITION", n_max=6, k_range=(-1, 2)).counterexample
        assert (ce.n, ce.k) == (2, 0)
        # S1(4, 2) + 1, read as the x^2 coefficient of (x|L)_4 plus L^2, enters
        # the weights of every k from the cell n = 4, e = 2 on, so the first
        # counterexample moves to k = -1 while k is the outer loop
        monkeypatch.setattr(
            identities, "falling_product", _perturbed(falling_product, (X, 4), LAM**2 * X**2)
        )
        ce = check("THM1_ADDITION", n_max=6, k_range=(-1, 2)).counterexample
        assert (ce.n, ce.k) == (4, -1)
        assert ce.lhs == fam.fdpb_poly(4, -1).derivative_x().derivative_x() / 2

    def test_difference_reads_no_stirling_table(self, monkeypatch):
        # S1(3, 1) off by one, with rows 4 and up regrown from it, moves the
        # closed sums of the left side by L^2 at n = 3; the right side reads
        # S1 as the x-coefficients of the ring's (x|L)_n, so it does not move
        rows = [stirling1_row(n) for n in range(3)] + [(0, 3, -3, 1)]
        fam.fdpb_closed.cache_clear()
        monkeypatch.setattr(sequences, "_STIRLING1", rows)
        try:
            report = check("THM2_DIFFERENCE", 5, (1, 2))
        finally:
            fam.fdpb_closed.cache_clear()
        # the corrupted row reached row 5, which the left side reads
        assert stirling1_row(5) != (0, 24, -50, 35, -10, 1)
        assert (report.counterexample.n, report.counterexample.k) == (3, 1)

    def test_difference_right_side(self, monkeypatch):
        # in THM2, identities.stirling2 feeds only the right side's weights
        monkeypatch.setattr(
            identities, "stirling2",
            lambda n, l: stirling2(n, l) + ((n, l) == (3, 2)),
        )
        assert not check("THM2_DIFFERENCE", n_max=4, k_range=(1, 1)).passed

    def test_basis_connection_keeps_an_l_term(self, monkeypatch):
        # S2(3, 2) + 1 leaves L beta_2(x) in the connection sum at n = 3; the
        # counterexample shows the classical polynomial it should have equalled
        monkeypatch.setattr(
            umbral, "stirling2", lambda n, l: stirling2(n, l) + ((n, l) == (3, 2))
        )
        report = check("EQ60_BASIS", n_max=4, k_range=(1, 1))
        assert not report.passed
        ce = report.counterexample
        assert (ce.n, ce.k) == (3, 1)
        assert ce.lhs == fam.classical_poly_bernoulli(3, 1, X)
        assert not ce.rhs.is_lambda_free()

    def test_table_rows_at_l(self, monkeypatch):
        # THM4 reads the CLI's table rows at L: a _transform_rows whose row 3
        # is off by L fails the fdpb row cell of n = 3, placed after the
        # closed-sum cells of that n
        original = fam._transform_rows

        def perturbed(row, n_max):
            return [r + LAM if n == 3 else r for n, r in enumerate(original(row, n_max))]

        monkeypatch.setattr(fam, "_transform_rows", perturbed)
        report = check("THM4_CLOSED", n_max=5, k_range=(-1, 1))
        assert not report.passed
        ce = report.counterexample
        assert (ce.n, ce.k) == (3, -1)
        assert ce.lhs == fam.fdpb_gf(3, -1) and ce.rhs == ce.lhs + LAM

    def test_negative_index_route(self, monkeypatch):
        route = _perturbed(identities._negative_route, (2, 1))
        monkeypatch.setattr(identities, "_negative_route", route)
        assert not check("THM6_NEGATIVE", n_max=3, k_range=(0, 2)).passed

    def test_sheffer_derivative_reads_egf_pairings(self, monkeypatch):
        # <fbar | x^2> is the EGF coefficient -L of (1/L) log(1 + Lt); a
        # pairing that reads the ordinary coefficient -L/2 moves the n = 2 cell
        monkeypatch.setattr(
            umbral,
            "pair",
            lambda f, p: sum_of_products((c, f.coeff(j)) for j, c in enumerate(p.x_coeffs())),
        )
        report = check("DERIV_FORMULA", n_max=4, k_range=(1, 1))
        assert not report.passed
        assert (report.counterexample.n, report.counterexample.k) == (2, 1)

    def test_derivative_of_a_perturbed_polynomial(self, monkeypatch):
        # beta_3^(-1) + x moves the derivative side by 1 at its own cell; the
        # Sheffer side reads beta_l for l < n only
        monkeypatch.setattr(fam, "fdpb_poly", _perturbed(fam.fdpb_poly, (3, -1), X))
        report = check("DERIV_FORMULA", n_max=5, k_range=(-2, 1))
        assert not report.passed
        assert (report.counterexample.n, report.counterexample.k) == (3, -1)

    def test_sheffer_side_equals_the_omit_one_products(self):
        cells = list(identities._cells_deriv(12, range(-3, 4)))
        assert len(cells) == 91
        for n, k, sheffer, _ in cells:
            assert sheffer == closed_reference.fdpb_x_derivative(n, k), (n, k)

    def test_shift_quotient_of_a_perturbed_polynomial(self, monkeypatch):
        # beta_3^(1) + x gives beta_3(x + L) - beta_3(x) an extra L at n = 3
        monkeypatch.setattr(fam, "fdpb_poly", _perturbed(fam.fdpb_poly, (3, 1), X))
        report = check("THM7_DIFFERENCE_QUOTIENT", n_max=5, k_range=(0, 2))
        assert not report.passed
        assert (report.counterexample.n, report.counterexample.k) == (3, 1)

    def test_negative_index_weights(self, monkeypatch):
        # S2(3, 2) + 1 moves c_0(2) by -1 and c_1(2) by +1: the sum of the
        # weights, the n = 0 cell, is unchanged, and the n = 1 cell gains 1
        monkeypatch.setattr(
            identities, "stirling2", lambda n, l: stirling2(n, l) + ((n, l) == (3, 2))
        )
        report = check("THM6_NEGATIVE", n_max=3, k_range=(0, 3))
        assert not report.passed
        assert (report.counterexample.n, report.counterexample.k) == (1, 2)

    def test_unit_interval_integral(self, monkeypatch):
        monkeypatch.setattr(
            fam, "_falling_integral", _perturbed(fam._falling_integral, (2,))
        )
        assert not check("THM8_INTEGRAL", n_max=3, k_range=(1, 1)).passed


class TestReports:
    def test_counterexample_reported_with_polynomials(self):
        report = Report(
            identity=IdentityId.THM4_CLOSED,
            n_max=2,
            k_min=1,
            k_max=1,
            status="fail",
            counterexample=Counterexample(
                n=2, k=1, lhs=fam.fdpb_closed(2, 1), rhs=ZERO
            ),
        )
        payload = report.to_dict()
        assert payload["status"] == "fail"
        assert parse_poly(payload["counterexample"]["lhs"]) == fam.fdpb_closed(2, 1)

    def test_pass_report_shape(self):
        report = check(IdentityId.EQ14_SHIFT, n_max=3, k_range=(1, 1))
        payload = report.to_dict()
        assert payload == {
            "identity": "EQ14_SHIFT",
            "params": {"n_max": 3, "k_min": 1, "k_max": 1},
            "status": "pass",
            "counterexample": None,
        }

    def test_json_serialization_roundtrips(self):
        reports = check_all(n_max=1, k_range=(1, 1))
        parsed = json.loads(cli._json_text([r.to_dict() for r in reports]))
        assert [p["identity"] for p in parsed] == [i.value for i in IdentityId]
        assert all(p["status"] == "pass" for p in parsed)
