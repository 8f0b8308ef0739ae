import math

import pytest
from mpmath import mp

from conftest import assert_t_tail_close, t_tail_ln_oracle, tail_log10_oracle
from sigmatail import gauss, studentt
from sigmatail.errors import DomainError
from sigmatail.studentt import TDistSpec, gap_vs_gaussian, student_t_tail

# Frozen from a 40-digit quadrature of the t density (raw) and the
# incomplete-beta identity (standardized); see also the k=0 symmetry cases.
RAW_T_TAILS = {
    (2.0, 3.0): 0.069662984,
    (2.0, 4.0): 0.0580583,
    (2.0, 5.0): 0.0509697,
}
STD_T3_AT_2 = 0.0202596631769170085
STD_T3_AT_25_LOG10 = -4.867894375
CAUCHY_AT_1 = 0.25

# the degrees of freedom TDistSpec accepts, from just above 2 to 1e300
SWEEP_NUS = [2.0 + 1e-9, 2.5, 3.0, 5.0, 30.0, 200.0, 1e3, 1e4, 1e6, 1e300]
SWEEP_KS = [0.0, 1e-6, 0.1, 0.5, 1.0, 1.5, 1.7, 1.75, 2.0, 3.0, 6.0, 10.0, 25.0, 40.0,
            60.0, 100.0, 300.0, 1e3, 3e3, 1e4]
LN10 = math.log(10.0)


def _log10_power_law(t: float, nu: float) -> float:
    """log10 of the leading term of the raw t tail, C(nu) t^-nu, which it
    reaches to ~nu^2 / t^2 relative."""
    ln_c = (math.lgamma(0.5 * (nu + 1.0)) + (0.5 * nu - 1.0) * math.log(nu)
            - math.lgamma(0.5 * nu) - 0.5 * math.log(math.pi))
    return ln_c / LN10 - nu * math.log10(t)


class TestSpecValidation:
    def test_standardized_needs_variance(self):
        with pytest.raises(DomainError):
            TDistSpec(nu=2.0, standardized=True)
        TDistSpec(nu=2.0001, standardized=True)

    def test_raw_needs_positive_nu(self):
        with pytest.raises(DomainError):
            TDistSpec(nu=0.0, standardized=False)
        TDistSpec(nu=1.0, standardized=False)

    def test_finite(self):
        with pytest.raises(DomainError):
            TDistSpec(nu=math.inf)

    @pytest.mark.parametrize("standardized", [True, False])
    def test_int_nu_beyond_float_range(self, standardized):
        with pytest.raises(DomainError, match="^nu must be a finite real$"):
            TDistSpec(10 ** 400, standardized=standardized)

    @pytest.mark.parametrize("nu", [True, False])
    def test_bool_nu_rejected(self, nu):
        with pytest.raises(DomainError, match="^nu must be a finite real$"):
            TDistSpec(nu, standardized=False)

    def test_nu_at_most_1e300(self):
        TDistSpec(nu=1e300)
        for standardized in (True, False):
            with pytest.raises(DomainError, match="at most"):
                TDistSpec(nu=1.0001e300, standardized=standardized)


class TestLnBetaHalf:
    @pytest.mark.parametrize("a", [1e-300, 0.25, 1.0, 19.999, 20.0, 50.0, 1e3, 1e8, 5e299])
    def test_against_mpmath(self, a):
        with mp.workdps(50 + max(0, int(math.log10(a)))):
            want = mp.log(mp.beta(mp.mpf(a), mp.mpf(0.5)))
        assert abs(studentt._ln_beta_half(a) - want) <= 2e-14 * max(1.0, abs(float(want)))


class TestStudentTTail:
    def test_symmetry_at_zero(self):
        assert student_t_tail(0.0, TDistSpec(3.0)).as_float() == 0.5
        assert student_t_tail(0.0, TDistSpec(1.0, standardized=False)).as_float() == 0.5

    @pytest.mark.parametrize(("k", "nu"), sorted(RAW_T_TAILS))
    def test_raw_against_quadrature_oracle(self, k, nu):
        got = student_t_tail(k, TDistSpec(nu, standardized=False)).as_float()
        assert got == pytest.approx(RAW_T_TAILS[(k, nu)], rel=1e-6)

    def test_cauchy_quarter(self):
        got = student_t_tail(1.0, TDistSpec(1.0, standardized=False)).as_float()
        assert got == pytest.approx(CAUCHY_AT_1, rel=1e-12)

    def test_standardized_nu3_at_2(self):
        got = student_t_tail(2.0, TDistSpec(3.0)).as_float()
        assert got == pytest.approx(STD_T3_AT_2, rel=1e-10)

    def test_standardized_nu3_at_25(self):
        got = student_t_tail(25.0, TDistSpec(3.0))
        assert got.log10_value == pytest.approx(STD_T3_AT_25_LOG10, abs=1e-6)
        # a Magnitude with log10 around -5
        assert -6.0 < got.log10_value < -4.0

    def test_deep_tail_follows_power_law(self):
        got = student_t_tail(1e120, TDistSpec(3.0, standardized=False))
        assert got.log10_value == pytest.approx(_log10_power_law(1e120, 3.0), abs=1e-9)

    @pytest.mark.parametrize("nu", [3.0, 4.0, 5.0, 10.0])
    def test_asymptote_agrees_with_beta_in_switch_window(self, nu):
        # near 1e-250, where an incomplete beta evaluated as a double nears
        # its floor, the tail and the power-law asymptote agree
        target = -250.0
        t = 10.0 ** ((target - _log10_power_law(1.0, nu)) / -nu)
        got = student_t_tail(t, TDistSpec(nu, standardized=False)).log10_value
        assert abs(got - _log10_power_law(t, nu)) * LN10 <= 1e-8

    @pytest.mark.parametrize("nu", SWEEP_NUS)
    def test_sweep_against_mpmath(self, nu):
        for k in SWEEP_KS:
            got = student_t_tail(k, TDistSpec(nu)).log10_value * LN10
            assert_t_tail_close(got, t_tail_ln_oracle(k, nu), f"nu={nu!r}, k={k!r}")

    @pytest.mark.parametrize("nu", [1e-3, 0.5, 1.0, 2.0, 7.0, 1e5])
    def test_raw_sweep_against_mpmath(self, nu):
        for k in [1e-3, 0.5, 1.0, 1.5, 3.0, 30.0, 1e3, 1e6]:
            got = student_t_tail(k, TDistSpec(nu, standardized=False)).log10_value * LN10
            assert_t_tail_close(got, t_tail_ln_oracle(k, nu, standardized=False),
                                f"nu={nu!r}, k={k!r}")

    # standardized draws where 2 log(k) - log(nu - 2) cancelled and a * ln x
    # multiplied the error by nu / 2: 3.5e-12 to 4e-12 relative off before
    @pytest.mark.parametrize(("k", "nu"), [
        (194.28586132835824, 7442.32596751896),
        (141.38809114399731, 9537.156210509265),
        (90.98013801676014, 3769.0345938235823),
    ])
    def test_k_squared_near_nu(self, k, nu):
        got = student_t_tail(k, TDistSpec(nu)).log10_value * LN10
        assert_t_tail_close(got, t_tail_ln_oracle(k, nu), f"nu={nu!r}, k={k!r}")

    def test_far_beyond_double_range(self):
        # nu = 1000 at k = 60 lies at 1e-333.565; k = 1e200 squares past the float range
        got = student_t_tail(60.0, TDistSpec(1000.0)).log10_value
        assert got == pytest.approx(float(t_tail_ln_oracle(60.0, 1000.0)) / LN10, abs=1e-10)
        got = student_t_tail(1e200, TDistSpec(3.0, standardized=False)).log10_value
        assert got == pytest.approx(_log10_power_law(1e200, 3.0), rel=1e-15)

    def test_monotone_in_nu(self):
        # fixed k >= 3: the tail thins toward the Gaussian as nu grows
        for k in [3.0, 5.0, 10.0]:
            tails = [student_t_tail(k, TDistSpec(nu)).log10_value
                     for nu in [3.0, 4.0, 5.0, 10.0, 100.0]]
            assert tails == sorted(tails, reverse=True)

    def test_monotone_in_k(self):
        for nu in [3.0, 10.0]:
            tails = [student_t_tail(k, TDistSpec(nu)).log10_value
                     for k in [0.5, 1.0, 2.0, 5.0, 15.0, 40.0]]
            assert tails == sorted(tails, reverse=True)

    @pytest.mark.parametrize("nu", [3.0, 4.0, 5.0, 10.0])
    def test_standardized_dominates_gaussian_beyond_3(self, nu):
        for k in [3.0, 5.0, 10.0, 25.0]:
            t_tail = student_t_tail(k, TDistSpec(nu))
            g_tail = gauss.gauss_tail(k).probability
            assert t_tail > g_tail

    def test_validation(self):
        with pytest.raises(DomainError):
            student_t_tail(-1.0, TDistSpec(3.0))
        with pytest.raises(DomainError):
            student_t_tail(2.0, "nu=3")
        with pytest.raises(DomainError):
            student_t_tail(math.nan, TDistSpec(3.0))

    @pytest.mark.parametrize("k", [True, False])
    def test_bool_k_rejected(self, k):
        with pytest.raises(DomainError, match="^k must be a finite real$"):
            student_t_tail(k, TDistSpec(3.0))

    def test_int_k_beyond_float_range(self):
        with pytest.raises(DomainError, match="^k must be a finite real$"):
            student_t_tail(10 ** 400, TDistSpec(3))
        with pytest.raises(DomainError, match="^k must be a finite real$"):
            gap_vs_gaussian(10 ** 400, TDistSpec(3))


class TestGapVsGaussian:
    def test_nu3_at_25_exceeds_100_orders(self):
        gap = gap_vs_gaussian(25.0, TDistSpec(3.0))
        assert gap == 132
        assert gap >= 100

    def test_huge_nu_converges_to_gaussian(self):
        assert gap_vs_gaussian(25.0, TDistSpec(1e6)) <= 3

    @pytest.mark.parametrize("k", [40.0, 60.0])
    def test_gap_vanishes_as_nu_grows(self, k):
        nus = [1e4, 1e6, 1e8, 1e300]
        gaps = [gap_vs_gaussian(k, TDistSpec(nu)) for nu in nus]
        want = [math.floor((t_tail_ln_oracle(k, nu) / LN10 - tail_log10_oracle(k)))
                for nu in nus]
        assert gaps == want
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] == 0
        if k == 40.0:
            assert gaps[1] == 0

    def test_nu4_at_10(self):
        # oracle: std t4 tail 7.25640853066e-5 vs Gaussian 7.61985e-24
        assert gap_vs_gaussian(10.0, TDistSpec(4.0)) == 18

    def test_requires_extreme_regime(self):
        with pytest.raises(DomainError):
            gap_vs_gaussian(5.0, TDistSpec(3.0))
