from statistics import NormalDist

import numpy as np
import pytest
from scipy.interpolate import make_lsq_spline

from svddpeak import smoothing, tuning
from svddpeak.errors import InputError, NumericalError
from svddpeak.smoothing import (
    SplineConfig,
    SplineFit,
    bspline_design,
    ci_contains_zero,
    fit_pspline,
)


@pytest.fixture
def x30():
    return np.linspace(0.0, 3.0, 30)


class TestBasis:
    def test_partition_of_unity(self):
        x = np.linspace(-1.0, 2.0, 57)
        B = bspline_design(x, -1.0, 2.0, 17)
        np.testing.assert_allclose(B.sum(axis=1), 1.0, atol=1e-12)
        assert B.shape == (57, 17 + 1 + 3)

    def test_nonnegative_and_local(self):
        x = np.linspace(0.0, 1.0, 41)
        B = bspline_design(x, 0.0, 1.0, 10)
        assert np.all(B >= 0.0)
        assert np.all(np.count_nonzero(B, axis=1) <= 4)


class TestFitPspline:
    def test_constant_reproduced_exactly(self, x30):
        for lam in (1e-4, 1.0, 1e6):
            fit = fit_pspline(x30, np.full(30, 2.5), SplineConfig(lam=lam))
            np.testing.assert_allclose(fit.fitted, 2.5, atol=1e-8)

    def test_linear_reproduced_for_second_order_penalty(self, x30):
        y = x30.copy()
        for lam in (1e-3, 10.0, 1e5):
            fit = fit_pspline(x30, y, SplineConfig(lam=lam, penalty_order=2))
            np.testing.assert_allclose(fit.fitted, y, atol=1e-8)

    def test_sin_fit_matches_dense_lsq_oracle(self):
        x = np.linspace(0.0, np.pi, 50)
        y = np.sin(x)
        fit = fit_pspline(x, y, SplineConfig(lam=1e-6))  # nearly unpenalized, like the oracle
        # reference: scipy's own unpenalized least-squares spline on dense knots
        interior = np.linspace(x[0], x[-1], 22)[1:-1]
        t = np.concatenate([[x[0]] * 4, interior, [x[-1]] * 4])
        oracle = make_lsq_spline(x, y, t, k=3)(x)
        assert np.abs(oracle - y).max() < 1e-4
        assert np.abs(fit.fitted - y).max() <= 0.05
        assert np.abs(fit.fitted - oracle).max() <= 0.05

    def test_heavy_penalty_collapses_to_ols_line(self, rng, x30):
        y = np.sin(2.0 * x30) + rng.normal(0.0, 0.2, 30)
        fit = fit_pspline(x30, y, SplineConfig(lam=1e8, penalty_order=2))
        A = np.column_stack([np.ones(30), x30])
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        np.testing.assert_allclose(fit.fitted, A @ coef, atol=1e-4)

    def test_shift_equivariance(self, rng, x30):
        y = rng.normal(size=30)
        base = fit_pspline(x30, y, SplineConfig(lam=3.0))
        shifted = fit_pspline(x30, y + 11.0, SplineConfig(lam=3.0))
        np.testing.assert_allclose(shifted.fitted, base.fitted + 11.0, atol=1e-8)

    def test_effective_df_monotone_in_lambda(self, rng, x30):
        y = np.cos(3.0 * x30) + rng.normal(0.0, 0.1, 30)
        lams = [10.0**k for k in range(-6, 7)]
        edfs = [fit_pspline(x30, y, SplineConfig(lam=lam)).effective_df for lam in lams]
        assert np.all(np.diff(edfs) <= 1e-9)

    @pytest.mark.parametrize("lam", [1e-4, 0.3, 1e4])
    def test_se_and_edf_match_dense_inverse(self, rng, x30, lam):
        y = np.sin(2.0 * x30) + rng.normal(0.0, 0.2, 30)
        config = SplineConfig(lam=lam)
        fit = fit_pspline(x30, y, config)
        B = bspline_design(x30, x30[0], x30[-1], config.num_interior_knots)
        D = np.diff(np.eye(B.shape[1]), n=config.penalty_order, axis=0)
        M_inv = np.linalg.inv(B.T @ B + lam * D.T @ D)
        edf = np.trace(M_inv @ B.T @ B)
        resid = y - B @ (M_inv @ B.T @ y)
        sigma2 = resid @ resid / (30 - edf)
        se = np.sqrt(sigma2 * np.einsum("ij,jk,ik->i", B, M_inv, B))
        assert abs(fit.effective_df - edf) <= 1e-12
        np.testing.assert_allclose(fit.se, se, rtol=0, atol=1e-12)
        z = NormalDist().inv_cdf(0.5 * (1.0 + 0.95))  # the 95% band
        assert smoothing.Z_95 == z
        np.testing.assert_allclose(fit.ci_upper - fit.fitted, z * se, rtol=0, atol=1e-12)

    def test_indefinite_normal_equations_raise_numerical_error(self, rng, x30, monkeypatch):
        def fail(M):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", fail)
        with pytest.raises(NumericalError, match="lambda=100"):
            fit_pspline(x30, rng.normal(size=30), SplineConfig())

    def test_default_penalty_is_the_peak_criterions(self, rng, x30):
        # find_peak smooths d2 at the default penalty, on a 40-knot basis
        assert SplineConfig().lam == 100.0
        assert tuning.D2_SPLINE_DEFAULT == SplineConfig(num_interior_knots=40, lam=100.0)
        y = rng.normal(size=30)
        default = fit_pspline(x30, y)
        np.testing.assert_array_equal(default.fitted,
                                      fit_pspline(x30, y, SplineConfig(lam=100.0)).fitted)

    def test_band_ordering_and_width(self, rng, x30):
        y = x30**2 + rng.normal(0.0, 0.3, 30)
        fit = fit_pspline(x30, y, SplineConfig(lam=1.0))
        assert np.all(fit.ci_lower <= fit.fitted)
        assert np.all(fit.fitted <= fit.ci_upper)
        assert fit.sigma2_hat > 0
        assert np.all(fit.ci_upper - fit.ci_lower > 0)

    def test_too_few_points_rejected(self):
        with pytest.raises(InputError):
            fit_pspline(np.linspace(0, 1, 5), np.zeros(5), SplineConfig())

    def test_non_ascending_x_rejected(self):
        x = np.array([0.0, 1.0, 1.0, 2.0] + list(np.linspace(3, 9, 8)))
        with pytest.raises(InputError):
            fit_pspline(x, np.zeros(x.size), SplineConfig())

    def test_invalid_config_rejected(self):
        for lam in (-1.0, 0.0, np.inf, np.nan, "auto", "x", None):
            with pytest.raises(InputError, match="lambda"):
                SplineConfig(lam=lam)
        with pytest.raises(InputError):
            SplineConfig(num_interior_knots=1, penalty_order=2)


class TestCiContainsZero:
    def _fake_fit(self, fitted, se):
        z = 1.959963984540054  # 97.5% normal quantile
        return SplineFit(
            fitted=fitted,
            se=se,
            ci_lower=fitted - z * se,
            ci_upper=fitted + z * se,
            sigma2_hat=1.0,
            effective_df=1.0,
        )

    def test_all_true_when_fitted_zero(self):
        fit = self._fake_fit(np.zeros(9), np.full(9, 0.1))
        assert ci_contains_zero(fit).all()

    def test_all_false_when_far_from_zero(self):
        fit = self._fake_fit(np.full(9, -1.0), np.full(9, 0.1))
        assert not ci_contains_zero(fit).any()

    def test_ramp_thresholds_at_z_times_se(self):
        fitted = np.linspace(-1.0, 1.0, 201)
        fit = self._fake_fit(fitted, np.full(201, 0.05))
        mask = ci_contains_zero(fit)
        expected = np.abs(fitted) <= 1.959963984540054 * 0.05
        np.testing.assert_array_equal(mask, expected)
