"""Penalized B-spline regression with pointwise confidence bands.

This is the Eilers & Marx (1996) P-spline: a cubic B-spline basis on
equally spaced knots, penalized by squared finite differences of the
coefficients, at a fixed smoothing penalty. Pointwise standard errors
come from the Bayesian posterior covariance
``sigma^2 (B'B + lambda D'D)^-1``, giving the 95% band
``fitted +/- z * se``.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import InputError, NumericalError

DEGREE = 3
# NormalDist().inv_cdf(0.975) bit for bit: the band is 95%
Z_95 = 1.9599639845400536


@dataclass(frozen=True)
class SplineConfig:
    """Knots and penalty of a P-spline fit.

    ``lam`` is the fixed smoothing penalty. Its default, 100, is the
    penalty ``tuning.find_peak`` smooths the second difference of V*(s)
    with.
    """

    num_interior_knots: int = 20
    penalty_order: int = 2
    lam: float = 100.0

    def __post_init__(self):
        if self.num_interior_knots < self.penalty_order:
            raise InputError("need num_interior_knots >= penalty_order")
        if self.penalty_order < 1:
            raise InputError("penalty_order must be at least 1")
        if not isinstance(self.lam, Real) or not np.isfinite(self.lam) or self.lam <= 0:
            raise InputError(f"lambda must be a positive real, got {self.lam!r}")


@dataclass
class SplineFit:
    fitted: np.ndarray
    se: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray
    sigma2_hat: float
    effective_df: float


def bspline_design(x, lo, hi, num_interior_knots) -> np.ndarray:
    """Dense cubic B-spline design matrix on equally spaced knots over [lo, hi].

    Cox-de Boor recursion, vectorized over evaluation points. The last
    segment is closed on the right so x == hi gets full basis support.
    """
    x = np.asarray(x, dtype=float)
    nseg = num_interior_knots + 1
    dx = (hi - lo) / nseg
    knots = lo + dx * np.arange(-DEGREE, nseg + DEGREE + 1)
    left = knots[:-1][None, :]
    right = knots[1:][None, :]
    B = ((left <= x[:, None]) & (x[:, None] < right)).astype(float)
    at_end = x == knots[-DEGREE - 1]
    if np.any(at_end):
        B[at_end, :] = 0.0
        B[at_end, DEGREE + nseg - 1] = 1.0
    for k in range(1, DEGREE + 1):
        # uniform knots: every active denominator equals k*dx
        num_left = x[:, None] - knots[: -k - 1][None, :]
        num_right = knots[k + 1 :][None, :] - x[:, None]
        B = (num_left * B[:, :-1] + num_right * B[:, 1:]) / (k * dx)
    return B


def _difference_penalty(n_basis, order) -> np.ndarray:
    D = np.diff(np.eye(n_basis), n=order, axis=0)
    return D.T @ D


def fit_pspline(x, y, config: SplineConfig | None = None) -> SplineFit:
    """Fit the penalized B-spline at the fixed penalty ``config.lam``."""
    config = config or SplineConfig()
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise InputError("x and y must be 1-D vectors of equal length")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise InputError("x and y must be finite")
    min_points = DEGREE + config.penalty_order + 2
    if x.size < min_points:
        raise InputError(f"need at least {min_points} points, got {x.size}")
    if np.any(np.diff(x) <= 0):
        raise InputError("x must be strictly ascending")
    B = bspline_design(x, x[0], x[-1], config.num_interior_knots)
    M = B.T @ B + config.lam * _difference_penalty(B.shape[1], config.penalty_order)
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular normal equations at lambda={config.lam:g}") from exc
    # with M = L L' and W = L^-1 B': beta = L'^-1 W y, and the pointwise
    # leverage b_i' M^-1 b_i is the squared norm of column i of W
    W = np.linalg.solve(L, B.T)
    beta = np.linalg.solve(L.T, W @ y)
    fitted = B @ beta
    resid = y - fitted
    rss = float(resid @ resid)
    leverage = np.einsum("ij,ij->j", W, W)
    edf = float(leverage.sum())
    sigma2 = rss / max(x.size - edf, 1.0)
    # pointwise variance of fitted values under the posterior covariance
    se = np.sqrt(sigma2 * leverage)
    return SplineFit(
        fitted=fitted,
        se=se,
        ci_lower=fitted - Z_95 * se,
        ci_upper=fitted + Z_95 * se,
        sigma2_hat=sigma2,
        effective_df=edf,
    )


def ci_contains_zero(fit: SplineFit) -> np.ndarray:
    """Pointwise mask: does the confidence band straddle zero?"""
    return (fit.ci_lower <= 0.0) & (fit.ci_upper >= 0.0)
