"""Penalized B-spline regression with pointwise confidence bands.

This is the Eilers & Marx (1996) P-spline: a B-spline basis on equally
spaced knots, penalized by squared finite differences of the
coefficients, at a fixed smoothing penalty. Pointwise standard errors
come from the Bayesian posterior covariance
``sigma^2 (B'B + lambda D'D)^-1``, giving the usual
``fitted +/- z * se`` band.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real
from statistics import NormalDist

import numpy as np

from .errors import InputError, NumericalError


@dataclass(frozen=True)
class SplineConfig:
    """Basis, penalty and band level of a P-spline fit.

    ``lam`` is the fixed smoothing penalty. Its default, 100, is the
    penalty ``tuning.find_peak`` smooths the second difference of V*(s)
    with.
    """

    degree: int = 3
    num_interior_knots: int = 20
    penalty_order: int = 2
    lam: float = 100.0
    ci_level: float = 0.95

    def __post_init__(self):
        if self.degree < 1:
            raise InputError("spline degree must be at least 1")
        if self.num_interior_knots < self.penalty_order:
            raise InputError("need num_interior_knots >= penalty_order")
        if self.penalty_order < 1:
            raise InputError("penalty_order must be at least 1")
        if not isinstance(self.lam, Real) or not np.isfinite(self.lam) or self.lam <= 0:
            raise InputError(f"lambda must be a positive real, got {self.lam!r}")
        if not (0.0 < self.ci_level < 1.0):
            raise InputError("ci_level must lie in (0, 1)")


@dataclass
class SplineFit:
    fitted: np.ndarray
    se: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray
    sigma2_hat: float
    effective_df: float


def bspline_design(x, lo, hi, num_interior_knots, degree) -> np.ndarray:
    """Dense B-spline design matrix on equally spaced knots over [lo, hi].

    Cox-de Boor recursion, vectorized over evaluation points. The last
    segment is closed on the right so x == hi gets full basis support.
    """
    x = np.asarray(x, dtype=float)
    nseg = num_interior_knots + 1
    dx = (hi - lo) / nseg
    knots = lo + dx * np.arange(-degree, nseg + degree + 1)
    n_basis = nseg + degree
    left = knots[:-1][None, :]
    right = knots[1:][None, :]
    B = ((left <= x[:, None]) & (x[:, None] < right)).astype(float)
    at_end = x == knots[-degree - 1]
    if np.any(at_end):
        B[at_end, :] = 0.0
        B[at_end, degree + nseg - 1] = 1.0
    for k in range(1, degree + 1):
        # uniform knots: every active denominator equals k*dx
        num_left = x[:, None] - knots[: -k - 1][None, :]
        num_right = knots[k + 1 :][None, :] - x[:, None]
        B = (num_left * B[:, :-1] + num_right * B[:, 1:]) / (k * dx)
    assert B.shape[1] == n_basis
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
    min_points = config.degree + config.penalty_order + 2
    if x.size < min_points:
        raise InputError(f"need at least {min_points} points, got {x.size}")
    if np.any(np.diff(x) <= 0):
        raise InputError("x must be strictly ascending")
    B = bspline_design(x, x[0], x[-1], config.num_interior_knots, config.degree)
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
    z = NormalDist().inv_cdf(0.5 * (1.0 + config.ci_level))
    return SplineFit(
        fitted=fitted,
        se=se,
        ci_lower=fitted - z * se,
        ci_upper=fitted + z * se,
        sigma2_hat=sigma2,
        effective_df=edf,
    )


def ci_contains_zero(fit: SplineFit) -> np.ndarray:
    """Pointwise mask: does the confidence band straddle zero?"""
    return (fit.ci_lower <= 0.0) & (fit.ci_upper >= 0.0)
