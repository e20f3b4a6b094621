"""Regression of the paper's empirical models against measurement data.

The paper fits three members of the exponential family
``y = α · l_D · exp(β · SNR)`` (PER, Eq. 3; N_tries − 1, Eq. 7;
PLR_radio^(1/N), Eq. 8). Given campaign observations — arrays of payload
size, SNR and the measured metric — this module recovers (α, β) with scipy's
``curve_fit``, seeded by (and falling back to) a weighted log-linear
regression which always succeeds on positive data:

``log(y / l_D) = log α + β · SNR``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import FittingError
from .constants import ExpFitCoefficients

__all__ = [
    "FitResult",
    "fit_exponential_family",
    "fit_per_model",
    "fit_ntries_model",
    "fit_plr_radio_model",
]

@dataclass(frozen=True)
class FitResult:
    """Outcome of an exponential-family regression."""

    coefficients: ExpFitCoefficients
    r_squared: float
    n_points: int
    alpha_stderr: float
    beta_stderr: float
    method: str

    @property
    def alpha(self) -> float:
        return self.coefficients.alpha

    @property
    def beta(self) -> float:
        return self.coefficients.beta

    def summary(self) -> str:
        """One-line description for logs and EXPERIMENTS.md."""
        return (
            f"alpha={self.alpha:.5f} (±{self.alpha_stderr:.5f}), "
            f"beta={self.beta:.4f} (±{self.beta_stderr:.4f}), "
            f"R²={self.r_squared:.3f}, n={self.n_points}, {self.method}"
        )


def _validate(payload_bytes, snr_db, values, min_points: int):
    payload = np.asarray(payload_bytes, dtype=float).reshape(-1)
    snr = np.asarray(snr_db, dtype=float).reshape(-1)
    y = np.asarray(values, dtype=float).reshape(-1)
    if not (payload.size == snr.size == y.size):
        raise FittingError(
            f"payload/snr/values lengths differ: "
            f"{payload.size}/{snr.size}/{y.size}"
        )
    mask = np.isfinite(payload) & np.isfinite(snr) & np.isfinite(y) & (y > 0)
    payload, snr, y = payload[mask], snr[mask], y[mask]
    if payload.size < min_points:
        raise FittingError(
            f"need at least {min_points} positive finite points, have {payload.size}"
        )
    if np.any(payload <= 0):
        raise FittingError("payload sizes must be positive")
    return payload, snr, y


def _r_squared(y, y_hat) -> float:
    ss_res = float(np.sum((y - y_hat) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0:
        return 1.0 if ss_res == 0 else 0.0
    return 1.0 - ss_res / ss_tot


def _log_linear_fit(payload, snr, y):
    """Weighted least squares of log(y / l_D) on SNR."""
    z = np.log(y / payload)
    slope, intercept = np.polyfit(snr, z, 1)
    alpha = math.exp(intercept)
    beta = float(slope)
    # Standard errors from the linear regression residuals.
    residuals = z - (intercept + slope * snr)
    dof = max(1, snr.size - 2)
    s2 = float(np.sum(residuals**2)) / dof
    sxx = float(np.sum((snr - snr.mean()) ** 2))
    beta_se = math.sqrt(s2 / sxx) if sxx > 0 else math.inf
    intercept_se = (
        math.sqrt(s2 * (1.0 / snr.size + snr.mean() ** 2 / sxx))
        if sxx > 0
        else math.inf
    )
    alpha_se = alpha * intercept_se  # delta method
    return alpha, beta, alpha_se, beta_se


def _scipy_curve_fit():
    """scipy's ``curve_fit``, or None when scipy cannot be imported.

    Imported at call time: scipy.optimize costs ~0.45 s and ~44 MB to
    import, and no serve, fleet, routing or telemetry path ever fits.
    """
    try:
        from scipy.optimize import curve_fit
    except ImportError:  # pragma: no cover - exercised only on broken installs
        return None
    return curve_fit


def fit_exponential_family(
    payload_bytes: Sequence[float],
    snr_db: Sequence[float],
    values: Sequence[float],
    min_points: int = 8,
    use_scipy: bool = True,
) -> FitResult:
    """Fit ``y = α · l_D · exp(β · SNR)`` to positive observations.

    Non-finite and non-positive observations are dropped (a measured PER of
    exactly zero carries no information for a multiplicative model). The
    scipy nonlinear fit is seeded with the log-linear solution; if scipy is
    unavailable or fails to converge the log-linear fit is returned.
    """
    payload, snr, y = _validate(payload_bytes, snr_db, values, min_points)
    alpha0, beta0, alpha_se, beta_se = _log_linear_fit(payload, snr, y)
    method = "log-linear"
    alpha, beta = alpha0, beta0
    curve_fit = _scipy_curve_fit() if use_scipy else None
    if curve_fit is not None:
        def model(x, a, b):
            l, s = x
            return a * l * np.exp(b * s)

        try:
            popt, pcov = curve_fit(
                model,
                (payload, snr),
                y,
                p0=(alpha0, min(beta0, -1e-6)),
                maxfev=20000,
            )
            if np.all(np.isfinite(popt)) and popt[0] > 0 and popt[1] < 0:
                alpha, beta = float(popt[0]), float(popt[1])
                perr = np.sqrt(np.abs(np.diag(pcov)))
                alpha_se, beta_se = float(perr[0]), float(perr[1])
                method = "scipy-curve_fit"
        except (RuntimeError, ValueError):
            pass  # keep the log-linear solution
    if beta >= 0:
        raise FittingError(
            f"fit produced non-decaying beta={beta:.4f}; the data do not "
            "follow the exponential family (is SNR inverted?)"
        )
    y_hat = alpha * payload * np.exp(beta * snr)
    return FitResult(
        coefficients=ExpFitCoefficients(alpha=alpha, beta=beta),
        r_squared=_r_squared(y, y_hat),
        n_points=int(payload.size),
        alpha_stderr=alpha_se,
        beta_stderr=beta_se,
        method=method,
    )


def fit_per_model(payload_bytes, snr_db, per_values, **kwargs) -> FitResult:
    """Fit the paper's Eq. 3 to measured PER observations."""
    return fit_exponential_family(payload_bytes, snr_db, per_values, **kwargs)


def fit_ntries_model(payload_bytes, snr_db, mean_tries, **kwargs) -> FitResult:
    """Fit the paper's Eq. 7: regress (N̄_tries − 1) on the family."""
    tries = np.asarray(mean_tries, dtype=float)
    return fit_exponential_family(payload_bytes, snr_db, tries - 1.0, **kwargs)


def fit_plr_radio_model(
    payload_bytes, snr_db, plr_values, n_max_tries, **kwargs
) -> FitResult:
    """Fit the paper's Eq. 8: regress PLR^(1/N) on the family.

    ``n_max_tries`` may be a scalar or an array aligned with the
    observations.
    """
    plr = np.asarray(plr_values, dtype=float).reshape(-1)
    n = np.broadcast_to(
        np.asarray(n_max_tries, dtype=float), plr.shape
    ).astype(float)
    if np.any(n < 1):
        raise FittingError("n_max_tries values must be >= 1")
    with np.errstate(invalid="ignore"):
        base = np.where(plr > 0, plr ** (1.0 / n), np.nan)
    return fit_exponential_family(payload_bytes, snr_db, base, **kwargs)
