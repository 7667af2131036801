"""Single-parameter PHY abstraction.

The pipeline: cut each PER-vs-SINR curve at a target PER beta to get a step
threshold, pair the configuration's effective throughput with the Shannon
capacity at that threshold, least-square fit the implementation loss, and
from then on synthesize thresholds for any configuration without a curve.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, CurveRangeError, DataError
from .settings import TechnologySettings, effective_throughput
from .util import db_to_linear, linear_to_db

log = logging.getLogger(__name__)

# PER adjustments larger than this during normalization suggest the input
# was not a sampled monotone curve; flagged, not rejected.
ADJUSTMENT_WARN_LEVEL = 0.01


@dataclass(frozen=True)
class CurveMeta:
    scenario_id: str = ""
    technology: str = ""
    mcs_index: int = -1
    payload_bytes: int = 0

    def tag(self) -> str:
        return f"{self.technology}_mcs{self.mcs_index}_{self.payload_bytes}B"


@dataclass(frozen=True)
class PerCurve:
    """Monotone PER-vs-SINR samples for one (scenario, tech, MCS, payload)."""

    sinr_db: np.ndarray
    per: np.ndarray
    meta: CurveMeta = field(default_factory=CurveMeta)
    max_adjustment: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "sinr_db", np.asarray(self.sinr_db, dtype=float))
        object.__setattr__(self, "per", np.asarray(self.per, dtype=float))
        if self.sinr_db.size < 2:
            raise DataError(f"curve {self.meta.tag()} needs at least 2 points")
        if not np.all(np.diff(self.sinr_db) > 0):
            raise DataError(f"curve {self.meta.tag()} has non-increasing SINR samples")
        if np.any(self.per < 0) or np.any(self.per > 1):
            raise DataError(f"curve {self.meta.tag()} has PER outside [0, 1]")
        if np.any(np.diff(self.per) > 0):
            raise DataError(f"curve {self.meta.tag()} is not monotone non-increasing")

    def per_at_db(self, sinr_db):
        """Interpolated PER, clamped to 1 below and 0 above the sampled range."""
        x = np.asarray(sinr_db, dtype=float)
        return np.interp(x, self.sinr_db, self.per, left=1.0, right=0.0)

    def per_at_linear(self, sinr_linear):
        return self.per_at_db(linear_to_db(sinr_linear))


@dataclass(frozen=True)
class StepFunction:
    """Hard reception threshold: received iff SINR (linear) exceeds gamma_th."""

    gamma_th: float
    beta: float

    def __post_init__(self):
        if not self.gamma_th > 0:
            raise ConfigError(f"gamma_th must be > 0, got {self.gamma_th}")

    @property
    def gamma_th_db(self) -> float:
        return 10.0 * math.log10(self.gamma_th)


@dataclass(frozen=True)
class FitPoint:
    """One (effective throughput, Shannon throughput) pair entering the fit."""

    psi_e: float
    psi_s: float
    settings_tag: str = ""

    def __post_init__(self):
        if self.psi_e <= 0 or self.psi_s <= 0:
            raise DataError(f"fit point {self.settings_tag} has non-positive throughput")


@dataclass(frozen=True)
class AbstractionModel:
    """Fitted implementation loss for one scenario, with its fit residual."""

    alpha_hat: float
    bandwidth_hz: float
    beta: float
    scenario_id: str = ""
    rmse: float = 0.0
    n_points: int = 0

    def __post_init__(self):
        if not self.alpha_hat > 0:
            raise ConfigError(f"alpha_hat must be > 0, got {self.alpha_hat}")
        if not self.bandwidth_hz > 0:
            raise ConfigError(f"bandwidth_hz must be > 0, got {self.bandwidth_hz}")
        if not 0 < self.beta < 1:
            raise ConfigError(f"beta must be in (0, 1), got {self.beta}")


def pav_non_increasing(values: np.ndarray) -> np.ndarray:
    """Least-squares non-increasing fit via pool-adjacent-violators."""
    y = list(-np.asarray(values, dtype=float))
    # blocks of (sum, count) for the mirrored non-decreasing problem
    sums = []
    counts = []
    for v in y:
        sums.append(v)
        counts.append(1)
        while len(sums) > 1 and sums[-2] / counts[-2] > sums[-1] / counts[-1]:
            s, c = sums.pop(), counts.pop()
            sums[-1] += s
            counts[-1] += c
    out = np.empty(len(y))
    i = 0
    for s, c in zip(sums, counts):
        out[i:i + c] = s / c
        i += c
    return -out


def normalize_curve(raw_points, meta: CurveMeta | None = None) -> PerCurve:
    """Turn raw (sinr_db, per) samples into a valid monotone curve.

    Sorts by SINR, clamps PER into [0, 1] and pools adjacent violators so
    the result is non-increasing. The largest adjustment applied is kept on
    the curve; anything above ADJUSTMENT_WARN_LEVEL is logged.
    """
    pts = np.asarray(list(raw_points), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise DataError("curve needs at least 2 (sinr_db, per) points")
    order = np.argsort(pts[:, 0], kind="stable")
    sinr = pts[order, 0]
    per_raw = pts[order, 1]
    if np.any(np.diff(sinr) == 0):
        raise DataError("duplicate SINR values in curve input")
    per = np.clip(per_raw, 0.0, 1.0)
    per_fit = pav_non_increasing(per)
    per_fit = np.clip(per_fit, 0.0, 1.0)
    max_adj = float(np.max(np.abs(per_fit - per_raw)))
    if max_adj > ADJUSTMENT_WARN_LEVEL:
        log.warning("curve normalization moved a PER sample by %.4f", max_adj)
    return PerCurve(sinr, per_fit, meta or CurveMeta(), max_adjustment=max_adj)


def threshold_from_curve(curve: PerCurve, beta: float) -> StepFunction:
    """SINR threshold where the curve crosses the target PER beta.

    Interpolation is linear in (dB, PER) space; when the curve runs flat at
    beta the lowest crossing SINR is returned.
    """
    per = curve.per
    lo, hi = float(per.min()), float(per.max())
    if not lo < beta < hi:
        raise CurveRangeError(
            f"beta={beta} outside PER range ({lo}, {hi}) of curve {curve.meta.tag()}"
        )
    j = int(np.argmax(per <= beta))  # first index at or below beta
    if per[j] == beta:
        gamma_db = float(curve.sinr_db[j])
    else:
        x0, x1 = curve.sinr_db[j - 1], curve.sinr_db[j]
        y0, y1 = per[j - 1], per[j]
        gamma_db = float(x0 + (x1 - x0) * (y0 - beta) / (y0 - y1))
    return StepFunction(gamma_th=float(db_to_linear(gamma_db)), beta=beta)


def shannon_throughput(gamma_th: float, bandwidth_hz: float) -> float:
    """AWGN capacity bound at the given linear SINR."""
    if gamma_th < 0:
        raise ConfigError(f"gamma_th must be >= 0, got {gamma_th}")
    return bandwidth_hz * math.log2(1.0 + gamma_th)


def fit_alpha(points, bandwidth_hz: float, beta: float,
              scenario_id: str = "") -> AbstractionModel:
    """Least-squares implementation loss over the available fit points.

    The model is linear through the origin, so the minimizer has the closed
    form sum(psi_e*psi_s)/sum(psi_s^2); the RMSE of the residuals is kept
    for reporting.
    """
    pts = list(points)
    if not pts:
        raise DataError("fit_alpha needs at least one fit point")
    psi_e = np.array([p.psi_e for p in pts])
    psi_s = np.array([p.psi_s for p in pts])
    alpha = float(np.dot(psi_e, psi_s) / np.dot(psi_s, psi_s))
    rmse = float(np.sqrt(np.mean((psi_e - alpha * psi_s) ** 2)))
    return AbstractionModel(alpha_hat=alpha, bandwidth_hz=bandwidth_hz, beta=beta,
                            scenario_id=scenario_id, rmse=rmse, n_points=len(pts))


def threshold_for_settings(theta: TechnologySettings,
                           model: AbstractionModel) -> StepFunction:
    """Synthesized SINR threshold for a configuration without a curve."""
    psi_e = effective_throughput(theta)
    gamma = 2.0 ** (psi_e / (model.alpha_hat * model.bandwidth_hz)) - 1.0
    return StepFunction(gamma_th=gamma, beta=model.beta)


def select_beta(candidate_betas, benchmark, simulate):
    """Pick the target PER whose step-function run best matches the benchmark.

    `simulate` maps a beta to a PrrSeries on the benchmark's distance bins;
    returns the winning beta plus the full (beta, mae) table.
    """
    from .metrics import mae as series_mae

    table = []
    for beta in candidate_betas:
        series = simulate(beta)
        table.append((float(beta), series_mae(benchmark, series)))
    best = min(table, key=lambda row: row[1])
    return best[0], table
