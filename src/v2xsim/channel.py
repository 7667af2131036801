"""Link-level power math: path loss, correlated shadowing, noise, link budget.

Path loss follows the WINNER+ B1 street layout with a dual-slope LOS branch
and a distance-only NLOS branch. Coefficients are configuration data; the
defaults below the breakpoint reproduce the standard B1 LOS curve at 5.9 GHz.
SINR is not computed here: the engine's scorer sums the received powers of
each link in the linear domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

SPEED_OF_LIGHT = 299792458.0
THERMAL_NOISE_DBM_HZ = -174.0


@dataclass(frozen=True)
class WinnerCoefficients:
    """a*log10(d) + b + c*log10(fc/5 GHz), plus 40 dB/decade past the breakpoint."""

    los_a: float = 22.7
    los_b: float = 41.0
    los_c: float = 20.0
    nlos_a: float = 36.7
    nlos_b: float = 48.0
    nlos_c: float = 26.0
    breakpoint_exponent_db: float = 40.0


@dataclass(frozen=True)
class PropagationConfig:
    carrier_hz: float = 5.9e9
    model: str = "winner_b1_los"  # winner_b1_los | winner_b1_nlos
    shadowing_std_db: float = 3.0
    shadowing_is_variance: bool = False
    decorrelation_m: float = 25.0
    antenna_gain_dbi: float = 3.0
    noise_figure_db: float = 6.0
    tx_power_density_dbm_mhz: float = 13.0
    bandwidth_hz: float = 10e6
    antenna_height_m: float = 1.5
    coefficients: WinnerCoefficients = field(default_factory=WinnerCoefficients)

    def __post_init__(self):
        if not self.carrier_hz > 0:
            raise ConfigError("carrier_hz must be > 0")
        if not self.shadowing_std_db >= 0:
            raise ConfigError("shadowing_std_db must be >= 0")
        if self.decorrelation_m <= 0:
            raise ConfigError("decorrelation_m must be > 0")
        if self.bandwidth_hz <= 0:
            raise ConfigError("bandwidth_hz must be > 0")
        if self.model not in ("winner_b1_los", "winner_b1_nlos"):
            raise ConfigError(f"unknown propagation model {self.model!r}")

    @property
    def shadowing_sigma_db(self) -> float:
        if self.shadowing_is_variance:
            return math.sqrt(self.shadowing_std_db)
        return self.shadowing_std_db

    @property
    def tx_power_dbm(self) -> float:
        """Total transmit power: density integrated over the channel."""
        return self.tx_power_density_dbm_mhz + 10.0 * math.log10(self.bandwidth_hz / 1e6)

    @property
    def lossless_rx_dbm(self) -> float:
        """Received power before path loss and shadowing: tx power plus both antenna gains."""
        return self.tx_power_dbm + 2.0 * self.antenna_gain_dbi

    @property
    def breakpoint_m(self) -> float:
        return 4.0 * self.antenna_height_m ** 2 * self.carrier_hz / SPEED_OF_LIGHT


def _free_space_db(log_d, carrier_hz: float):
    return 20.0 * log_d + 20.0 * np.log10(carrier_hz) + 20.0 * math.log10(
        4.0 * math.pi / SPEED_OF_LIGHT
    )


def _winner_db(log_d, a: float, b: float, c: float, carrier_hz: float):
    return a * log_d + b + c * math.log10(carrier_hz / 5e9)


def winner_formula_db(d, a: float, b: float, c: float, carrier_hz: float):
    """Single-slope WINNER-style term, unclamped; d floored at 1 m."""
    d = np.maximum(np.asarray(d, dtype=float), 1.0)
    return _winner_db(np.log10(d), a, b, c, carrier_hz)


def path_loss_db(d, cfg: PropagationConfig, los: bool | np.ndarray | None = None):
    """Deterministic path loss at distance d (m), clamped at free-space loss.

    `los` is the layout's LOS classification per element (None: every link
    LOS). The `winner_b1_los` model keeps it; `winner_b1_nlos` puts every
    link on the NLOS branch. The LOS branch turns dual-slope past the
    breakpoint, the NLOS branch is single-slope.
    """
    d = np.maximum(np.asarray(d, dtype=float), 1.0)
    log_d = np.log10(d)
    co = cfg.coefficients
    if los is None or cfg.model == "winner_b1_nlos":
        los = cfg.model == "winner_b1_los"
    loss = _winner_db(log_d, co.los_a, co.los_b, co.los_c, cfg.carrier_hz)
    d_bp = cfg.breakpoint_m
    past = d > d_bp
    if np.any(past):
        at_bp = winner_formula_db(d_bp, co.los_a, co.los_b, co.los_c, cfg.carrier_hz)
        loss = np.where(
            past, at_bp + co.breakpoint_exponent_db * np.log10(d / d_bp), loss
        )
    if not np.all(los):
        nlos_loss = _winner_db(log_d, co.nlos_a, co.nlos_b, co.nlos_c, cfg.carrier_hz)
        loss = np.where(los, loss, nlos_loss)
    return np.maximum(loss, _free_space_db(log_d, cfg.carrier_hz))


def noise_power_dbm(cfg: PropagationConfig) -> float:
    """Thermal noise over the channel bandwidth plus the receiver noise figure."""
    return THERMAL_NOISE_DBM_HZ + 10.0 * math.log10(cfg.bandwidth_hz) + cfg.noise_figure_db


class LinkShadowing:
    """Correlated log-normal shadowing, one process per directed link.

    The process decorrelates with the transmitter's traveled distance:
    s' = rho*s + sigma*sqrt(1-rho^2)*z with rho = exp(-delta/decorr). The
    engine keeps all links in one matrix and draws its initial values as
    sigma * N(0, 1).
    """

    @staticmethod
    def evolve_matrix(values: np.ndarray, delta_m: np.ndarray, sigma_db: float,
                      decorrelation_m: float, rng: np.random.Generator) -> np.ndarray:
        """Vectorized update: rows share the transmitter's displacement."""
        rho = np.exp(-np.abs(delta_m) / decorrelation_m)[:, None]
        z = rng.standard_normal(values.shape)
        return rho * values + sigma_db * np.sqrt(1.0 - rho * rho) * z


def rx_power_dbm(distance_m, cfg: PropagationConfig, shadowing_db=0.0,
                 los: bool | np.ndarray | None = None):
    """Link budget: tx power + both antenna gains - path loss - shadowing."""
    return cfg.lossless_rx_dbm - path_loss_db(distance_m, cfg, los=los) - shadowing_db
