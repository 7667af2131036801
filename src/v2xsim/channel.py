"""Link-level power math: path loss, correlated shadowing, noise, link budget.

Path loss follows the WINNER+ B1 street layout with a dual-slope LOS branch
and a distance-only NLOS branch. Its coefficients are `PropagationConfig`
fields like any other, each named after its `[propagation]` key with its
default in `config.DEFAULT_CONFIG`. With the defaults at 5.9 GHz the
free-space clamp (20 log10(d) + 47.86 dB) lies above the B1 LOS branch
(22.7 log10(d) + 42.44 dB) on every link shorter than 102.3 m and decides
its loss: the standard B1 LOS curve holds from 102.3 m up to the 177.1 m
breakpoint, and its 40 dB per decade slope past it. Each branch, and the
free-space clamp, is evaluated as one slope times log10(d) plus one constant
that folds the branch's other terms, so a link costs one log10 however many
branches apply. SINR is not computed here: the engine's scorer sums the
received powers of each link in the linear domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

SPEED_OF_LIGHT = 299792458.0
THERMAL_NOISE_DBM_HZ = -174.0
# slope of the LOS branch past the breakpoint, dB per decade of distance
BREAKPOINT_EXPONENT_DB = 40.0


@dataclass(frozen=True)
class PropagationConfig:
    carrier_hz: float
    model: str  # winner_b1_los | winner_b1_nlos
    shadowing_std_db: float
    shadowing_is_variance: bool
    decorrelation_m: float
    antenna_gain_dbi: float
    noise_figure_db: float
    tx_power_density_dbm_mhz: float
    bandwidth_hz: float
    antenna_height_m: float
    # per branch a*log10(d) + b + c*log10(fc/5 GHz), see also BREAKPOINT_EXPONENT_DB
    los_a: float
    los_b: float
    los_c: float
    nlos_a: float
    nlos_b: float
    nlos_c: float

    def __post_init__(self):
        if not self.carrier_hz > 0:
            raise ConfigError("carrier_hz must be > 0")
        if not self.shadowing_std_db >= 0:
            raise ConfigError("shadowing_std_db must be >= 0")
        if self.decorrelation_m <= 0:
            raise ConfigError("decorrelation_m must be > 0")
        if self.bandwidth_hz <= 0:
            raise ConfigError("bandwidth_hz must be > 0")
        # a height <= 0 puts the breakpoint at 0 m, so every link is lost
        if not self.antenna_height_m > 0:
            raise ConfigError("antenna_height_m must be > 0")
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


def path_loss_db(d, cfg: PropagationConfig, los: bool | np.ndarray | None = None):
    """Deterministic path loss at distance d (m), clamped at free-space loss.

    `los` is the layout's LOS classification per element (None: every link
    LOS). The `winner_b1_los` model keeps it; `winner_b1_nlos` puts every
    link on the NLOS branch. The LOS branch turns dual-slope past the
    breakpoint, the NLOS branch is single-slope.

    With log_d = log10(max(d, 1 m)), each branch is one slope times log_d
    plus one constant that folds the rest of its terms:
      - LOS: los_a * log_d + los_b + los_c * log10(fc / 5 GHz);
      - LOS past the breakpoint d_bp: 40 * log_d plus the LOS loss at
        max(d_bp, 1 m) minus 40 * log10(d_bp), the LOS loss at d_bp plus
        40 dB per decade past it;
      - NLOS: nlos_a * log_d + nlos_b + nlos_c * log10(fc / 5 GHz);
      - free space: 20 * log_d + 20 * log10(4 pi fc / c).
    Folding moves the last bits against the unfolded sums; the channel tests
    bound the difference.
    """
    d = np.maximum(np.asarray(d, dtype=float), 1.0)
    log_d = np.log10(d)
    if los is None or cfg.model == "winner_b1_nlos":
        los = cfg.model == "winner_b1_los"
    band_db = math.log10(cfg.carrier_hz / 5e9)
    los_const = cfg.los_b + cfg.los_c * band_db
    loss = np.asarray(cfg.los_a * log_d)  # 0-d for a scalar d: updated in place below
    loss += los_const
    d_bp = cfg.breakpoint_m
    past = d > d_bp
    if np.any(past):
        at_bp = cfg.los_a * math.log10(max(d_bp, 1.0)) + los_const
        beyond = BREAKPOINT_EXPONENT_DB * log_d
        beyond += at_bp - BREAKPOINT_EXPONENT_DB * math.log10(d_bp)
        np.copyto(loss, beyond, where=past)
    if not np.all(los):
        nlos = cfg.nlos_a * log_d
        nlos += cfg.nlos_b + cfg.nlos_c * band_db
        np.copyto(loss, nlos, where=np.logical_not(los))
    free_space = 20.0 * log_d
    free_space += 20.0 * math.log10(cfg.carrier_hz) + 20.0 * math.log10(
        4.0 * math.pi / SPEED_OF_LIGHT)
    return np.maximum(loss, free_space, out=loss)


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
                      decorrelation_m: float, rng: np.random.Generator):
        """Vectorized update of `values` in place: rows share the transmitter's displacement."""
        rho = np.exp(-np.abs(delta_m) / decorrelation_m)[:, None]
        z = rng.standard_normal(values.shape)
        z *= sigma_db * np.sqrt(1.0 - rho * rho)
        values *= rho
        values += z

