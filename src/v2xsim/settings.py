"""Technology parameter vectors and the timing/throughput math built on them.

Two families are modeled: IEEE 802.11p (CSMA-based, full-channel frames) and
C-V2X sidelink (TTI/subchannel grid). A field holds its config key's unit
(`t_tti_ms`), the SI seconds are a property (`t_tti_s`), and the math below
works in seconds and bit/s. The dataclasses hold no defaults: every default
lives in `config.DEFAULT_CONFIG`, except the PRB table rows
(`DEFAULT_BITS_PER_PRB` below), and `config.theta_for` builds the vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError

# Data bits carried by one OFDM symbol for the eight 10 MHz MCS indices
# (BPSK 1/2 up to 64-QAM 3/4).
NBPS_TABLE = (24, 36, 48, 72, 96, 144, 192, 216)

# Net payload bits per PRB for the sidelink MCS ladder. These are documented
# approximations of the transport-block capacity after control/DMRS overhead
# (the exact 3GPP tables are out of scope); rows of the [prb_table] config
# section override them if the deployment needs different sizing. Anchored
# so MCS 7 (QPSK, CR~0.5) carries a 350-byte packet in 37 PRBs.
DEFAULT_BITS_PER_PRB = {
    0: 18, 1: 23, 2: 28, 3: 36, 4: 44, 5: 54, 6: 64, 7: 76,
    8: 88, 9: 100, 10: 112, 11: 128, 12: 144, 13: 164, 14: 184,
    15: 204, 16: 224, 17: 244, 18: 272, 19: 300, 20: 328,
}


@dataclass(frozen=True)
class PrbTable:
    """Sidelink PRB sizing: net bits per PRB by MCS index.

    control_overhead_prbs is the per-packet control-channel footprint
    (adjacent PSCCH); it widens the on-grid resource footprint but is not
    part of the transport-block capacity scan.
    """

    bits_per_prb: dict
    control_overhead_prbs: int


@dataclass(frozen=True)
class Ieee80211pSettings:
    """802.11p parameter vector: payload, MCS and frame timing constants."""

    payload_bytes: int
    t_aifs_us: float
    t_preamble_us: float
    t_symbol_us: float
    mcs_index: int

    def __post_init__(self):
        if self.payload_bytes < 1:
            raise ConfigError(f"payload_bytes must be >= 1, got {self.payload_bytes}")
        if not 0 <= self.mcs_index <= 7:
            raise ConfigError(f"802.11p mcs_index must be in 0..7, got {self.mcs_index}")
        for name, value in (("t_aifs_us", self.t_aifs_s), ("t_preamble_us", self.t_preamble_s),
                            ("t_symbol_us", self.t_symbol_s)):
            if value <= 0:
                raise ConfigError(f"{name} must be > 0")

    @property
    def t_aifs_s(self) -> float:
        return self.t_aifs_us * 1e-6

    @property
    def t_preamble_s(self) -> float:
        return self.t_preamble_us * 1e-6

    @property
    def t_symbol_s(self) -> float:
        return self.t_symbol_us * 1e-6

    @property
    def n_bps(self) -> int:
        """Data bits per OFDM symbol at this MCS (10 MHz)."""
        return NBPS_TABLE[self.mcs_index]


@dataclass(frozen=True)
class CV2xSettings:
    """C-V2X sidelink parameter vector: payload plus grid geometry."""

    payload_bytes: int
    n_subch: int
    n_prb_subch: int
    t_tti_ms: float
    n_prb_pkt: int
    mcs_index: int

    def __post_init__(self):
        if self.payload_bytes < 1:
            raise ConfigError(f"payload_bytes must be >= 1, got {self.payload_bytes}")
        if self.n_prb_pkt < 1:
            raise ConfigError("n_prb_pkt must be >= 1")
        if self.n_subch * self.n_prb_subch < 1:
            raise ConfigError("n_subch x n_prb_subch must be at least one PRB")
        if not any(math.isclose(self.t_tti_s, t) for t in (0.25e-3, 0.5e-3, 1e-3)):
            raise ConfigError(f"t_tti_ms must be 0.25, 0.5 or 1, got {self.t_tti_ms}")

    @property
    def t_tti_s(self) -> float:
        return self.t_tti_ms * 1e-3

    @property
    def n_prb_tti(self) -> int:
        return self.n_subch * self.n_prb_subch

    @property
    def n_tti(self) -> int:
        return math.ceil(self.n_prb_pkt / self.n_prb_tti)


TechnologySettings = Ieee80211pSettings | CV2xSettings


def resolve_nprb(mcs_index: int, payload_bytes: int, table: PrbTable) -> int:
    """Smallest PRB count whose capacity carries the payload.

    Returns data PRBs only; the PSCCH footprint constant of the table is
    applied where the on-grid footprint is built, not here.
    """
    if payload_bytes < 1:
        raise ConfigError(f"payload_bytes must be >= 1, got {payload_bytes}")
    if mcs_index not in table.bits_per_prb:
        raise ConfigError(f"mcs_index {mcs_index} not present in the PRB table")
    per_prb = table.bits_per_prb[mcs_index]
    return (8 * payload_bytes + per_prb - 1) // per_prb


def tx_time_11p(s: Ieee80211pSettings) -> float:
    """Airtime of one 802.11p frame: AIFS + preamble + payload symbols."""
    n_sym = math.ceil(8 * s.payload_bytes / s.n_bps)
    return s.t_aifs_s + s.t_preamble_s + s.t_symbol_s * n_sym


def tx_time_cv2x(s: CV2xSettings) -> float:
    """Airtime of one sidelink packet: whole TTIs needed by its PRBs."""
    return s.t_tti_s * s.n_tti


def tx_time(s: TechnologySettings) -> float:
    if isinstance(s, Ieee80211pSettings):
        return tx_time_11p(s)
    return tx_time_cv2x(s)


def effective_throughput(s: TechnologySettings) -> float:
    """Maximum net throughput of the configuration in bit/s.

    For 802.11p this is payload bits over airtime. For C-V2X the ratio is
    scaled by the share of the TTI grid the packet leaves free, so a packet
    using few PRBs is credited with the parallel capacity of the rest.
    """
    bits = 8 * s.payload_bytes
    t = tx_time(s)
    if isinstance(s, Ieee80211pSettings):
        return bits / t
    return (bits / t) * (s.n_subch * s.n_prb_subch * s.n_tti / s.n_prb_pkt)
