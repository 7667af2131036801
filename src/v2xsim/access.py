"""MAC-layer state machines.

CsmaNode implements single-queue 802.11p channel access (AIFS, uniform
backoff, freeze-while-busy) as a passive state machine: the engine feeds it
medium transitions and timer expiries and executes the actions it returns.

Sidelink autonomous scheduling keeps a per-vehicle sensing window and picks
resources from the best fifth of the selection window, with the standard
threshold-relaxation loop and a probabilistic keep at counter expiry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .util import linear_to_db

# ---------------------------------------------------------------------------
# 802.11p CSMA/CA


@dataclass(frozen=True)
class CsmaParams:
    aifs_s: float = 110e-6
    slot_s: float = 13e-6
    cw_max: int = 15
    sense_decodable_dbm: float = -85.0
    sense_energy_dbm: float = -65.0


@dataclass
class CsmaState:
    phase: str = "idle"  # idle | aifs_wait | backoff_frozen | backoff_counting | transmitting
    backoff_slots_remaining: int = 0
    cw: int = 15
    pending_packet: object = None
    counting_start: float = 0.0
    timer_token: int = 0


@dataclass(frozen=True)
class ScheduleTimer:
    at: float
    token: int


@dataclass(frozen=True)
class StartTx:
    at: float


def csma_carrier_sense(rx_power_dbm: float, decodable: bool,
                       params: CsmaParams = CsmaParams()) -> bool:
    """Busy iff a decodable signal clears the low threshold or any energy the high one."""
    if decodable and rx_power_dbm >= params.sense_decodable_dbm:
        return True
    return rx_power_dbm >= params.sense_energy_dbm


class CsmaNode:
    """One station's channel-access state; all mutation happens in engine order."""

    def __init__(self, params: CsmaParams, rng: np.random.Generator):
        self.params = params
        self.rng = rng
        self.state = CsmaState(cw=params.cw_max)

    def _new_token(self) -> int:
        self.state.timer_token += 1
        return self.state.timer_token

    def _draw_backoff(self) -> int:
        return int(self.rng.integers(0, self.state.cw + 1))

    def on_packet(self, now: float, medium_busy: bool, packet=None):
        """Queue a packet and begin access; a fresh packet replaces an unsent one."""
        st = self.state
        st.pending_packet = packet
        if st.phase in ("aifs_wait", "backoff_frozen", "backoff_counting", "transmitting"):
            return None  # access already in progress; packet replaced in place
        if not medium_busy:
            st.phase = "aifs_wait"
            return ScheduleTimer(now + self.params.aifs_s, self._new_token())
        st.phase = "backoff_frozen"
        st.backoff_slots_remaining = self._draw_backoff()
        return None

    def on_busy(self, now: float):
        """Medium flipped idle -> busy at this node."""
        st = self.state
        if st.phase == "aifs_wait":
            st.phase = "backoff_frozen"
            st.backoff_slots_remaining = self._draw_backoff()
            st.timer_token += 1  # invalidate pending timer
        elif st.phase == "backoff_counting":
            elapsed = max(0.0, now - st.counting_start)
            # epsilon absorbs float error at exact slot boundaries
            consumed = min(int(elapsed / self.params.slot_s + 1e-9),
                           st.backoff_slots_remaining)
            st.backoff_slots_remaining -= consumed
            st.phase = "backoff_frozen"
            st.timer_token += 1
        return None

    def on_idle(self, now: float):
        """Medium flipped busy -> idle; resume AIFS + frozen backoff."""
        st = self.state
        if st.phase != "backoff_frozen":
            return None
        st.phase = "backoff_counting"
        st.counting_start = now + self.params.aifs_s
        at = st.counting_start + st.backoff_slots_remaining * self.params.slot_s
        return ScheduleTimer(at, self._new_token())

    def on_timer(self, now: float, token: int):
        st = self.state
        if token != st.timer_token or st.phase not in ("aifs_wait", "backoff_counting"):
            return None
        st.phase = "transmitting"
        st.backoff_slots_remaining = 0
        return StartTx(now)

    def on_tx_end(self, now: float, medium_busy: bool):
        st = self.state
        st.phase = "idle"
        if st.pending_packet is not None:
            packet = st.pending_packet
            return self.on_packet(now, medium_busy, packet)
        return None

    def take_packet(self):
        packet = self.state.pending_packet
        self.state.pending_packet = None
        return packet


# ---------------------------------------------------------------------------
# Sidelink sensing-based semi-persistent scheduling


@dataclass(frozen=True)
class SpsParams:
    t1_s: float = 1e-3
    t2_s: float = 100e-3
    keep_probability: float = 0.5
    sensing_window_s: float = 1.0
    rsrp_exclude_dbm: float = -110.0
    rsrp_relax_step_db: float = 3.0
    best_fraction: float = 0.2
    counter_min: int = 5
    counter_max: int = 15
    resource_period_s: float = 100e-3

    def __post_init__(self):
        if not 0.0 <= self.keep_probability <= 1.0:
            raise ConfigError("keep_probability must be in [0, 1]")
        if not 0.0 < self.best_fraction <= 1.0:
            raise ConfigError("best_fraction must be in (0, 1]")
        if self.counter_min > self.counter_max:
            raise ConfigError("counter_min must be <= counter_max")


@dataclass
class SpsState:
    reselection_counter: int = 0
    keep_probability: float = 0.5
    needs_reselection: bool = True


@dataclass(frozen=True)
class Selection:
    subchannel: int
    tti: int
    reselection_counter: int
    candidates_kept: int
    candidates_total: int
    threshold_dbm: float


class SensingWindow:
    """Rolling per-(TTI, subchannel) received-power history for one vehicle.

    Rows hold linear mW (0 = silence); NaN marks TTIs the vehicle could not
    sense because it was transmitting (half duplex).
    """

    def __init__(self, window_ttis: int, n_subch: int):
        self.window_ttis = window_ttis
        self.n_subch = n_subch
        self.power_mw = np.zeros((window_ttis, n_subch))
        self.filled_until = 0  # absolute TTI index one past the last recorded row

    def record(self, tti: int, row_mw: np.ndarray):
        self.power_mw[tti % self.window_ttis] = row_mw
        self.filled_until = tti + 1

    def projected_average_mw(self, candidate_ttis: np.ndarray, period_ttis: int) -> np.ndarray:
        """Average sensed power per (candidate TTI, subchannel).

        Each candidate is judged by the past occurrences of its slot on the
        resource period grid that fall inside the sensing window; unsensed
        occurrences are skipped, and a fully unsensed candidate counts as free.
        """
        depth = max(self.window_ttis // period_ttis, 1)
        m = np.arange(1, depth + 1)
        past = candidate_ttis[:, None] - m[None, :] * period_ttis
        lo = max(self.filled_until - self.window_ttis, 0)
        valid = (past >= lo) & (past < self.filled_until)
        rows = self.power_mw[past % self.window_ttis]  # (cand, depth, subch)
        usable = valid[:, :, None] & ~np.isnan(rows)
        rows = np.where(usable, rows, 0.0)
        counts = usable.sum(axis=1)
        return rows.sum(axis=1) / np.maximum(counts, 1)


def sps_select(state: SpsState, sensing: SensingWindow, now_tti: int,
               params: SpsParams, t_tti_s: float, rng: np.random.Generator,
               n_subch_needed: int = 1) -> Selection:
    """Pick a resource in [now+T1, now+T2] following the sensing procedure.

    Candidates above the RSRP threshold are excluded, the threshold relaxing
    in fixed steps until at least best_fraction of the window survives; the
    final pick is uniform over the lowest-power best_fraction share.
    """
    t1 = max(int(round(params.t1_s / t_tti_s)), 1)
    t2 = max(int(round(params.t2_s / t_tti_s)), t1)
    period_ttis = max(int(round(params.resource_period_s / t_tti_s)), 1)
    cand_ttis = np.arange(now_tti + t1, now_tti + t2 + 1)
    n_starts = sensing.n_subch - n_subch_needed + 1
    if n_starts < 1:
        raise ConfigError("packet footprint wider than the subchannel grid")

    per_subch = sensing.projected_average_mw(cand_ttis, period_ttis)
    # metric per candidate start: mean over the subchannels it would occupy
    cols = [per_subch[:, s:s + n_subch_needed].mean(axis=1) for s in range(n_starts)]
    avg_mw = np.stack(cols, axis=1)  # (ttis, starts)
    flat_mw = avg_mw.ravel()
    total = flat_mw.size
    avg_dbm = linear_to_db(flat_mw)

    min_keep = math.ceil(params.best_fraction * total)
    threshold = params.rsrp_exclude_dbm
    kept = avg_dbm <= threshold
    while int(kept.sum()) < min_keep:
        threshold += params.rsrp_relax_step_db
        kept = avg_dbm <= threshold

    kept_idx = np.flatnonzero(kept)
    shuffled = rng.permutation(kept_idx)  # random tie-break among equals
    ranked = shuffled[np.argsort(flat_mw[shuffled], kind="stable")]
    best = ranked[:min_keep]
    choice = int(best[rng.integers(0, best.size)])
    tti = int(cand_ttis[choice // n_starts])
    subch = int(choice % n_starts)
    counter = int(rng.integers(params.counter_min, params.counter_max + 1))
    return Selection(subch, tti, counter, int(kept.sum()), total, threshold)


def sps_after_transmission(state: SpsState, params: SpsParams,
                           rng: np.random.Generator) -> bool | None:
    """Advance the reselection counter; returns the keep decision if one was drawn."""
    state.reselection_counter -= 1
    if state.reselection_counter > 0:
        return None
    keep = bool(rng.random() < state.keep_probability)
    if keep:
        state.reselection_counter = int(
            rng.integers(params.counter_min, params.counter_max + 1)
        )
    else:
        state.needs_reselection = True
    return keep


# ---------------------------------------------------------------------------
# Shared helpers


@dataclass
class ResourceGrid:
    """Occupancy bookkeeping: transmitter ids per (tti, subchannel)."""

    n_subch: int
    occupancy: dict = field(default_factory=dict)

    def add(self, tti: int, subchannels, tx_id: int):
        for s in subchannels:
            self.occupancy.setdefault((tti, s), set()).add(tx_id)

    def sharing(self, tti: int, subchannels) -> set:
        out = set()
        for s in subchannels:
            out |= self.occupancy.get((tti, s), set())
        return out


def intervals_overlap(a_start: float, a_end: float, b_start: float, b_end: float) -> bool:
    return a_start < b_end and b_start < a_end


def half_duplex_filter(tx_intervals, rx_events):
    """Drop receptions whose airtime overlaps any of the receiver's own transmissions."""
    kept = []
    for event in rx_events:
        start, end = event[0], event[1]
        if any(intervals_overlap(start, end, ts, te) for ts, te in tx_intervals):
            continue
        kept.append(event)
    return kept
