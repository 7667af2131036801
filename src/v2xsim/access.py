"""MAC-layer state machines.

CsmaNode holds single-queue 802.11p channel access (AIFS, uniform backoff,
freeze-while-busy) for all stations at once, one array slot per station.
The engine feeds it generations, medium busy/idle flips (as batches of
station ids) and frame ends, and takes from it the earliest scheduled
access instant; there are no per-station timers. Same-instant events are
ordered by one sequence counter (see CsmaNode).

Sidelink autonomous scheduling judges resources by a vehicle's rows of
the engine's sensing ring, the received power per (TTI, vehicle, first
subchannel) that the engine records, one total per start of a frame's
footprint; a selection spreads the rows it reads over the subchannels
they cover (`subchannel_sums`). It picks from the best fifth of the
selection window, with the standard threshold relaxation and a
probabilistic keep at counter expiry. One `sps_select` call selects for
every vehicle that reselects in a TTI: the projection, the metric and the
relaxed threshold are computed for all of them at once, and each then
draws its pick from its own stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .util import linear_to_db

# ---------------------------------------------------------------------------
# 802.11p CSMA/CA


@dataclass(frozen=True)
class CsmaParams:
    slot_time_us: float
    cw_max: int
    sense_decodable_dbm: float
    sense_energy_dbm: float

    def __post_init__(self):
        if self.cw_max < 0:
            raise ConfigError("cw_max must be >= 0")
        if not self.slot_s > 0:
            raise ConfigError("slot_time_us must be > 0")
        try:  # the engine compares the sensed energy with this threshold in mW
            10.0 ** (self.sense_energy_dbm / 10.0)
        except OverflowError:
            raise ConfigError(f"sense_energy_dbm = {self.sense_energy_dbm} dBm is too large "
                              "to convert to mW") from None

    @property
    def slot_s(self) -> float:
        return self.slot_time_us * 1e-6


IDLE, AIFS_WAIT, BACKOFF_FROZEN, BACKOFF_COUNTING, TRANSMITTING = range(5)


class CsmaNode:
    """Channel-access state of all N stations, one array slot per station.

    Per station: `phase`; `contends`, whether it follows the medium's flips
    (set as it begins access, cleared as it transmits); `remaining` backoff
    slots; `counting_start`, the end of the AIFS after which the frozen
    backoff counts down; `access_at`, the instant the station transmits
    unless the medium turns busy first (inf while none is scheduled);
    `access_seq`, the sequence number of that access; `pending`, whether a
    packet is queued. A fresh packet replaces an unsent one in place. `next`
    is (time, sequence number, station) of the earliest scheduled access, or
    None. A method that removes the earliest access marks it stale, and
    reading `next` then rescans the stations; while it is stale, a newly
    scheduled access is not compared with it.

    Tie-break rule: the engine handles events in (time, sequence number)
    order. `seq` is the one counter that numbers both the engine's heap
    events and the access instants; an access takes its number when it is
    scheduled, and stations resumed together take consecutive numbers in
    ascending station id. So of two accesses due at the same instant the
    earlier scheduled one fires first, and an access due at the instant of
    a heap event goes first iff it was scheduled before that event.

    Each station draws its backoff from its own generator, one scalar draw
    per packet that finds the medium busy or sees it turn busy during AIFS.
    `aifs_s` is the AIFS of the settings vector (`Ieee80211pSettings.t_aifs_s`),
    the same one its frame airtime counts.
    """

    def __init__(self, params: CsmaParams, aifs_s: float, rngs: list[np.random.Generator]):
        n = len(rngs)
        self.params = params
        self.aifs_s = aifs_s
        self.slot_s = params.slot_s
        self.rngs = rngs
        self.phase = np.full(n, IDLE, dtype=np.int8)
        self.contends = np.zeros(n, dtype=bool)
        self.remaining = np.zeros(n, dtype=np.int64)
        self.counting_start = np.zeros(n)
        self.access_at = np.full(n, np.inf)
        self.access_seq = np.zeros(n, dtype=np.int64)
        self.pending = np.zeros(n, dtype=bool)
        self.seq = 0
        self._next = None
        self._stale = False

    @property
    def next(self):
        if self._stale:
            self._find_next()
        return self._next

    def take_seq(self) -> int:
        """Next number of the counter shared by heap events and accesses."""
        seq = self.seq
        self.seq += 1
        return seq

    def _draw_backoff(self, vid: int):
        self.remaining[vid] = int(self.rngs[vid].integers(0, self.params.cw_max + 1))

    def _start_access(self, now: float, vid: int, medium_busy: bool):
        self.contends[vid] = True
        if medium_busy:
            self.phase[vid] = BACKOFF_FROZEN
            self._draw_backoff(vid)
            return
        self.phase[vid] = AIFS_WAIT
        at = now + self.aifs_s
        seq = self.take_seq()
        self.access_at[vid] = at
        self.access_seq[vid] = seq
        # the newest number loses every tie, so only an earlier time wins
        if not self._stale and (self._next is None or at < self._next[0]):
            self._next = (at, seq, vid)

    def _find_next(self):
        self._stale = False
        at = self.access_at
        vid = int(at.argmin())
        if at[vid] == np.inf:
            self._next = None
            return
        ties = (at == at[vid]).nonzero()[0]
        if ties.size > 1:
            vid = int(ties[self.access_seq[ties].argmin()])
        self._next = (float(at[vid]), int(self.access_seq[vid]), vid)

    def on_packet(self, now: float, vid: int, medium_busy: bool):
        """Queue a packet at station `vid`; an idle station begins access."""
        self.pending[vid] = True
        if self.phase[vid] == IDLE:
            self._start_access(now, vid, medium_busy)

    def on_busy(self, now: float, vids: np.ndarray):
        """The medium turned busy at contending stations `vids`; all freeze.

        An AIFS waiter draws its backoff; a counting station keeps the slots
        it has not counted down in whole. Their accesses are cancelled.
        """
        phase = self.phase[vids]
        for vid in vids[phase == AIFS_WAIT].tolist():
            self._draw_backoff(vid)
        counting = vids[phase == BACKOFF_COUNTING]
        if counting.size:
            elapsed = np.maximum(now - self.counting_start[counting], 0.0)
            # epsilon absorbs float error at exact slot boundaries
            consumed = (elapsed / self.slot_s + 1e-9).astype(np.int64)
            remaining = self.remaining[counting]
            self.remaining[counting] = remaining - np.minimum(consumed, remaining)
        self.phase[vids] = BACKOFF_FROZEN
        self.access_at[vids] = np.inf
        if self._next is not None and self.access_at[self._next[2]] == np.inf:
            self._stale = True

    def on_idle(self, now: float, vids: np.ndarray):
        """The medium turned idle at contending stations `vids` (ascending, not empty).

        All are frozen, as it was busy; they resume: AIFS, then their slots.
        """
        start = now + self.aifs_s
        at = start + self.remaining[vids] * self.slot_s
        self.phase[vids] = BACKOFF_COUNTING
        self.counting_start[vids] = start
        self.access_at[vids] = at
        self.access_seq[vids] = np.arange(self.seq, self.seq + vids.size)
        self.seq += vids.size
        if self._stale:
            return
        first = int(at.argmin())  # lowest number among the earliest
        if self._next is None or at[first] < self._next[0]:
            self._next = (float(at[first]), int(self.access_seq[vids[first]]),
                          int(vids[first]))

    def on_timer(self) -> int:
        """Fire the earliest scheduled access (`next`); returns its station."""
        vid = self.next[2]
        self.phase[vid] = TRANSMITTING
        self.contends[vid] = False
        self.access_at[vid] = np.inf
        self._stale = True
        return vid

    def on_tx_end(self, now: float, vid: int, medium_busy: bool):
        """Station `vid` finished sending; a packet queued meanwhile begins access."""
        self.phase[vid] = IDLE
        if self.pending[vid]:
            self._start_access(now, vid, medium_busy)

    def take_packet(self, vid: int):
        """Dequeue station `vid`'s packet as its frame goes on air."""
        self.pending[vid] = False


# ---------------------------------------------------------------------------
# Sidelink sensing-based semi-persistent scheduling


@dataclass(frozen=True)
class SpsParams:
    t1_ms: float
    t2_ms: float
    keep_probability: float
    sensing_window_ms: float
    rsrp_exclude_dbm: float
    rsrp_relax_step_db: float
    best_fraction: float
    counter_min: int
    counter_max: int

    def __post_init__(self):
        if not 0.0 <= self.keep_probability <= 1.0:
            raise ConfigError("keep_probability must be in [0, 1]")
        if not 0.0 < self.best_fraction <= 1.0:
            raise ConfigError("best_fraction must be in (0, 1]")
        # a step <= 0 never lets the relaxation loop reach the candidate share
        if not self.rsrp_relax_step_db > 0:
            raise ConfigError("rsrp_relax_step_db must be > 0")
        # a counter below 1 ends its reservation at the next transmission, as 1
        # does, so such a value would have no effect of its own
        if not self.counter_min >= 1:
            raise ConfigError("counter_min must be >= 1")
        if self.counter_min > self.counter_max:
            raise ConfigError("counter_min must be <= counter_max")
        if self.t1_s > self.t2_s:
            raise ConfigError("t1_ms must be <= t2_ms")

    @property
    def t1_s(self) -> float:
        return self.t1_ms * 1e-3

    @property
    def t2_s(self) -> float:
        return self.t2_ms * 1e-3

    @property
    def sensing_window_s(self) -> float:
        return self.sensing_window_ms * 1e-3


@dataclass
class SpsState:
    reselection_counter: int = 0
    needs_reselection: bool = True


@dataclass(frozen=True)
class Selection:
    subchannel: int
    tti: int
    reselection_counter: int
    candidates_kept: int
    candidates_total: int
    threshold_dbm: float


def subchannel_sums(starts: np.ndarray, n_subch_needed: int) -> np.ndarray:
    """Power per subchannel of power per first subchannel (start).

    starts[..., s0] is the power of the frames that start on subchannel s0
    and occupy `n_subch_needed` subchannels from it. Subchannel s holds 0.0
    plus each start that covers it, added in ascending order: the float sum
    the engine's sensing builds per subchannel from its group totals, since
    a start without frames adds +0.0, which leaves a sum unchanged.
    """
    n_starts = starts.shape[-1]
    out = np.zeros(starts.shape[:-1] + (n_starts + n_subch_needed - 1,))
    for s0 in range(n_starts):
        out[..., s0:s0 + n_subch_needed] += starts[..., s0:s0 + 1]
    return out


def projected_average_mw(ring: np.ndarray, vids: np.ndarray, filled_until: int,
                         candidate_ttis: np.ndarray, period_ttis: int,
                         n_subch_needed: int) -> np.ndarray:
    """Average sensed power per (candidate TTI, vehicle, subchannel).

    ring is the engine's (window TTIs, vehicles, starts) sensing ring:
    absolute TTI t is row t % window TTIs, and start s0 is the first
    subchannel of a frame `n_subch_needed` subchannels wide. It holds
    linear mW, the total of the frames that start there (0 = none); NaN in
    every start marks TTIs a vehicle could not sense because it was
    transmitting (half duplex). vids lists the vehicles to judge for, and
    filled_until is the absolute TTI one past the last recorded row.

    Each candidate is judged by the past occurrences of its slot on the
    resource period grid that fall inside the sensing window; unsensed
    occurrences are skipped, and a fully unsensed candidate counts as free.

    Occurrence m of candidate c is the row c - m·period, m = 1..depth
    (depth = window TTIs // period). Only the levels m that can land in
    the recorded span [max(filled_until - window TTIs, 0), filled_until)
    for some candidate are read; for ascending candidates they form one
    range [m_lo, m_hi], and none are read when it is empty. One index
    gathers those levels of the listed vehicles alone, level-major; each
    read level goes from starts to subchannels by `subchannel_sums`, so
    every subchannel of a level holds the bits of the per-subchannel sum
    that the engine's sensing adds up. Every bit of each vehicle's result
    is then that of summing all depth levels of that vehicle alone (a
    (candidate, depth, subchannel) array summed over its depth axis).
    numpy sums that depth axis in order at two or more subchannels, and
    pairwise at one. In order, the unread levels are zeros that add
    nothing, so one reduce of the read levels over the leading axis, which
    numpy accumulates in order, gives the same bits; so does a single read
    level at any width. Two or more read levels at one subchannel keep
    their depth positions in a zero stack of all depth levels, which is
    summed pairwise as the full depth is.
    """
    window_ttis, n_vehicles, n_starts = ring.shape
    n_subch = n_starts + n_subch_needed - 1
    n_cand = candidate_ttis.size
    depth = max(window_ttis // period_ttis, 1)
    lo = max(filled_until - window_ttis, 0)
    m_lo = max((int(candidate_ttis[0]) - filled_until) // period_ttis + 1, 1)
    m_hi = min((int(candidate_ttis[-1]) - lo) // period_ttis, depth)
    if m_lo > m_hi:
        return np.zeros((n_cand, vids.size, n_subch))
    past = candidate_ttis - np.arange(m_lo, m_hi + 1)[:, None] * period_ttis  # (M, cand)
    # one take of whole (TTI, vehicle) rows of the ring: (M, cand, V, starts)
    rows = ring.reshape(-1, n_starts).take(((past % window_ttis) * n_vehicles)[:, :, None] + vids,
                                           axis=0)
    # a row is unsensed in all its starts or in none
    usable = ((past >= lo) & (past < filled_until))[:, :, None] & ~np.isnan(rows[..., 0])
    levels = subchannel_sums(np.where(usable[..., None], rows, 0.0), n_subch_needed)
    counts = np.maximum(np.count_nonzero(usable, axis=0), 1)[..., None]
    if n_subch == 1 and m_hi > m_lo:
        # depth contiguous, as in a vehicle's own (candidate, depth) array
        stack = np.zeros((n_cand, vids.size, depth, 1))
        stack[:, :, m_lo - 1:m_hi] = levels.transpose(1, 2, 0, 3)
        return stack.sum(axis=2) / counts
    return np.add.reduce(levels, axis=0) / counts


def selection_window(params: SpsParams, t_tti_s: float) -> tuple[int, int]:
    """The selection window [T1, T2], in whole TTIs after the selecting TTI."""
    t1 = max(int(round(params.t1_s / t_tti_s)), 1)
    return t1, max(int(round(params.t2_s / t_tti_s)), t1)


# steps the threshold relaxation may take: 300 000 dB at the standard 3 dB
MAX_RELAX_STEPS = 100_000


def sps_select(ring: np.ndarray, vids: np.ndarray, now_tti: int, params: SpsParams,
               t_tti_s: float, period_ttis: int, rngs: list[np.random.Generator],
               n_subch_needed: int) -> list[Selection]:
    """Pick a resource in [now+T1, now+T2] for each of `vids`, by the sensing procedure.

    ring is the engine's sensing ring (`projected_average_mw`), one column
    per candidate start, recorded up to now_tti; vids (ascending) are the
    vehicles that reselect in this TTI and rngs their SPS streams, in the
    same order. Returns one Selection per vehicle. A candidate is judged by its past occurrences
    `period_ttis` apart, the generation period in TTIs. Candidates above
    the RSRP threshold are excluded, the threshold relaxing in fixed steps
    until at least best_fraction of the window survives (a relaxation that
    needs more than MAX_RELAX_STEPS is a ConfigError); the final pick is
    uniform over the lowest-power best_fraction share of the candidate
    starts, each `n_subch_needed` subchannels wide.

    The projection, the metric and the relaxation run for all vehicles at
    once; each vehicle then draws from its own stream, so a Selection does
    not depend on which other vehicles share its call.
    """
    t1, t2 = selection_window(params, t_tti_s)
    cand_ttis = np.arange(now_tti + t1, now_tti + t2 + 1)
    n_starts = ring.shape[2]

    per_subch = projected_average_mw(ring, vids, now_tti, cand_ttis, period_ttis,
                                     n_subch_needed)
    # metric per candidate start: mean over the subchannels it would occupy
    cols = [per_subch[:, :, s:s + n_subch_needed].mean(axis=2) for s in range(n_starts)]
    avg_mw = np.stack(cols, axis=2).transpose(1, 0, 2)  # (V, ttis, starts)
    flat_mw = avg_mw.reshape(vids.size, -1)
    total = flat_mw.shape[1]
    avg_dbm = linear_to_db(flat_mw)

    min_keep = math.ceil(params.best_fraction * total)
    # at least min_keep candidates lie at or below a threshold exactly when
    # the min_keep-th smallest does
    kth = np.partition(avg_dbm, min_keep - 1, axis=1)[:, min_keep - 1].tolist()
    selections = []
    for v, rng in enumerate(rngs):
        threshold = params.rsrp_exclude_dbm
        steps = 0
        while not kth[v] <= threshold:
            # a step too small for the threshold's float leaves it where it was
            if steps == MAX_RELAX_STEPS:
                raise ConfigError(
                    f"the SPS threshold relaxation keeps too few candidates after "
                    f"{MAX_RELAX_STEPS} steps: raise cv2x.rsrp_relax_step_db or "
                    "cv2x.rsrp_exclude_dbm")
            threshold += params.rsrp_relax_step_db
            steps += 1
        kept_idx = (avg_dbm[v] <= threshold).nonzero()[0]
        shuffled = rng.permutation(kept_idx)  # random tie-break among equals
        ranked = shuffled[flat_mw[v][shuffled].argsort(kind="stable")]
        best = ranked[:min_keep]
        choice = int(best[rng.integers(0, best.size)])
        tti = int(cand_ttis[choice // n_starts])
        subch = int(choice % n_starts)
        counter = int(rng.integers(params.counter_min, params.counter_max + 1))
        selections.append(Selection(subch, tti, counter, kept_idx.size, total, threshold))
    return selections


def sps_after_transmission(state: SpsState, params: SpsParams,
                           rng: np.random.Generator) -> bool | None:
    """Advance the reselection counter; returns the keep decision if one was drawn."""
    state.reselection_counter -= 1
    if state.reselection_counter > 0:
        return None
    keep = bool(rng.random() < params.keep_probability)
    if keep:
        state.reselection_counter = int(
            rng.integers(params.counter_min, params.counter_max + 1)
        )
    else:
        state.needs_reselection = True
    return keep
