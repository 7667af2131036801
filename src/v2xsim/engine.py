"""Discrete-event simulation core.

802.11p runs in continuous time: a heap holds generations, frame ends and
mobility epochs, while channel-access instants live in the CSMA arrays; the
next event is the earlier of the heap top and the earliest access, ties
going by one shared sequence counter. C-V2X runs on a TTI-slotted
timeline; the vehicles that reselect an SPS resource in a TTI select in
one `sps_select` call, against one sensing ring of all vehicles. Both
share the same link-budget cache (`_PhyCache`): per mobility epoch the
engine overwrites its NxN buffers in place, walking the vehicles in row
blocks. Two are float64, the shadowing and the received power (mW) of
each directed link; the link budget in dBm lives only in a block-sized
buffer, and goes to mW as exp(dBm * ln(10) / 10) (`dbm_to_mw`). The terms
symmetric in the vehicle pair are computed once per pair and mirrored:
distance (sqrt(dx^2 + dy^2)), LOS (no mask on the highway, where every
link is LOS), path loss (one slope and one folded constant per branch), and the
pair's link code, which holds all that scoring reads of the distance (in
range, PRR bin, inside the IPG range) in one small integer. Shadowing and
the link budget are computed per directed link, the shadowing drawn in row
order.

802.11p carrier sense is one rule, busy at the decodable or at the energy
threshold. A frame carries the stations it reaches decodably as a bool row,
taken from its mW power row as it starts: its start adds the row to their
count and its end subtracts it, and while no energy sum is kept an edge
looks for a flip only at the contending stations of its row; the sum, and
with it a busy vector, is kept only while it can matter (`_Run11p`).

The event loops only record frames; one scorer turns them into link
outcomes in F x N passes against all in-range receivers. Every frame of a
run is on air for the same `duration_s`, so a frame is its transmitter
and start. An ended 802.11p frame is kept with its power and link-code
rows and the frames on air with it in event order (`overlappers`): each
such pair is half duplex, and it interferes with the share of airtime the
two share, computed for the whole batch at once; a batch stacks each frame's
power row once, however many frames it overlaps. The frames of a C-V2X
TTI interfere with and deafen only each other; those that start on one
subchannel, a group, occupy the same PRBs, as every frame of a run has the
same footprint. Sensing sums each group's power rows once, in tx order, and
writes the transposed group totals into the (window, N, first subchannel)
ring that SPS selection reads, 0.0 at a start without frames; a selection
spreads the rows it reads over the subchannels they cover. A sent TTI
is held with its transmitters and its group totals. Frames that start
before warmup are never held, only counted. Either engine scores
its held frames once they reach SCORE_BATCH_ELEMENTS frame x receiver
elements and at the end of the run; C-V2X also scores them before each
mobility epoch, while the power and link-code rows are still theirs. Each
frame sums the noise and its interferers in its own interferer order
(`interference_mw`); the frames are ranked by interferer count, so the k-th
interferers of a batch add to its first rows in one contiguous add. A
C-V2X frame's sum starts at its own group's total less its own row, then
adds each other group of its TTI that shares PRBs with it, at that share:
about one row per group, not one per other frame of the TTI.

Every vehicle's phase, backoff and SPS streams are derived from the seed
and the vehicle ids in one hash (`util.streams`), each the stream
`util.stream` would give the vehicle.

A batch of link outcomes (`LinkBatch`) holds what every reception model
needs of the in-range (frame, receiver) links of frames that start after
warmup: the SINR, the half-duplex flag, the PRR bin and the IPG in-range
flag, each computed once; the links of frames that start before warmup are
kept only as a count. A batch does not depend on the reception model,
because the MAC never sees reception outcomes, so the engines know no
model and build no metric store: each takes the setup whole, counts the
packets generated and transmitted after warmup, and hands every scored
batch to `emit`.

`run(setup, reception)` owns the reception streams and the one tally loop.
A reception model is a `PerCurve` (a Bernoulli draw against the
interpolated PER curve) or a `StepFunction` (a hard SINR threshold);
`tally` draws the decisions of a batch under it and fills a `MetricStore`.
Each generated packet resolves, per in-range receiver, to exactly one of
received / lost-by-SINR / lost-by-half-duplex.

One pass for many models: `select-beta` and `validate` know every model
they will ask for before they simulate, so they list them in a
`SharedRun`. The first `run(setup, model, shared=...)` simulates the
channel once and hands each batch to every model's `tally`, each model with
its own reception stream; every later call returns its model's store. Each
store equals that of a live run under its model alone: the batches, their
order and the stream are the same. `ipg=False` leaves the stores' IPG
empty, for a command that writes none.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import scenario as scen
from .abstraction import PerCurve, StepFunction
from .access import (CsmaNode, CsmaParams, SpsParams, SpsState, selection_window,
                     sps_after_transmission, sps_select)
from .channel import LinkShadowing, PropagationConfig, noise_power_dbm, path_loss_db
from .errors import ConfigError
from .metrics import IpgStore, MetricStore, PrrSeries, uniform_bin_edges
from .scenario import Geometry, RoadConfig, TrafficConfig, generation_phase
from .settings import (CV2xSettings, Ieee80211pSettings, PrbTable, TechnologySettings,
                       tx_time)
from .util import stream, streams

POWER_FLOOR_DBM = -999.0
# held frames of either technology are scored once they hold this many
# frame x receiver elements (256 frames at 200 vehicles, 64 at 800): large
# enough to amortize the numpy calls of a pass, small enough to keep the
# held rows out of peak memory
SCORE_BATCH_ELEMENTS = 51_200
# the channel refresh computes its links in row blocks of about this many
# elements (30 rows at 800 vehicles, 122 at 200): more blocks skip more of
# the symmetric half, fewer amortize their numpy calls (picked by timing
# evolving refreshes at 200, 400 and 800 vehicles)
REFRESH_BLOCK_ELEMENTS = 24_576
MW_EXPONENT_PER_DBM = math.log(10.0) / 10.0


@dataclass(frozen=True)
class RunConfig:
    seed: int
    sim_duration_s: float
    theta: TechnologySettings  # its type picks the engine
    warmup_s: float
    max_range_m: float
    mobility_step_ms: float
    prr_bin_width_m: float
    prr_max_distance_m: float
    ipg_range_m: float

    def __post_init__(self):
        if not self.warmup_s < self.sim_duration_s:
            raise ConfigError("warmup_s must be smaller than sim_duration_s")
        if not self.warmup_s >= 0:
            raise ConfigError("warmup_s must be >= 0")
        if not self.max_range_m > 0:
            raise ConfigError("max_range_m must be > 0")
        # a step under a frame's airtime makes millions of epochs (endless ones at 0)
        if not self.mobility_step_s >= tx_time(self.theta):
            raise ConfigError("run.mobility_step_ms must be at least one frame's airtime "
                              f"({tx_time(self.theta) * 1e3:.6g} ms)")
        if not self.prr_bin_width_m > 0:
            raise ConfigError("prr_bin_width_m must be > 0")
        if not self.prr_max_distance_m > 0:
            raise ConfigError("prr_max_distance_m must be > 0")
        # `uniform_bin_edges` rounds the bin count half to even: none below 0.5
        if not self.prr_max_distance_m / self.prr_bin_width_m > 0.5:
            raise ConfigError("prr_bin_width_m must leave at least one whole bin under "
                              "prr_max_distance_m")
        # a range <= 0 holds no pair, so ipg_ccdf.csv would be a bare header
        if not self.ipg_range_m > 0:
            raise ConfigError("ipg_range_m must be > 0")

    @property
    def mobility_step_s(self) -> float:
        return self.mobility_step_ms * 1e-3


@dataclass
class TraceLog:
    """Optional full-trace hooks used by the MAC invariant checks."""

    tx_starts: list = field(default_factory=list)  # (time, vid, sensed_busy)
    sps_selections: list = field(default_factory=list)  # (trigger_tti, Selection)
    sps_counters: list = field(default_factory=list)  # (vid, before, after) per tx


def decide_reception_vector(sinr_linear: np.ndarray, model: PerCurve | StepFunction,
                            rng: np.random.Generator) -> np.ndarray:
    if np.any(sinr_linear < 0):
        raise ConfigError("SINR must be >= 0")
    if isinstance(model, StepFunction):
        return sinr_linear > model.gamma_th
    per = model.per_at_linear(sinr_linear)
    return rng.random(sinr_linear.shape) >= per


class LinkBatch(NamedTuple):
    """Link outcomes of F counted frames, one entry per in-range (frame, receiver) link.

    skipped: the number of in-range links of frames that start before
    warmup sent since the last batch, all before this batch's links, kept
    only as this count. tx, end: (F,) transmitter and end time of each frame
    that starts after warmup, in the order the frames were scored. Links
    are frame-major with receivers ascending (the order reception decisions
    are drawn in); per link, sinr: linear SINR; blocked: the receiver was
    transmitting (half duplex); bin: PRR bin (`PrrSeries.bin_of`), decoded
    from the pair's link code (`_PhyCache`) in its integer type. near: the
    positions of the links inside the IPG range, the only links whose
    receptions IPG reads; near_link: their flat frame * N + receiver index.
    """

    skipped: int
    tx: np.ndarray
    end: np.ndarray
    sinr: np.ndarray
    blocked: np.ndarray
    bin: np.ndarray
    near: np.ndarray
    near_link: np.ndarray


def _prr_series(cfg: RunConfig) -> PrrSeries:
    """An empty PRR series on the run's bin grid, which must fit in memory."""
    try:
        return PrrSeries(uniform_bin_edges(cfg.prr_max_distance_m, cfg.prr_bin_width_m))
    except (MemoryError, OverflowError, ValueError):  # numpy's "array is too big" is a ValueError
        bins = cfg.prr_max_distance_m / cfg.prr_bin_width_m
        raise ConfigError(f"a PRR grid of {bins:.3g} bins does not fit in memory: raise "
                          "metrics.prr_bin_width_m or lower metrics.prr_max_distance_m") from None


def _new_store(cfg: RunConfig, n: int, ipg: bool = True) -> MetricStore:
    """An empty store of a run of n vehicles; without `ipg`, its IPG tracks no pair."""
    return MetricStore(prr=_prr_series(cfg), ipg=IpgStore(cfg.ipg_range_m, n if ipg else 0))


def tally(batch: LinkBatch, n: int, reception: PerCurve | StepFunction,
          rng: np.random.Generator, metrics: MetricStore, ipg: bool = True):
    """Decide every counted link of a batch under `reception` and count the outcomes.

    Decisions are drawn frame by frame, receivers ascending. A curve
    decision draws one double, which is one PCG64 output, so the stream
    skips the draws of the skipped links by advancing; a step decision
    draws nothing. Without `ipg` the receptions open no inter-packet gap.
    A (tx, rx) pair repeats in a batch only if its transmitter sent two of
    the batch's frames, so without such a transmitter IPG skips its search
    for repeats.
    """
    if batch.skipped and isinstance(reception, PerCurve):
        rng.bit_generator.advance(batch.skipped)
    if batch.sinr.size == 0:
        return
    received = decide_reception_vector(batch.sinr, reception, rng)
    received &= ~batch.blocked
    n_received = int(np.count_nonzero(received))
    n_blocked = int(np.count_nonzero(batch.blocked))
    metrics.opportunities += batch.sinr.size
    metrics.received_total += n_received
    metrics.lost_half_duplex += n_blocked
    metrics.lost_sinr += batch.sinr.size - n_received - n_blocked
    metrics.prr.add_many(batch.bin, received)
    if not ipg:
        return
    frame, rx = np.divmod(batch.near_link.compress(received.take(batch.near)), n)
    senders = np.sort(batch.tx)
    metrics.ipg.add_many(batch.tx[frame], rx, batch.end[frame],
                         distinct=not np.any(senders[1:] == senders[:-1]))


def dbm_to_mw(dbm: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The mW power of each dBm value, in `out` if given (it may be `dbm`).

    exp(dbm * ln(10) / 10) stays within a relative 1e-13 of 10 ** (dbm / 10)
    down to the power floor (tests/test_channel.py); `util.db_to_linear` keeps
    the power form.
    """
    out = np.multiply(dbm, MW_EXPONENT_PER_DBM, out=out)
    return np.exp(out, out=out)


def interference_mw(n_frames: int, frame: np.ndarray, source: np.ndarray, frac: np.ndarray,
                    sources: np.ndarray, noise_mw: float,
                    base_mw: np.ndarray | None = None) -> np.ndarray:
    """Noise plus interference (mW) of n_frames frames at every receiver, (F, N).

    frame, source, frac: the hits, sorted by frame and each frame's in its
    interferer order; hit h adds a share frac[h] of the (N,) power row
    sources[source[h]] to frame frame[h]. Each frame sums its row base_mw[f]
    if given (the bits of a first hit at share 1.0), the noise, then its hits
    in that order, like a per-frame loop: a matmul would reorder the sum and
    can flip a threshold decision.

    The frames are ranked by hit count, most first (a stable sort), so the
    frames that have a k-th hit are the first m_k rows: level k gathers
    their k-th source rows into one reused buffer, scales them and adds
    them to the first m_k rows in place. The rows go back to frame order
    at the end.
    """
    count = np.bincount(frame, minlength=n_frames)
    order = np.argsort(-count, kind="stable")
    ranked = count[order]
    # each ranked frame's first hit, and per level k the frames that have a k-th
    hit = (np.cumsum(count) - count)[order]
    rows = np.searchsorted(-ranked, -np.arange(count.max(initial=0)))
    if base_mw is None:
        denom = np.full((n_frames, sources.shape[1]), noise_mw)
    else:
        denom = base_mw.take(order, axis=0)
        denom += noise_mw
    buf = np.empty((np.count_nonzero(count), sources.shape[1]))
    for k, m in enumerate(rows.tolist()):
        at = hit[:m] + k
        # mode="clip" lets take write into `out` without a temporary copy
        part = np.take(sources, source.take(at), axis=0, out=buf[:m], mode="clip")
        part *= frac.take(at)[:, None]
        denom[:m] += part
    back = np.empty_like(order)
    back[order] = np.arange(n_frames)
    return denom.take(back, axis=0)


# ---------------------------------------------------------------------------


class _PhyCache:
    """Per-epoch link state of N vehicles: shadowing, received power and link codes.

    shadow_db, power_mw: (N, N) float64, per directed link. code: (N, N),
    per vehicle pair, 2 * PRR bin (`PrrSeries.bin_of`) + 1 if the pair is
    inside the IPG range, for the pairs within `max_range_m`; -1 for the
    others and on the diagonal, in the first of int8, int16, int32 and
    int64 that holds 2 * bins + 1 (int8 for the default 24 bins).

    The buffers are allocated once per run and each refresh overwrites them
    in place: a row read after the next refresh holds the next epoch's
    values, so a reader that keeps a row past an epoch copies it, as
    `_Run11p._begin_frame` does.

    A refresh walks the vehicles in row blocks [r0, r1) of about
    REFRESH_BLOCK_ELEMENTS links. Distance, LOS, propagation distance, path
    loss and the link code are symmetric in the vehicle pair, so a block
    computes them for the columns [r0, N) only and mirrors the off-diagonal
    part into the rows below; power_mw holds the path loss of the rows not
    yet finished. On the highway every link is LOS, so a block builds no LOS
    mask and hands `path_loss_db` los=None. Rows [r0, r1) are then complete
    and get their directed part: shadowing, the link budget in dBm (in a
    block-sized buffer), the power floor on the diagonal and the mW power,
    one multiply and one exp in place (`dbm_to_mw`). The shadowing draws
    come from the one `shadowing` stream in row order, the order of one
    (N, N) draw.

    Distance by sqrt(dx^2 + dy^2), the folded path-loss constants and the
    exp conversion differ from `np.hypot`, the unfolded sums and
    10 ** (dBm / 10) in the last bits only (bounded in tests/test_channel.py);
    the golden digests of tests/test_golden.py pin that no output moves.
    """

    def __init__(self, geom: Geometry, prop: PropagationConfig, cfg: RunConfig):
        self.geom = geom
        self.prop = prop
        self.rng = stream(cfg.seed, "shadowing")
        self.max_range_m, self.ipg_range_m = cfg.max_range_m, cfg.ipg_range_m
        self.bins = _prr_series(cfg)
        n = geom.n
        self.shadow_db, self.power_mw = np.empty((n, n)), np.empty((n, n))
        top = 2 * self.bins.opportunities.size + 1
        self.code = np.empty((n, n), dtype=next(
            t for t in (np.int8, np.int16, np.int32, np.int64) if top <= np.iinfo(t).max))
        self._last_traveled = geom.traveled.copy()
        self.refresh(first=True)

    def _link_code(self, dist: np.ndarray) -> np.ndarray:
        """The link code of each distance; the caller clears the diagonal."""
        code = self.bins.bin_of(dist).astype(self.code.dtype, copy=False)
        code <<= 1
        code += dist <= self.ipg_range_m
        code[~(dist <= self.max_range_m)] = -1
        return code

    def refresh(self, first: bool = False):
        """Overwrite the buffers with this epoch's links; the first refresh draws the shadowing."""
        geom, prop = self.geom, self.prop
        n, sigma = geom.n, prop.shadowing_sigma_db
        delta = geom.traveled - self._last_traveled
        self._last_traveled = geom.traveled.copy()
        step = max(REFRESH_BLOCK_ELEMENTS // n, 1)
        dbm = np.empty((min(step, n), n))
        all_los = geom.road.layout == "highway"  # `path_loss_db` reads los=None as all LOS
        for r0 in range(0, n, step):
            r1 = min(r0 + step, n)
            rows, cols = slice(r0, r1), slice(r0, None)
            diag = np.arange(r1 - r0)
            dist = geom.distance_matrix(rows, cols)
            los = None if all_los else geom.los_matrix(rows, cols)
            loss = path_loss_db(geom.propagation_distance_matrix(los, dist, rows, cols),
                                prop, los=los)
            code = self._link_code(dist)
            code[diag, diag] = -1
            for buf, block in ((self.code, code), (self.power_mw, loss)):
                buf[rows, cols] = block
                buf[r1:, rows] = block[:, r1 - r0:].T
            shadow = self.shadow_db[rows]
            if first:
                self.rng.standard_normal(out=shadow)
                shadow *= sigma
            else:
                LinkShadowing.evolve_matrix(shadow, delta[rows], sigma, prop.decorrelation_m,
                                            self.rng)
            # the link budget, tx power + both antenna gains - path loss -
            # shadowing (the reference `rx_power_dbm` of tests/conftest.py)
            mw = self.power_mw[rows]
            power = np.subtract(prop.lossless_rx_dbm, mw, out=dbm[:r1 - r0])
            power -= shadow
            power[diag, diag + r0] = POWER_FLOOR_DBM
            dbm_to_mw(power, out=mw)


class _RunBase:
    """The engine state both technologies share; scored batches go to `emit`.

    `generated` and `transmitted` count the packets generated and the frames
    sent after warmup; the link codes of `phy` give each link its range, PRR
    bin and IPG in-range flag. The engine tallies nothing and builds no
    metric store.
    """

    def __init__(self, setup: SimulationSetup, emit, trace: TraceLog | None):
        cfg = self.cfg = setup.run
        self.traffic = setup.traffic
        self.emit = emit
        self.trace = trace
        vehicles = (scen.spawn(setup.road, cfg.seed) if setup.vehicles is None
                    else setup.vehicles)
        # an empty road has no link to score: its outputs would be bare headers
        if not vehicles:
            raise ConfigError("no vehicle on the road: raise road.density_vpk or "
                              "road.road_length_m")
        self.geom = Geometry(setup.road, vehicles)
        self.n = self.geom.n
        # the vehicle ids name each vehicle's phase, backoff and SPS streams
        self.ids = np.array([v.id for v in vehicles])
        self.phy = _PhyCache(self.geom, setup.propagation, cfg)
        self.noise_mw = 10.0 ** (noise_power_dbm(setup.propagation) / 10.0)
        self.generated = self.transmitted = 0
        self.skipped = 0  # in-range links of frames before warmup, not yet emitted
        self.phases = generation_phase(self.ids, cfg.seed, self.traffic.period_s)
        # every frame of a run is on air this long (one TTI for C-V2X)
        self.duration_s = tx_time(cfg.theta)

    def _score(self, tx: np.ndarray, start: np.ndarray, signal: np.ndarray,
               code: np.ndarray, deaf: np.ndarray, hits, sources: np.ndarray,
               base_mw: np.ndarray | None = None):
        """Link outcomes of F recorded frames at every in-range receiver, emitted.

        tx, start: (F,) transmitter and start time of each frame, frames
        sorted by start time, each on air for `duration_s`; signal, code:
        (F, N) received power (mW) and link code (`_PhyCache`) from each
        frame's transmitter; deaf: (F, N) receivers transmitting during the
        frame (half duplex). hits = (frame, source, frac), sorted by frame and
        each frame's in its interferer order: hit h covers a share frac[h]
        of frame frame[h] with the (N,) power row sources[source[h]];
        `interference_mw` sums them per frame in that order, from `base_mw`
        if given. Frames that start before warmup never get here: the
        engines count their in-range links into `skipped`, which the batch
        carries. A link is in range where its code is >= 0, never the
        frame's own transmitter; its code's low bit flags the IPG range and
        the rest is its PRR bin, so no distance is compared here.
        """
        # flat (frame, receiver) indices: frame-major, receivers ascending
        link = np.flatnonzero(code >= 0)
        if link.size == 0 and self.skipped == 0:
            return
        sinr = interference_mw(tx.size, *hits, sources, self.noise_mw, base_mw)
        np.divide(signal, sinr, out=sinr)  # over the denominators, then one gather
        c = code.take(link)
        near = (c & 1).astype(bool).nonzero()[0]  # nonzero is faster on bool than int
        self.emit(LinkBatch(self.skipped, tx, start + self.duration_s, sinr.take(link),
                            deaf.take(link), c >> 1, near, link.take(near)))
        self.skipped = 0


# ---------------------------------------------------------------------------
# IEEE 802.11p: continuous-time CSMA engine


class _Frame:
    __slots__ = ("tx", "start", "mw_row", "code_row", "reach", "overlappers")

    def __init__(self, tx, start, mw_row, code_row, reach):
        self.tx = tx
        self.start = start
        self.mw_row = mw_row
        self.code_row = code_row
        # (N,) bool, the stations that sense it as decodable (never its own);
        # None once ended
        self.reach = reach
        self.overlappers = []


class _Run11p(_RunBase):
    """802.11p. Carrier sense is one rule: busy while `busy_decod > 0` or
    `energy_mw >= e65_mw`. A frame's `reach` is the stations its mW power
    row reaches at `e85_mw`, the decodable threshold through the exp the
    rows take: exp is increasing, so this is the compare in dBm but for
    links within about 1e-15 relative of the threshold. `busy_decod` counts
    the frames on air that reached the station as they started: a frame
    adds its `reach` row as it starts and subtracts it as it ends. A station
    no such frame reaches gets under e85_mw from each, so, float error and
    all, its energy stays under e65_mw / 2 while fewer than `energy_frames`
    = floor(e65_mw / (2 e85_mw)) are on air: then no sum is kept, the count
    is the state, and an edge flips the contending stations of its `reach`
    whose count it took to 1 or 0. `energy_busy` is the state while it is."""

    def __init__(self, setup: SimulationSetup, emit, trace: TraceLog | None):
        super().__init__(setup, emit, trace)
        csma = self.csma = setup.csma
        self.mac = CsmaNode(csma, self.cfg.theta.t_aifs_s,
                            streams(self.cfg.seed, "backoff", self.ids))
        self.busy_decod = np.zeros(self.n, dtype=np.int64)
        self.energy_mw = self.energy_busy = None
        self.e65_mw = 10.0 ** (csma.sense_energy_dbm / 10.0)
        # through the exp the rows take; a threshold too high for float64 is
        # inf, so that nothing is decodable
        with np.errstate(over="ignore"):
            self.e85_mw = float(dbm_to_mw(np.array([csma.sense_decodable_dbm]))[0])
        # capping the dB gap only lowers the guard, which keeps it exact
        gap_db = min(csma.sense_energy_dbm - csma.sense_decodable_dbm, 100.0)
        self.energy_frames = max(math.floor(10.0 ** (gap_db / 10.0) / 2.0), 1)
        self.active: list[_Frame] = []
        self.ended: list[_Frame] = []  # recorded, not yet scored
        self.heap: list = []  # (time, sequence number, kind, data)

    @property
    def busy(self) -> np.ndarray:
        return self.busy_decod > 0 if self.energy_busy is None else self.energy_busy

    def _busy_at(self, vid: int) -> bool:
        return bool(self.busy_decod[vid] if self.energy_busy is None else self.energy_busy[vid])

    def _push(self, at: float, kind: str, data):
        heapq.heappush(self.heap, (at, self.mac.take_seq(), kind, data))

    def _sense(self, frame: _Frame, step: int, now: float):
        """Carrier sense as `frame` starts (step 1) or ends (step -1)."""
        reach, mac, busy, count = frame.reach, self.mac, self.energy_busy, self.busy_decod
        add_row = np.add if step > 0 else np.subtract
        if busy is None and len(self.active) < self.energy_frames:
            add_row(count, reach, out=count)
            # the flips come out ascending, as `on_idle` requires
            flips = ((((count == max(step, 0)) & reach & mac.contends).nonzero()[0], step > 0),)
        else:
            self.energy_mw = (np.sum([f.mw_row for f in self.active], axis=0) if busy is None
                              else self.energy_mw + step * frame.mw_row)
            busy = count > 0 if busy is None else busy  # the count, as the sum starts
            add_row(count, reach, out=count)
            new_busy = self.energy_busy = (count > 0) | (self.energy_mw >= self.e65_mw)
            flips = ((((new_busy > busy) & mac.contends).nonzero()[0], True),
                     (((new_busy < busy) & mac.contends).nonzero()[0], False))
            if len(self.active) < self.energy_frames:
                self.energy_mw = self.energy_busy = None
        for vids, turned_busy in flips:
            if vids.size:
                (mac.on_busy if turned_busy else mac.on_idle)(now, vids)

    def _begin_frame(self, vid: int, now: float):
        self.mac.take_packet(vid)
        if self.trace is not None:
            self.trace.tx_starts.append((now, vid, self._busy_at(vid)))
        mw_row = self.phy.power_mw[vid].copy()
        mw_row[vid] = 0.0
        reach = mw_row >= self.e85_mw
        # a threshold under about -3233 dBm is 0.0 mW, which the zeroed own link meets
        reach[vid] = False
        frame = _Frame(vid, now, mw_row, self.phy.code[vid].copy(), reach)
        frame.overlappers = list(self.active)
        for other in self.active:
            other.overlappers.append(frame)
        self.active.append(frame)
        self._sense(frame, 1, now)
        self._push(now + self.duration_s, "tx_end", frame)

    def _end_frame(self, frame: _Frame, now: float):
        self.active.remove(frame)
        self._sense(frame, -1, now)
        frame.reach = None  # read only by carrier sense, so free it before scoring
        if frame.start < self.cfg.warmup_s:
            # counted only (it ends before any counted frame); its row still interferes
            self.skipped += int(np.count_nonzero(frame.code_row >= 0))
            frame.overlappers = None
        else:
            self.transmitted += 1
            self.ended.append(frame)
            if len(self.ended) * self.n >= SCORE_BATCH_ELEMENTS:
                self._score_ended()
        self.mac.on_tx_end(now, frame.tx, self._busy_at(frame.tx))

    def _score_ended(self):
        """Score the recorded frames in one pass, in the order they ended."""
        frames, self.ended = self.ended, []
        if not frames:
            return
        # every (frame, overlapper) pair, frame-major, each frame's in its overlapper order
        pair = np.repeat(np.arange(len(frames)), [len(f.overlappers) for f in frames])
        others = [other for frame in frames for other in frame.overlappers]
        for frame in frames:
            # scored: drop its references to other frames, so that frames no
            # longer needed are freed without waiting for the cycle collector
            frame.overlappers = None
        start = np.array([frame.start for frame in frames])
        a, b, d = start[pair], np.array([other.start for other in others]), self.duration_s
        # the share of the frame's airtime that the overlapper is on air too;
        # a pair that shares none is only half duplex
        frac = (np.minimum(a + d, b + d) - np.maximum(a, b)) / d
        hit = (frac > 0.0).nonzero()[0]
        deaf = np.zeros((len(frames), self.n), dtype=bool)
        deaf[pair, np.array([other.tx for other in others], dtype=np.intp)] = True
        # one power row per frame: the batch's frames, then the other frames
        # they overlap in first-hit order; each hit's source is its row there
        row_of = {frame: i for i, frame in enumerate(frames)}
        source = np.array([row_of.setdefault(others[h], len(row_of)) for h in hit.tolist()],
                          dtype=np.intp)
        rows = np.stack([frame.mw_row for frame in row_of])
        self._score(np.array([frame.tx for frame in frames]), start, rows[:len(frames)],
                    np.stack([frame.code_row for frame in frames]), deaf,
                    (pair[hit], source, frac[hit]), rows)

    def run(self):
        cfg = self.cfg
        for i in range(self.n):
            self._push(float(self.phases[i]), "gen", i)
        step = cfg.mobility_step_s
        if step < cfg.sim_duration_s:
            self._push(step, "epoch", None)
        heap, mac = self.heap, self.mac
        while True:
            # the earlier of the heap top and the earliest access; both start
            # with (time, sequence number), and sequence numbers are unique
            access = mac.next
            if access is not None and not (heap and heap[0] < access):
                self._begin_frame(mac.on_timer(), access[0])
                continue
            if not heap:
                break
            now, _, kind, data = heapq.heappop(heap)
            if kind == "epoch":
                self.geom.step(step)
                self.phy.refresh()
                nxt = now + step
                if nxt < cfg.sim_duration_s:
                    self._push(nxt, "epoch", None)
            elif kind == "gen":
                vid = data
                if now >= cfg.warmup_s:
                    self.generated += 1
                mac.on_packet(now, vid, self._busy_at(vid))
                nxt = now + self.traffic.period_s
                if nxt < cfg.sim_duration_s:
                    self._push(nxt, "gen", vid)
            elif kind == "tx_end":
                self._end_frame(data, now)
        self._score_ended()


# ---------------------------------------------------------------------------
# C-V2X sidelink: TTI-slotted engine


class _RunCv2x(_RunBase):
    """C-V2X sidelink on TTI slots, each frame one TTI on `n_subch_needed`
    subchannels from its SPS reservation's first subchannel. `_send` puts a
    TTI's frames on air: `_sense` sums the power rows of each group (the
    frames of one first subchannel) in tx order and writes these totals into
    the sensing ring, one column per first subchannel; the TTI is then held
    with its transmitters, each one's group, the groups' first subchannels
    and totals, and its start, unless it starts before warmup: then its
    in-range links are only counted. `_score_held` scores the held TTIs
    against the (groups, N) totals, each frame's sum from its remainder row
    (its group's total less its own row)."""

    def __init__(self, setup: SimulationSetup, emit, trace: TraceLog | None):
        super().__init__(setup, emit, trace)
        theta: CV2xSettings = self.cfg.theta
        sps = self.sps_params = setup.sps
        self.t_tti = theta.t_tti_s
        if theta.n_tti != 1:
            raise ConfigError("the slotted engine supports single-TTI packets only: "
                              f"{theta.n_prb_pkt} PRBs (cv2x.n_prb_pkt, or from cv2x.mcs_index "
                              "and traffic.payload_bytes) exceed cv2x.n_subch x "
                              "cv2x.n_prb_subch")
        period = self.traffic.period_s
        self.period_ttis = int(round(period / self.t_tti))
        if not math.isclose(self.period_ttis * self.t_tti, period):
            raise ConfigError("traffic.generation_period_ms must be a whole number of "
                              "cv2x.t_tti_ms")
        footprint = theta.n_prb_pkt + setup.prb_table.control_overhead_prbs
        self.n_subch_needed = math.ceil(footprint / theta.n_prb_subch)
        if self.n_subch_needed > theta.n_subch:
            raise ConfigError(f"a packet's footprint of {footprint} PRBs (cv2x.n_prb_pkt, or "
                              "from cv2x.mcs_index and traffic.payload_bytes, with "
                              "cv2x.control_overhead_prbs) exceeds cv2x.n_subch subchannels of "
                              "cv2x.n_prb_subch")
        self.footprint_prbs = footprint
        self.n_prb_subch = theta.n_prb_subch
        self.window_ttis = max(int(round(sps.sensing_window_s / self.t_tti)), 1)
        # TTI-major: row t % window TTIs holds every vehicle's sensed power per
        # first subchannel a frame can start on
        n_starts = theta.n_subch - self.n_subch_needed + 1
        try:
            self.ring = np.zeros((self.window_ttis, self.n, n_starts))
        except (MemoryError, ValueError):  # numpy's "array is too big" is a ValueError
            raise ConfigError(f"the SPS sensing ring of {self.window_ttis} TTIs x {self.n} "
                              f"vehicles x {n_starts} first subchannels does not fit in "
                              "memory: lower cv2x.sensing_window_ms, road.density_vpk or "
                              "cv2x.n_subch") from None
        t1, t2 = selection_window(sps, self.t_tti)
        depth = max(self.window_ttis // self.period_ttis, 1)
        try:  # one vehicle's projection: (sensed periods, candidate TTIs, subchannels)
            np.empty((depth, t2 - t1 + 1, theta.n_subch))
        except (MemoryError, OverflowError, ValueError):  # "array is too big" is a ValueError
            raise ConfigError(f"an SPS selection window of {t2 - t1 + 1:.3g} TTIs x "
                              f"{theta.n_subch} subchannels x {depth} sensed periods does not "
                              "fit in memory: lower cv2x.t2_ms or raise cv2x.t1_ms") from None
        self.sps_states = [SpsState() for _ in range(self.n)]
        self.sps_rngs = streams(self.cfg.seed, "sps", self.ids)
        # per vehicle: generation time of the packet awaiting its slot (NaN =
        # none) and the reserved resource (absolute TTI, first subchannel)
        self.pending = np.full(self.n, np.nan)
        self.reserved_tti = np.full(self.n, -1, dtype=np.int64)
        self.reserved_subch = np.zeros(self.n, dtype=np.int64)
        # sent, not yet scored TTIs: (transmitters, each one's group, the
        # groups' first subchannels, their (groups, N) power totals, start);
        # all taken at send time, before a reselection can move a frame
        self.held = []
        self.held_frames = 0

    def run(self):
        cfg = self.cfg
        n_ttis = int(math.ceil(cfg.sim_duration_s / self.t_tti))
        next_gen = self.phases.copy()
        epoch_every = int(round(cfg.mobility_step_s / self.t_tti))
        for k in range(n_ttis):
            t_k = k * self.t_tti
            if k > 0 and k % epoch_every == 0:
                self._score_held()
                self.geom.step(epoch_every * self.t_tti)
                self.phy.refresh()
            # generations due before the next TTI boundary
            due = ((next_gen < t_k + self.t_tti)
                   & (next_gen < cfg.sim_duration_s)).nonzero()[0]
            if due.size:
                self.generated += int((next_gen[due] >= cfg.warmup_s).sum())
                self.pending[due] = next_gen[due]
                next_gen[due] += self.traffic.period_s
                reselect = [vid for vid in due.tolist()
                            if self.sps_states[vid].needs_reselection]
                if reselect:
                    sels = sps_select(self.ring, np.array(reselect), k, self.sps_params,
                                      self.t_tti, self.period_ttis,
                                      [self.sps_rngs[vid] for vid in reselect],
                                      self.n_subch_needed)
                    for vid, sel in zip(reselect, sels):
                        self.reserved_subch[vid] = sel.subchannel
                        self.reserved_tti[vid] = sel.tti
                        st = self.sps_states[vid]
                        st.reselection_counter = sel.reselection_counter
                        st.needs_reselection = False
                        if self.trace is not None:
                            self.trace.sps_selections.append((k, sel))
            # transmissions whose reserved slot is this TTI
            slot = (self.reserved_tti == k).nonzero()[0]
            slot = slot[~np.isnan(self.pending[slot])]
            late = self.pending[slot] > t_k
            # a packet that arrived mid-slot rides the next occurrence
            self.reserved_tti[slot[late]] += self.period_ttis
            tx = slot[~late]
            self.pending[tx] = np.nan
            self._send(tx, k)
            for vid in tx.tolist():
                st = self.sps_states[vid]
                before = st.reselection_counter
                sps_after_transmission(st, self.sps_params, self.sps_rngs[vid])
                if self.trace is not None:
                    self.trace.sps_counters.append((vid, before, st.reselection_counter))
                if not st.needs_reselection:
                    self.reserved_tti[vid] += self.period_ttis
        self._score_held()

    def _send(self, tx: np.ndarray, k: int):
        """Put this TTI's frames on air: sense them, then hold them (or count them)."""
        group, first_subch, total = self._sense(tx, k)
        start = k * self.t_tti
        if start < self.cfg.warmup_s:
            self.skipped += int(np.count_nonzero(self.phy.code[tx] >= 0))
        elif tx.size:
            self.transmitted += tx.size
            self.held.append((tx, group, first_subch, total, start))
            self.held_frames += tx.size
            if self.held_frames * self.n >= SCORE_BATCH_ELEMENTS:
                self._score_held()

    def _sense(self, tx: np.ndarray, k: int):
        """Write this TTI's received power per first subchannel into every sensing window.

        Returns the TTI's groups, the frames that start on one subchannel:
        each frame's group, the groups' first subchannels (ascending) and
        their (groups, N) power totals, each the sum of its frames' power
        rows in tx order.
        """
        subch = self.reserved_subch[tx].tolist()
        first_subch = sorted(set(subch))
        index = {s0: g for g, s0 in enumerate(first_subch)}
        group = [index[s0] for s0 in subch]
        total = np.zeros((len(first_subch), self.n))
        for g, vid in zip(group, tx.tolist()):
            total[g] += self.phy.power_mw[vid]
        # the ring is vehicle-major for the SPS gathers, so the totals go in
        # transposed; a start without frames senses silence
        row = self.ring[k % self.window_ttis]
        row[...] = 0.0
        row[:, first_subch] = total.T
        row[tx] = np.nan  # half duplex: own TTI unsensed
        return group, first_subch, total

    def _score_held(self):
        """Score the held TTIs in one pass, in the order they were sent.

        A frame's interference comes from its TTI's groups (`_sense`): its
        sum starts at its own group's total less its own row (+0.0 alone),
        then adds each other group that shares PRBs with it, ascending, at
        the share of the frame's PRBs that the group occupies.
        """
        if not self.held:
            return
        txs, groups, first_subchs, totals, starts = zip(*self.held)
        self.held, self.held_frames = [], 0
        sizes = [t.size for t in txs]
        n_groups = np.array([len(f) for f in first_subchs])
        tti = np.repeat(np.arange(len(sizes)), sizes)
        tx = np.concatenate(txs)
        start = np.repeat(starts, sizes)
        # half duplex: the TTI's transmitters hear none of its frames
        on_air = np.zeros((len(sizes), self.n), dtype=bool)
        on_air[tti, tx] = True
        signal = self.phy.power_mw[tx]
        # groups numbered through the batch, TTI-major and first subchannels ascending
        group_at = np.cumsum(n_groups) - n_groups
        group = np.concatenate(groups) + group_at[tti]
        first_subch = np.concatenate(first_subchs)
        # pair p of frame f is f against group group_at[tti[f]] + p of its TTI
        size = n_groups[tti]
        frame = np.repeat(np.arange(tx.size), size)
        other = (group_at[tti][frame] + np.arange(frame.size)
                 - np.repeat(np.cumsum(size) - size, size))
        shared = np.maximum(self.footprint_prbs - self.n_prb_subch
                            * np.abs(first_subch[group[frame]] - first_subch[other]), 0)
        shared[other == group[frame]] = 0
        hit = shared.nonzero()[0]
        total = np.concatenate(totals)
        # each frame's remainder, its group's total less its own row
        remainder = total.take(group, axis=0)
        remainder -= signal
        self._score(tx, start, signal, self.phy.code[tx], on_air[tti],
                    (frame[hit], other[hit], shared[hit] / self.footprint_prbs), total, remainder)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimulationSetup:
    """Everything one run needs, grouped by subsystem.

    No field has a default: `config.build_setup(config.load_config(...))`
    builds a setup from the defaults in `config.DEFAULT_CONFIG`.
    """

    run: RunConfig
    road: RoadConfig
    traffic: TrafficConfig
    propagation: PropagationConfig
    csma: CsmaParams
    sps: SpsParams
    prb_table: PrbTable
    # explicit placement for controlled experiments; None means spawn from seed
    vehicles: list | None = None

    def __post_init__(self):
        # a shorter window holds no past occurrence of any candidate resource
        if self.sps.sensing_window_s < self.traffic.period_s:
            raise ConfigError("cv2x.sensing_window_ms must be at least "
                              "traffic.generation_period_ms")
        # a vehicle that moves half the road or more in one mobility epoch
        # jumps around it: the wrap-around cannot tell forward from backward
        run, road = self.run, self.road
        fastest_ms = (road.mean_speed_kmh + 3.0 * road.speed_std_kmh) * scen.KMH_TO_MS
        if (run.mobility_step_s < run.sim_duration_s
                and not fastest_ms * run.mobility_step_s < 0.5 * road.road_length_m):
            raise ConfigError("road.mean_speed_kmh (plus 3 road.speed_std_kmh) moves a vehicle "
                              "at least half of road.road_length_m in one "
                              "run.mobility_step_ms: lower the speed or the step")


class SharedRun:
    """One live pass that tallies every reception model a command asks for.

    `models` lists them, each found by identity (a `PerCurve` holds
    arrays); `ipg` says whether their stores tally inter-packet gaps. The
    first `run` with the pass simulates the channel and fills `stores`, one
    per model, under the setup `key`.
    """

    def __init__(self, models, ipg: bool = True):
        self.models = list(models)
        self.ipg = ipg
        self.key: SimulationSetup | None = None
        self.stores: list[MetricStore] | None = None

    def index(self, model: PerCurve | StepFunction) -> int:
        for i, listed in enumerate(self.models):
            if listed is model:
                return i
        raise ConfigError("the reception model is not one of the shared pass's models")


def run(setup: SimulationSetup, reception: PerCurve | StepFunction,
        trace: TraceLog | None = None, shared: SharedRun | None = None) -> MetricStore:
    """Execute one seeded run under `reception` and return its metric store.

    With `shared`, the first call simulates the channel once for every model
    of the pass; a later call returns its model's store, which needs the
    setup the pass ran under and cannot trace.
    """
    shared = SharedRun([reception]) if shared is None else shared
    index = shared.index(reception)
    if shared.stores is not None:
        if trace is not None:
            raise ConfigError("only the first run of a shared pass can trace the MAC")
        if shared.key != setup:
            raise ConfigError("the shared pass ran under a different setup; "
                              "only the reception model may change")
        return shared.stores[index]
    cfg = setup.run
    models, ipg = shared.models, shared.ipg
    rngs = [stream(cfg.seed, "reception") for _ in models]

    # n and stores are bound below, before the first batch
    def emit(batch: LinkBatch):
        for model, rng, store in zip(models, rngs, stores):
            tally(batch, n, model, rng, store, ipg)

    engine = _Run11p if isinstance(cfg.theta, Ieee80211pSettings) else _RunCv2x
    sim = engine(setup, emit, trace)
    n = sim.n
    stores = [_new_store(cfg, n, ipg) for _ in models]
    sim.run()
    for store in stores:
        store.generated, store.transmitted = sim.generated, sim.transmitted
    # filled only once the run completed, so a failed run leaves the pass empty
    shared.key, shared.stores = setup, stores
    return stores[index]
