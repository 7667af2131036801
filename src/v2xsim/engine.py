"""Discrete-event simulation core.

802.11p runs in continuous time: a heap holds generations, frame ends and
mobility epochs, while channel-access instants live in the CSMA arrays; the
next event is the earlier of the heap top and the earliest access, ties
going by one shared sequence counter. C-V2X runs on a TTI-slotted
timeline. Both share the same link-budget cache (`_PhyCache`): per
mobility epoch the engine overwrites its NxN distance, shadowing and
received-power buffers in place, walking the vehicles in row blocks. The
terms symmetric in the vehicle pair (distance, LOS, path loss) are
computed once per pair and mirrored; shadowing and the link budget are
computed per directed link, the shadowing drawn in row order.

The event loops only record frames; one scorer turns them into link
outcomes in F x N passes against all in-range receivers. An ended 802.11p
frame is kept with its power and distance rows, its interferers and its
half-duplex set; a sent C-V2X TTI is kept as its transmitters and their
first PRBs, its frames interfering and deafening only each other. Either
engine scores its held frames once they reach SCORE_BATCH_ELEMENTS frame x
receiver elements and at the end of the run; C-V2X also scores them before
each mobility epoch, while the power and distance rows are still theirs.

A batch of link outcomes (`LinkBatch`) holds what every reception model
needs of the in-range (frame, receiver) links of frames that start after
warmup: the SINR, the half-duplex flag, the PRR bin and the IPG in-range
flag, each computed once; the links of frames that start before warmup are
kept only as a count. A batch does not depend on the reception model,
because the MAC never sees reception outcomes, so the engines know no
model: each takes the setup whole and hands every scored batch to `emit`.

`run(setup, reception)` owns the reception stream and the one tally loop.
A reception model is a `PerCurve` (a Bernoulli draw against the
interpolated PER curve) or a `StepFunction` (a hard SINR threshold);
`tally` draws the decisions of a batch under it and fills a `MetricStore`.
Each generated packet resolves, per in-range receiver, to exactly one of
received / lost-by-SINR / lost-by-half-duplex.

Link records and replay: `run(setup, reception, links=LinkRecord())` also
keeps the emitted batches in the record, merged in scoring order into
chunks of bounded size, with the vehicle count, the generated and
transmitted counters and the setup it was filled under. A later `run` with
another reception model and the filled record tallies the chunks through
the same loop with a fresh reception stream, without building geometry,
channel or MAC, and returns the store a live run under that model would.
`select-beta` and `validate` simulate the channel once this way; a record
only replays for the setup that filled it.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import scenario as scen
from .abstraction import PerCurve, StepFunction
from .access import (CsmaNode, CsmaParams, SensingWindow, SpsParams, SpsState,
                     sps_after_transmission, sps_select)
from .channel import LinkShadowing, PropagationConfig, noise_power_dbm, path_loss_db
from .errors import ConfigError
from .metrics import IpgStore, MetricStore, PrrSeries, default_bin_edges
from .scenario import Geometry, RoadConfig, TrafficConfig, generation_phase
from .settings import (CV2xSettings, Ieee80211pSettings, TechnologySettings,
                       DEFAULT_PRB_TABLE, PrbTable, tx_time)
from .util import stream

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
# a link record merges scored batches into chunks of about this many counted
# links: few tally calls per replay, and a bounded copy per merge
RECORD_CHUNK_LINKS = 1 << 18
# a chunk's flat frame x receiver link indices are int32
_LINK_INDEX_MAX = np.iinfo(np.int32).max


@dataclass(frozen=True)
class TransmissionEvent:
    tx_id: int
    start: float
    duration: float

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class RunConfig:
    seed: int
    sim_duration_s: float
    theta: TechnologySettings  # its type picks the engine
    warmup_s: float = 0.0
    max_range_m: float = 1000.0
    mobility_step_s: float = 0.1
    prr_bin_width_m: float = 25.0
    prr_max_distance_m: float = 600.0
    ipg_range_m: float = 150.0

    def __post_init__(self):
        if not self.warmup_s < self.sim_duration_s:
            raise ConfigError("warmup_s must be smaller than sim_duration_s")
        if not self.warmup_s >= 0:
            raise ConfigError("warmup_s must be >= 0")
        if not self.max_range_m > 0:
            raise ConfigError("max_range_m must be > 0")
        # a zero step would re-schedule the mobility epoch at the same instant forever
        if not self.mobility_step_s > 0:
            raise ConfigError("mobility_step_s must be > 0")
        if not self.prr_bin_width_m > 0:
            raise ConfigError("prr_bin_width_m must be > 0")
        if not self.prr_max_distance_m > 0:
            raise ConfigError("prr_max_distance_m must be > 0")
        # a range <= 0 holds no pair, so ipg_ccdf.csv would be a bare header
        if not self.ipg_range_m > 0:
            raise ConfigError("ipg_range_m must be > 0")


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
    warmup; they come before every other link of the run and are kept only
    as this count. tx, end: (F,) transmitter and end time of each frame
    that starts after warmup, in the order the frames were scored. Links
    are frame-major with receivers ascending (the order reception decisions
    are drawn in); per link, sinr: linear SINR; blocked: the receiver was
    transmitting (half duplex); bin: PRR bin (`PrrSeries.bin_of`). near:
    the positions of the links inside the IPG range, the only links whose
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


def _merge(batches: list, n: int) -> LinkBatch:
    """One batch holding the links of `batches` in order, positions and link indices as int32."""
    frames = np.cumsum([0] + [b.tx.size for b in batches])
    links = np.cumsum([0] + [b.sinr.size for b in batches])
    if frames[-1] * n > _LINK_INDEX_MAX:
        raise AssertionError("a merged batch's link indices must fit in int32")

    def joined(name):
        return np.concatenate([getattr(b, name) for b in batches])

    def rebased(name, offsets):
        return np.concatenate([getattr(b, name) + o for b, o in zip(batches, offsets)]
                              ).astype(np.int32)

    return LinkBatch(sum(b.skipped for b in batches), joined("tx"), joined("end"),
                     joined("sinr"), joined("blocked"), joined("bin"),
                     rebased("near", links), rebased("near_link", frames * n))


@dataclass(eq=False)
class LinkRecord:
    """The link outcomes of one live run, for replay under other reception models.

    Pass an empty record to `run` and the live run fills it; pass the
    filled record again and `run` replays it instead of simulating. `key`
    is the setup it was filled under (None while empty); n, generated and
    transmitted are the run's vehicle count and MAC counters, which do not
    depend on the reception model. `chunks` holds the run's batches merged
    in scoring order, each up to about RECORD_CHUNK_LINKS counted links.
    """

    key: SimulationSetup | None = None
    n: int = 0
    generated: int = 0
    transmitted: int = 0
    chunks: list = field(default_factory=list)

    def __post_init__(self):
        self._open = []  # added batches not yet merged into a chunk
        self._frames = self._links = 0

    @property
    def filled(self) -> bool:
        return self.key is not None

    def add(self, batch: LinkBatch):
        """Append a batch; the open batches become a chunk once they are large enough."""
        if (self._frames + batch.tx.size) * self.n > _LINK_INDEX_MAX:
            self.close()
        self._open.append(batch)
        self._frames += batch.tx.size
        self._links += batch.sinr.size
        if self._links >= RECORD_CHUNK_LINKS:
            self.close()

    def close(self):
        """Merge the open batches into one chunk."""
        if self._open:
            self.chunks.append(_merge(self._open, self.n))
        self._open, self._frames, self._links = [], 0, 0


def _new_store(cfg: RunConfig, n: int) -> MetricStore:
    edges = default_bin_edges(cfg.prr_max_distance_m, cfg.prr_bin_width_m)
    return MetricStore(prr=PrrSeries(edges), ipg=IpgStore(cfg.ipg_range_m, n))


def tally(batch: LinkBatch, n: int, reception: PerCurve | StepFunction,
          rng: np.random.Generator, metrics: MetricStore):
    """Decide every counted link of a batch under `reception` and count the outcomes.

    Decisions are drawn frame by frame, receivers ascending. A curve
    decision draws one double, which is one PCG64 output, so the stream
    skips the draws of the skipped links by advancing; a step decision
    draws nothing.
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
    frame, rx = np.divmod(batch.near_link.compress(received.take(batch.near)), n)
    metrics.ipg.add_many(batch.tx[frame], rx, batch.end[frame])


def overlap_fraction(a: TransmissionEvent, b: TransmissionEvent) -> float:
    """Share of event `a`'s airtime that event `b` is on air too."""
    shared = min(a.end, b.end) - max(a.start, b.start)
    if shared <= 0:
        return 0.0
    return shared / a.duration


def prb_overlap(tti: np.ndarray, prb_start: np.ndarray, prb_count: int):
    """PRB overlap hits among F frames of equal PRB footprint.

    tti: (F,) nondecreasing TTI of each frame; frames overlap only within
    their TTI. Returns (frame, source, frac) over the pairs of distinct
    frames that share PRBs, frame-major and sources ascending: a share
    frac of frame's PRBs is also occupied by source.
    """
    first = np.searchsorted(tti, tti)
    size = np.searchsorted(tti, tti, side="right") - first
    # pair p of frame f is f against frame first[f] + p of the same TTI
    frame = np.repeat(np.arange(tti.size), size)
    source = first[frame] + np.arange(frame.size) - np.repeat(np.cumsum(size) - size, size)
    shared = np.maximum(prb_count - np.abs(prb_start[frame] - prb_start[source]), 0)
    shared[frame == source] = 0
    hit = np.flatnonzero(shared)
    return frame[hit], source[hit], shared[hit] / prb_count


# ---------------------------------------------------------------------------


class _PhyCache:
    """Per-epoch link state: distance, shadowing and received power, (N, N) each.

    The buffers are allocated once per run and each refresh overwrites them
    in place: a row read after the next refresh holds the next epoch's
    values, so a reader that keeps a row past an epoch copies it, as
    `_Run11p._begin_frame` does.

    A refresh walks the vehicles in row blocks [r0, r1) of about
    REFRESH_BLOCK_ELEMENTS links. Distance, LOS, propagation distance and
    path loss are symmetric in the vehicle pair, so a block computes them
    for the columns [r0, N) only and mirrors the off-diagonal part into the
    rows below; power_dbm holds the path loss of the rows not yet finished.
    Rows [r0, r1) are then complete and get their directed part: shadowing,
    the link budget, the power floor on the diagonal and the mW power. The
    shadowing draws come from the one `shadowing` stream in row order, the
    order of one (N, N) draw.
    """

    def __init__(self, geom: Geometry, prop: PropagationConfig, seed: int):
        self.geom = geom
        self.prop = prop
        self.rng = stream(seed, "shadowing")
        n = geom.n
        self.dist, self.shadow_db, self.power_dbm, self.power_mw = (
            np.empty((n, n)) for _ in range(4))
        self._last_traveled = geom.traveled.copy()
        self.refresh(first=True)

    def refresh(self, first: bool = False):
        """Overwrite the buffers with this epoch's links; the first refresh draws the shadowing."""
        geom, prop = self.geom, self.prop
        n, sigma = geom.n, prop.shadowing_sigma_db
        delta = geom.traveled - self._last_traveled
        self._last_traveled = geom.traveled.copy()
        step = max(REFRESH_BLOCK_ELEMENTS // max(n, 1), 1)
        for r0 in range(0, n, step):
            r1 = min(r0 + step, n)
            rows, cols = slice(r0, r1), slice(r0, None)
            dist = geom.distance_matrix(rows, cols)
            los = geom.los_matrix(rows, cols)
            loss = path_loss_db(geom.propagation_distance_matrix(los, dist, rows, cols),
                                prop, los=los)
            for buf, block in ((self.dist, dist), (self.power_dbm, loss)):
                buf[rows, cols] = block
                buf[r1:, rows] = block[:, r1 - r0:].T
            shadow = self.shadow_db[rows]
            if first:
                self.rng.standard_normal(out=shadow)
                shadow *= sigma
            else:
                shadow[...] = LinkShadowing.evolve_matrix(
                    shadow, delta[rows], sigma, prop.decorrelation_m, self.rng)
            # the link budget of `channel.rx_power_dbm`, over the path loss in place
            power, mw = self.power_dbm[rows], self.power_mw[rows]
            np.subtract(prop.lossless_rx_dbm, power, out=power)
            power -= shadow
            power[np.arange(r1 - r0), np.arange(r0, r1)] = POWER_FLOOR_DBM
            np.divide(power, 10.0, out=mw)
            np.power(10.0, mw, out=mw)


class _RunBase:
    """The engine state both technologies share; scored batches go to `emit`.

    `metrics` holds the MAC counters; its PRR bins and IPG range also give
    each link its bin and in-range flag. The engine tallies nothing.
    """

    def __init__(self, setup: SimulationSetup, emit, trace: TraceLog | None):
        cfg = self.cfg = setup.run
        self.traffic = setup.traffic
        self.emit = emit
        self.trace = trace
        vehicles = (scen.spawn(setup.road, cfg.seed) if setup.vehicles is None
                    else setup.vehicles)
        self.geom = Geometry(setup.road, vehicles)
        self.n = self.geom.n
        # the vehicle ids name each vehicle's phase, backoff and SPS streams
        self.ids = [v.id for v in vehicles]
        self.phy = _PhyCache(self.geom, setup.propagation, cfg.seed)
        self.noise_mw = 10.0 ** (noise_power_dbm(setup.propagation) / 10.0)
        self.metrics = _new_store(cfg, self.n)
        self.counting = False  # a frame that starts after warmup was scored
        self.phases = np.array([
            generation_phase(vid, cfg.seed, self.traffic.period_s) for vid in self.ids
        ]) if self.n else np.zeros(0)

    def _score(self, tx: np.ndarray, start: np.ndarray, end: np.ndarray,
               signal: np.ndarray, dist: np.ndarray, deaf: np.ndarray, hits,
               sources: np.ndarray):
        """Link outcomes of F recorded frames at every in-range receiver, emitted.

        tx, start, end: (F,) transmitter, start and end time of each frame,
        frames sorted by start time; signal, dist: (F, N) received power
        (mW) and distance from each frame's transmitter; deaf: (F, N)
        receivers transmitting during the frame (half duplex). hits =
        (frame, source, frac), sorted by frame and each frame's in its
        interferer order: hit h covers a share frac[h] of frame frame[h]
        with the (N,) power row sources[source[h]]. The frames that start
        before warmup come first, in the batch and in the run; only their
        in-range links are counted.
        """
        cfg = self.cfg
        in_range = dist <= cfg.max_range_m
        in_range[np.arange(tx.size), tx] = False
        early = start < cfg.warmup_s
        n_early = int(np.count_nonzero(early))
        if not early[:n_early].all() or (n_early and self.counting):
            raise AssertionError("frames that start before warmup must be scored first")
        self.counting = self.counting or n_early < tx.size
        skipped = int(np.count_nonzero(in_range[:n_early]))
        # flat (counted frame, receiver) indices: frame-major, receivers ascending
        link = np.flatnonzero(in_range[n_early:])
        if link.size == 0 and skipped == 0:
            return
        tx, end, signal, dist, deaf = (a[n_early:] for a in (tx, end, signal, dist, deaf))
        first = np.searchsorted(hits[0], n_early)
        hit_frame = hits[0][first:] - n_early
        hit_source, hit_frac = hits[1][first:], hits[2][first:]
        # the k-th interferer of every frame in one add, so each frame sums
        # in its own interferer order like a per-frame loop: a matmul would
        # reorder the sum and can flip a threshold decision
        denom = np.full(signal.shape, self.noise_mw)
        level = np.arange(hit_frame.size) - np.searchsorted(hit_frame, hit_frame)
        for k in range(int(level.max()) + 1 if level.size else 0):
            at = level == k
            part = sources[hit_source[at]]
            part *= hit_frac[at, None]
            denom[hit_frame[at]] += part
        d = dist.take(link)
        near = np.flatnonzero(self.metrics.ipg.near(d))
        self.emit(LinkBatch(skipped, tx, end, signal.take(link) / denom.take(link),
                            deaf.take(link), self.metrics.prr.bin_of(d), near,
                            link.take(near)))


# ---------------------------------------------------------------------------
# IEEE 802.11p: continuous-time CSMA engine


class _Frame:
    __slots__ = ("event", "mw_row", "dist_row", "sense_mask", "overlappers")

    def __init__(self, event, mw_row, dist_row, sense_mask):
        self.event = event
        self.mw_row = mw_row
        self.dist_row = dist_row
        self.sense_mask = sense_mask
        self.overlappers = []


class _Run11p(_RunBase):
    def __init__(self, setup: SimulationSetup, emit, trace: TraceLog | None):
        super().__init__(setup, emit, trace)
        csma = self.csma = setup.csma
        self.mac = CsmaNode(csma, self.cfg.theta.t_aifs_s,
                            [stream(self.cfg.seed, "backoff", vid) for vid in self.ids])
        self.busy_decod = np.zeros(self.n, dtype=np.int64)
        self.energy_mw = np.zeros(self.n)
        self.busy = np.zeros(self.n, dtype=bool)
        self.e65_mw = 10.0 ** (csma.sense_energy_dbm / 10.0)
        self.active: list[_Frame] = []
        self.ended: list[_Frame] = []  # recorded, not yet scored
        self.heap: list = []  # (time, sequence number, kind, data)
        self.duration_s = tx_time(self.cfg.theta)
        self.m85 = None
        self._refresh_masks()

    def _refresh_masks(self):
        self.m85 = self.phy.power_dbm >= self.csma.sense_decodable_dbm

    def _push(self, at: float, kind: str, data):
        heapq.heappush(self.heap, (at, self.mac.take_seq(), kind, data))

    def _recompute_busy(self, now: float):
        new_busy = (self.busy_decod > 0) | (self.energy_mw >= self.e65_mw)
        flipped = np.flatnonzero(new_busy != self.busy)
        self.busy = new_busy
        if not flipped.size:
            return
        vids = self.mac.contending(flipped)
        if not vids.size:
            return
        turned_busy = new_busy[vids]
        if turned_busy.any():
            self.mac.on_busy(now, vids[turned_busy])
        if not turned_busy.all():
            self.mac.on_idle(now, vids[~turned_busy])

    def _begin_frame(self, vid: int, now: float):
        self.mac.take_packet(vid)
        if self.trace is not None:
            self.trace.tx_starts.append((now, vid, bool(self.busy[vid])))
        event = TransmissionEvent(tx_id=vid, start=now, duration=self.duration_s)
        sense_mask = self.m85[vid].copy()
        sense_mask[vid] = False
        mw_row = self.phy.power_mw[vid].copy()
        mw_row[vid] = 0.0
        frame = _Frame(event, mw_row, self.phy.dist[vid].copy(), sense_mask)
        frame.overlappers = list(self.active)
        for other in self.active:
            other.overlappers.append(frame)
        self.active.append(frame)
        if now >= self.cfg.warmup_s:
            self.metrics.transmitted += 1
        self.busy_decod += sense_mask
        self.energy_mw += mw_row
        self._recompute_busy(now)
        self._push(event.end, "tx_end", frame)

    def _end_frame(self, frame: _Frame, now: float):
        self.active.remove(frame)
        self.busy_decod -= frame.sense_mask
        self.energy_mw -= frame.mw_row
        self._recompute_busy(now)
        self.ended.append(frame)
        if len(self.ended) * self.n >= SCORE_BATCH_ELEMENTS:
            self._score_ended()
        vid = frame.event.tx_id
        self.mac.on_tx_end(now, vid, self.busy[vid])

    def _score_ended(self):
        """Score the recorded frames in one pass, in the order they ended."""
        frames, self.ended = self.ended, []
        if not frames:
            return
        hit_frame, hit_frac, hit_rows, deaf_frame, deaf_tx = [], [], [], [], []
        for f, frame in enumerate(frames):
            for other in frame.overlappers:
                deaf_frame.append(f)
                deaf_tx.append(other.event.tx_id)
                frac = overlap_fraction(frame.event, other.event)
                if frac > 0.0:
                    hit_frame.append(f)
                    hit_frac.append(frac)
                    hit_rows.append(other.mw_row)
            # scored: drop its references to other frames, so that frames no
            # longer needed are freed without waiting for the cycle collector
            frame.overlappers = None
        deaf = np.zeros((len(frames), self.n), dtype=bool)
        deaf[deaf_frame, deaf_tx] = True
        events = [frame.event for frame in frames]
        hits = (np.array(hit_frame, dtype=np.intp), np.arange(len(hit_rows)),
                np.array(hit_frac))
        self._score(np.array([e.tx_id for e in events]),
                    np.array([e.start for e in events]),
                    np.array([e.end for e in events]),
                    np.stack([frame.mw_row for frame in frames]),
                    np.stack([frame.dist_row for frame in frames]), deaf, hits,
                    np.stack(hit_rows) if hit_rows else np.zeros((0, self.n)))

    def run(self) -> MetricStore:
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
                self._refresh_masks()
                nxt = now + step
                if nxt < cfg.sim_duration_s:
                    self._push(nxt, "epoch", None)
            elif kind == "gen":
                vid = data
                if now >= cfg.warmup_s:
                    self.metrics.generated += 1
                mac.on_packet(now, vid, self.busy[vid])
                nxt = now + self.traffic.period_s
                if nxt < cfg.sim_duration_s:
                    self._push(nxt, "gen", vid)
            elif kind == "tx_end":
                self._end_frame(data, now)
        self._score_ended()
        return self.metrics


# ---------------------------------------------------------------------------
# C-V2X sidelink: TTI-slotted engine


class _RunCv2x(_RunBase):
    def __init__(self, setup: SimulationSetup, emit, trace: TraceLog | None):
        super().__init__(setup, emit, trace)
        theta: CV2xSettings = self.cfg.theta
        sps = self.sps_params = setup.sps
        self.t_tti = theta.t_tti_s
        if theta.n_tti != 1:
            raise ConfigError("the slotted engine supports single-TTI packets only")
        period = self.traffic.period_s
        self.period_ttis = int(round(period / self.t_tti))
        if not math.isclose(self.period_ttis * self.t_tti, period):
            raise ConfigError("generation period must be a whole number of TTIs")
        footprint = theta.n_prb_pkt + setup.prb_table.control_overhead_prbs
        self.n_subch_needed = math.ceil(footprint / theta.n_prb_subch)
        if self.n_subch_needed > theta.n_subch:
            raise ConfigError("packet footprint exceeds the subchannel grid")
        self.footprint_prbs = footprint
        self.window_ttis = max(int(round(sps.sensing_window_s / self.t_tti)), 1)
        # TTI-major: row t % window TTIs holds every vehicle's sensed subchannels
        self.ring = np.zeros((self.window_ttis, self.n, theta.n_subch))
        self.sps_states = [SpsState() for _ in range(self.n)]
        self.sps_rngs = [stream(self.cfg.seed, "sps", vid) for vid in self.ids]
        # per vehicle: generation time of the packet awaiting its slot (NaN =
        # none) and the reserved resource (absolute TTI, first subchannel)
        self.pending = np.full(self.n, np.nan)
        self.reserved_tti = np.full(self.n, -1, dtype=np.int64)
        self.reserved_subch = np.zeros(self.n, dtype=np.int64)
        # sent, not yet scored TTIs: (transmitters, their first PRBs, start);
        # the PRBs are taken at send time, before a reselection can move them
        self.held = []
        self.held_frames = 0

    def _select(self, vid: int, now_tti: int):
        st = self.sps_states[vid]
        sel = sps_select(SensingWindow(self.ring[:, vid], now_tti), now_tti,
                         self.sps_params, self.t_tti, self.period_ttis,
                         self.sps_rngs[vid], n_subch_needed=self.n_subch_needed)
        self.reserved_subch[vid] = sel.subchannel
        self.reserved_tti[vid] = sel.tti
        st.reselection_counter = sel.reselection_counter
        st.needs_reselection = False
        if self.trace is not None:
            self.trace.sps_selections.append((now_tti, sel))

    def run(self) -> MetricStore:
        cfg = self.cfg
        n_ttis = int(math.ceil(cfg.sim_duration_s / self.t_tti))
        next_gen = self.phases.copy()
        epoch_every = max(int(round(cfg.mobility_step_s / self.t_tti)), 1)
        for k in range(n_ttis):
            t_k = k * self.t_tti
            if k > 0 and k % epoch_every == 0:
                self._score_held()
                self.geom.step(epoch_every * self.t_tti)
                self.phy.refresh()
            # generations due before the next TTI boundary
            due = np.flatnonzero((next_gen < t_k + self.t_tti)
                                 & (next_gen < cfg.sim_duration_s))
            if due.size:
                self.metrics.generated += int((next_gen[due] >= cfg.warmup_s).sum())
                self.pending[due] = next_gen[due]
                next_gen[due] += self.traffic.period_s
                for vid in due.tolist():
                    if self.sps_states[vid].needs_reselection:
                        self._select(vid, k)
            # transmissions whose reserved slot is this TTI
            slot = np.flatnonzero(self.reserved_tti == k)
            slot = slot[~np.isnan(self.pending[slot])]
            late = self.pending[slot] > t_k
            # a packet that arrived mid-slot rides the next occurrence
            self.reserved_tti[slot[late]] += self.period_ttis
            tx = slot[~late]
            self.pending[tx] = np.nan
            if t_k >= cfg.warmup_s:
                self.metrics.transmitted += tx.size
            if tx.size:
                self.held.append((tx, self.reserved_subch[tx] * self.cfg.theta.n_prb_subch,
                                  t_k))
                self.held_frames += tx.size
                if self.held_frames * self.n >= SCORE_BATCH_ELEMENTS:
                    self._score_held()
            self._sense(tx, k)
            for vid in tx.tolist():
                st = self.sps_states[vid]
                before = st.reselection_counter
                sps_after_transmission(st, self.sps_params, self.sps_rngs[vid])
                if self.trace is not None:
                    self.trace.sps_counters.append((vid, before, st.reselection_counter))
                if not st.needs_reselection:
                    self.reserved_tti[vid] += self.period_ttis
        self._score_held()
        return self.metrics

    def _score_held(self):
        """Score the held TTIs in one pass, in the order they were sent."""
        if not self.held:
            return
        txs, prbs, starts = zip(*self.held)
        self.held, self.held_frames = [], 0
        sizes = [t.size for t in txs]
        tti = np.repeat(np.arange(len(sizes)), sizes)
        tx = np.concatenate(txs)
        start = np.repeat(starts, sizes)
        # half duplex: the TTI's transmitters hear none of its frames
        on_air = np.zeros((len(sizes), self.n), dtype=bool)
        on_air[tti, tx] = True
        signal = self.phy.power_mw[tx]
        self._score(tx, start, start + self.t_tti, signal, self.phy.dist[tx], on_air[tti],
                    prb_overlap(tti, np.concatenate(prbs), self.footprint_prbs), signal)

    def _sense(self, tx: np.ndarray, k: int):
        """Write this TTI's received power per subchannel into every sensing window."""
        row = self.ring[k % self.window_ttis]
        row[...] = 0.0
        for vid, s0 in zip(tx.tolist(), self.reserved_subch[tx].tolist()):
            power = self.phy.power_mw[vid]
            for s in range(s0, s0 + self.n_subch_needed):
                row[:, s] += power
        row[tx] = np.nan  # half duplex: own TTI unsensed


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimulationSetup:
    """Everything one run needs, grouped by subsystem."""

    run: RunConfig
    road: RoadConfig = field(default_factory=RoadConfig)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    propagation: PropagationConfig = field(default_factory=PropagationConfig)
    csma: CsmaParams = field(default_factory=CsmaParams)
    sps: SpsParams = field(default_factory=SpsParams)
    prb_table: PrbTable = field(default_factory=lambda: DEFAULT_PRB_TABLE)
    # explicit placement for controlled experiments; None means spawn from seed
    vehicles: list | None = None

    def __post_init__(self):
        # a shorter window holds no past occurrence of any candidate resource
        if self.sps.sensing_window_s < self.traffic.period_s:
            raise ConfigError("sensing_window must be at least one generation period")


def run(setup: SimulationSetup, reception: PerCurve | StepFunction,
        trace: TraceLog | None = None, links: LinkRecord | None = None) -> MetricStore:
    """Execute one seeded run under `reception` and return its metric store.

    With an empty `links` record the run also fills it; with a filled one
    the run replays its link outcomes under `reception` instead of
    simulating, which needs the setup the record was filled under.
    """
    cfg = setup.run
    rng = stream(cfg.seed, "reception")
    record = None  # the record a live run fills

    # n, metrics and record are bound below, before the first batch
    def emit(batch: LinkBatch):
        if record is not None:
            record.add(batch)
        tally(batch, n, reception, rng, metrics)

    if links is not None and links.filled:
        if trace is not None:
            raise ConfigError("a replayed run has no MAC to trace")
        if links.key != setup:
            raise ConfigError("the link record was filled under a different setup; "
                              "only the reception model may change")
        n, metrics = links.n, _new_store(cfg, links.n)
        metrics.generated, metrics.transmitted = links.generated, links.transmitted
        for chunk in links.chunks:
            emit(chunk)
        return metrics
    engine = _Run11p if isinstance(cfg.theta, Ieee80211pSettings) else _RunCv2x
    sim = engine(setup, emit, trace)
    n, metrics = sim.n, sim.metrics
    if links is None:
        return sim.run()
    record = LinkRecord(n=n)
    sim.run()
    record.close()
    # filled only once the run completed, so a failed run leaves it empty
    links.key, links.n, links.chunks = setup, n, record.chunks
    links.generated, links.transmitted = metrics.generated, metrics.transmitted
    return metrics
