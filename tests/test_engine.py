"""Event-loop behavior: reception decisions, interference, conservation,
determinism, and the noise-limited sanity checks."""

import heapq
from dataclasses import replace
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (assert_same_store, built_setup, built_store, default_theta, make_setup, prr_curve,
                      rx_power_dbm, step_model, vehicle_pair)

from v2xsim import engine
from v2xsim.abstraction import PerCurve, StepFunction
from v2xsim.channel import noise_power_dbm
from v2xsim.engine import (LinkBatch, SharedRun, TraceLog, decide_reception_vector,
                           interference_mw, run, tally)
from v2xsim.errors import ConfigError
from v2xsim.metrics import IpgStore, PrrSeries, uniform_bin_edges
from v2xsim.scenario import VehicleState
from v2xsim.settings import tx_time
from v2xsim.util import stream


def zero_db_step():
    return StepFunction(1.0, 0.5)


# --- decide_reception_vector ------------------------------------------------------

def decide_one(sinr_linear, model, rng):
    return bool(decide_reception_vector(np.array([sinr_linear]), model, rng)[0])


def test_step_strictly_above_threshold():
    model = zero_db_step()
    rng = stream(1, "r")
    assert decide_one(2.0, model, rng) is True
    assert decide_one(0.5, model, rng) is False
    assert decide_one(1.0, model, rng) is False  # boundary is a loss


def test_step_monotone_in_sinr():
    model = zero_db_step()
    rng = stream(2, "r")
    sinr = np.linspace(0.0, 4.0, 100)
    got = decide_reception_vector(sinr, model, rng).astype(int)
    assert all(b >= a for a, b in zip(got, got[1:]))


def test_curve_mode_bernoulli_rate():
    model = PerCurve(np.array([-10.0, 10.0]), np.array([0.5, 0.5]))
    rng = stream(3, "r")
    draws = decide_reception_vector(np.ones(10_000), model, rng)
    assert np.mean(draws) == pytest.approx(0.5, abs=0.01)


def test_curve_mode_clamps_outside_range():
    model = PerCurve(np.array([0.0, 10.0]), np.array([0.9, 0.1]))
    rng = stream(4, "r")
    low = decide_reception_vector(np.full(100, 1e-6), model, rng)
    high = decide_reception_vector(np.full(100, 1e6), model, rng)
    assert not low.any()   # PER clamps to 1 below the sampled range
    assert high.all()      # and to 0 above it


def test_negative_sinr_rejected():
    with pytest.raises(ConfigError):
        decide_one(-0.1, zero_db_step(), stream(5, "r"))


# --- 802.11p airtime overlap -------------------------------------------------------

def scored_11p(frames, end_first=True):
    """The link batch of two 802.11p frames at stations 0, 1 and 2, placed 10 m apart.

    frames: (station, start) pairs in start order, each frame on air for the
    engine's `duration_s`. A frame that ends at the instant another starts
    ends first with `end_first`, else after that start, as events that share
    an instant may pop in either order. Returns the engine and the batch,
    whose links are frame-major with receivers ascending.
    """
    vehicles = [VehicleState(i, 0, 500.0 + 10.0 * i, 0.0, +1) for i in range(3)]
    emitted = []
    sim = engine._Run11p(make_setup("11p", duration=1.0, warmup=0.0, vehicles=vehicles),
                         emitted.append, None)
    for vid, start in frames:
        while sim.heap and (sim.heap[0][0] < start or end_first and sim.heap[0][0] == start):
            at, _, _, frame = heapq.heappop(sim.heap)
            sim._end_frame(frame, at)
        sim._begin_frame(vid, start)
    while sim.heap:
        at, _, _, frame = heapq.heappop(sim.heap)
        sim._end_frame(frame, at)
    sim._score_ended()
    (batch,) = emitted
    return sim, batch


def test_disjoint_airtimes_no_interference():
    sim, batch = scored_11p([(0, 0.0), (2, 0.01)])
    power = sim.phy.power_mw
    # frame 0 at receivers 1 and 2, frame 2 at receivers 0 and 1
    signal = [power[0, 1], power[0, 2], power[2, 0], power[2, 1]]
    assert batch.sinr.tolist() == [p / sim.noise_mw for p in signal]
    assert not batch.blocked.any()


def test_half_overlap_fraction():
    sim, _ = scored_11p([(0, 0.0)])
    d = sim.duration_s
    sim, batch = scored_11p([(0, 0.0), (2, d / 2)])
    power, noise = sim.phy.power_mw, sim.noise_mw
    # each frame shares half its airtime with the other, whose transmitter is
    # deaf to it and adds no power at itself
    assert batch.sinr.tolist() == [power[0, 1] / (noise + 0.5 * power[2, 1]),
                                   power[0, 2] / noise, power[2, 0] / noise,
                                   power[2, 1] / (noise + 0.5 * power[0, 1])]
    assert batch.blocked.tolist() == [False, True, True, False]


@pytest.mark.parametrize("end_first", [True, False])
def test_back_to_back_frames_do_not_interfere(end_first):
    sim, _ = scored_11p([(0, 0.0)])
    sim, batch = scored_11p([(0, 0.0), (2, sim.duration_s)], end_first)
    power = sim.phy.power_mw
    signal = [power[0, 1], power[0, 2], power[2, 0], power[2, 1]]
    assert batch.sinr.tolist() == [p / sim.noise_mw for p in signal]
    # a frame that starts before the previous one's end event pops overlaps it
    # in event order: they share no time, but each transmitter misses the other
    assert batch.blocked.tolist() == [False, not end_first, not end_first, False]


# --- C-V2X PRB overlap: the scorer's group totals ---------------------------------

class PrbFrame(NamedTuple):
    """The resource footprint of a sidelink frame."""

    tti: int
    prb_start: int
    prb_count: int


def prb_fraction(a: PrbFrame, b: PrbFrame) -> float:
    """Share of a's PRBs that b occupies too: the pairwise reference for the C-V2X scorer."""
    if b.tti != a.tti:
        return 0.0
    lo = max(a.prb_start, b.prb_start)
    hi = min(a.prb_start + a.prb_count, b.prb_start + b.prb_count)
    if hi <= lo:
        return 0.0
    return (hi - lo) / a.prb_count


def cv2x_engine(n, n_subch=5, n_prb_subch=10, footprint=20):
    """A C-V2X engine of n vehicles 10 m apart whose frames take `footprint` PRBs."""
    vehicles = [VehicleState(i, 0, 500.0 + 10.0 * i, 0.0, +1) for i in range(n)]
    setup = make_setup("cv2x", duration=1.0, warmup=0.0, vehicles=vehicles)
    theta = replace(setup.run.theta, n_subch=n_subch, n_prb_subch=n_prb_subch,
                    n_prb_pkt=footprint)
    setup = replace(setup, run=replace(setup.run, theta=theta),
                    prb_table=replace(setup.prb_table, control_overhead_prbs=0))
    return engine._RunCv2x(setup, lambda batch: None, None)


def scored_denominators(sim, ttis):
    """The (frames, N) noise-plus-interference the scorer computes for the frames
    of `ttis`, each a list of (transmitter, first subchannel) in send order."""
    got = []

    def record(*args):
        denom = interference_mw(*args)
        got.append(denom.copy())  # the scorer divides the signal into it in place
        return denom

    with mock.patch.object(engine, "interference_mw", record):
        for k, frames in enumerate(ttis):
            tx = np.array([vid for vid, _ in frames], dtype=np.int64)
            sim.reserved_subch[tx] = [s0 for _, s0 in frames]
            sim._send(tx, k)
        sim._score_held()
    (denom,) = got
    return denom


def test_same_tti_disjoint_subchannels_excluded():
    a = PrbFrame(tti=5, prb_start=0, prb_count=10)
    b = PrbFrame(tti=5, prb_start=10, prb_count=10)
    c = PrbFrame(tti=6, prb_start=0, prb_count=10)
    assert prb_fraction(a, b) == 0.0
    assert prb_fraction(a, c) == 0.0
    sim = cv2x_engine(3, footprint=10)
    denom = scored_denominators(sim, [[(0, 0), (1, 1)], [(2, 0)]])
    assert (denom == sim.noise_mw).all()


def test_shared_prbs_fraction():
    a = PrbFrame(tti=5, prb_start=0, prb_count=20)
    b = PrbFrame(tti=5, prb_start=10, prb_count=20)
    assert prb_fraction(a, b) == pytest.approx(0.5)
    assert prb_fraction(b, a) == pytest.approx(0.5)
    sim = cv2x_engine(3, footprint=20)
    denom = scored_denominators(sim, [[(0, 0), (1, 1)]])
    power, noise = sim.phy.power_mw, sim.noise_mw
    assert denom.tolist() == [(noise + 0.5 * power[1]).tolist(),
                              (noise + 0.5 * power[0]).tolist()]


@st.composite
def drawn_ttis(draw):
    """A batch of 1-3 TTIs of 1-30 frames on a grid of 1-5 subchannels, any
    footprint width, and a seed for the power rows."""
    n_subch = draw(st.integers(1, 5), label="n_subch")
    n_prb_subch = draw(st.integers(1, 12), label="n_prb_subch")
    footprint = draw(st.integers(1, n_subch * n_prb_subch), label="footprint")
    starts = n_subch - -(-footprint // n_prb_subch)  # the last first subchannel
    n = draw(st.integers(2, 34), label="vehicles")
    ttis = []
    for _ in range(draw(st.integers(1, 3), label="TTIs")):
        tx = draw(st.permutations(range(n)).map(lambda p: p[:draw(st.integers(1, min(30, n)))]))
        ttis.append([(vid, draw(st.integers(0, starts))) for vid in tx])
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    return n_subch, n_prb_subch, footprint, n, ttis, seed


def group_reference(power, noise_mw, frames, footprint, n_prb_subch):
    """The scorer's denominators, one scalar at a time: noise, then the frame's
    own-group total less its own power, then each other group of the TTI,
    first subchannels ascending, times its share."""
    groups = {}
    for vid, s0 in frames:
        groups.setdefault(s0, []).append(vid)
    total = {s0: [sum((power[vid][r] for vid in vids), 0.0) for r in range(len(power))]
             for s0, vids in groups.items()}
    rows = []
    for vid, s0 in frames:
        row = []
        for r in range(len(power)):
            d = noise_mw + (total[s0][r] - power[vid][r])
            for other in sorted(groups):
                shared = max(footprint - n_prb_subch * abs(other - s0), 0)
                if other != s0 and shared:
                    d = d + total[other][r] * (shared / footprint)
            row.append(d)
        rows.append(row)
    return rows


def pairwise_reference(power, noise_mw, frames, footprint, n_prb_subch):
    """The pairwise per-frame sum that the group totals replace: noise, then
    every other frame of the TTI in send order times its PRB share."""
    footprints = [PrbFrame(0, s0 * n_prb_subch, footprint) for _, s0 in frames]
    rows = []
    for f, (vid, _) in enumerate(frames):
        row = np.full(len(power), noise_mw)
        for j, (other, _) in enumerate(frames):
            frac = prb_fraction(footprints[f], footprints[j])
            if j != f and frac > 0:
                row = row + np.asarray(power[other]) * frac
        rows.append(row)
    return np.array(rows)


@settings(max_examples=200, deadline=None)
@given(case=drawn_ttis())
@example(case=(5, 10, 24, 8, [[(0, 0), (1, 1), (2, 2), (3, 0), (4, 2), (5, 1)], [(6, 2)]], 3))
@example(case=(1, 50, 50, 4, [[(0, 0), (1, 0), (2, 0), (3, 0)]], 5))
def test_group_totals_give_the_pairwise_denominators(case):
    """Bit for bit the scalar group reference; within 1e-12 the pairwise sum.

    The remainder of a frame's own group is a total less the frame's own
    power, so it can be off by a few ulps of that total: the pairwise
    bound is relative to the denominator plus the frame's own power there.
    """
    n_subch, n_prb_subch, footprint, n, ttis, seed = case
    sim = cv2x_engine(n, n_subch, n_prb_subch, footprint)
    rng = np.random.default_rng(seed)
    sim.phy.power_mw[...] = 10.0 ** rng.uniform(-15.0, -3.0, (n, n))
    sim.phy.power_mw[rng.random((n, n)) < 0.1] = 0.0
    power = sim.phy.power_mw.tolist()
    denom = scored_denominators(sim, ttis)
    want = [row for frames in ttis
            for row in group_reference(power, sim.noise_mw, frames, footprint, n_prb_subch)]
    assert denom.tolist() == want
    pairwise = np.concatenate([pairwise_reference(power, sim.noise_mw, frames, footprint,
                                                  n_prb_subch) for frames in ttis])
    own = sim.phy.power_mw[[vid for frames in ttis for vid, _ in frames]]
    assert (np.abs(denom - pairwise) <= 1e-12 * (pairwise + own)).all()


# --- interference sum ----------------------------------------------------------------

def interference_one(n_frames, frame, source, frac, sources, noise_mw, base=None):
    """Reference for `interference_mw`: one frame and one hit at a time, in hit
    order, each frame from its base row plus the noise if `base` is given."""
    denom = np.full((n_frames, sources.shape[1]), noise_mw)
    for f in range(n_frames):
        if base is not None:
            denom[f] = base[f] + noise_mw
        for h in np.flatnonzero(frame == f):
            denom[f] = denom[f] + sources[source[h]] * frac[h]
    return denom


@settings(max_examples=300, deadline=None)
@given(counts=st.lists(st.integers(0, 25), max_size=70), n=st.integers(1, 9),
       n_sources=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       fracs=st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=6))
@example(counts=[], n=3, n_sources=1, seed=0, fracs=[1.0])
@example(counts=[0, 0, 0], n=3, n_sources=1, seed=0, fracs=[1.0])
@example(counts=[25, 0, 3, 25, 1, 0], n=4, n_sources=30, seed=7, fracs=[1.0, 0.25, 1e-300])
@example(counts=[6, 2, 0, 9, 4], n=5, n_sources=2, seed=11, fracs=[1.0, 0.5])
def test_interference_matches_a_per_frame_loop(counts, n, n_sources, seed, fracs):
    """Frames of 0-25 hits, in any order of hit count: the same denominators bit for bit.

    Several hits can share one source row, as the 802.11p scorer stacks one
    row per overlapping frame: the shared rows give the bits of a stack that
    copies each hit's row. With base rows (a C-V2X frame's group remainder),
    some of them all +0.0 (a frame alone in its group), each frame starts at
    its base row plus the noise, which gives the bits of the same rows as
    each frame's first hit at share 1.0.
    """
    rng = np.random.default_rng(seed)
    frame = np.repeat(np.arange(len(counts)), counts)
    source = rng.integers(0, n_sources, frame.size)
    frac = rng.choice(np.array(fracs), frame.size)
    # powers over twelve decades, some zero (a transmitter's own entry), so
    # that a reordered sum rounds differently
    sources = 10.0 ** rng.uniform(-15.0, -3.0, (n_sources, n))
    sources[rng.random(sources.shape) < 0.1] = 0.0
    noise_mw = 10.0 ** rng.uniform(-14.0, -10.0)
    got = interference_mw(len(counts), frame, source, frac, sources, noise_mw)
    want = interference_one(len(counts), frame, source, frac, sources, noise_mw)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    per_hit = interference_mw(len(counts), frame, np.arange(frame.size), frac,
                              sources[source], noise_mw)
    assert np.array_equal(per_hit, want)

    base = 10.0 ** rng.uniform(-15.0, -3.0, (len(counts), n))
    base[rng.random(base.shape) < 0.1] = 0.0
    base[rng.random(len(counts)) < 0.3] = 0.0
    got = interference_mw(len(counts), frame, source, frac, sources, noise_mw, base)
    assert np.array_equal(
        got, interference_one(len(counts), frame, source, frac, sources, noise_mw, base))
    # the base rows as each frame's first hit at share 1.0, sources after the others
    first = np.arange(len(counts))
    order = np.argsort(np.concatenate((first, frame)), kind="stable")
    as_hits = interference_mw(
        len(counts), np.concatenate((first, frame))[order],
        np.concatenate((n_sources + first, source))[order],
        np.concatenate((np.ones(first.size), frac))[order], np.vstack((sources, base)), noise_mw)
    assert np.array_equal(got, as_hits)


# --- whole-run behavior -----------------------------------------------------------

def test_two_isolated_vehicles_perfect_reception():
    setup = make_setup("11p", duration=3.0, warmup=0.5, vehicles=vehicle_pair(10.0))
    store = run(setup, zero_db_step())
    ratios = dict(prr_curve(store.prr))
    assert ratios[12.5] == 1.0
    assert store.lost_sinr == 0


def test_single_vehicle_empty_metrics():
    vehicles = [VehicleState(0, 0, 100.0, 26.0, +1)]
    setup = make_setup("11p", duration=2.0, warmup=0.5, vehicles=vehicles)
    store = run(setup, zero_db_step())
    assert store.opportunities == 0
    assert prr_curve(store.prr) == []
    assert store.ipg.gaps.size == 0


@pytest.mark.parametrize("tech", ["11p", "cv2x"])
def test_identical_seeds_identical_metrics(tech, curve_11p, curve_cv2x):
    curve = curve_11p if tech == "11p" else curve_cv2x
    stores = [run(make_setup(tech, seed=42, duration=4.0, warmup=0.5, density=30.0,
                             road_length=1000.0), curve)
              for _ in range(2)]
    a, b = stores
    assert np.array_equal(a.prr.received, b.prr.received)
    assert np.array_equal(a.prr.opportunities, b.prr.opportunities)
    np.testing.assert_array_equal(a.ipg.gaps, b.ipg.gaps)
    assert (a.generated, a.transmitted, a.received_total) == \
           (b.generated, b.transmitted, b.received_total)


def test_different_seeds_differ():
    a = run(make_setup("11p", seed=1, duration=3.0, warmup=0.5, density=30.0,
                       road_length=1000.0), zero_db_step())
    b = run(make_setup("11p", seed=2, duration=3.0, warmup=0.5, density=30.0,
                       road_length=1000.0), zero_db_step())
    assert not np.array_equal(a.prr.opportunities, b.prr.opportunities)


@pytest.mark.parametrize("tech", ["11p", "cv2x"])
def test_packet_outcome_conservation(tech, curve_11p, curve_cv2x):
    curve = curve_11p if tech == "11p" else curve_cv2x
    store = run(make_setup(tech, duration=5.0, warmup=0.5, density=80.0,
                           road_length=1000.0), curve)
    assert store.received_total + store.lost_sinr + store.lost_half_duplex \
        == store.opportunities
    assert store.opportunities > 0


def test_warmup_must_precede_end():
    with pytest.raises(ConfigError):
        replace(built_setup().run, sim_duration_s=1.0, warmup_s=1.0)


def test_multi_tti_packets_rejected_by_slotted_engine():
    theta = replace(default_theta("cv2x"), n_prb_pkt=80)
    assert theta.n_tti == 2
    setup = make_setup("cv2x", duration=1.0, warmup=0.0, theta=theta,
                       vehicles=vehicle_pair(10.0))
    with pytest.raises(ConfigError, match="single-TTI") as caught:
        run(setup, zero_db_step())
    for key in ("cv2x.n_prb_pkt", "cv2x.n_subch", "cv2x.n_prb_subch"):
        assert key in str(caught.value)


def test_footprint_wider_than_the_grid_names_its_keys():
    # 37 data PRBs fit in one 38-PRB subchannel; with 2 control PRBs they need two
    setup = built_setup("run.technology=cv2x", "cv2x.n_subch=1", "cv2x.n_prb_subch=38")
    with pytest.raises(ConfigError, match="footprint") as caught:
        run(replace(setup, vehicles=vehicle_pair(10.0)), zero_db_step())
    for key in ("cv2x.control_overhead_prbs", "cv2x.n_subch", "cv2x.n_prb_subch"):
        assert key in str(caught.value)


def test_noise_limited_curve_prr_matches_integration(curve_11p):
    """Moving pair: time-averaged curve-mode PRR ~ E_shadow[1 - PER(SINR)]."""
    prop = built_setup().propagation
    noise = noise_power_dbm(prop)
    # place the pair where the mean SINR sits inside the curve's soft zone
    target_db = float(curve_11p.sinr_db[len(curve_11p.sinr_db) // 2])
    dist = None
    for d in np.linspace(50, 1990, 4000):
        if rx_power_dbm(d, prop) - noise <= target_db:
            dist = float(d)
            break
    assert dist is not None
    sigma = prop.shadowing_sigma_db
    shadows = np.linspace(-5 * sigma, 5 * sigma, 4001)
    weights = np.exp(-0.5 * (shadows / sigma) ** 2)
    weights /= weights.sum()
    snr_db = rx_power_dbm(dist, prop) - noise - shadows
    expected = float(np.sum(weights * (1.0 - curve_11p.per_at_db(snr_db))))

    # each run yields ~20 decorrelated shadow samples per link, so the
    # estimate needs many seeds before the Gaussian average is trustworthy
    received = opportunities = 0
    for seed in range(40):
        store = run(make_setup("11p", seed=seed, duration=20.0, warmup=0.5,
                               max_range_m=2500.0, max_prr_distance=2000.0,
                               road_length=4000.0,
                               vehicles=vehicle_pair(dist, speed_ms=26.67)),
                    curve_11p)
        received += store.received_total
        opportunities += store.opportunities
    assert opportunities > 10_000
    assert received / opportunities == pytest.approx(expected, abs=0.05)


def test_urban_crossing_runs_and_degrades_early():
    from v2xsim.cli import load_curve_csv
    from conftest import curve_path

    curve = load_curve_csv(curve_path("crossing_nlos_11p_mcs2_350B.csv"))
    setup = make_setup("11p", seed=1, duration=5.0, warmup=0.5, road_length=1000.0,
                       density=60.0, speed=40.0)
    setup = replace(setup, road=replace(setup.road, layout="urban_grid"))
    store = run(setup, curve)
    assert store.received_total + store.lost_sinr + store.lost_half_duplex \
        == store.opportunities
    ratios = dict(prr_curve(store.prr))
    # corner blockage pulls mid-range PRR well below the highway's saturation
    assert ratios[12.5] > 0.95
    assert ratios[137.5] < 0.9


def test_trace_records_mac_events(curve_cv2x):
    trace = TraceLog()
    run(make_setup("cv2x", duration=4.0, warmup=0.5, density=50.0, road_length=1000.0),
        curve_cv2x, trace=trace)
    assert trace.sps_selections
    for trigger, sel in trace.sps_selections:
        assert trigger + 1 <= sel.tti <= trigger + 100
        assert 5 <= sel.reselection_counter <= 15


# --- shared passes ------------------------------------------------------------

def small_pass_setup(tech="11p"):
    return make_setup(tech, seed=5, duration=0.3, warmup=0.1, density=40.0,
                      road_length=1000.0)


@pytest.mark.parametrize("tech", ["11p", "cv2x"])
def test_a_shared_pass_fills_one_store_per_model(tech, curve_11p, curve_cv2x):
    setup = small_pass_setup(tech)
    model = curve_11p if tech == "11p" else curve_cv2x
    shared = SharedRun([step_model(model), model])
    store = run(setup, model, shared=shared)
    assert shared.key == setup and len(shared.stores) == 2
    assert shared.stores[1] is store and run(setup, model, shared=shared) is store
    assert_same_store(store, run(setup, model))


def one_link_frames(sinr, skipped):
    """A batch of one link per frame, from vehicle 0 to vehicle 1 of two."""
    f = np.arange(sinr.size)
    return LinkBatch(skipped, np.zeros(sinr.size, dtype=np.intp), 0.1 * (f + 1), sinr,
                     np.zeros(sinr.size, dtype=bool), np.zeros(sinr.size, dtype=np.int16),
                     f, 2 * f + 1)


def test_tally_skips_the_curve_draws_of_the_skipped_links(curve_11p):
    sinr = 10.0 ** np.random.default_rng(3).uniform(-1.0, 1.5, size=500)
    model = curve_11p
    drawn = decide_reception_vector(sinr, model, stream(9, "reception"))[200:]
    store = built_store(2)
    rng = stream(9, "reception")
    tally(one_link_frames(sinr[200:], skipped=200), 2, model, rng, store)
    assert store.received_total == drawn.sum() and store.prr.received[0] == drawn.sum()
    assert store.ipg.gaps.size == drawn.sum() - 1
    # the next draw follows the 500 decided links
    reference = stream(9, "reception")
    reference.random(500)
    assert rng.random() == reference.random()


def test_tally_draws_nothing_for_a_step_model(curve_11p):
    rng = stream(9, "reception")
    tally(one_link_frames(np.ones(50), skipped=200), 2, step_model(curve_11p),
          rng, built_store(2))
    assert rng.random() == stream(9, "reception").random()


@pytest.mark.parametrize("repeat", [False, True])
def test_tally_searches_for_ipg_repeats_only_when_a_transmitter_sends_twice(repeat):
    """Frames of transmitters 2 and 0 (and 2 again), each received at 1 and 3."""
    tx = np.array([2, 0, 2] if repeat else [2, 0])
    f = tx.size
    rx = np.tile([1, 3], f)
    links = 2 * f
    batch = LinkBatch(0, tx, 0.1 * (np.arange(f) + 1), np.full(links, 100.0),
                      np.zeros(links, dtype=bool), np.zeros(links, dtype=np.int16),
                      np.arange(links), np.repeat(np.arange(f), 2) * 4 + rx)
    store = built_store(4)
    with mock.patch.object(IpgStore, "add_many", autospec=True,
                           side_effect=IpgStore.add_many) as add:
        tally(batch, 4, zero_db_step(), stream(1, "r"), store)
    assert add.call_args.kwargs["distinct"] is not repeat
    # the second frame of transmitter 2 reaches 1 and 3 again 0.2 s later
    assert store.ipg.gaps.tolist() == (pytest.approx([0.2, 0.2]) if repeat else [])
    assert store.received_total == links


class DistancePhy(engine._PhyCache):
    """The link cache, also holding each epoch's full distance matrix."""

    def refresh(self, first=False):
        super().refresh(first)
        self.dist = self.geom.distance_matrix()


def in_range_links(sim, tx, dist):
    """The (frames, N) links of frames from `tx` within `max_range_m`, by distance."""
    in_range = dist <= sim.cfg.max_range_m
    in_range[np.arange(tx.size), tx] = False
    return in_range


def distance_based_batch(sim, skipped, tx, start, signal, dist, deaf, hits, sources, base_mw):
    """The scorer as it was with distance rows: the range, PRR bin and IPG
    flag of each link from its distance, the diagonal masked per batch."""
    cfg = sim.cfg
    assert (start >= cfg.warmup_s).all()  # only counted frames are scored
    bins = PrrSeries(uniform_bin_edges(cfg.prr_max_distance_m, cfg.prr_bin_width_m))
    link = np.flatnonzero(in_range_links(sim, tx, dist))
    if link.size == 0 and skipped == 0:
        return None
    sinr = signal / interference_mw(tx.size, *hits, sources, sim.noise_mw, base_mw)
    d = dist.take(link)
    near = np.flatnonzero(d <= cfg.ipg_range_m)
    return LinkBatch(skipped, tx, start + sim.duration_s, sinr.take(link), deaf.take(link),
                     bins.bin_of(d), near, link.take(near))


@pytest.mark.parametrize("tech", ["11p", "cv2x"])
@pytest.mark.parametrize("max_range_m, ipg_range_m, width_m", [
    (500.0, 150.0, 25.0), (300.0, 450.0, 25.0), (700.0, 200.0, 0.03)])
def test_link_batches_match_the_distance_based_scorer(tech, max_range_m, ipg_range_m,
                                                      width_m):
    """200 vehicles on the 2 km ring, five mobility epochs: every batch the
    scorer emits from link codes equals the distance-based one. An 802.11p
    frame keeps the distance row of its start. Only frames that start after
    warmup are scored; the first batch carries every in-range link of the
    frames before warmup, by distance, and later batches none."""
    setup = make_setup(tech, seed=3, duration=0.6, warmup=0.2, density=100.0,
                       max_range_m=max_range_m, ipg_range_m=ipg_range_m,
                       prr_bin_width_m=width_m)
    setup = replace(setup, road=replace(setup.road, placement="fixed_count"))
    rows, expected, early = {}, [], [0]
    real_score, real_begin = engine._RunBase._score, engine._Run11p._begin_frame
    real_send = engine._RunCv2x._send

    def score(self, tx, start, signal, code, deaf, hits, sources, base_mw=None):
        dist = (self.phy.dist[tx] if tech == "cv2x" else
                np.stack([rows[key] for key in zip(tx.tolist(), start.tolist())]))
        skipped = 0 if expected else early[0]
        batch = distance_based_batch(self, skipped, tx, start, signal, dist, deaf, hits,
                                     sources, base_mw)
        if batch is not None:
            expected.append(batch)
        real_score(self, tx, start, signal, code, deaf, hits, sources, base_mw)

    def begin(self, vid, now):
        rows[vid, now] = self.phy.dist[vid].copy()
        if now < self.cfg.warmup_s:
            early[0] += int(np.count_nonzero(in_range_links(self, np.array([vid]),
                                                            rows[vid, now][None])))
        real_begin(self, vid, now)

    def send(self, tx, k):
        if k * self.t_tti < self.cfg.warmup_s:
            early[0] += int(np.count_nonzero(in_range_links(self, tx, self.phy.dist[tx])))
        real_send(self, tx, k)

    emitted = []
    with mock.patch.object(engine, "_PhyCache", DistancePhy), \
            mock.patch.object(engine._RunBase, "_score", score), \
            mock.patch.object(engine._Run11p, "_begin_frame", begin), \
            mock.patch.object(engine._RunCv2x, "_send", send):
        sim = (engine._Run11p if tech == "11p" else engine._RunCv2x)(
            setup, emitted.append, None)
        sim.run()
    assert len(emitted) == len(expected) > 2
    for got, want in zip(emitted, expected):
        assert got.skipped == want.skipped
        for name in LinkBatch._fields[1:]:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert emitted[0].skipped == early[0] > 0
    assert not any(batch.skipped for batch in emitted[1:])
    near = sum(batch.near.size for batch in emitted)
    assert 0 < near < sum(batch.sinr.size for batch in emitted) or ipg_range_m > max_range_m


@pytest.mark.parametrize("tech", ["11p", "cv2x"])
def test_a_run_counts_the_links_of_frames_before_warmup_only_as_skipped(
        tech, curve_11p, curve_cv2x):
    # the highway of the benchmarks: 200 vehicles on a 2 km ring
    setup = make_setup(tech, seed=5, duration=0.8, warmup=0.3, density=100.0)
    setup = replace(setup, road=replace(setup.road, placement="fixed_count"))
    model = curve_11p if tech == "11p" else curve_cv2x
    with mock.patch.object(engine, "tally", wraps=engine.tally) as scored:
        counted = run(setup, model).opportunities
    batches = [call.args[0] for call in scored.call_args_list]
    assert sum(batch.sinr.size for batch in batches) == counted > 0
    # the links of frames that start before warmup: those of a run without
    # warmup on the same channel, less the counted ones
    no_warmup = replace(setup, run=replace(setup.run, warmup_s=0.0))
    every = run(no_warmup, model).opportunities
    assert sum(batch.skipped for batch in batches) == every - counted > 0


@pytest.mark.parametrize("tech", ["11p", "cv2x"])
def test_a_mobility_step_shorter_than_a_frame_is_refused(tech):
    # a 1 ns step made 5e7 epoch events in a 0.05 s run at 5 veh/km
    airtime_ms = tx_time(default_theta(tech)) * 1e3
    built_setup(f"run.technology={tech}", f"run.mobility_step_ms={airtime_ms * (1 + 1e-9)!r}")
    for step_ms in (1e-6, airtime_ms * (1 - 1e-9)):
        with pytest.raises(ConfigError, match="run.mobility_step_ms"):
            built_setup(f"run.technology={tech}", f"run.mobility_step_ms={step_ms!r}")


def test_a_mobility_step_of_half_the_road_or_more_is_refused():
    # 2 km road, 100 ms steps: the fastest vehicle, 3 x 3 km/h over the mean,
    # must move less than 1000 m per step
    built_setup("road.mean_speed_kmh=35989")
    with pytest.raises(ConfigError, match="run.mobility_step_ms"):
        built_setup("road.mean_speed_kmh=35992")
    with pytest.raises(ConfigError, match="road.speed_std_kmh"):
        built_setup("road.speed_std_kmh=12000")
    # a step no shorter than the run makes no mobility epoch: nothing moves
    built_setup("road.mean_speed_kmh=35992", "run.mobility_step_ms=10000")


@pytest.mark.parametrize("section, change", [
    ("run", {"seed": 6}), ("run", {"sim_duration_s": 0.4}),
    ("road", {"density_vpk": 50.0})])
def test_a_shared_pass_under_a_different_setup_raises(section, change, curve_11p):
    setup = small_pass_setup()
    step = step_model(curve_11p)
    shared = SharedRun([curve_11p, step])
    run(setup, curve_11p, shared=shared)
    other = replace(setup, **{section: replace(getattr(setup, section), **change)})
    with pytest.raises(ConfigError, match="different setup"):
        run(other, step, shared=shared)


def test_only_the_first_run_of_a_shared_pass_traces(curve_11p):
    setup = small_pass_setup()
    shared = SharedRun([curve_11p])
    trace = TraceLog()
    run(setup, curve_11p, trace=trace, shared=shared)
    assert trace.tx_starts
    with pytest.raises(ConfigError, match="trace"):
        run(setup, curve_11p, trace=TraceLog(), shared=shared)


def test_a_model_outside_the_shared_pass_raises_before_simulating(curve_11p):
    shared = SharedRun([curve_11p, step_model(curve_11p)])
    # an equal threshold is still another model: the pass finds models by identity
    with pytest.raises(ConfigError, match="not one of"):
        run(small_pass_setup(), step_model(curve_11p), shared=shared)
    assert shared.stores is None
