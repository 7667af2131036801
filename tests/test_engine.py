"""Event-loop behavior: reception decisions, interference, conservation,
determinism, and the noise-limited sanity checks."""

from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

from conftest import assert_same_store, make_setup, prr_curve, step_model, vehicle_pair

from v2xsim import engine
from v2xsim.abstraction import PerCurve, StepFunction
from v2xsim.channel import PropagationConfig, noise_power_dbm, rx_power_dbm
from v2xsim.engine import (LinkBatch, LinkRecord, RunConfig, SimulationSetup, TraceLog,
                           TransmissionEvent, decide_reception_vector, overlap_fraction,
                           prb_overlap, run, tally)
from v2xsim.errors import ConfigError
from v2xsim.metrics import IpgStore, MetricStore
from v2xsim.scenario import VehicleState
from v2xsim.settings import CV2xSettings, Ieee80211pSettings
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


# --- overlap_fraction and prb_overlap ----------------------------------------------

def ev(tx, start, dur):
    return TransmissionEvent(tx_id=tx, start=start, duration=dur)


def test_disjoint_airtimes_no_interference():
    a = ev(0, 0.0, 1e-3)
    b = ev(1, 2e-3, 1e-3)
    assert overlap_fraction(a, b) == 0.0


def test_half_overlap_fraction():
    a = ev(0, 0.0, 1.0)
    b = ev(1, 0.5, 1.0)
    assert overlap_fraction(a, b) == pytest.approx(0.5)


class PrbFrame(NamedTuple):
    """The resource footprint of a sidelink frame."""

    tti: int
    prb_start: int
    prb_count: int


def prb_fraction(a: PrbFrame, b: PrbFrame) -> float:
    """Share of a's PRBs that b occupies too: the pairwise reference for `prb_overlap`."""
    if b.tti != a.tti:
        return 0.0
    lo = max(a.prb_start, b.prb_start)
    hi = min(a.prb_start + a.prb_count, b.prb_start + b.prb_count)
    if hi <= lo:
        return 0.0
    return (hi - lo) / a.prb_count


def prb_hits(frames):
    """`prb_overlap` of frames sharing one PRB count, as (frame, source, frac) tuples."""
    tti, start = (np.array([getattr(f, name) for f in frames]) for name in ("tti", "prb_start"))
    frame, source, frac = prb_overlap(tti, start, frames[0].prb_count)
    return list(zip(frame.tolist(), source.tolist(), frac.tolist()))


def test_same_tti_disjoint_subchannels_excluded():
    a = PrbFrame(tti=5, prb_start=0, prb_count=10)
    b = PrbFrame(tti=5, prb_start=10, prb_count=10)
    c = PrbFrame(tti=6, prb_start=0, prb_count=10)
    assert prb_fraction(a, b) == 0.0
    assert prb_fraction(a, c) == 0.0
    assert prb_hits([a, b, c]) == []


def test_shared_prbs_fraction():
    a = PrbFrame(tti=5, prb_start=0, prb_count=20)
    b = PrbFrame(tti=5, prb_start=10, prb_count=20)
    assert prb_fraction(a, b) == pytest.approx(0.5)
    assert prb_fraction(b, a) == pytest.approx(0.5)
    assert prb_hits([a, b]) == [(0, 1, 0.5), (1, 0, 0.5)]


def test_prb_overlap_matches_pairwise_fraction():
    rng = np.random.default_rng(21)
    for _ in range(40):
        size = int(rng.integers(1, 13))
        ttis = np.sort(rng.integers(0, 4, size=size))
        starts = rng.integers(0, 40, size=size)
        frames = [PrbFrame(int(t), int(p), 12) for t, p in zip(ttis, starts)]
        want = [(f, j, prb_fraction(a, b)) for f, a in enumerate(frames)
                for j, b in enumerate(frames) if f != j and prb_fraction(a, b) > 0]
        assert prb_hits(frames) == want


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
        RunConfig(seed=1, sim_duration_s=1.0, warmup_s=1.0,
                  theta=Ieee80211pSettings(payload_bytes=350))


def test_multi_tti_packets_rejected_by_slotted_engine():
    theta = CV2xSettings(payload_bytes=350, n_prb_pkt=80)
    assert theta.n_tti == 2
    setup = SimulationSetup(
        run=RunConfig(seed=1, sim_duration_s=1.0, theta=theta),
        vehicles=vehicle_pair(10.0),
    )
    with pytest.raises(ConfigError):
        run(setup, zero_db_step())


def test_noise_limited_curve_prr_matches_integration(curve_11p):
    """Moving pair: time-averaged curve-mode PRR ~ E_shadow[1 - PER(SINR)]."""
    prop = PropagationConfig()
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
    from v2xsim.scenario import RoadConfig, TrafficConfig
    from v2xsim.settings import Ieee80211pSettings

    curve = load_curve_csv(curve_path("crossing_nlos_11p_mcs2_350B.csv"))
    setup = SimulationSetup(
        run=RunConfig(seed=1, sim_duration_s=5.0, warmup_s=0.5,
                      theta=Ieee80211pSettings(payload_bytes=350)),
        road=RoadConfig(layout="urban_grid", road_length_m=1000.0,
                        density_vpk=60.0, mean_speed_kmh=40.0),
        traffic=TrafficConfig(),
    )
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


# --- link records --------------------------------------------------------------

def small_record_setup(tech="11p"):
    return make_setup(tech, seed=5, duration=0.3, warmup=0.1, density=40.0,
                      road_length=1000.0)


@pytest.mark.parametrize("tech", ["11p", "cv2x"])
def test_filling_a_record_leaves_the_run_unchanged(tech, curve_11p, curve_cv2x):
    setup = small_record_setup(tech)
    model = curve_11p if tech == "11p" else curve_cv2x
    links = LinkRecord()
    filled = run(setup, model, links=links)
    assert links.filled and links.chunks
    assert_same_store(filled, run(setup, model))


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
    store = MetricStore(ipg=IpgStore(n_nodes=2))
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
          rng, MetricStore(ipg=IpgStore(n_nodes=2)))
    assert rng.random() == stream(9, "reception").random()


def test_frames_that_start_before_warmup_must_be_scored_first():
    setup = make_setup("11p", duration=1.0, warmup=0.5, vehicles=vehicle_pair(10.0))
    sim = engine._RunBase(setup, lambda batch: None, None)
    no_hits = (np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0))

    def score(tx, start):
        f = len(tx)
        signal = np.where(np.eye(2, dtype=bool), 0.0, 1e-6)[tx]
        dist = np.where(np.eye(2, dtype=bool), 0.0, 10.0)[tx]
        sim._score(np.array(tx), np.array(start), np.array(start) + 0.001, signal, dist,
                   np.zeros((f, 2), dtype=bool), no_hits, np.zeros((0, 2)))

    with pytest.raises(AssertionError, match="before warmup"):
        score([0, 1], [0.6, 0.1])  # within a batch
    score([0], [0.6])
    with pytest.raises(AssertionError, match="before warmup"):
        score([1], [0.4])  # in a later batch


@pytest.mark.parametrize("tech", ["11p", "cv2x"])
def test_a_record_keeps_16_bytes_per_counted_link_and_a_count_of_the_rest(
        tech, curve_11p, curve_cv2x):
    # the highway of the benchmarks: 200 vehicles on a 2 km ring
    setup = make_setup(tech, seed=5, duration=0.8, warmup=0.3, density=100.0)
    setup = replace(setup, road=replace(setup.road, placement="fixed_count"))
    model = curve_11p if tech == "11p" else curve_cv2x
    links = LinkRecord()
    counted = run(setup, model, links=links).opportunities
    held = sum(a.nbytes for chunk in links.chunks for a in chunk
               if isinstance(a, np.ndarray))
    assert sum(chunk.sinr.size for chunk in links.chunks) == counted > 0
    assert held <= 16 * counted
    # the links of frames that start before warmup: those of a run without
    # warmup on the same channel, less the counted ones
    no_warmup = replace(setup, run=replace(setup.run, warmup_s=0.0))
    every = run(no_warmup, model).opportunities
    assert sum(chunk.skipped for chunk in links.chunks) == every - counted > 0


@pytest.mark.parametrize("section, change", [
    ("run", {"seed": 6}), ("run", {"sim_duration_s": 0.4}),
    ("road", {"density_vpk": 50.0})])
def test_replay_under_a_different_setup_raises(section, change, curve_11p):
    setup = small_record_setup()
    links = LinkRecord()
    run(setup, curve_11p, links=links)
    other = replace(setup, **{section: replace(getattr(setup, section), **change)})
    with pytest.raises(ConfigError, match="different setup"):
        run(other, step_model(curve_11p), links=links)


def test_replay_cannot_be_traced(curve_11p):
    setup = small_record_setup()
    links = LinkRecord()
    run(setup, curve_11p, trace=TraceLog(), links=links)
    with pytest.raises(ConfigError, match="trace"):
        run(setup, curve_11p, trace=TraceLog(), links=links)
