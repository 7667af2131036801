"""CSMA state machine, carrier sensing, half duplex and sidelink resource selection."""

import heapq
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import built_setup, default_theta, make_setup, vehicle_pair

from v2xsim import engine
from v2xsim.access import (AIFS_WAIT, BACKOFF_COUNTING, BACKOFF_FROZEN, IDLE, TRANSMITTING,
                           CsmaNode, Selection, SpsState, projected_average_mw,
                           sps_after_transmission, sps_select, subchannel_sums)
from v2xsim.errors import ConfigError
from v2xsim.scenario import VehicleState
from v2xsim.util import linear_to_db, stream

PARAMS = built_setup().csma
AIFS = default_theta("11p").t_aifs_s


class FixedRng:
    """Deterministic stand-in feeding scripted backoff draws."""

    def __init__(self, draws):
        self.draws = list(draws)

    def integers(self, lo, hi):
        return self.draws.pop(0)


# --- the engine's medium -------------------------------------------------------

def engine_run(tech, vehicles, **csma):
    """An engine whose frames the test starts, ends and scores by hand.

    `csma` overrides carrier-sense settings. Returns the engine and the
    list its scored batches go to.
    """
    setup = make_setup(tech, duration=1.0, warmup=0.0, vehicles=vehicles)
    setup = replace(setup, csma=replace(setup.csma, **csma))
    emitted = []
    sim = (engine._Run11p if tech == "11p" else engine._RunCv2x)(setup, emitted.append, None)
    return sim, emitted


def play_11p(sim, frames):
    """Put (station, start time) frames on the medium in start order, then score them."""
    def end_frames_until(t):
        while sim.heap and sim.heap[0][0] <= t:
            at, _, _, frame = heapq.heappop(sim.heap)
            sim._end_frame(frame, at)

    for vid, start in frames:
        end_frames_until(start)
        sim._begin_frame(vid, start)
    end_frames_until(np.inf)
    sim._score_ended()


def set_channel(sim, power_dbm):
    """Every link of an 802.11p engine at the received power `power_dbm` (a scalar or (N, N)).

    The refresh's mW power of that power; carrier sense derives each frame's
    decodable stations from it.
    """
    sim.phy.power_mw[:] = 10.0 ** (np.asarray(power_dbm) / 10.0)


def flat_medium(stations, power_dbm, **csma):
    """An 802.11p engine of `stations` stations, every link at `power_dbm`."""
    sim, _ = engine_run("11p", [VehicleState(i, 0, 500.0 + 10.0 * i, 0.0, +1)
                                for i in range(stations)], **csma)
    set_channel(sim, power_dbm)
    return sim


@pytest.mark.parametrize("power_dbm, frames, busy", [
    (-84.0, 1, True),    # a frame above the decodable threshold
    (-86.0, 1, False),   # a frame below it
    (-70.0, 1, True),    # between the thresholds: still decodable
    (-86.0, 49, False),  # one frame short of the 50 from which the energy sum is kept
    (-86.0, 50, False),  # 50 such frames: -69.0 dBm of energy
    (-86.0, 99, False),  # 99 such frames: -66.0 dBm of energy
    (-86.0, 130, True),  # 130 such frames: -64.9 dBm of energy
])
def test_carrier_sense_thresholds(power_dbm, frames, busy):
    sim = flat_medium(frames + 1, power_dbm)
    for vid in range(1, frames + 1):
        sim._begin_frame(vid, 0.0)
    assert bool(sim.busy[0]) is busy


def test_energy_threshold_below_decodable_senses_one_undecodable_frame():
    sim = flat_medium(2, -86.0, sense_energy_dbm=-90.0)
    sim._begin_frame(1, 0.0)
    assert bool(sim.busy[0])
    ((_, _, _, frame),) = sim.heap
    sim._end_frame(frame, sim.duration_s)
    assert not sim.busy.any()


@pytest.mark.parametrize("e85_dbm, busy", [
    (-90.0, [True, False]),
    (-4000.0, [True, False]),  # 0.0 mW, which the zeroed own link meets
    (4000.0, [False, False]),  # past float64 in mW: inf, so nothing is decodable
], ids=["-90dBm", "-4000dBm", "+4000dBm"])
def test_station_does_not_sense_its_own_frame(e85_dbm, busy):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sim = flat_medium(2, -86.0, sense_decodable_dbm=e85_dbm)
        sim._begin_frame(1, 0.0)
    assert sim.busy.tolist() == busy


def sensed_busy(frames, n, e85_dbm, e65_mw):
    """The carrier-sense rule from scratch, over the frames on air.

    Each frame is (dBm row, mW row) of its transmitter's links at its start;
    a station is busy when one of them reached it at the decodable threshold,
    or when their summed power reaches the energy threshold.
    """
    decodable = [any(dbm[i] >= e85_dbm for dbm, _ in frames) for i in range(n)]
    energy = [math.fsum(mw[i] for _, mw in frames) for i in range(n)]
    return np.array([d or e >= e65_mw for d, e in zip(decodable, energy)], dtype=bool)


@pytest.mark.parametrize("energy_above_decodable", [True, False])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_carrier_sense_matches_reference(energy_above_decodable, data):
    """Random frame starts and ends: busy, and the flips the MAC hears, follow the rule.

    The thresholds are drawn so that the energy sum is kept from 1 to 5
    frames on air; at least one more station transmits than that, and all
    transmitters start before the last frames end, so every sequence crosses
    that count both ways. A refresh between frames gives the frames on air
    rows of an older channel. After every edge, each station's decodable
    count is the number of frames on air that reached it at the decodable
    threshold as they started; after every edge that leaves no sum kept, that
    count alone gives the rule's medium state.
    """
    e85_dbm = data.draw(st.integers(-95, -75), label="sense_decodable_dbm")
    gap_db = data.draw(st.integers(1, 10) if energy_above_decodable else st.integers(-6, 0),
                       label="energy over decodable, dB")
    guard = max(math.floor(10.0 ** (gap_db / 10.0) / 2.0), 1)
    n_tx = data.draw(st.integers(guard + 1, guard + 8), label="transmitters")
    n = n_tx + data.draw(st.integers(0, 4), label="listeners")
    positions = data.draw(st.lists(st.floats(0.0, 1990.0), min_size=n, max_size=n))
    sim, _ = engine_run("11p", [VehicleState(i, i % 2, x, 0.0, +1)
                                for i, x in enumerate(positions)],
                        sense_decodable_dbm=float(e85_dbm),
                        sense_energy_dbm=float(e85_dbm + gap_db))
    e65_mw = 10.0 ** ((e85_dbm + gap_db) / 10.0)
    # links within a few dB of the decodable threshold, so that the energy
    # often decides; whole dB from it, then 0.37 dB off: no sum of rows ties
    # with the energy threshold, where float order could decide
    channels = []
    for _ in range(2):
        dbm = np.array(data.draw(st.lists(st.integers(-4, 1), min_size=n * n, max_size=n * n)),
                       dtype=float).reshape(n, n) + e85_dbm + 0.37
        np.fill_diagonal(dbm, engine.POWER_FLOOR_DBM)
        mw = 10.0 ** (dbm / 10.0)
        np.fill_diagonal(mw, 0.0)
        channels.append((dbm, mw))

    def use_channel(c):
        dbm, mw = channels[c]
        set_channel(sim, dbm)
        sim.phy.power_mw[:] = mw
        return c

    channel = use_channel(0)
    for vid in range(n_tx, n):  # listeners with a packet contend
        if data.draw(st.booleans()):
            sim.mac.on_packet(0.0, vid, bool(sim.busy[vid]))
    heard = []
    for name in ("on_busy", "on_idle"):
        def record(now, vids, name=name, method=getattr(sim.mac, name)):
            heard.append((name, vids.tolist()))
            # a station that contends while its medium is busy is frozen
            assert name == "on_busy" or (sim.mac.phase[vids] == BACKOFF_FROZEN).all()
            method(now, vids)
        setattr(sim.mac, name, record)

    on_air, frames, now, kept = {}, {}, 0.0, []
    reference = sensed_busy([], n, e85_dbm, e65_mw)
    ops = ([("start", v) for v in data.draw(st.permutations(range(n_tx)))]
           + data.draw(st.lists(st.sampled_from([("toggle", v) for v in range(n_tx)]
                                                + [("refresh", None)]), max_size=30))
           + [("end_all", None)])
    for op, vid in ops:
        if op == "refresh":
            channel = use_channel(1 - channel)
            continue
        if op == "end_all":
            steps = [("end", v) for v in data.draw(st.permutations(sorted(on_air)))]
        else:
            steps = [("end" if vid in on_air else "start", vid)]
        for step, v in steps:
            now += 1e-5
            contending = set(np.flatnonzero(sim.mac.contends).tolist())
            if step == "start":
                sim._begin_frame(v, now)
                on_air[v] = sim.active[-1]
                frames[v] = (channels[channel][0][v], channels[channel][1][v])
            else:
                sim._end_frame(on_air.pop(v), now)
                del frames[v]
            before, reference = reference, sensed_busy(list(frames.values()), n,
                                                       e85_dbm, e65_mw)
            assert sim.busy.tolist() == reference.tolist()
            assert sim.busy_decod.tolist() == [
                sum(dbm[i] >= e85_dbm for dbm, _ in frames.values()) for i in range(n)]
            kept.append(sim.energy_mw is not None)
            if not kept[-1]:
                assert (sim.busy_decod > 0).tolist() == reference.tolist()
            expected = [(name, ids) for name, ids in (
                ("on_busy", [i for i in np.flatnonzero(reference & ~before) if i in contending]),
                ("on_idle", [i for i in np.flatnonzero(before & ~reference) if i in contending]))
                if ids]
            assert heard == expected
            heard.clear()
    assert not on_air and not sim.busy.any()
    assert any(kept) and not kept[-1]  # into the energy sum and out of it


def half_duplex_at_0(sim, emitted):
    """Per frame of station 1, whether station 0 lost it to half duplex."""
    (batch,) = emitted
    # the stations are 10 m apart, so every link is inside the IPG range
    assert batch.near.tolist() == list(range(batch.sinr.size))
    frame, rx = np.divmod(batch.near_link, sim.n)
    into_0 = (rx == 0) & (batch.tx[frame] == 1)
    return batch.blocked[into_0].tolist()


def test_half_duplex_disjoint_kept():
    sim, emitted = engine_run("11p", vehicle_pair(10.0))
    airtime = sim.duration_s
    play_11p(sim, [(1, 0.0), (0, 1.5 * airtime), (1, 3.0 * airtime)])
    assert half_duplex_at_0(sim, emitted) == [False, False]


def test_half_duplex_same_tti_lost():
    sim, emitted = engine_run("cv2x", vehicle_pair(10.0))
    sim.reserved_subch[:] = [0, 1]
    sim._send(np.array([0, 1]), 0)
    sim._score_held()
    assert half_duplex_at_0(sim, emitted) == [True]


def test_half_duplex_partial_overlap_lost():
    sim, emitted = engine_run("11p", vehicle_pair(10.0))
    airtime = sim.duration_s
    play_11p(sim, [(0, 0.0), (1, 0.8 * airtime), (1, 2.0 * airtime)])
    assert half_duplex_at_0(sim, emitted) == [True, False]


# --- CSMA stations -------------------------------------------------------------

def csma(*draws, params=PARAMS, aifs=AIFS):
    """Array CSMA whose station i draws the scripted backoffs draws[i]."""
    return CsmaNode(params, aifs, [FixedRng(d) for d in draws])


def ids(*vids):
    return np.array(vids, dtype=np.int64)


def test_idle_medium_transmits_after_aifs():
    mac = csma([])
    mac.on_packet(0.0, 0, medium_busy=False)
    at, _, vid = mac.next
    assert vid == 0
    assert at == pytest.approx(110e-6)
    assert mac.on_timer() == 0
    assert mac.phase[0] == TRANSMITTING
    assert mac.next is None


def test_busy_then_idle_zero_backoff_starts_at_aifs_expiry():
    mac = csma([0])
    mac.on_packet(0.0, 0, medium_busy=True)
    assert mac.phase[0] == BACKOFF_FROZEN
    assert mac.next is None
    mac.on_idle(4e-4, ids(0))
    assert mac.next[0] == pytest.approx(4e-4 + 110e-6)
    assert mac.on_timer() == 0


def test_busy_during_aifs_switches_to_backoff():
    mac = csma([5])
    mac.on_packet(0.0, 0, medium_busy=False)
    mac.on_busy(50e-6, ids(0))
    assert mac.phase[0] == BACKOFF_FROZEN
    assert mac.remaining[0] == 5
    assert mac.next is None  # the access due at AIFS expiry is dropped


def test_backoff_freezes_on_whole_slots_only():
    mac = csma([6])
    mac.on_packet(0.0, 0, medium_busy=True)
    mac.on_idle(1e-3, ids(0))
    start_counting = 1e-3 + AIFS
    assert mac.next[0] == pytest.approx(start_counting + 6 * PARAMS.slot_s)
    # busy again after 2.5 slots of counting: 2 slots consumed, 4 remain
    mac.on_busy(start_counting + 2.5 * PARAMS.slot_s, ids(0))
    assert mac.remaining[0] == 4
    mac.on_idle(2e-3, ids(0))
    assert mac.next[0] == pytest.approx(2e-3 + AIFS + 4 * PARAMS.slot_s)


def test_two_nodes_distinct_backoffs_order_strictly():
    """Trace oracle: the smaller draw transmits first; the loser stays frozen."""
    mac = csma([2], [5])
    for vid in (0, 1):
        mac.on_packet(0.0, vid, medium_busy=True)
    mac.on_idle(1e-3, ids(0, 1))
    assert mac.access_at[0] < mac.access_at[1]
    start_a = mac.next[0]
    assert mac.on_timer() == 0
    # a's frame makes the medium busy before b's counter expires
    mac.on_busy(start_a, ids(1))
    assert mac.phase[1] == BACKOFF_FROZEN
    assert mac.remaining[1] == 3
    end_a = start_a + 6e-4
    mac.on_idle(end_a, ids(1))
    start_b, _, vid = mac.next
    assert vid == 1
    assert start_b > end_a  # strictly ordered, no overlap


def test_packet_replacement_keeps_access_state():
    mac = csma([3])
    mac.on_packet(0.0, 0, medium_busy=True)
    mac.on_packet(0.1, 0, medium_busy=True)  # a second draw would exhaust the script
    assert mac.pending[0]
    assert mac.phase[0] == BACKOFF_FROZEN
    assert mac.remaining[0] == 3


def test_tx_end_with_pending_packet_restarts_access():
    mac = csma([])
    mac.on_packet(0.0, 0, medium_busy=False)
    assert mac.on_timer() == 0
    mac.take_packet(0)
    assert mac.phase[0] == TRANSMITTING
    assert not mac.pending[0]
    mac.on_packet(2e-4, 0, medium_busy=True)
    assert mac.next is None
    mac.on_tx_end(7e-4, 0, medium_busy=False)
    assert mac.phase[0] == AIFS_WAIT
    assert mac.pending[0]
    assert mac.next[0] == pytest.approx(7e-4 + AIFS)


def test_same_instant_goes_to_earlier_scheduled_access():
    # dyadic times add up exactly, so both accesses fall on one instant
    params, aifs = replace(PARAMS, slot_time_us=15.2587890625), 2.0 ** -13
    assert params.slot_s == 2.0 ** -16
    mac = csma([2], [4], params=params, aifs=aifs)
    for vid in (0, 1):
        mac.on_packet(0.0, vid, medium_busy=True)
    mac.on_idle(0.0, ids(1))
    mac.on_idle(2 * params.slot_s, ids(0))
    assert mac.access_at[0] == mac.access_at[1]
    assert mac.access_seq[1] < mac.access_seq[0]
    at = mac.next[0]
    assert mac.on_timer() == 1  # scheduled first, despite the higher id
    mac.take_packet(1)
    # station 0 senses that frame at the instant its own count ran out
    mac.on_busy(at, ids(0))
    assert mac.phase[0] == BACKOFF_FROZEN
    assert mac.remaining[0] == 0
    end = at + 6e-4
    mac.on_tx_end(end, 1, medium_busy=False)
    assert mac.phase[1] == IDLE
    mac.on_idle(end, ids(0))
    assert mac.next == (end + aifs, mac.access_seq[0], 0)
    assert mac.on_timer() == 0


def mixed_stations():
    """Six stations with real backoff streams, in every contending phase."""
    mac = CsmaNode(PARAMS, AIFS, [stream(17, "backoff", vid) for vid in range(6)])
    mac.on_packet(0.0, 0, medium_busy=False)  # AIFS
    mac.on_packet(0.0, 1, medium_busy=True)  # frozen
    mac.on_packet(0.0, 2, medium_busy=True)
    mac.on_idle(1e-4, ids(2))  # counting
    mac.on_packet(1e-5, 3, medium_busy=False)  # AIFS
    mac.on_packet(0.0, 4, medium_busy=True)
    mac.on_idle(5e-5, ids(4))  # counting
    return mac  # station 5 stays idle


def station_state(mac):
    arrays = (mac.phase, mac.contends, mac.remaining, mac.counting_start, mac.access_at,
              mac.access_seq, mac.pending)
    draws = [int(rng.integers(0, 1 << 30)) for rng in mac.rngs]
    return [a.tolist() for a in arrays] + [mac.next, mac.seq, draws]


@pytest.mark.parametrize("busy_at,idle_at", [(1.4e-4, 9e-4), (3e-4, 5e-4)])
def test_batched_flip_matches_one_station_at_a_time(busy_at, idle_at):
    batched, single = mixed_stations(), mixed_stations()
    contending = ids(0, 1, 2, 3, 4)
    batched.on_busy(busy_at, contending)
    for vid in contending:
        single.on_busy(busy_at, ids(vid))
    assert batched.next is None
    batched.on_idle(idle_at, contending)
    for vid in contending:
        single.on_idle(idle_at, ids(vid))
    assert station_state(batched) == station_state(single)
    assert batched.next is not None


CONTENDING_PHASES = (AIFS_WAIT, BACKOFF_FROZEN, BACKOFF_COUNTING)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_contends_mask_follows_the_phase(data):
    """Drawn call sequences: `contends` is set exactly in the contending phases.

    The calls keep the contract the engine keeps. Each station's medium is
    busy or idle, and a flip of it reaches the MAC only at contending
    stations, those turning busy first, each batch ascending; a station
    sees its medium's state when it gets a packet or ends its frame. An
    access fires once it falls due, before any other call at or after its
    instant; only a transmitting station ends its frame. Every station that
    `on_idle` resumes is frozen.
    """
    n = 5
    mac = CsmaNode(PARAMS, AIFS, [stream(23, "backoff", vid) for vid in range(n)])
    busy = np.zeros(n, dtype=bool)  # each station's medium
    now = 0.0

    def check():
        assert mac.contends.tolist() == np.isin(mac.phase, CONTENDING_PHASES).tolist()

    for _ in range(data.draw(st.integers(1, 40), label="calls")):
        now += data.draw(st.sampled_from([0.0, 1e-5, 1e-4]), label="time step")
        transmitting = np.flatnonzero(mac.phase == TRANSMITTING).tolist()
        if mac.next is not None and mac.next[0] <= now:
            call = "on_timer"
        else:
            calls = ["on_packet", "flip"] + (["on_tx_end"] if transmitting else [])
            call = data.draw(st.sampled_from(calls), label="call")
        if call == "on_packet":
            vid = data.draw(st.integers(0, n - 1), label="station")
            mac.on_packet(now, vid, bool(busy[vid]))
        elif call == "flip":
            flipped = np.zeros(n, dtype=bool)
            flipped[data.draw(st.lists(st.integers(0, n - 1), min_size=1), label="flips")] = True
            turned = np.flatnonzero(flipped & ~busy), np.flatnonzero(flipped & busy)
            busy ^= flipped
            for vids, method in zip(turned, (mac.on_busy, mac.on_idle)):
                vids = vids[np.isin(mac.phase[vids], CONTENDING_PHASES)]
                if vids.size:
                    if method == mac.on_idle:
                        assert (mac.phase[vids] == BACKOFF_FROZEN).all()
                    method(now, vids)
                    check()
        elif call == "on_timer":
            mac.take_packet(mac.on_timer())
        else:
            vid = data.draw(st.sampled_from(transmitting), label="station")
            mac.on_tx_end(now, vid, bool(busy[vid]))
        check()


# --- SPS -----------------------------------------------------------------------

SPS = built_setup().sps
PERIOD_TTIS = 100  # the default 100 ms generation period in 1 ms TTIs


def empty_ring(ttis=1000, subch=5):
    """A silent (window TTIs, one vehicle, starts) sensing ring.

    At the one-subchannel footprint `select_one` defaults to, its starts
    are its subchannels.
    """
    return np.zeros((ttis, 1, subch))


def select_one(ring, now, rng, n_subch_needed=1):
    """The selection of vehicle 0 of `ring`, alone in its call."""
    (sel,) = sps_select(ring, ids(0), now, SPS, 1e-3, PERIOD_TTIS, [rng], n_subch_needed)
    return sel


def test_cold_start_uniform_over_window():
    ring = empty_ring()
    rng = stream(1, "sps-test")
    picks = [select_one(ring, 1000, rng) for _ in range(4000)]
    ttis = np.array([p.tti for p in picks])
    subs = np.array([p.subchannel for p in picks])
    assert ttis.min() >= 1001 and ttis.max() <= 1100
    assert set(subs) == {0, 1, 2, 3, 4}
    # roughly uniform over the 100-TTI window: each ~40 hits, allow wide slack
    counts = np.bincount(ttis - 1001, minlength=100)
    assert counts.min() > 10 and counts.max() < 90


def test_selection_respects_window_bounds():
    ring = empty_ring()
    rng = stream(2, "sps-test")
    for now in (1000, 1500, 2000):
        sel = select_one(ring, now, rng)
        assert now + 1 <= sel.tti <= now + 100
        assert 5 <= sel.reselection_counter <= 15


def test_loud_window_relaxes_threshold():
    ring = empty_ring()
    ring[:] = 10 ** (-60 / 10.0)  # everything far above -110 dBm
    sel = select_one(ring, 1000, stream(3, "sps-test"))
    assert sel.threshold_dbm > SPS.rsrp_exclude_dbm
    assert sel.candidates_kept >= int(np.ceil(0.2 * sel.candidates_total))


def test_selection_prefers_quiet_resources():
    ring = empty_ring()
    ring[:] = 10 ** (-70 / 10.0)
    ring[:, :, 2] = 0.0  # subchannel 2 is silent in every TTI
    rng = stream(4, "sps-test")
    picks = [select_one(ring, 1000, rng) for _ in range(200)]
    assert all(p.subchannel == 2 for p in picks)


def test_candidate_set_at_least_best_fraction():
    rng = stream(5, "sps-test")
    ring = empty_ring()
    ring[:] = rng.uniform(0, 1e-7, size=ring.shape)
    for now in (1000, 1250, 1999):
        sel = select_one(ring, now, rng)
        assert sel.candidates_kept >= int(np.ceil(0.2 * sel.candidates_total))


def test_keep_probability_one_retains_resource():
    state = SpsState(reselection_counter=1, needs_reselection=False)
    params = replace(SPS, keep_probability=1.0)
    rng = stream(6, "sps-test")
    for _ in range(200):
        state.reselection_counter = 1
        keep = sps_after_transmission(state, params, rng)
        assert keep is True
        assert not state.needs_reselection


def test_keep_fraction_near_half():
    state = SpsState()
    rng = stream(7, "sps-test")
    keeps = []
    for _ in range(10_000):
        state.reselection_counter = 1
        state.needs_reselection = False
        keeps.append(sps_after_transmission(state, SPS, rng))
    frac = np.mean(keeps)
    assert 0.48 <= frac <= 0.52


def test_counter_decrements_without_draw():
    state = SpsState(reselection_counter=5)
    rng = stream(8, "sps-test")
    assert sps_after_transmission(state, SPS, rng) is None
    assert state.reselection_counter == 4


def projected_average_full_depth(power_mw, filled_until, candidate_ttis, period_ttis):
    """Reference projection: gathers and sums every depth level of every candidate."""
    window_ttis = power_mw.shape[0]
    depth = max(window_ttis // period_ttis, 1)
    m = np.arange(1, depth + 1)
    past = candidate_ttis[:, None] - m[None, :] * period_ttis
    lo = max(filled_until - window_ttis, 0)
    valid = (past >= lo) & (past < filled_until)
    rows = power_mw[past % window_ttis]  # (cand, depth, subch)
    usable = valid[:, :, None] & ~np.isnan(rows)
    rows = np.where(usable, rows, 0.0)
    counts = usable.sum(axis=1)
    return rows.sum(axis=1) / np.maximum(counts, 1)


def projected_average_one(power_mw, filled_until, candidate_ttis, period_ttis):
    """Reference projection of one vehicle's (window TTIs, subchannels) ring.

    It reads only the depth levels that can land in the recorded span and
    keeps them at their depth positions in a zero stack, one vehicle at a
    time.
    """
    window_ttis, n_subch = power_mw.shape
    n_cand = candidate_ttis.size
    depth = max(window_ttis // period_ttis, 1)
    lo = max(filled_until - window_ttis, 0)
    m_lo = max((int(candidate_ttis[0]) - filled_until) // period_ttis + 1, 1)
    m_hi = min((int(candidate_ttis[-1]) - lo) // period_ttis, depth)
    if m_lo > m_hi:
        return np.zeros((n_cand, n_subch))
    past = candidate_ttis[:, None] - np.arange(m_lo, m_hi + 1) * period_ttis
    rows = power_mw[past % window_ttis]  # (cand, m_hi - m_lo + 1, subch)
    usable = ((past >= lo) & (past < filled_until))[:, :, None] & ~np.isnan(rows)
    stack = np.zeros((n_cand, depth, n_subch))
    stack[:, m_lo - 1:m_hi] = np.where(usable, rows, 0.0)
    return stack.sum(axis=1) / np.maximum(usable.sum(axis=1), 1)


def sps_select_one(sensed_mw, now_tti, params, t_tti_s, period_ttis, rng, n_subch_needed):
    """Reference selection of one vehicle, relaxing the threshold one count at a time."""
    t1 = max(int(round(params.t1_s / t_tti_s)), 1)
    t2 = max(int(round(params.t2_s / t_tti_s)), t1)
    cand_ttis = np.arange(now_tti + t1, now_tti + t2 + 1)
    n_starts = sensed_mw.shape[1] - n_subch_needed + 1
    per_subch = projected_average_one(sensed_mw, now_tti, cand_ttis, period_ttis)
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
    shuffled = rng.permutation(kept_idx)
    ranked = shuffled[np.argsort(flat_mw[shuffled], kind="stable")]
    best = ranked[:min_keep]
    choice = int(best[rng.integers(0, best.size)])
    tti = int(cand_ttis[choice // n_starts])
    subch = int(choice % n_starts)
    counter = int(rng.integers(params.counter_min, params.counter_max + 1))
    return Selection(subch, tti, counter, int(kept.sum()), total, threshold)


def sensed_per_subchannel(ring, n_subch_needed):
    """The (window TTIs, vehicles, subchannels) ring of a per-start ring.

    Reference: each start with frames adds its total to its
    `n_subch_needed` subchannels, starts ascending, into zeros, as the
    engine's sensing did while its ring held one column per subchannel;
    a start without frames adds nothing, and an unsensed row stays NaN.
    """
    window_ttis, n, n_starts = ring.shape
    out = np.zeros((window_ttis, n, n_starts + n_subch_needed - 1))
    for s0 in range(n_starts):
        total = ring[:, :, s0]
        sent = total != 0.0  # NaN too
        out[:, :, s0:s0 + n_subch_needed][sent] += total[sent][:, None]
    return out


@st.composite
def sensing_rings(draw, period=None, log10_mw=(-14.0, -7.0)):
    """A (window TTIs, vehicles, starts) ring, its footprint, fill line and period.

    The footprint is the subchannels a frame takes from its start;
    `log10_mw` bounds the log10 of the recorded mW. Some starts have no
    frames, some TTIs are silent and some unsensed (NaN in every start),
    per vehicle.
    """
    n_subch = draw(st.integers(1, 8), label="subchannels")
    n_subch_needed = draw(st.integers(1, n_subch), label="subchannels needed")
    n_starts = n_subch - n_subch_needed + 1
    n = draw(st.integers(1, 10), label="vehicles")
    if period is None:
        period = draw(st.integers(1, 30), label="period")
    depth = draw(st.integers(1, 16), label="depth")
    window_ttis = depth * period + draw(st.integers(0, period - 1))
    filled_until = draw(st.one_of(st.integers(0, window_ttis - 1),  # still filling
                                  st.integers(window_ttis, 2 * window_ttis),  # full
                                  st.integers(2 * window_ttis + 1, 6 * window_ttis)),  # wrapped
                        label="filled until")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ring = 10.0 ** rng.uniform(*log10_mw, size=(window_ttis, n, n_starts))
    ring[rng.random(ring.shape) < draw(st.sampled_from([0.0, 0.3, 0.7]))] = 0.0  # no frames
    ring[rng.random((window_ttis, n)) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = 0.0  # silent
    ring[rng.random((window_ttis, n)) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = np.nan  # own
    vids = np.flatnonzero(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    if not vids.size:
        vids = ids(draw(st.integers(0, n - 1)))
    return ring, n_subch_needed, vids, filled_until, period


@st.composite
def sensing_cases(draw):
    """A sensing ring, the vehicles judged, candidates around the fill line, the footprint."""
    ring, n_subch_needed, vids, filled_until, period = draw(sensing_rings())
    depth = ring.shape[0] // period
    # candidates from before the recorded span to past its end
    first = filled_until + draw(st.integers(-(depth + 1) * period, 2 * period))
    candidates = np.arange(first, first + draw(st.integers(1, 2 * period + 2)))
    return ring, vids, filled_until, candidates, period, n_subch_needed


def fixed_sensing_case(n_subch, n_subch_needed, n, period, window_ttis, filled_until,
                       candidates, vids):
    """A sensing case of fixed shape, its ring drawn as `sensing_rings` draws one."""
    rng = np.random.default_rng(window_ttis * n * n_subch)
    ring = 10.0 ** rng.uniform(-14.0, -7.0,
                               size=(window_ttis, n, n_subch - n_subch_needed + 1))
    ring[rng.random(ring.shape) < 0.3] = 0.0
    ring[rng.random((window_ttis, n)) < 0.1] = 0.0
    ring[rng.random((window_ttis, n)) < 0.1] = np.nan
    return (ring, np.array(vids), filled_until, np.arange(*candidates), period,
            n_subch_needed)


# the exactness boundaries: at one subchannel numpy sums the reference's depth
# axis pairwise, which at depth >= 8 differs from in order for levels 2-4 (0 + l2
# pairs with l3 + l4); at five subchannels it sums in order; a single read level
# is exact in any order
@example(case=fixed_sensing_case(1, 1, 6, 10, 104, 30, (41, 50), range(6)))  # levels 2-4
@example(case=fixed_sensing_case(5, 4, 10, 100, 1000, 2500, (2501, 2601),
                                 [0, 1, 2, 4, 5, 7, 8, 9]))  # full window, default footprint
@example(case=fixed_sensing_case(5, 1, 10, 100, 1000, 2500, (2501, 2601),
                                 [0, 1, 2, 4, 5, 7, 8, 9]))  # full window, five starts
@example(case=fixed_sensing_case(1, 1, 3, 100, 1000, 50, (51, 151), [0, 2]))  # level 1 alone
@settings(max_examples=600, deadline=None)
@given(case=sensing_cases())
def test_projection_matches_full_depth_reference_bit_for_bit(case):
    starts, vids, filled_until, candidates, period, n_subch_needed = case
    ring = sensed_per_subchannel(starts, n_subch_needed)
    got = projected_average_mw(*case)
    assert got.shape == (candidates.size, vids.size, ring.shape[2])
    for v, vid in enumerate(vids.tolist()):
        expected = projected_average_full_depth(ring[:, vid], filled_until, candidates, period)
        assert np.array_equal(got[:, v], expected)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_one_call_for_many_vehicles_matches_one_reference_call_each(data):
    """Every Selection of a batched call equals that of the one-vehicle reference.

    A quiet ring keeps most candidates at the first threshold; a loud one
    takes many relaxation steps. A ring whose levels lie on the thresholds
    the relaxation passes makes a candidate's metric tie with a threshold
    in its last bit. The reference calls draw from fresh streams under the
    same keys as the batched call's.
    """
    kind = data.draw(st.sampled_from(["quiet", "loud", "on the thresholds"]), label="ring")
    period = data.draw(st.integers(2, 30), label="period")
    starts, k, vids, now, _ = data.draw(sensing_rings(
        period=period, log10_mw=(-8.0, -5.0) if kind == "loud" else (-14.5, -10.0)))
    seed = data.draw(st.integers(0, 2**16), label="seed")
    steps = [3.0] if kind == "on the thresholds" else [3.0, 0.7]
    if kind == "on the thresholds":
        recorded = starts > 0.0
        levels = 10.0 ** ((SPS.rsrp_exclude_dbm + 3.0 * np.arange(8)) / 10.0)
        starts[recorded] = np.random.default_rng(seed).choice(levels, recorded.sum())
    ring = sensed_per_subchannel(starts, k)
    t1 = data.draw(st.integers(0, 3), label="t1")
    t2 = t1 + data.draw(st.integers(0, 2 * period), label="T2 - T1")
    params = replace(
        SPS, t1_ms=float(t1), t2_ms=float(t2),
        best_fraction=data.draw(st.sampled_from([0.2, 0.5, 1.0]), label="best fraction"),
        rsrp_relax_step_db=data.draw(st.sampled_from(steps), label="relax step"))
    got = sps_select(starts, vids, now, params, 1e-3, period,
                     [stream(seed, "sps", vid) for vid in vids.tolist()], k)
    expected = [sps_select_one(ring[:, vid], now, params, 1e-3, period,
                               stream(seed, "sps", vid), k) for vid in vids.tolist()]
    assert got == expected
    assert [repr(sel) for sel in got] == [repr(sel) for sel in expected]


def sensed_row_reference(power_mw, tx, first_subch, n_subch, n_subch_needed):
    """The (N, subchannels) row the engine's sensing wrote per subchannel.

    Each group of frames that start on one subchannel sums its power rows
    in tx order; each group total is added to its `n_subch_needed`
    subchannels in one add over contiguous rows, groups ascending; the sum
    goes in transposed, and the transmitters' rows are NaN (half duplex).
    """
    starts = sorted(set(first_subch))
    total = np.zeros((len(starts), power_mw.shape[0]))
    for vid, s0 in zip(tx, first_subch):
        total[starts.index(s0)] += power_mw[vid]
    acc = np.zeros((n_subch, power_mw.shape[0]))
    for g, s0 in enumerate(starts):
        acc[s0:s0 + n_subch_needed] += total[g]
    row = acc.T.copy()
    row[tx] = np.nan
    return row


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_sensed_row_spread_over_subchannels_matches_the_per_subchannel_sums(data):
    """A TTI's ring row, spread as SPS spreads it, is the per-subchannel row bit for bit.

    The grid, the footprint, the vehicles' power rows and which vehicles
    transmit on which starts are drawn; many starts have no frames.
    """
    n_subch = data.draw(st.integers(1, 10), label="subchannels")
    n_prb_subch = data.draw(st.integers(3, 12), label="PRBs per subchannel")
    footprint = data.draw(st.integers(3, n_subch * n_prb_subch), label="footprint PRBs")
    theta = replace(default_theta("cv2x"), n_subch=n_subch, n_prb_subch=n_prb_subch,
                    n_prb_pkt=footprint - built_setup().prb_table.control_overhead_prbs)
    n = data.draw(st.integers(1, 8), label="vehicles")
    setup = make_setup("cv2x", duration=1.0, warmup=0.0, theta=theta,
                       vehicles=[VehicleState(i, 0, 500.0 + 10.0 * i, 0.0, +1)
                                 for i in range(n)])
    sim = engine._RunCv2x(setup, [].append, None)
    k = sim.n_subch_needed
    assert k == math.ceil(footprint / n_prb_subch)
    assert sim.ring.shape[2] == n_subch - k + 1

    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    power = 10.0 ** rng.uniform(-14.0, -7.0, size=(n, n))
    power[rng.random((n, n)) < 0.3] = 0.0  # out of reach
    sim.phy.power_mw[:] = power
    tx = np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=n, max_size=n),
                                  label="transmitters"))
    first_subch = [data.draw(st.integers(0, n_subch - k), label="start") for _ in tx]
    sim.reserved_subch[tx] = first_subch
    tti = data.draw(st.integers(0, 3 * sim.window_ttis), label="TTI")
    sim.ring[tti % sim.window_ttis] = np.nan  # the row is written whole
    sim._sense(tx, tti)

    got = subchannel_sums(sim.ring[tti % sim.window_ttis], k)
    expected = sensed_row_reference(power, tx.tolist(), first_subch, n_subch, k)
    # every sensed power is >= 0, so equal values are equal bits
    assert np.array_equal(got, expected, equal_nan=True)
    assert np.array_equal(np.isnan(sim.ring[tti % sim.window_ttis]).any(axis=1),
                          np.isin(np.arange(n), tx))


# --- parameter checks --------------------------------------------------------------

def test_sense_energy_threshold_must_convert_to_mw():
    # 10 ** (3090 / 10) overflows a double; 3080 dBm still converts
    with pytest.raises(ConfigError, match="sense_energy_dbm"):
        replace(PARAMS, sense_energy_dbm=3090.0)
    replace(PARAMS, sense_energy_dbm=3080.0)


def test_counter_range_must_be_ordered():
    with pytest.raises(ConfigError, match="counter_min"):
        replace(SPS, counter_min=15, counter_max=5)
    replace(SPS, counter_min=7, counter_max=7)


def test_selection_window_must_be_ordered():
    with pytest.raises(ConfigError, match="t1_ms must be <= t2_ms"):
        replace(SPS, t1_ms=150.0, t2_ms=100.0)
    replace(SPS, t1_ms=100.0, t2_ms=100.0)


def test_sensing_window_must_cover_a_period():
    # the setup checks it: the period is the traffic's, the window the SPS's
    setup = make_setup("cv2x")
    assert setup.traffic.period_s == pytest.approx(100e-3)
    with pytest.raises(ConfigError, match="sensing_window_ms"):
        replace(setup, sps=replace(setup.sps, sensing_window_ms=50.0))
    replace(setup, sps=replace(setup.sps, sensing_window_ms=100.0))
    with pytest.raises(ConfigError, match="sensing_window_ms"):
        replace(setup, sps=replace(setup.sps, sensing_window_ms=100.0),
                traffic=replace(setup.traffic, generation_period_ms=200.0))
