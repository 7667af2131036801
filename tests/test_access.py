"""CSMA state machine, carrier sensing, and sidelink resource selection."""

import numpy as np
import pytest

from v2xsim.access import (CsmaNode, CsmaParams, ResourceGrid, ScheduleTimer,
                           SensingWindow, SpsParams, SpsState, StartTx,
                           csma_carrier_sense, half_duplex_filter,
                           sps_after_transmission, sps_select)
from v2xsim.errors import ConfigError
from v2xsim.util import stream

PARAMS = CsmaParams()


class FixedRng:
    """Deterministic stand-in feeding scripted backoff draws."""

    def __init__(self, draws):
        self.draws = list(draws)

    def integers(self, lo, hi):
        return self.draws.pop(0)


# --- carrier sensing ----------------------------------------------------------

@pytest.mark.parametrize("power,decodable,busy", [
    (-84.0, True, True),    # decodable above the known-signal threshold
    (-70.0, False, False),  # below the unknown-signal threshold
    (-60.0, False, True),   # raw energy above the unknown-signal threshold
    (-86.0, True, False),
    (-60.0, True, True),
])
def test_carrier_sense_thresholds(power, decodable, busy):
    assert csma_carrier_sense(power, decodable) is busy


# --- CSMA node ----------------------------------------------------------------

def test_idle_medium_transmits_after_aifs():
    node = CsmaNode(PARAMS, FixedRng([]))
    action = node.on_packet(0.0, medium_busy=False, packet="p")
    assert isinstance(action, ScheduleTimer)
    assert action.at == pytest.approx(110e-6)
    fire = node.on_timer(action.at, action.token)
    assert isinstance(fire, StartTx)
    assert fire.at == pytest.approx(110e-6)


def test_busy_then_idle_zero_backoff_starts_at_aifs_expiry():
    node = CsmaNode(PARAMS, FixedRng([0]))
    assert node.on_packet(0.0, medium_busy=True, packet="p") is None
    assert node.state.phase == "backoff_frozen"
    action = node.on_idle(4e-4)
    assert isinstance(action, ScheduleTimer)
    assert action.at == pytest.approx(4e-4 + 110e-6)
    assert isinstance(node.on_timer(action.at, action.token), StartTx)


def test_busy_during_aifs_switches_to_backoff():
    node = CsmaNode(PARAMS, FixedRng([5]))
    first = node.on_packet(0.0, medium_busy=False, packet="p")
    node.on_busy(50e-6)
    assert node.state.phase == "backoff_frozen"
    assert node.state.backoff_slots_remaining == 5
    assert node.on_timer(first.at, first.token) is None  # stale timer ignored


def test_backoff_freezes_on_whole_slots_only():
    node = CsmaNode(PARAMS, FixedRng([6]))
    node.on_packet(0.0, medium_busy=True, packet="p")
    resume = node.on_idle(1e-3)
    start_counting = 1e-3 + PARAMS.aifs_s
    assert resume.at == pytest.approx(start_counting + 6 * PARAMS.slot_s)
    # busy again after 2.5 slots of counting: 2 slots consumed, 4 remain
    node.on_busy(start_counting + 2.5 * PARAMS.slot_s)
    assert node.state.backoff_slots_remaining == 4
    resume2 = node.on_idle(2e-3)
    assert resume2.at == pytest.approx(2e-3 + PARAMS.aifs_s + 4 * PARAMS.slot_s)


def test_two_nodes_distinct_backoffs_order_strictly():
    """Trace oracle: the smaller draw transmits first; the loser stays frozen."""
    a = CsmaNode(PARAMS, FixedRng([2]))
    b = CsmaNode(PARAMS, FixedRng([5]))
    for node in (a, b):
        node.on_packet(0.0, medium_busy=True, packet="p")
    idle_at = 1e-3
    ta = a.on_idle(idle_at)
    tb = b.on_idle(idle_at)
    assert ta.at < tb.at
    start_a = a.on_timer(ta.at, ta.token)
    assert isinstance(start_a, StartTx)
    # a's frame makes the medium busy before b's counter expires
    b.on_busy(start_a.at)
    assert b.state.phase == "backoff_frozen"
    assert b.state.backoff_slots_remaining == 3
    end_a = start_a.at + 6e-4
    tb2 = b.on_idle(end_a)
    start_b = b.on_timer(tb2.at, tb2.token)
    assert start_b.at > end_a  # strictly ordered, no overlap


def test_packet_replacement_keeps_access_state():
    node = CsmaNode(PARAMS, FixedRng([3]))
    node.on_packet(0.0, medium_busy=True, packet="old")
    assert node.on_packet(0.1, medium_busy=True, packet="new") is None
    assert node.state.pending_packet == "new"
    assert node.state.backoff_slots_remaining == 3


def test_tx_end_with_pending_packet_restarts_access():
    node = CsmaNode(PARAMS, FixedRng([]))
    first = node.on_packet(0.0, medium_busy=False, packet="p1")
    node.on_timer(first.at, first.token)
    assert node.state.phase == "transmitting"
    node.on_packet(2e-4, medium_busy=True, packet="p2")
    action = node.on_tx_end(7e-4, medium_busy=False)
    assert isinstance(action, ScheduleTimer)
    assert node.state.pending_packet == "p2"


# --- SPS -----------------------------------------------------------------------

SPS = SpsParams()


def empty_window(ttis=1000, subch=5, filled=1000):
    win = SensingWindow(ttis, subch)
    win.filled_until = filled
    return win


def test_cold_start_uniform_over_window():
    win = empty_window()
    rng = stream(1, "sps-test")
    picks = [sps_select(SpsState(), win, 1000, SPS, 1e-3, rng) for _ in range(4000)]
    ttis = np.array([p.tti for p in picks])
    subs = np.array([p.subchannel for p in picks])
    assert ttis.min() >= 1001 and ttis.max() <= 1100
    assert set(subs) == {0, 1, 2, 3, 4}
    # roughly uniform over the 100-TTI window: each ~40 hits, allow wide slack
    counts = np.bincount(ttis - 1001, minlength=100)
    assert counts.min() > 10 and counts.max() < 90


def test_selection_respects_window_bounds():
    win = empty_window()
    rng = stream(2, "sps-test")
    for now in (1000, 1500, 2000):
        win.filled_until = now
        sel = sps_select(SpsState(), win, now, SPS, 1e-3, rng)
        assert now + 1 <= sel.tti <= now + 100
        assert 5 <= sel.reselection_counter <= 15


def test_loud_window_relaxes_threshold():
    win = empty_window()
    win.power_mw[:, :] = 10 ** (-60 / 10.0)  # everything far above -110 dBm
    sel = sps_select(SpsState(), win, 1000, SPS, 1e-3, stream(3, "sps-test"))
    assert sel.threshold_dbm > SPS.rsrp_exclude_dbm
    assert sel.candidates_kept >= int(np.ceil(0.2 * sel.candidates_total))


def test_selection_prefers_quiet_resources():
    win = empty_window()
    win.power_mw[:, :] = 10 ** (-70 / 10.0)
    win.power_mw[:, 2] = 0.0  # subchannel 2 is silent in every TTI
    rng = stream(4, "sps-test")
    picks = [sps_select(SpsState(), win, 1000, SPS, 1e-3, rng) for _ in range(200)]
    assert all(p.subchannel == 2 for p in picks)


def test_candidate_set_at_least_best_fraction():
    rng = stream(5, "sps-test")
    win = empty_window()
    win.power_mw[:, :] = rng.uniform(0, 1e-7, size=win.power_mw.shape)
    for now in (1000, 1250, 1999):
        win.filled_until = now
        sel = sps_select(SpsState(), win, now, SPS, 1e-3, rng)
        assert sel.candidates_kept >= int(np.ceil(0.2 * sel.candidates_total))


def test_keep_probability_one_retains_resource():
    state = SpsState(keep_probability=1.0, reselection_counter=1,
                     needs_reselection=False)
    rng = stream(6, "sps-test")
    for _ in range(200):
        state.reselection_counter = 1
        keep = sps_after_transmission(state, SPS, rng)
        assert keep is True
        assert not state.needs_reselection


def test_keep_fraction_near_half():
    state = SpsState(keep_probability=0.5)
    rng = stream(7, "sps-test")
    keeps = []
    for _ in range(10_000):
        state.reselection_counter = 1
        state.needs_reselection = False
        keeps.append(sps_after_transmission(state, SPS, rng))
    frac = np.mean(keeps)
    assert 0.48 <= frac <= 0.52


def test_counter_decrements_without_draw():
    state = SpsState(keep_probability=0.5, reselection_counter=5)
    rng = stream(8, "sps-test")
    assert sps_after_transmission(state, SPS, rng) is None
    assert state.reselection_counter == 4


def test_footprint_wider_than_grid_rejected():
    with pytest.raises(ConfigError):
        sps_select(SpsState(), empty_window(subch=2), 1000, SPS, 1e-3,
                   stream(9, "sps-test"), n_subch_needed=3)


# --- shared helpers --------------------------------------------------------------

def test_half_duplex_disjoint_kept():
    events = [(0.0, 0.1), (0.3, 0.4)]
    assert half_duplex_filter([(0.15, 0.25)], events) == events


def test_half_duplex_same_tti_lost():
    assert half_duplex_filter([(0.001, 0.002)], [(0.001, 0.002)]) == []


def test_half_duplex_partial_overlap_lost():
    kept = half_duplex_filter([(0.0, 0.0005)], [(0.0004, 0.001), (0.0006, 0.0012)])
    assert kept == [(0.0006, 0.0012)]


def test_resource_grid_sharing():
    grid = ResourceGrid(n_subch=5)
    grid.add(10, [0, 1], tx_id=7)
    grid.add(10, [1, 2], tx_id=9)
    grid.add(11, [0], tx_id=3)
    assert grid.sharing(10, [1]) == {7, 9}
    assert grid.sharing(10, [4]) == set()
    assert grid.sharing(11, [0, 1]) == {3}


def test_counter_range_must_be_ordered():
    with pytest.raises(ConfigError, match="counter_min"):
        SpsParams(counter_min=15, counter_max=5)
    SpsParams(counter_min=7, counter_max=7)
