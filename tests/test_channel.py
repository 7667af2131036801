"""Link budget pieces: path loss, shadowing process, noise, SINR arithmetic."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import built_setup, make_setup, rx_power_dbm, vehicle_pair

from v2xsim import engine
from v2xsim.channel import SPEED_OF_LIGHT, LinkShadowing, noise_power_dbm, path_loss_db
from v2xsim.scenario import ALL, Geometry, spawn
from v2xsim.util import stream

PROP = built_setup().propagation
# with these coefficients the free-space clamp binds at both points below,
# so the LOS intercept is lifted this far past it and the lift taken off again
LIFT_DB = 40.0


def los_branch_db(d, cfg):
    """`path_loss_db` of one LOS link below the breakpoint, without the clamp."""
    assert d <= cfg.breakpoint_m
    lifted = replace(cfg, los_b=cfg.los_b + LIFT_DB)
    return float(path_loss_db(d, lifted, los=True)) - LIFT_DB


def test_los_formula_literal_at_100m():
    # configured single-slope term, evaluated directly (no free-space clamp)
    cfg = replace(PROP, los_a=22.7, los_b=27.0, los_c=20.0, carrier_hz=5.9e9)
    got = los_branch_db(100.0, cfg)
    assert got == pytest.approx(22.7 * 2 + 27.0 + 20 * math.log10(5.9 / 5), rel=1e-12)


def test_los_formula_intercept_at_1m():
    cfg = PROP
    got = los_branch_db(1.0, cfg)
    assert got == pytest.approx(cfg.los_b + cfg.los_c * math.log10(5.9 / 5), rel=1e-12)


def unfolded_path_loss_db(d, cfg, los=None):
    """The path loss as the sum of its unfolded terms: a second log10 past the
    breakpoint and every constant added per link (before they were folded)."""
    def winner_db(log_d, a, b, c):
        return a * log_d + b + c * math.log10(cfg.carrier_hz / 5e9)

    d = np.maximum(np.asarray(d, dtype=float), 1.0)
    log_d = np.log10(d)
    if los is None or cfg.model == "winner_b1_nlos":
        los = cfg.model == "winner_b1_los"
    d_bp = cfg.breakpoint_m
    at_bp = winner_db(np.log10(max(d_bp, 1.0)), cfg.los_a, cfg.los_b, cfg.los_c)
    loss = np.where(d > d_bp, at_bp + 40.0 * np.log10(d / d_bp),
                    winner_db(log_d, cfg.los_a, cfg.los_b, cfg.los_c))
    loss = np.where(los, loss, winner_db(log_d, cfg.nlos_a, cfg.nlos_b, cfg.nlos_c))
    free_space = 20.0 * log_d + 20.0 * np.log10(cfg.carrier_hz) + 20.0 * math.log10(
        4.0 * math.pi / SPEED_OF_LIGHT)
    return np.maximum(loss, free_space)


@settings(max_examples=200, deadline=None)
@given(links=st.lists(st.tuples(st.floats(0.5, 20_000.0), st.booleans()), max_size=40),
       model=st.sampled_from(["winner_b1_los", "winner_b1_nlos"]),
       # 0.05 m puts the breakpoint under the 1 m distance floor
       height=st.sampled_from([0.05, 0.5, 1.5, 10.0]),
       carrier_hz=st.sampled_from([2e9, 5.9e9, 28e9]),
       mask=st.sampled_from(["links", "none", "all_los", "all_nlos"]))
def test_folded_path_loss_within_1e_9_db_of_the_unfolded_terms(links, model, height,
                                                               carrier_hz, mask):
    cfg = replace(PROP, model=model, antenna_height_m=height, carrier_hz=carrier_hz)
    # the distance floor and the breakpoint, exactly, on both branches
    links = [(1.0, True), (1.0, False), (cfg.breakpoint_m, True),
             (cfg.breakpoint_m, False), *links]
    d = np.array([dist for dist, _ in links])
    los = {"links": np.array([flag for _, flag in links]), "none": None,
           "all_los": True, "all_nlos": False}[mask]
    got = path_loss_db(d, cfg, los=los)
    np.testing.assert_allclose(got, unfolded_path_loss_db(d, cfg, los=los), rtol=0, atol=1e-9)


@settings(max_examples=100, deadline=None)
@given(dbm=st.lists(st.floats(-999.0, 60.0), min_size=1, max_size=50))
@example(dbm=[-999.0, -150.0, -85.0, 0.0, 60.0])
def test_refresh_mw_conversion_within_1e_13_of_the_power_form(dbm):
    dbm = np.array(dbm)
    expected = 10.0 ** (dbm / 10.0)
    got = engine.dbm_to_mw(dbm)
    np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0)
    # in place, as the refresh converts its block
    assert np.array_equal(engine.dbm_to_mw(dbm.copy(), out=dbm), got)


def hypot_distances(geom):
    """Every pair's distance by `np.hypot` of the layout's axis offsets."""
    if geom.road.layout == "highway":
        dx = geom._axis_delta(geom.pos, ALL, ALL)
        dy = geom.lateral[:, None] - geom.lateral[None, :]
    else:
        x, y = geom.xy()
        dx, dy = x[:, None] - x[None, :], y[:, None] - y[None, :]
    return np.hypot(dx, dy)


@settings(max_examples=60, deadline=None)
@given(layout=st.sampled_from(["highway", "urban_grid"]), wrap_around=st.booleans(),
       vehicles=st.integers(2, 120), lanes=st.integers(1, 4),
       lane_width_m=st.sampled_from([0.0, 3.5, 4.0, 17.3]),
       road_length_m=st.sampled_from([50.0, 1000.0, 2000.0, 20_000.0]),
       seed=st.integers(0, 2**31 - 1), step_s=st.sampled_from([0.0, 0.1, 7.3]))
def test_distance_within_1_ulp_of_hypot(layout, wrap_around, vehicles, lanes, lane_width_m,
                                        road_length_m, seed, step_s):
    road = replace(built_setup().road, layout=layout, wrap_around=wrap_around,
                   lanes_per_direction=lanes, lane_width_m=lane_width_m,
                   road_length_m=road_length_m,
                   density_vpk=vehicles / (road_length_m / 1000.0), placement="fixed_count")
    geom = Geometry(road, spawn(road, seed))
    geom.step(step_s)
    dist, expected = geom.distance_matrix(), hypot_distances(geom)
    assert np.all(np.abs(dist - expected) <= np.spacing(expected))


def test_path_loss_nlos_dominates_los():
    cfg = PROP
    d = np.linspace(10.0, 1000.0, 400)
    los = path_loss_db(d, cfg, los=True)
    nlos = path_loss_db(d, cfg, los=False)
    assert np.all(nlos >= los)


def test_nlos_model_puts_every_link_on_the_nlos_branch():
    los_model, nlos_model = PROP, replace(PROP, model="winner_b1_nlos")
    d = np.linspace(10.0, 1000.0, 50)
    los = np.arange(50) % 3 > 0
    nlos_branch = path_loss_db(d, los_model, los=False)
    np.testing.assert_array_equal(path_loss_db(d, nlos_model, los=los), nlos_branch)
    np.testing.assert_array_equal(path_loss_db(d, nlos_model), nlos_branch)
    assert not np.array_equal(path_loss_db(d, los_model, los=los), nlos_branch)


def test_path_loss_monotone_in_distance():
    cfg = PROP
    d = np.linspace(1.0, 2000.0, 1500)
    for los in (True, False):
        loss = path_loss_db(d, cfg, los=los)
        assert np.all(np.diff(loss) >= -1e-9)


def test_path_loss_clamped_by_free_space():
    cfg = replace(PROP, los_b=10.0)
    d = np.array([10.0, 100.0, 500.0])
    free_space = 20.0 * np.log10(4.0 * math.pi * d * cfg.carrier_hz / 299792458.0)
    assert np.all(path_loss_db(d, cfg, los=True) >= free_space)


def test_path_loss_floors_distance_at_1m():
    cfg = PROP
    assert path_loss_db(-5.0, cfg) == path_loss_db(1.0, cfg)
    assert path_loss_db(0.0, cfg) == path_loss_db(1.0, cfg)


def test_dual_slope_continuous_at_breakpoint():
    cfg = PROP
    bp = cfg.breakpoint_m
    below = float(path_loss_db(bp * 0.999, cfg, los=True))
    above = float(path_loss_db(bp * 1.001, cfg, los=True))
    assert above == pytest.approx(below, abs=0.05)


# --- shadowing ---------------------------------------------------------------

def evolve(values, delta_m, rng):
    """The engine's shadowing update of a copy of values, every transmitter displaced by delta_m."""
    evolved = values.copy()
    LinkShadowing.evolve_matrix(evolved, np.full(values.shape[0], delta_m), 3.0, 25.0, rng)
    return evolved


def test_shadowing_unchanged_without_displacement():
    rng = stream(1, "t")
    first = 3.0 * rng.standard_normal((20, 20))
    np.testing.assert_allclose(evolve(first, 0.0, rng), first, rtol=1e-12)


def test_shadowing_decorrelates_at_large_displacement():
    rng = stream(2, "t")
    first = 3.0 * rng.standard_normal((64, 64))
    far = evolve(first, 1e6, rng)
    # rho ~ 0: each link gets a fresh Gaussian, not a copy
    assert not np.any(np.isclose(far, first, rtol=0.0, atol=1e-6))
    assert abs(np.corrcoef(first.ravel(), far.ravel())[0, 1]) < 0.05
    assert abs(np.std(far) - 3.0) < 0.15


def test_shadowing_marginal_std_preserved():
    rng = stream(4, "t")
    values = evolve(3.0 * rng.standard_normal((316, 316)), 25.0, rng)
    assert np.std(values) == pytest.approx(3.0, rel=0.02)


def test_shadowing_links_independent():
    a, b = evolve(np.zeros((2, 10_000)), 1e6, stream(5, "t"))
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.05


def test_shadowing_matrix_update_matches_scalar_model():
    # one row evolved matrix-wise must keep the stationary variance
    rng = stream(6, "t")
    values = 3.0 * rng.standard_normal((200, 200))
    for _ in range(30):
        LinkShadowing.evolve_matrix(values, np.full(200, 2.667), 3.0, 25.0, rng)
    assert np.std(values) == pytest.approx(3.0, rel=0.05)


def test_shadowing_update_in_place_matches_the_formula_bit_for_bit():
    """rho*s + sigma*sqrt(1-rho^2)*z as one expression, against the in-place update."""
    values = 3.0 * stream(7, "t").standard_normal((40, 40))
    delta = np.linspace(0.0, 60.0, 40)
    rng, ref_rng = stream(8, "t"), stream(8, "t")
    for _ in range(3):
        rho = np.exp(-np.abs(delta) / 25.0)[:, None]
        expected = rho * values + 3.0 * np.sqrt(1.0 - rho * rho) * ref_rng.standard_normal(
            values.shape)
        LinkShadowing.evolve_matrix(values, delta, 3.0, 25.0, rng)
        assert np.array_equal(values, expected)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_variance_semantics_switch():
    cfg = replace(PROP, shadowing_std_db=9.0, shadowing_is_variance=True)
    assert cfg.shadowing_sigma_db == pytest.approx(3.0)


# --- noise and SINR -----------------------------------------------------------

def test_noise_power_10mhz():
    assert noise_power_dbm(PROP) == pytest.approx(-98.0, abs=1e-9)


def test_noise_power_definition():
    cfg = replace(PROP, bandwidth_hz=1.0, noise_figure_db=0.0)
    assert noise_power_dbm(cfg) == pytest.approx(-174.0, abs=1e-12)


def test_noise_power_prb_grid():
    cfg = replace(PROP, bandwidth_hz=50 * 180e3, noise_figure_db=6.0)
    expected = -174.0 + 10 * math.log10(9e6) + 6.0  # -98.4576
    assert noise_power_dbm(cfg) == pytest.approx(expected, rel=1e-12)
    assert noise_power_dbm(cfg) == pytest.approx(-98.46, abs=5e-3)


def test_total_tx_power_23_dbm():
    assert PROP.tx_power_dbm == pytest.approx(23.0, abs=1e-12)


def engine_sinr(signal_dbm, interferers=(), noise_dbm=-98.0):
    """Linear SINR of one link as the engine's scorer computes it.

    The link runs from vehicle 0 to vehicle 1; `interferers` holds one
    (overlap share, received power dBm) pair per interfering frame. The
    noise figure is set so that the channel's noise power is noise_dbm.
    """
    setup = make_setup("11p", duration=1.0, warmup=0.0, vehicles=vehicle_pair(10.0))
    prop = replace(setup.propagation, noise_figure_db=noise_dbm + 104.0)
    assert noise_power_dbm(prop) == noise_dbm
    emitted = []
    sim = engine._RunBase(replace(setup, propagation=prop), emitted.append, None)
    k = len(interferers)
    hits = (np.zeros(k, dtype=np.intp), np.arange(k),
            np.array([share for share, _ in interferers], dtype=float))
    sources = np.array([[0.0, 10.0 ** (p / 10.0)] for _, p in interferers]).reshape(k, 2)
    sim._score(np.array([0]), np.zeros(1), np.array([[0.0, 10.0 ** (signal_dbm / 10.0)]]),
               sim.phy.code[[0]], np.zeros((1, 2), dtype=bool), hits, sources)
    (batch,) = emitted
    return float(batch.sinr[0])


def test_sinr_signal_equals_noise():
    assert engine_sinr(-98.0) == pytest.approx(1.0, rel=1e-12)


def test_sinr_interference_dominated():
    got = engine_sinr(-80.0, ((1.0, -80.0),), noise_dbm=-150.0)
    assert got == pytest.approx(1.0, rel=1e-4)


def test_sinr_mixed_terms_linear_domain():
    # independent oracle: straight linear-domain arithmetic
    s_mw, i_mw, n_mw = 10 ** -8.0, 10 ** -9.0, 10 ** -9.8
    expected = s_mw / (i_mw + n_mw)
    got = engine_sinr(-80.0, ((1.0, -90.0),))
    assert got == pytest.approx(expected, rel=1e-12)
    assert 10 * math.log10(got) == pytest.approx(9.361, abs=5e-4)


def test_sinr_monotone_in_interference():
    base = engine_sinr(-80.0, ((0.5, -90.0),))
    worse_power = engine_sinr(-80.0, ((0.5, -85.0),))
    worse_overlap = engine_sinr(-80.0, ((0.9, -90.0),))
    assert worse_power < base
    assert worse_overlap < base


def test_rx_power_link_budget():
    cfg = PROP
    d = 100.0
    expected = 23.0 + 6.0 - float(path_loss_db(d, cfg)) - 1.5
    assert rx_power_dbm(d, cfg, shadowing_db=1.5) == pytest.approx(expected, rel=1e-12)
