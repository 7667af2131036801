"""Link budget pieces: path loss, shadowing process, noise, SINR arithmetic."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_setup, vehicle_pair

from v2xsim import engine
from v2xsim.channel import (LinkShadowing, PropagationConfig, WinnerCoefficients,
                            noise_power_dbm, path_loss_db, rx_power_dbm,
                            winner_formula_db)
from v2xsim.util import stream


def test_los_formula_literal_at_100m():
    # configured single-slope term, evaluated directly (no free-space clamp)
    got = winner_formula_db(100.0, a=22.7, b=27.0, c=20.0, carrier_hz=5.9e9)
    assert got == pytest.approx(22.7 * 2 + 27.0 + 20 * math.log10(5.9 / 5), rel=1e-12)


def test_los_formula_intercept_at_1m():
    cfg = PropagationConfig()
    co = cfg.coefficients
    got = winner_formula_db(1.0, co.los_a, co.los_b, co.los_c, cfg.carrier_hz)
    assert got == pytest.approx(co.los_b + co.los_c * math.log10(5.9 / 5), rel=1e-12)


def test_path_loss_nlos_dominates_los():
    cfg = PropagationConfig()
    d = np.linspace(10.0, 1000.0, 400)
    los = path_loss_db(d, cfg, los=True)
    nlos = path_loss_db(d, cfg, los=False)
    assert np.all(nlos >= los)


def test_nlos_model_puts_every_link_on_the_nlos_branch():
    los_model, nlos_model = PropagationConfig(), PropagationConfig(model="winner_b1_nlos")
    d = np.linspace(10.0, 1000.0, 50)
    los = np.arange(50) % 3 > 0
    nlos_branch = path_loss_db(d, los_model, los=False)
    np.testing.assert_array_equal(path_loss_db(d, nlos_model, los=los), nlos_branch)
    np.testing.assert_array_equal(path_loss_db(d, nlos_model), nlos_branch)
    assert not np.array_equal(path_loss_db(d, los_model, los=los), nlos_branch)


def test_path_loss_monotone_in_distance():
    cfg = PropagationConfig()
    d = np.linspace(1.0, 2000.0, 1500)
    for los in (True, False):
        loss = path_loss_db(d, cfg, los=los)
        assert np.all(np.diff(loss) >= -1e-9)


def test_path_loss_clamped_by_free_space():
    cfg = PropagationConfig(coefficients=WinnerCoefficients(los_b=10.0))
    d = np.array([10.0, 100.0, 500.0])
    free_space = 20.0 * np.log10(4.0 * math.pi * d * cfg.carrier_hz / 299792458.0)
    assert np.all(path_loss_db(d, cfg, los=True) >= free_space)


def test_path_loss_floors_distance_at_1m():
    cfg = PropagationConfig()
    assert path_loss_db(-5.0, cfg) == path_loss_db(1.0, cfg)
    assert path_loss_db(0.0, cfg) == path_loss_db(1.0, cfg)


def test_dual_slope_continuous_at_breakpoint():
    cfg = PropagationConfig()
    bp = cfg.breakpoint_m
    below = float(path_loss_db(bp * 0.999, cfg, los=True))
    above = float(path_loss_db(bp * 1.001, cfg, los=True))
    assert above == pytest.approx(below, abs=0.05)


# --- shadowing ---------------------------------------------------------------

def evolve(values, delta_m, rng):
    """The engine's shadowing update, every transmitter displaced by delta_m."""
    return LinkShadowing.evolve_matrix(values, np.full(values.shape[0], delta_m),
                                       3.0, 25.0, rng)


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
        values = LinkShadowing.evolve_matrix(values, np.full(200, 2.667), 3.0, 25.0, rng)
    assert np.std(values) == pytest.approx(3.0, rel=0.05)


def test_variance_semantics_switch():
    cfg = PropagationConfig(shadowing_std_db=9.0, shadowing_is_variance=True)
    assert cfg.shadowing_sigma_db == pytest.approx(3.0)


# --- noise and SINR -----------------------------------------------------------

def test_noise_power_10mhz():
    assert noise_power_dbm(PropagationConfig()) == pytest.approx(-98.0, abs=1e-9)


def test_noise_power_definition():
    cfg = PropagationConfig(bandwidth_hz=1.0, noise_figure_db=0.0)
    assert noise_power_dbm(cfg) == pytest.approx(-174.0, abs=1e-12)


def test_noise_power_prb_grid():
    cfg = PropagationConfig(bandwidth_hz=50 * 180e3, noise_figure_db=6.0)
    expected = -174.0 + 10 * math.log10(9e6) + 6.0  # -98.4576
    assert noise_power_dbm(cfg) == pytest.approx(expected, rel=1e-12)
    assert noise_power_dbm(cfg) == pytest.approx(-98.46, abs=5e-3)


def test_total_tx_power_23_dbm():
    assert PropagationConfig().tx_power_dbm == pytest.approx(23.0, abs=1e-12)


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
    sim._score(np.array([0]), np.zeros(1), np.full(1, 1e-3),
               np.array([[0.0, 10.0 ** (signal_dbm / 10.0)]]), np.array([[0.0, 10.0]]),
               np.zeros((1, 2), dtype=bool), hits, sources)
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
    cfg = PropagationConfig()
    d = 100.0
    expected = 23.0 + 6.0 - float(path_loss_db(d, cfg)) - 1.5
    assert rx_power_dbm(d, cfg, shadowing_db=1.5) == pytest.approx(expected, rel=1e-12)
