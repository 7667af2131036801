"""Vehicle placement, kinematics, generation timing, crossing geometry."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import built_setup, make_setup

from v2xsim.abstraction import StepFunction
from v2xsim.engine import TraceLog, run
from v2xsim.errors import ConfigError
from v2xsim.scenario import Geometry, VehicleState, generation_phase, spawn


def road(**kw):
    return replace(built_setup().road, **kw)


# --- spawn ---------------------------------------------------------------------

def test_expected_count_at_100_vpk():
    counts = [len(spawn(road(), seed)) for seed in range(40)]
    assert np.mean(counts) == pytest.approx(200, rel=0.05)


def test_expected_count_at_400_vpk():
    counts = [len(spawn(road(density_vpk=400.0, mean_speed_kmh=56.0), seed))
              for seed in range(20)]
    assert np.mean(counts) == pytest.approx(800, rel=0.05)


def test_fixed_count_single_vehicle():
    cfg = road(road_length_m=1000.0, density_vpk=1.0, lanes_per_direction=1,
               placement="fixed_count")
    vehicles = spawn(cfg, seed=3)
    assert len(vehicles) == 1
    assert 0.0 <= vehicles[0].position_m < 1000.0


def test_fixed_count_exact():
    cfg = road(placement="fixed_count")
    assert len(spawn(cfg, seed=1)) == 200


def test_speeds_truncated_at_three_sigma():
    cfg = road(mean_speed_kmh=96.0, speed_std_kmh=3.0)
    speeds = np.array([v.speed_ms for v in spawn(cfg, seed=2)]) * 3.6
    assert np.all(speeds >= 96.0 - 9.0 - 1e-9)
    assert np.all(speeds <= 96.0 + 9.0 + 1e-9)


def test_spawn_rejects_bad_road():
    with pytest.raises(ConfigError):
        road(road_length_m=0.0)


# --- mobility --------------------------------------------------------------------

def test_advance_converts_kmh():
    geom = Geometry(road(), [VehicleState(0, 0, 100.0, 96.0 / 3.6, +1)])
    geom.step(0.1)
    assert geom.pos[0] == pytest.approx(100.0 + 2.667, abs=1e-3)


def test_advance_zero_dt_identity():
    geom = Geometry(road(), [VehicleState(0, 0, 123.456, 26.0, +1)])
    geom.step(0.0)
    assert geom.pos[0] == 123.456


def test_advance_wraps():
    geom = Geometry(road(road_length_m=500.0), [VehicleState(0, 0, 499.0, 20.0, +1)])
    geom.step(0.1)
    assert geom.pos[0] == pytest.approx(1.0, abs=1e-9)


def test_wrap_conserves_count_and_range():
    cfg = road(road_length_m=1000.0)
    geom = Geometry(cfg, spawn(cfg, seed=5))
    n = geom.n
    for _ in range(100):
        geom.step(0.1)
    assert geom.n == n == geom.pos.size
    assert np.all((geom.pos >= 0.0) & (geom.pos < 1000.0))


# --- generation timing --------------------------------------------------------------

def test_generation_grid_is_periodic():
    period = 0.1
    (phase,) = generation_phase([0], seed=1, period_s=period)
    assert 0.0 <= phase < period
    # a lone 802.11p station always finds the medium idle, so each of its
    # frames starts one AIFS after the generation that queued it
    trace = TraceLog()
    setup = make_setup("11p", seed=1, duration=0.35, warmup=0.0,
                       vehicles=[VehicleState(0, 0, 100.0, 0.0, +1)])
    run(setup, StepFunction(1.0, 0.5), trace=trace)
    t1, t2, t3 = (t - setup.run.theta.t_aifs_s for t, _, _ in trace.tx_starts[:3])
    assert t1 == pytest.approx(phase)
    assert t2 - t1 == pytest.approx(period)
    assert t3 - t2 == pytest.approx(period)


def test_distinct_vehicles_distinct_phases():
    phases = set(np.round(generation_phase(np.arange(100), 1, 0.1), 12).tolist())
    assert len(phases) == 100


def test_phase_distribution_uniform():
    n = 10_000
    phases = np.sort(generation_phase(np.arange(n), 3, 0.1)) / 0.1
    ecdf = np.arange(1, n + 1) / n
    ks = np.max(np.abs(ecdf - phases))
    assert ks < 1.63 / math.sqrt(n)  # KS critical value at p = 0.01


# --- geometry -------------------------------------------------------------------------

def test_highway_distance_wraps():
    cfg = road(road_length_m=1000.0)
    vehicles = [VehicleState(0, 0, 10.0, 0.0, +1),
                VehicleState(1, 0, 990.0, 0.0, +1)]
    geom = Geometry(cfg, vehicles)
    assert geom.distance_matrix()[0, 1] == pytest.approx(20.0)


def test_highway_lateral_offsets():
    cfg = road(lane_width_m=4.0)
    vehicles = [VehicleState(0, 0, 100.0, 0.0, +1),
                VehicleState(1, 0, 100.0, 0.0, -1)]
    geom = Geometry(cfg, vehicles)
    # lane 0 in each direction sits 2 m either side of the axis
    assert geom.distance_matrix()[0, 1] == pytest.approx(4.0)


def test_highway_all_los():
    cfg = road()
    geom = Geometry(cfg, spawn(cfg, seed=1))
    assert geom.los_matrix().all()


def urban(**kw):
    return road(layout="urban_grid", road_length_m=1000.0, corner_los_m=8.0, **kw)


def test_urban_same_street_is_los():
    cfg = urban()
    vehicles = [VehicleState(0, 0, 100.0, 0.0, +1, street=0),
                VehicleState(1, 0, 900.0, 0.0, +1, street=0)]
    assert Geometry(cfg, vehicles).los_matrix()[0, 1]


def test_urban_cross_street_far_from_corner_is_nlos():
    cfg = urban()
    vehicles = [VehicleState(0, 0, 100.0, 0.0, +1, street=0),
                VehicleState(1, 0, 100.0, 0.0, +1, street=1)]
    geom = Geometry(cfg, vehicles)
    los = geom.los_matrix()
    assert not los[0, 1]
    # around-the-corner path is at least as long as the euclidean one
    prop = geom.propagation_distance_matrix(los, geom.distance_matrix())
    assert prop[0, 1] >= geom.distance_matrix()[0, 1]
    assert prop[0, 1] == pytest.approx(400.0 + 400.0)


def test_urban_near_corner_is_los():
    cfg = urban()
    vehicles = [VehicleState(0, 0, 505.0, 0.0, +1, street=0),
                VehicleState(1, 0, 300.0, 0.0, +1, street=1)]
    assert Geometry(cfg, vehicles).los_matrix()[0, 1]
