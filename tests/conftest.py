import os

import numpy as np
import pytest

from v2xsim.abstraction import StepFunction, threshold_from_curve
from v2xsim.cli import load_curve_csv
from v2xsim.engine import RunConfig, SimulationSetup, run
from v2xsim.metrics import PrrSeries
from v2xsim.scenario import RoadConfig, TrafficConfig, VehicleState
from v2xsim.settings import CV2xSettings, Ieee80211pSettings

CURVE_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "v2xsim",
                         "data", "curves")


def curve_path(name: str) -> str:
    return os.path.join(CURVE_DIR, name)


@pytest.fixture(scope="session")
def curve_11p():
    return load_curve_csv(curve_path("highway_los_11p_mcs2_350B.csv"))


@pytest.fixture(scope="session")
def curve_cv2x():
    return load_curve_csv(curve_path("highway_los_cv2x_mcs7_350B.csv"))


def default_theta(tech: str):
    if tech == "11p":
        return Ieee80211pSettings(payload_bytes=350)
    return CV2xSettings(payload_bytes=350)


def make_setup(tech: str, *, seed=1, duration=10.0,
               warmup=1.0, density=100.0, speed=96.0, road_length=2000.0,
               vehicles=None, max_prr_distance=600.0, **run_kwargs) -> SimulationSetup:
    return SimulationSetup(
        run=RunConfig(seed=seed, sim_duration_s=duration, warmup_s=warmup,
                      theta=default_theta(tech),
                      prr_max_distance_m=max_prr_distance,
                      **run_kwargs),
        road=RoadConfig(road_length_m=road_length, density_vpk=density,
                        mean_speed_kmh=speed),
        traffic=TrafficConfig(),
        vehicles=vehicles,
    )


def step_model(curve, beta=0.5) -> StepFunction:
    return threshold_from_curve(curve, beta)


def vehicle_pair(distance_m: float, speed_ms: float = 0.0):
    """Two same-direction vehicles a fixed distance apart, lane 0."""
    return [
        VehicleState(id=0, lane=0, position_m=500.0, speed_ms=speed_ms, heading=1),
        VehicleState(id=1, lane=0, position_m=500.0 + distance_m,
                     speed_ms=speed_ms, heading=1),
    ]


def prr_curve(prr):
    """(bin_center, ratio) pairs of a PRR series; bins with zero opportunities are omitted."""
    centers = 0.5 * (prr.bin_edges[:-1] + prr.bin_edges[1:])
    return [(float(c), r / n) for c, r, n in zip(centers, prr.received, prr.opportunities)
            if n > 0]


def merge(a, b):
    """The PRR series holding the tallies of both; their bins must match."""
    assert np.array_equal(a.bin_edges, b.bin_edges)
    return PrrSeries(a.bin_edges, a.received + b.received,
                     a.opportunities + b.opportunities)


def assert_same_store(a, b):
    """Two metric stores hold the same counters, PRR bins and IPG gaps, in order."""
    for name in ("generated", "transmitted", "opportunities", "received_total",
                 "lost_sinr", "lost_half_duplex"):
        assert getattr(a, name) == getattr(b, name), name
    np.testing.assert_array_equal(a.prr.opportunities, b.prr.opportunities)
    np.testing.assert_array_equal(a.prr.received, b.prr.received)
    assert a.ipg.gaps.dtype == b.ipg.gaps.dtype == np.float64
    np.testing.assert_array_equal(a.ipg.gaps, b.ipg.gaps)


class RunBank:
    """Memoized simulation runs shared across acceptance tests."""

    def __init__(self):
        self._cache = {}

    def get(self, key, factory):
        if key not in self._cache:
            self._cache[key] = factory()
        return self._cache[key]


@pytest.fixture(scope="session")
def run_bank():
    return RunBank()


__all__ = ["make_setup", "step_model", "vehicle_pair", "run",
           "curve_path", "assert_same_store", "prr_curve", "merge"]
