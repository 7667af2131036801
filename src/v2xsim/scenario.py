"""Road layouts, vehicle placement, constant-speed mobility, traffic timing.

The highway is a wrap-around strip by default so PRR-vs-distance statistics
see a homogeneous vehicle field. The urban layout is two perpendicular
streets meeting at the origin; it exists to classify links LOS/NLOS by
corner geometry, not to reproduce any particular map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .util import stream, streams

KMH_TO_MS = 1000.0 / 3600.0
ALL = slice(None)  # every vehicle


@dataclass(frozen=True)
class RoadConfig:
    layout: str  # highway | urban_grid
    lanes_per_direction: int
    lane_width_m: float
    road_length_m: float
    density_vpk: float
    mean_speed_kmh: float
    speed_std_kmh: float
    wrap_around: bool
    placement: str  # poisson | fixed_count
    # urban_grid only: half-width of the intersection box that still counts
    # as LOS for links on perpendicular streets
    corner_los_m: float

    def __post_init__(self):
        if self.road_length_m <= 0:
            raise ConfigError("road_length_m must be > 0")
        if self.density_vpk <= 0:
            raise ConfigError("density_vpk must be > 0")
        # a negative lane width mirrors the lanes, a negative corner_los_m hides corners
        for key in ("mean_speed_kmh", "speed_std_kmh", "lane_width_m", "corner_los_m"):
            if not getattr(self, key) >= 0:
                raise ConfigError(f"road.{key} must be >= 0")
        if self.layout not in ("highway", "urban_grid"):
            raise ConfigError(f"unknown layout {self.layout!r}")
        if self.lanes_per_direction < 1:
            raise ConfigError("lanes_per_direction must be >= 1")
        if self.placement not in ("poisson", "fixed_count"):
            raise ConfigError(f"unknown placement {self.placement!r}")


@dataclass(frozen=True)
class TrafficConfig:
    generation_period_ms: float

    def __post_init__(self):
        if self.generation_period_ms <= 0:
            raise ConfigError("generation_period_ms must be > 0")

    @property
    def period_s(self) -> float:
        return self.generation_period_ms * 1e-3


@dataclass
class VehicleState:
    id: int
    lane: int
    position_m: float
    speed_ms: float
    heading: int  # +1 forward, -1 backward along the street axis
    street: int = 0  # urban_grid: 0 = x-axis street, 1 = y-axis street


def spawn(road: RoadConfig, seed: int) -> list[VehicleState]:
    """Place vehicles at the configured density with Gaussian speeds.

    Per direction the count is Poisson (or the rounded expectation when
    placement is fixed_count); positions are uniform, lanes uniform, speeds
    truncated at three standard deviations.
    """
    rng = stream(seed, "spawn")
    length_km = road.road_length_m / 1000.0
    streets = (0, 1) if road.layout == "urban_grid" else (0,)
    per_street = road.density_vpk * length_km / len(streets)
    vehicles = []
    vid = 0
    for street in streets:
        if road.placement == "fixed_count":
            total = int(round(per_street))
            counts = (total - total // 2, total // 2)
        else:
            counts = (int(rng.poisson(per_street / 2.0)),
                      int(rng.poisson(per_street / 2.0)))
        for heading, n in zip((+1, -1), counts):
            positions = rng.uniform(0.0, road.road_length_m, size=n)
            lanes = rng.integers(0, road.lanes_per_direction, size=n)
            mean = road.mean_speed_kmh * KMH_TO_MS
            std = road.speed_std_kmh * KMH_TO_MS
            speeds = rng.normal(mean, std, size=n)
            speeds = np.clip(speeds, mean - 3 * std, mean + 3 * std)
            speeds = np.maximum(speeds, 0.0)
            for p, lane, v in zip(positions, lanes, speeds):
                vehicles.append(VehicleState(vid, int(lane), float(p), float(v),
                                             heading, street))
                vid += 1
    return vehicles


def generation_phase(vehicle_ids, seed: int, period_s: float) -> np.ndarray:
    """Fixed random phase in [0, period) of each vehicle id, one draw of its own stream."""
    return np.array([rng.uniform(0.0, period_s) for rng in streams(seed, "phase", vehicle_ids)])


class Geometry:
    """Vectorized positions and link geometry for one layout."""

    def __init__(self, road: RoadConfig, vehicles: list[VehicleState]):
        self.road = road
        self.n = len(vehicles)
        self.heading = np.array([v.heading for v in vehicles], dtype=float)
        self.speed = np.array([v.speed_ms for v in vehicles], dtype=float)
        self.street = np.array([v.street for v in vehicles], dtype=int)
        self.lane = np.array([v.lane for v in vehicles], dtype=int)
        self.pos = np.array([v.position_m for v in vehicles], dtype=float)
        self.traveled = np.zeros(self.n)
        # lateral offset from the street axis; opposite directions sit on
        # opposite sides, lane 0 innermost
        self.lateral = self.heading * (self.lane + 0.5) * road.lane_width_m

    def step(self, dt: float):
        self.pos = self.pos + self.speed * self.heading * dt
        if self.road.wrap_around:
            self.pos %= self.road.road_length_m
        self.traveled = self.traveled + self.speed * dt

    def _axis_delta(self, a: np.ndarray, rows: slice, cols: slice) -> np.ndarray:
        d = np.abs(a[rows, None] - a[None, cols])
        if self.road.wrap_around:
            d = np.minimum(d, self.road.road_length_m - d)
        return d

    def xy(self):
        """Planar coordinates: street 0 runs along x, street 1 along y."""
        centered = self.pos - 0.5 * self.road.road_length_m
        x = np.where(self.street == 0, centered, self.lateral)
        y = np.where(self.street == 0, self.lateral, centered)
        return x, y

    # Each link matrix below takes the block of transmitter `rows` against
    # receiver `cols` (vehicle index slices); by default all against all.
    # An element depends only on its vehicle pair, so a block equals the
    # same block of the full matrix bit for bit.

    def distance_matrix(self, rows: slice = ALL, cols: slice = ALL) -> np.ndarray:
        """Euclidean distance, as sqrt(dx^2 + dy^2) in place: within 1 ulp of `np.hypot`."""
        if self.road.layout == "highway":
            dx = self._axis_delta(self.pos, rows, cols)
            dy = self.lateral[rows, None] - self.lateral[None, cols]
        else:
            x, y = self.xy()
            dx = x[rows, None] - x[None, cols]
            dy = y[rows, None] - y[None, cols]
        dx *= dx
        dy *= dy
        dx += dy
        return np.sqrt(dx, out=dx)

    def los_matrix(self, rows: slice = ALL, cols: slice = ALL) -> np.ndarray:
        """True where a link is line-of-sight under the layout's geometry.

        Cross-street links are blocked by the corner unless one endpoint sits
        inside the intersection opening.
        """
        if self.road.layout == "highway":
            return np.ones((self.pos[rows].size, self.pos[cols].size), dtype=bool)
        same = self.street[rows, None] == self.street[None, cols]
        x, y = self.xy()
        along = np.where(self.street == 0, x, y)
        near_corner = np.abs(along) <= self.road.corner_los_m
        return same | near_corner[rows, None] | near_corner[None, cols]

    def propagation_distance_matrix(self, los: np.ndarray, d: np.ndarray,
                                    rows: slice = ALL, cols: slice = ALL) -> np.ndarray:
        """Euclidean `d` for LOS; around-the-corner (Manhattan) for NLOS links.

        `los` and `d` are this geometry's `los_matrix` and `distance_matrix`
        of the same block, which callers already hold.
        """
        if self.road.layout == "highway":
            return d
        x, y = self.xy()
        along = np.abs(np.where(self.street == 0, x, y))
        manhattan = along[rows, None] + along[None, cols]
        return np.where(los, d, np.maximum(manhattan, d))
