"""The channel refresh in row blocks against the full-matrix refresh it replaces.

`FullMatrixPhy` is the refresh as one (N, N) pass per term: distances,
LOS, propagation distance and path loss over every ordered pair, the
shadowing drawn or evolved as one matrix, then the link budget, the power
floor on the diagonal and the mW power. The engine's `_PhyCache` computes
the symmetric terms once per pair in row blocks and mirrors them, and
draws the shadowing block by block; with any block size, on either layout,
with or without wrap-around, under either path-loss model, both must hold the same arrays bit for bit
after the first refresh and after every later one, and leave the
shadowing stream in the same state.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import built_setup, rx_power_dbm

from v2xsim import engine
from v2xsim.channel import LinkShadowing, PropagationConfig
from v2xsim.scenario import Geometry, spawn
from v2xsim.util import stream

ROAD_LENGTH_M = 1000.0


class FullMatrixPhy:
    """Reference refresh: every term over the full (N, N) matrix."""

    def __init__(self, geom: Geometry, prop: PropagationConfig, seed: int):
        self.geom, self.prop = geom, prop
        self.rng = stream(seed, "shadowing")
        n = geom.n
        self.shadow_db = prop.shadowing_sigma_db * self.rng.standard_normal((n, n))
        self._last_traveled = geom.traveled.copy()
        self.refresh(first=True)

    def refresh(self, first=False):
        geom, prop = self.geom, self.prop
        if not first:
            delta = geom.traveled - self._last_traveled
            self.shadow_db = LinkShadowing.evolve_matrix(
                self.shadow_db, delta, prop.shadowing_sigma_db, prop.decorrelation_m,
                self.rng)
            self._last_traveled = geom.traveled.copy()
        los = geom.los_matrix()
        self.dist = geom.distance_matrix()
        pd = geom.propagation_distance_matrix(los, self.dist)
        self.power_dbm = rx_power_dbm(pd, prop, self.shadow_db, los=los)
        np.fill_diagonal(self.power_dbm, engine.POWER_FLOOR_DBM)
        self.power_mw = 10.0 ** (self.power_dbm / 10.0)


def geometry(layout, wrap_around, vehicles, seed):
    """Two same-seed geometries of about `vehicles` vehicles on a 1 km road."""
    road = replace(built_setup().road, layout=layout, wrap_around=wrap_around,
                   road_length_m=ROAD_LENGTH_M,
                   density_vpk=vehicles / (ROAD_LENGTH_M / 1000.0),
                   mean_speed_kmh=90.0, speed_std_kmh=20.0, placement="fixed_count")
    placed = spawn(road, seed)
    return Geometry(road, placed), Geometry(road, placed)


def assert_same_links(blocked, full):
    for name in ("dist", "shadow_db", "power_dbm", "power_mw"):
        assert np.array_equal(getattr(blocked, name), getattr(full, name)), name


@settings(max_examples=100, deadline=None)
@given(layout=st.sampled_from(["highway", "urban_grid"]), wrap_around=st.booleans(),
       model=st.sampled_from(["winner_b1_los", "winner_b1_nlos"]),
       vehicles=st.integers(2, 300), seed=st.integers(0, 2**31 - 1),
       block_elements=st.integers(1, 2000), steps=st.integers(1, 4),
       step_s=st.sampled_from([0.01, 0.1, 1.0]))
@example(layout="highway", wrap_around=True, model="winner_b1_los", vehicles=1, seed=1,
         block_elements=7, steps=2, step_s=0.1)  # one vehicle; an empty road never refreshes
@example(layout="urban_grid", wrap_around=False, model="winner_b1_los", vehicles=2, seed=2,
         block_elements=1, steps=2, step_s=0.1)  # one vehicle per street
@example(layout="highway", wrap_around=True, model="winner_b1_los", vehicles=300, seed=3,
         block_elements=1000, steps=3, step_s=0.1)  # 3-row blocks, the last one 1 row
def test_block_refresh_matches_full_matrix_refresh(layout, wrap_around, model, vehicles,
                                                   seed, block_elements, steps, step_s):
    geom, ref_geom = geometry(layout, wrap_around, vehicles, seed)
    prop = replace(built_setup().propagation, model=model)
    with mock.patch.object(engine, "REFRESH_BLOCK_ELEMENTS", block_elements):
        blocked = engine._PhyCache(geom, prop, seed)
        full = FullMatrixPhy(ref_geom, prop, seed)
        assert_same_links(blocked, full)
        for _ in range(steps):
            geom.step(step_s)
            ref_geom.step(step_s)
            blocked.refresh()
            full.refresh()
            assert_same_links(blocked, full)
    assert blocked.rng.bit_generator.state == full.rng.bit_generator.state


def test_refresh_overwrites_the_buffers_in_place():
    geom, _ = geometry("highway", True, 50, seed=9)
    phy = engine._PhyCache(geom, built_setup().propagation, 9)
    buffers = [phy.dist, phy.shadow_db, phy.power_dbm, phy.power_mw]
    kept = phy.power_mw[3].copy()
    geom.step(1.0)
    phy.refresh()
    assert all(a is b for a, b in zip(buffers, [phy.dist, phy.shadow_db, phy.power_dbm,
                                                phy.power_mw]))
    assert not np.array_equal(phy.power_mw[3], kept)
