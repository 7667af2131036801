"""The channel refresh in row blocks against the full-matrix refresh it replaces.

`FullMatrixPhy` is the refresh as one (N, N) pass per term: distances,
LOS, propagation distance and path loss over every ordered pair, the
shadowing drawn or evolved as one matrix, then the link budget in dBm,
the power floor on the diagonal and the mW power, converted with the
engine's own `dbm_to_mw` (whose accuracy tests/test_channel.py bounds).
The engine's `_PhyCache` computes the symmetric terms once per pair in
row blocks and mirrors them, draws the shadowing block by block, and keeps no distance or dBm
matrix: per pair a link code. With any block size, on either layout, with
or without wrap-around, under either path-loss model, the shadowing and the
mW power must equal the reference's bit for bit, and the codes must follow
from its distances, after the first refresh and after every later one; both
must leave the shadowing stream in the same state. 802.11p carrier sense
compares the mW power with its decodable threshold in mW, so off the
diagonal that compare must agree with the reference's in dBm.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import built_setup, rx_power_dbm

from v2xsim import engine
from v2xsim.channel import LinkShadowing, PropagationConfig
from v2xsim.metrics import PrrSeries, uniform_bin_edges
from v2xsim.scenario import Geometry, VehicleState, spawn
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
            LinkShadowing.evolve_matrix(self.shadow_db, delta, prop.shadowing_sigma_db,
                                        prop.decorrelation_m, self.rng)
            self._last_traveled = geom.traveled.copy()
        los = geom.los_matrix()
        self.dist = geom.distance_matrix()
        pd = geom.propagation_distance_matrix(los, self.dist)
        self.power_dbm = rx_power_dbm(pd, prop, self.shadow_db, los=los)
        np.fill_diagonal(self.power_dbm, engine.POWER_FLOOR_DBM)
        self.power_mw = engine.dbm_to_mw(self.power_dbm)


def geometry(layout, wrap_around, vehicles, seed):
    """Two same-seed geometries of about `vehicles` vehicles on a 1 km road."""
    road = replace(built_setup().road, layout=layout, wrap_around=wrap_around,
                   road_length_m=ROAD_LENGTH_M,
                   density_vpk=vehicles / (ROAD_LENGTH_M / 1000.0),
                   mean_speed_kmh=90.0, speed_std_kmh=20.0, placement="fixed_count")
    placed = spawn(road, seed)
    return Geometry(road, placed), Geometry(road, placed)


def assert_codes_follow_the_distances(phy, dist, cfg):
    """The link codes decode to the scorer's rules over the distances: the
    pair is in range (never a vehicle with itself), its PRR bin, and
    whether it is inside the IPG range."""
    bins = PrrSeries(uniform_bin_edges(cfg.prr_max_distance_m, cfg.prr_bin_width_m))
    in_range = dist <= cfg.max_range_m
    np.fill_diagonal(in_range, False)
    code = phy.code
    assert np.array_equal(code >= 0, in_range)
    assert np.all(code[~in_range] == -1)
    assert np.array_equal((code >> 1)[in_range], bins.bin_of(dist[in_range]))
    assert np.array_equal((code & 1)[in_range] == 1, dist[in_range] <= cfg.ipg_range_m)


def assert_same_links(blocked, full, cfg, decodable_dbm):
    for name in ("shadow_db", "power_mw"):
        assert np.array_equal(getattr(blocked, name), getattr(full, name)), name
    assert_codes_follow_the_distances(blocked, full.dist, cfg)
    # `_Run11p` takes each frame's decodable stations from its mW row by this
    off_diagonal = ~np.eye(full.dist.shape[0], dtype=bool)
    threshold_mw = engine.dbm_to_mw(np.array([decodable_dbm]))[0]
    assert np.array_equal((blocked.power_mw >= threshold_mw)[off_diagonal],
                          (full.power_dbm >= decodable_dbm)[off_diagonal])


@settings(max_examples=100, deadline=None)
@given(layout=st.sampled_from(["highway", "urban_grid"]), wrap_around=st.booleans(),
       model=st.sampled_from(["winner_b1_los", "winner_b1_nlos"]),
       vehicles=st.integers(2, 300), seed=st.integers(0, 2**31 - 1),
       block_elements=st.integers(1, 2000), steps=st.integers(1, 4),
       step_s=st.sampled_from([0.01, 0.1, 1.0]),
       decodable_dbm=st.sampled_from([-85.0, -60.0]))
@example(layout="highway", wrap_around=True, model="winner_b1_los", vehicles=1, seed=1,
         block_elements=7, steps=2, step_s=0.1,
         decodable_dbm=-85.0)  # one vehicle; an empty road never refreshes
@example(layout="urban_grid", wrap_around=False, model="winner_b1_los", vehicles=2, seed=2,
         block_elements=1, steps=2, step_s=0.1, decodable_dbm=-85.0)  # one vehicle per street
@example(layout="highway", wrap_around=True, model="winner_b1_los", vehicles=300, seed=3,
         block_elements=1000, steps=3, step_s=0.1,
         decodable_dbm=-85.0)  # 3-row blocks, the last one 1 row
def test_block_refresh_matches_full_matrix_refresh(layout, wrap_around, model, vehicles,
                                                   seed, block_elements, steps, step_s,
                                                   decodable_dbm):
    geom, ref_geom = geometry(layout, wrap_around, vehicles, seed)
    prop = replace(built_setup().propagation, model=model)
    cfg = replace(built_setup().run, seed=seed)
    with mock.patch.object(engine, "REFRESH_BLOCK_ELEMENTS", block_elements):
        blocked = engine._PhyCache(geom, prop, cfg)
        full = FullMatrixPhy(ref_geom, prop, seed)
        assert_same_links(blocked, full, cfg, decodable_dbm)
        for _ in range(steps):
            geom.step(step_s)
            ref_geom.step(step_s)
            blocked.refresh()
            full.refresh()
            assert_same_links(blocked, full, cfg, decodable_dbm)
    assert blocked.rng.bit_generator.state == full.rng.bit_generator.state


def test_refresh_overwrites_the_buffers_in_place():
    geom, _ = geometry("highway", True, 50, seed=9)
    phy = engine._PhyCache(geom, built_setup().propagation, built_setup().run)
    buffers = [phy.code, phy.shadow_db, phy.power_mw]
    kept = phy.power_mw[3].copy()
    geom.step(1.0)
    phy.refresh()
    assert all(a is b for a, b in zip(buffers, [phy.code, phy.shadow_db, phy.power_mw]))
    assert not np.array_equal(phy.power_mw[3], kept)


@pytest.mark.parametrize("width_m, code_dtype", [
    (25.0, np.int8), (5.0, np.int16), (0.03, np.int32)])
def test_the_cache_holds_two_float64_link_buffers(width_m, code_dtype):
    """Shadowing and mW power; the only other per-pair buffer is the integer link code.

    The link codes take the smallest type that holds 2 * bins + 1 over 600 m:
    49 at the default 25 m bins, 241 at 5 m, 40 001 at 0.03 m.
    """
    geom, _ = geometry("highway", True, 40, seed=4)
    cfg = replace(built_setup().run, prr_bin_width_m=width_m)
    phy = engine._PhyCache(geom, built_setup().propagation, cfg)
    n = geom.n
    square = {name: a for name, a in vars(phy).items()
              if isinstance(a, np.ndarray) and a.ndim == 2}
    assert sorted(square) == ["code", "power_mw", "shadow_db"]
    assert all(a.shape == (n, n) for a in square.values())
    assert [name for name, a in sorted(square.items()) if a.dtype == np.float64] == [
        "power_mw", "shadow_db"]
    assert phy.code.dtype == code_dtype


def vehicles_at(positions):
    """Vehicles on lane 0 of one direction, at rest, at the given positions (m)."""
    return [VehicleState(i, 0, float(x), 0.0, +1) for i, x in enumerate(positions)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_link_codes_decode_to_the_distance_rules(data):
    """Vehicle 0 sits at 0 m on a 2 km ring; vehicles of its lane at 0 m + d
    are exactly d away, for d up to half the road. Some sit exactly on a PRR
    bin edge, on the IPG range and on the maximum range. A width of 0.03 m
    over 600 m makes 20 000 bins, so the codes are int32."""
    width = data.draw(st.sampled_from([0.03, 1.0, 25.0, 7.5]), label="prr_bin_width_m")
    ipg = data.draw(st.integers(1, 900), label="ipg_range_m")
    above = data.draw(st.booleans(), label="max range above the IPG range")
    max_range = data.draw(st.integers(ipg, 1000) if above else st.integers(1, ipg),
                          label="max_range_m")
    cfg = replace(built_setup().run, prr_bin_width_m=width, prr_max_distance_m=600.0,
                  ipg_range_m=float(ipg), max_range_m=float(max_range))
    edges = uniform_bin_edges(cfg.prr_max_distance_m, width)
    on_edge = data.draw(st.lists(st.sampled_from(edges.tolist()), min_size=1, max_size=4),
                        label="positions on a bin edge")
    elsewhere = data.draw(st.lists(st.integers(0, 1999), max_size=40), label="positions")
    positions = [0.0, float(ipg), float(max_range), *on_edge, *map(float, elsewhere)]
    road = replace(built_setup().road, layout="highway", wrap_around=True,
                   road_length_m=2000.0)
    geom = Geometry(road, vehicles_at(positions))
    block_elements = data.draw(st.integers(1, 500), label="block elements")
    with mock.patch.object(engine, "REFRESH_BLOCK_ELEMENTS", block_elements):
        phy = engine._PhyCache(geom, built_setup().propagation, cfg)
        assert_codes_follow_the_distances(phy, geom.distance_matrix(), cfg)
        geom.speed[:] = data.draw(st.floats(0.0, 40.0), label="speed")
        geom.step(0.1)
        phy.refresh()
        assert_codes_follow_the_distances(phy, geom.distance_matrix(), cfg)
